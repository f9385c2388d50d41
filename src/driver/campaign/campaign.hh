/**
 * @file
 * Named experiment campaigns.
 *
 * A Campaign is a named, ordered set of sweep points — typically all
 * the runs behind one paper figure or ablation. The built-in ones are
 * looked up by name (e.g. "fig12") so the campaign_run CLI and the
 * bench binaries can build and execute them on the campaign engine.
 */

#ifndef TDM_DRIVER_CAMPAIGN_CAMPAIGN_HH
#define TDM_DRIVER_CAMPAIGN_CAMPAIGN_HH

#include <string>
#include <vector>

#include "driver/sweep.hh"

namespace tdm::driver::campaign {

/** A named, ordered set of experiment points. */
struct Campaign
{
    std::string name;
    std::string description;
    std::vector<SweepPoint> points;

    /**
     * Spec-grid label template the points were rendered from, when the
     * campaign came from one ("{workload}/{runtime}/{scheduler}");
     * lets consumers re-render labels after mutating a point's
     * experiment (campaign_run --set) so labels never lie. Empty for
     * hand-assembled point lists.
     */
    std::string labelTemplate;

    /**
     * Comma-separated metric-key globs selecting the subtree each
     * point exports ("dmu.*,mesh.*"); empty exports the full tree.
     * Set by the `metrics` directive of *.campaign files and
     * overridden by campaign_run --metrics.
     */
    std::string metrics;
};

/** Built-in campaign names, sorted, with their descriptions. */
std::vector<std::pair<std::string, std::string>> campaignList();

/** Whether @p name is a built-in campaign. */
bool hasCampaign(const std::string &name);

/** Point count of @p name from its grid's axis sizes, so listing
 *  never expands the points; fatal if unknown. */
std::size_t campaignPointCount(const std::string &name);

/** Build the built-in campaign @p name; fatal if unknown, naming the
 *  closest built-in campaigns. */
Campaign makeCampaign(const std::string &name);

/**
 * Standard "workload/runtime/scheduler" point label used by the
 * built-in campaigns and their consumers.
 */
std::string pointLabel(const std::string &workload,
                       const std::string &runtime,
                       const std::string &scheduler);

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_CAMPAIGN_HH
