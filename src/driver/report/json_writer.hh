/**
 * @file
 * JSON export of campaign results: one document per run, with campaign
 * totals (wall clock, cache hits) and the full per-job metric set, for
 * downstream plotting/analysis pipelines.
 */

#ifndef TDM_DRIVER_REPORT_JSON_WRITER_HH
#define TDM_DRIVER_REPORT_JSON_WRITER_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/report/format.hh"

namespace tdm::driver::report {

/** Write several campaigns as one {"campaigns": [...]} document. */
void writeJson(std::ostream &os,
               const std::vector<campaign::CampaignResult> &campaigns);

/** Convenience: a single campaign. */
void writeJson(std::ostream &os, const campaign::CampaignResult &c);

/**
 * Write @p s's headline field @p f as a JSON value: flags as
 * true/false, counts as exact integers, reals as JsonReal. Shared by
 * the file export, the wire and the dashboard.
 */
void jsonHeadline(Text &os, const RunSummary &s, const HeadlineField &f);

} // namespace tdm::driver::report

#endif // TDM_DRIVER_REPORT_JSON_WRITER_HH
