/**
 * @file
 * JSON export of campaign results: one document per run, with campaign
 * totals (wall clock, cache hits) and the full per-job metric set, for
 * downstream plotting/analysis pipelines.
 */

#ifndef TDM_DRIVER_REPORT_JSON_WRITER_HH
#define TDM_DRIVER_REPORT_JSON_WRITER_HH

#include <ostream>
#include <vector>

#include "driver/campaign/engine.hh"

namespace tdm::driver::report {

/** Write several campaigns as one {"campaigns": [...]} document. */
void writeJson(std::ostream &os,
               const std::vector<campaign::CampaignResult> &campaigns);

/** Convenience: a single campaign. */
void writeJson(std::ostream &os, const campaign::CampaignResult &c);

/** JSON-escape @p s (without surrounding quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Write @p v as a JSON number: finite doubles round-trip bit-exactly
 * (17 significant digits); non-finite values render as null. The one
 * formatter shared by the file export and the service protocol, so a
 * metric serializes to identical bytes on every path.
 */
void jsonNumber(std::ostream &os, double v);

/**
 * Write @p s's headline field @p f as a JSON value: flags as
 * true/false, counts as exact integers, reals through jsonNumber.
 * Shared by the file export, the wire and the dashboard.
 */
void jsonHeadline(std::ostream &os, const RunSummary &s,
                  const HeadlineField &f);

} // namespace tdm::driver::report

#endif // TDM_DRIVER_REPORT_JSON_WRITER_HH
