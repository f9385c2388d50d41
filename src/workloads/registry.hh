/**
 * @file
 * Registry of the nine benchmarks, in the paper's figure order.
 */

#ifndef TDM_WORKLOADS_REGISTRY_HH
#define TDM_WORKLOADS_REGISTRY_HH

#include "workloads/workload.hh"

namespace tdm::wl {

/** All benchmarks: bla, cho, ded, fer, flu, hist, LU, QR, str. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Find by full or short name; fatal if unknown. */
const WorkloadInfo &findWorkload(const std::string &name);

/** Build a benchmark's graph by name. A 0 granularity builds the
 *  SW-optimal size (experiments arrive resolved: spec::normalized
 *  writes in the runtime's optimum); a negative or NaN one is fatal.
 *  Builders read params.granularity as given. */
rt::TaskGraph buildWorkload(const std::string &name,
                            const WorkloadParams &params = {});

} // namespace tdm::wl

#endif // TDM_WORKLOADS_REGISTRY_HH
