/**
 * @file
 * Workload generators: analytic task-graph builders for the paper's
 * nine benchmarks (Section IV-B).
 *
 * Each builder reproduces the benchmark's parallelization strategy,
 * dependence structure, task counts and task durations (Table II) at a
 * configurable granularity (Figure 6's sweep axis). Durations carry a
 * small deterministic multiplicative noise so scheduling effects such
 * as load imbalance are visible.
 */

#ifndef TDM_WORKLOADS_WORKLOAD_HH
#define TDM_WORKLOADS_WORKLOAD_HH

#include <string>
#include <vector>

#include "runtime/task_graph.hh"
#include "sim/types.hh"

namespace tdm::wl {

/** Parameters common to all workload builders. */
struct WorkloadParams
{
    /**
     * Task granularity in the benchmark's own unit (block bytes,
     * partitions, points per task, ...). 0 selects the runtime's
     * Table II optimum; spec::normalized resolves it for every
     * experiment, so a canonical spec carries the granularity it runs.
     * buildWorkload resolves a 0 left here to the software optimum; a
     * builder called directly needs an explicit value.
     */
    double granularity = 0.0;

    /** Seed for the deterministic duration noise. */
    std::uint64_t seed = 1;

    /** Relative sigma of task-duration noise. */
    double durationNoise = 0.05;
};

/** Builder function type. */
using BuilderFn = rt::TaskGraph (*)(const WorkloadParams &);

/** Static description of one benchmark. */
struct WorkloadInfo
{
    std::string name;        ///< full name ("cholesky")
    std::string shortName;   ///< figure label ("cho")
    std::string granUnit;    ///< unit of the granularity axis
    std::vector<double> granSweep; ///< Figure 6 sweep values
    double swGranularity = 0.0;  ///< SW-optimal granularity (Table II)
    double tdmGranularity = 0.0; ///< TDM-optimal granularity (Table II)
    BuilderFn build = nullptr; ///< expects a resolved granularity
                               ///< (see buildWorkload)
};

/** Deterministically noisy task duration in cycles. */
sim::Tick noisyCycles(double base_cycles, std::uint64_t seed,
                      std::uint64_t key, double sigma);

// Builders (one per benchmark).
rt::TaskGraph buildBlackscholes(const WorkloadParams &params);
rt::TaskGraph buildCholesky(const WorkloadParams &params);
rt::TaskGraph buildDedup(const WorkloadParams &params);
rt::TaskGraph buildFerret(const WorkloadParams &params);
rt::TaskGraph buildFluidanimate(const WorkloadParams &params);
rt::TaskGraph buildHistogram(const WorkloadParams &params);
rt::TaskGraph buildLu(const WorkloadParams &params);
rt::TaskGraph buildQr(const WorkloadParams &params);
rt::TaskGraph buildStreamcluster(const WorkloadParams &params);

} // namespace tdm::wl

#endif // TDM_WORKLOADS_WORKLOAD_HH
