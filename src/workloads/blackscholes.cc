/**
 * @file
 * Blackscholes (PARSECSs): fork-join option pricing.
 *
 * The option array is split into independent slices; each time-step run
 * re-prices every slice, and a slice's task for run r depends (inout)
 * on the same slice's task for run r-1. The result is S independent
 * chains of R dependent tasks (Section VI-A describes the 64-chain
 * configuration). Granularity = slice size in KB: smaller slices mean
 * more, shorter chains.
 *
 * Table II: SW optimal 4 KB slices -> 64 chains x 51 runs = 3264 tasks
 * of ~1770 us; TDM optimal 2 KB -> 128 chains, ~823 us tasks.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr double totalKB = 256.0;      ///< option array size
constexpr int numRuns = 51;            ///< pricing iterations
constexpr double cyclesPerKB = 885000; ///< per-task work per slice KB
} // namespace

rt::TaskGraph
buildBlackscholes(const WorkloadParams &p)
{
    double slice_kb = p.granularity;
    unsigned chains = static_cast<unsigned>(totalKB / slice_kb);
    if (chains < 1)
        sim::fatal("blackscholes: slice larger than the option array");

    rt::TaskGraph g("blackscholes");
    g.swDepCostFactor = 1.0;

    std::vector<rt::RegionId> slice(chains);
    for (unsigned c = 0; c < chains; ++c)
        slice[c] = g.addRegion(static_cast<std::uint64_t>(
            slice_kb * 1024.0));

    g.beginParallel(sim::usToTicks(50.0));
    double base = slice_kb * cyclesPerKB;
    // Run-major creation order: the master sweeps all slices each run,
    // exactly like the annotated source loop.
    for (int r = 0; r < numRuns; ++r) {
        for (unsigned c = 0; c < chains; ++c) {
            std::uint64_t key = static_cast<std::uint64_t>(r) * chains + c;
            g.createTask(noisyCycles(base, p.seed, key, p.durationNoise),
                         /*kernel=*/0);
            g.dep(slice[c], rt::DepDir::InOut);
        }
    }
    return g;
}

} // namespace tdm::wl
