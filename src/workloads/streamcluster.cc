/**
 * @file
 * Streamcluster (PARSECSs): online clustering with fork-join rounds.
 * Every round, the master re-evaluates candidate centers sequentially
 * (the parallel-region prologue) and forks one task per point block;
 * each task reads the shared center set and its block and writes a
 * private gain/assignment buffer. A barrier ends the round.
 *
 * Granularity = points per task. Table II: 256 points/task -> 64 tasks
 * per round x 658 rounds = 42112 tasks of ~376 us.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned totalPoints = 16384;
constexpr unsigned rounds = 658;
constexpr double cyclesPerPoint = 2937.5; ///< k-median gain evaluation
constexpr double prologueUs = 290.0;      ///< serial center selection
constexpr double bytesPerPoint = 512.0;
} // namespace

rt::TaskGraph
buildStreamcluster(const WorkloadParams &p)
{
    unsigned pts = static_cast<unsigned>(p.granularity);
    if (pts == 0 || totalPoints % pts != 0)
        sim::fatal("streamcluster: points per task must divide ",
                   totalPoints);
    unsigned tasks_per_round = totalPoints / pts;

    rt::TaskGraph g("streamcluster");
    g.swDepCostFactor = 4.5; // per-point multidep registration

    rt::RegionId centers = g.addRegion(128 * 1024);
    std::vector<rt::RegionId> block(tasks_per_round);
    std::vector<rt::RegionId> local(tasks_per_round);
    for (unsigned t = 0; t < tasks_per_round; ++t) {
        block[t] = g.addRegion(static_cast<std::uint64_t>(
            pts * bytesPerPoint));
        local[t] = g.addRegion(4 * 1024);
    }

    double task_cycles = static_cast<double>(pts) * cyclesPerPoint;
    std::uint64_t key = 0;
    for (unsigned r = 0; r < rounds; ++r) {
        g.beginParallel(sim::usToTicks(prologueUs));
        for (unsigned t = 0; t < tasks_per_round; ++t) {
            g.createTask(noisyCycles(task_cycles, p.seed, ++key,
                                     p.durationNoise), 0);
            g.dep(centers, rt::DepDir::In);
            g.dep(block[t], rt::DepDir::In);
            g.dep(local[t], rt::DepDir::Out);
        }
    }
    return g;
}

} // namespace tdm::wl
