/**
 * @file
 * Fluidanimate (PARSECSs): 3D SPH fluid simulation, parallelized as a
 * stencil over spatial partitions. Each frame runs 8 phases (rebuild
 * grid, compute densities, compute forces, ...); a partition's task in
 * phase k updates its own cell block (inout) and reads its neighbor
 * partitions (in), which were last written in the previous phase.
 *
 * Granularity = number of partitions of the 3D volume (Figure 6 sweeps
 * 256/128/64/32). Table II: 64 partitions x 8 phases x 5 frames = 2560
 * tasks of ~1.8 ms.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned frames = 5;
constexpr unsigned phasesPerFrame = 8;
constexpr double totalCellsWorkUs = 115500.0; ///< one phase, whole volume
// Relative weight of each phase.
constexpr double phaseWeight[phasesPerFrame] = {0.6, 0.8, 1.6, 1.4,
                                                1.2, 0.9, 0.8, 0.7};
} // namespace

rt::TaskGraph
buildFluidanimate(const WorkloadParams &p)
{
    unsigned parts = static_cast<unsigned>(p.granularity);
    if (parts < 2)
        sim::fatal("fluidanimate: need at least 2 partitions");

    // Arrange partitions on a 2D grid (the 3D volume is partitioned
    // along two axes, as PARSECSs does).
    unsigned gx = 1;
    while (gx * gx < parts)
        gx <<= 1;
    unsigned gy = parts / gx;
    if (gx * gy != parts)
        sim::fatal("fluidanimate: partitions must be a power of two");

    rt::TaskGraph g("fluidanimate");
    g.swDepCostFactor = 1.0;

    std::vector<rt::RegionId> cell(parts);
    std::uint64_t bytes_per_part = 16 * 1024 * 1024 / parts;
    for (auto &c : cell)
        c = g.addRegion(bytes_per_part);
    auto at = [&](unsigned x, unsigned y) { return cell[y * gx + x]; };

    double task_us = totalCellsWorkUs / parts;

    g.beginParallel(sim::usToTicks(300.0));
    std::uint64_t key = 0;
    for (unsigned f = 0; f < frames; ++f) {
        for (unsigned ph = 0; ph < phasesPerFrame; ++ph) {
            for (unsigned y = 0; y < gy; ++y) {
                for (unsigned x = 0; x < gx; ++x) {
                    double us = task_us * phaseWeight[ph];
                    g.createTask(noisyCycles(sim::usToTicks(us), p.seed,
                                             ++key, p.durationNoise),
                                 static_cast<std::uint16_t>(ph));
                    g.dep(at(x, y), rt::DepDir::InOut);
                    if (x > 0)
                        g.dep(at(x - 1, y), rt::DepDir::In);
                    if (x + 1 < gx)
                        g.dep(at(x + 1, y), rt::DepDir::In);
                    if (y > 0)
                        g.dep(at(x, y - 1), rt::DepDir::In);
                    if (y + 1 < gy)
                        g.dep(at(x, y + 1), rt::DepDir::In);
                }
            }
        }
    }
    return g;
}

} // namespace tdm::wl
