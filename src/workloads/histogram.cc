/**
 * @file
 * Histogram: cumulative histogram of a 4096x4096 image (Section IV-B).
 * Leaf tasks scan image tiles into private histograms; a binary
 * reduction tree merges them; a final task accumulates the cumulative
 * distribution. Dependences span the whole execution (a merge near the
 * root waits on tasks created much earlier), which is why the paper
 * calls out its pressure on the TAT: almost every task of the
 * benchmark is in flight simultaneously.
 *
 * Granularity = tile bytes. Table II: 256 KB tiles -> 256 leaves + 255
 * merges + 1 final = 512 tasks of ~3.8 ms.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr std::uint64_t imageBytes = 64ULL * 1024 * 1024;
constexpr double cyclesPerByte = 58.0; ///< multi-pass scan kernel
constexpr double mergeUs = 25.0;

enum Kernel : std::uint16_t { Kleaf = 1, Kmerge, Kfinal };
} // namespace

rt::TaskGraph
buildHistogram(const WorkloadParams &p)
{
    double tile_bytes = p.granularity;
    unsigned leaves = static_cast<unsigned>(
        static_cast<double>(imageBytes) / tile_bytes);
    if (leaves < 2 || !sim::isPowerOf2(leaves))
        sim::fatal("histogram: tile size must yield a power-of-two "
                   "number of leaves, got ", leaves);

    rt::TaskGraph g("histogram");
    g.swDepCostFactor = 1.5;

    std::vector<rt::RegionId> tile(leaves);
    for (auto &t : tile)
        t = g.addRegion(static_cast<std::uint64_t>(tile_bytes));
    // One private histogram per tree node (leaves + internal).
    std::vector<rt::RegionId> hist(2 * leaves - 1);
    for (auto &h : hist)
        h = g.addRegion(64); // 10 bins + padding

    g.beginParallel(sim::usToTicks(80.0));
    double leaf_cycles = tile_bytes * cyclesPerByte;
    std::uint64_t key = 0;

    for (unsigned i = 0; i < leaves; ++i) {
        g.createTask(noisyCycles(leaf_cycles, p.seed, ++key,
                                 p.durationNoise), Kleaf);
        g.dep(tile[i], rt::DepDir::In);
        g.dep(hist[i], rt::DepDir::Out);
    }
    // Binary merge tree: level by level.
    unsigned level_base = 0;
    unsigned level_size = leaves;
    unsigned next_node = leaves;
    while (level_size > 1) {
        for (unsigned i = 0; i + 1 < level_size; i += 2) {
            g.createTask(noisyCycles(sim::usToTicks(mergeUs), p.seed,
                                     ++key, p.durationNoise), Kmerge);
            g.dep(hist[level_base + i], rt::DepDir::In);
            g.dep(hist[level_base + i + 1], rt::DepDir::In);
            g.dep(hist[next_node], rt::DepDir::Out);
            ++next_node;
        }
        level_base += level_size;
        level_size /= 2;
    }
    // Cumulative pass over the root histogram.
    g.createTask(noisyCycles(sim::usToTicks(mergeUs * 2), p.seed, ++key,
                             p.durationNoise), Kfinal);
    g.dep(hist[2 * leaves - 2], rt::DepDir::InOut);
    return g;
}

} // namespace tdm::wl
