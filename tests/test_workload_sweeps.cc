/**
 * @file
 * Property tests over every benchmark's whole granularity sweep: the
 * generated graphs stay well-formed, total work is roughly preserved
 * across granularities, task counts move monotonically with
 * granularity, and dependence structure survives (no orphaned
 * regions, barriers consistent).
 */

#include <gtest/gtest.h>

#include "workloads/registry.hh"

using namespace tdm;

namespace {

class SweepProps : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(SweepProps, GraphsWellFormedAcrossSweep)
{
    const wl::WorkloadInfo &w = wl::findWorkload(GetParam());
    std::vector<double> grans = w.granSweep;
    if (grans.empty())
        grans = {w.swGranularity};
    for (double g : grans) {
        wl::WorkloadParams p;
        p.granularity = g;
        rt::TaskGraph graph = w.build(p);
        ASSERT_GT(graph.numTasks(), 0u) << "gran " << g;
        for (const rt::Task &t : graph.tasks()) {
            EXPECT_GT(t.computeCycles, 0u);
            for (const rt::DepSpec &d : t.deps)
                ASSERT_LT(d.region, graph.regions().size());
        }
        // Parallel regions tile the task range exactly.
        std::uint32_t covered = 0;
        for (const rt::ParallelRegion &pr : graph.parallelRegions()) {
            EXPECT_EQ(pr.firstTask, covered);
            covered += pr.numTasks;
        }
        EXPECT_EQ(covered, graph.numTasks());
        // Acyclic by construction: all edges point forward.
        auto e = graph.buildEdges();
        for (rt::TaskId t = 0; t < graph.numTasks(); ++t)
            for (rt::TaskId s : e.successors[t])
                ASSERT_GT(s, t);
    }
}

TEST_P(SweepProps, WorkRoughlyConservedAcrossSweep)
{
    const wl::WorkloadInfo &w = wl::findWorkload(GetParam());
    if (w.granSweep.size() < 2)
        GTEST_SKIP() << "fixed-granularity benchmark";
    std::vector<double> work;
    for (double g : w.granSweep) {
        wl::WorkloadParams p;
        p.granularity = g;
        work.push_back(sim::ticksToUs(w.build(p).totalComputeCycles()));
    }
    double lo = *std::min_element(work.begin(), work.end());
    double hi = *std::max_element(work.begin(), work.end());
    EXPECT_LT(hi / lo, 1.5) << "total work should not depend strongly "
                               "on granularity";
}

TEST_P(SweepProps, FinerGranularityMeansMoreTasks)
{
    const wl::WorkloadInfo &w = wl::findWorkload(GetParam());
    if (w.granSweep.size() < 2)
        GTEST_SKIP();
    // granSweep is ordered finest -> coarsest for byte/points units and
    // coarsest -> finest for partitions; just check strict motion.
    std::vector<std::uint32_t> counts;
    for (double g : w.granSweep) {
        wl::WorkloadParams p;
        p.granularity = g;
        counts.push_back(w.build(p).numTasks());
    }
    bool increasing = true, decreasing = true;
    for (std::size_t i = 1; i < counts.size(); ++i) {
        increasing &= counts[i] >= counts[i - 1];
        decreasing &= counts[i] <= counts[i - 1];
    }
    EXPECT_TRUE(increasing || decreasing);
    EXPECT_NE(counts.front(), counts.back());
}

TEST_P(SweepProps, CriticalPathShrinksWithFinerTasks)
{
    const wl::WorkloadInfo &w = wl::findWorkload(GetParam());
    if (w.granSweep.size() < 2)
        GTEST_SKIP();
    wl::WorkloadParams fine, coarse;
    // Pick the sweep ends by task count.
    std::uint32_t n_front, n_back;
    {
        wl::WorkloadParams p;
        p.granularity = w.granSweep.front();
        n_front = w.build(p).numTasks();
        p.granularity = w.granSweep.back();
        n_back = w.build(p).numTasks();
    }
    fine.granularity =
        n_front > n_back ? w.granSweep.front() : w.granSweep.back();
    coarse.granularity =
        n_front > n_back ? w.granSweep.back() : w.granSweep.front();
    sim::Tick cp_fine = w.build(fine).criticalPathCycles();
    sim::Tick cp_coarse = w.build(coarse).criticalPathCycles();
    // Finer tasks never lengthen the dependence critical path by much;
    // for the matrix kernels they shorten it substantially.
    EXPECT_LE(static_cast<double>(cp_fine),
              1.10 * static_cast<double>(cp_coarse));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SweepProps,
    ::testing::Values("blackscholes", "cholesky", "dedup", "ferret",
                      "fluidanimate", "histogram", "lu", "qr",
                      "streamcluster"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });
