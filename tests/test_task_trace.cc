/**
 * @file
 * The machine's task-execution timeline, read from the TaskExec spans
 * of a `trace.categories=task` run: every task runs exactly once,
 * per-core intervals never overlap, parallelism never exceeds the core
 * count, and dependence order holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/machine.hh"
#include "driver/experiment.hh"
#include "sim/trace.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

struct ExecSpan
{
    std::uint32_t task;
    std::uint16_t core;
    sim::Tick start, end;
};

/** Run @p g with task tracing on; the TaskExec spans of the run. */
std::vector<ExecSpan>
execSpans(const rt::TaskGraph &g, unsigned cores, core::RuntimeType rt_,
          sim::Tick *makespan = nullptr)
{
    cpu::MachineConfig cfg;
    cfg.numCores = cores;
    cfg.trace.categories = static_cast<std::uint32_t>(sim::TraceCat::Task);
    core::Machine m(cfg, g, rt_);
    const driver::RunSummary res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    if (makespan)
        *makespan = res.makespan;
    std::vector<ExecSpan> out;
    m.traceBuffer().forEach([&](const sim::TraceRecord &r) {
        if (r.point == static_cast<std::uint16_t>(sim::TracePoint::TaskExec))
            out.push_back({r.a, r.core, r.tick, r.tick + r.dur});
    });
    return out;
}

rt::TaskGraph
smallCholesky()
{
    wl::WorkloadParams p;
    p.granularity = 262144;
    return wl::buildWorkload("cholesky", p);
}

} // namespace

TEST(TraceTaskSpans, EveryTaskRunsOnce)
{
    const rt::TaskGraph g = smallCholesky();
    sim::Tick makespan = 0;
    const auto spans = execSpans(g, 8, core::RuntimeType::Tdm, &makespan);
    ASSERT_EQ(spans.size(), g.numTasks());
    std::vector<unsigned> seen(g.numTasks(), 0);
    for (const ExecSpan &s : spans) {
        ASSERT_LT(s.task, g.numTasks());
        ++seen[s.task];
        EXPECT_LT(s.start, s.end);
        EXPECT_LE(s.end, makespan);
        EXPECT_LT(s.core, 8u);
    }
    for (unsigned n : seen)
        EXPECT_EQ(n, 1u);
}

TEST(TraceTaskSpans, PerCoreIntervalsDisjoint)
{
    const auto spans =
        execSpans(smallCholesky(), 8, core::RuntimeType::Software);
    std::vector<std::vector<std::pair<sim::Tick, sim::Tick>>> perCore(8);
    for (const ExecSpan &s : spans)
        perCore.at(s.core).emplace_back(s.start, s.end);
    for (std::size_t c = 0; c < perCore.size(); ++c) {
        auto &ivals = perCore[c];
        std::sort(ivals.begin(), ivals.end());
        for (std::size_t i = 1; i < ivals.size(); ++i)
            EXPECT_LE(ivals[i - 1].second, ivals[i].first)
                << "overlap on core " << c;
    }
}

TEST(TraceTaskSpans, ParallelismBoundedByCores)
{
    sim::Tick makespan = 0;
    const auto spans =
        execSpans(smallCholesky(), 8, core::RuntimeType::Tdm, &makespan);
    // Sweep span starts/ends in time order, ends before starts at a
    // tie so back-to-back tasks on one core count once.
    std::vector<std::pair<sim::Tick, int>> edges;
    double busy = 0;
    for (const ExecSpan &s : spans) {
        edges.emplace_back(s.start, +1);
        edges.emplace_back(s.end, -1);
        busy += static_cast<double>(s.end - s.start);
    }
    std::sort(edges.begin(), edges.end());
    int cur = 0, peak = 0;
    for (const auto &e : edges)
        peak = std::max(peak, cur += e.second);
    const double avg = busy / static_cast<double>(makespan);
    EXPECT_LE(peak, 8);
    EXPECT_LE(avg, 8.0);
    EXPECT_GT(avg, 1.0);
}

TEST(TraceTaskSpans, RespectsDependenceOrder)
{
    // In a chain graph, the exec spans must be strictly ordered.
    rt::TaskGraph g("chain");
    rt::RegionId r = g.addRegion(1024);
    g.beginParallel();
    for (int i = 0; i < 10; ++i) {
        g.createTask(sim::usToTicks(20));
        g.dep(r, rt::DepDir::InOut);
    }
    const auto spans = execSpans(g, 4, core::RuntimeType::Tdm);
    ASSERT_EQ(spans.size(), 10u);
    std::vector<sim::Tick> start(10), end(10);
    for (const ExecSpan &s : spans) {
        start.at(s.task) = s.start;
        end.at(s.task) = s.end;
    }
    for (int i = 1; i < 10; ++i)
        EXPECT_GE(start[i], end[i - 1]);
}
