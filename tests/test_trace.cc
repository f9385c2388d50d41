/**
 * @file
 * Time-resolved tracing tests: category parsing, buffer mechanics
 * (chunked append, cap, digest), spec-key plumbing, non-perturbation
 * (identical makespans with tracing on and off), traced forks, the
 * Chrome trace writer's output shape, and the campaign engine's
 * per-point trace files. The task-execution timeline is checked in
 * test_task_trace.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "core/machine.hh"
#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/experiment.hh"
#include "driver/fork_runner.hh"
#include "driver/graph_cache.hh"
#include "driver/report/trace_writer.hh"
#include "driver/spec/spec.hh"
#include "sim/trace.hh"
#include "workloads/registry.hh"

using namespace tdm;
namespace fs = std::filesystem;

namespace {

driver::Experiment
smallExperiment(core::RuntimeType rt_, const std::string &sched = "fifo")
{
    driver::Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks
    e.runtime = rt_;
    e.config.scheduler = sched;
    e.config.numCores = 8;
    return e;
}

} // namespace

TEST(TraceCategories, ParseAndFormatRoundTrip)
{
    EXPECT_EQ(sim::parseTraceCategories(""), 0u);
    EXPECT_EQ(sim::parseTraceCategories("none"), 0u);
    EXPECT_EQ(sim::parseTraceCategories("all"), sim::traceCatAll);
    EXPECT_EQ(sim::parseTraceCategories("task"),
              static_cast<std::uint32_t>(sim::TraceCat::Task));
    EXPECT_EQ(sim::parseTraceCategories("task,dmu"),
              static_cast<std::uint32_t>(sim::TraceCat::Task)
                  | static_cast<std::uint32_t>(sim::TraceCat::Dmu));
    // Whitespace and duplicates are tolerated.
    EXPECT_EQ(sim::parseTraceCategories(" task , task ,dmu"),
              sim::parseTraceCategories("task,dmu"));

    EXPECT_EQ(sim::formatTraceCategories(0), "none");
    EXPECT_EQ(sim::formatTraceCategories(sim::traceCatAll), "all");
    const std::uint32_t two = sim::parseTraceCategories("dmu,task");
    EXPECT_EQ(sim::formatTraceCategories(two), "task,dmu"); // bit order
    // format -> parse is the identity on every subset.
    for (std::uint32_t m = 0; m <= sim::traceCatAll; ++m)
        EXPECT_EQ(sim::parseTraceCategories(sim::formatTraceCategories(m)),
                  m)
            << m;

    EXPECT_THROW(sim::parseTraceCategories("bogus"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseTraceCategories("task,bogus"),
                 std::invalid_argument);
}

TEST(TraceBuffer, DisabledByDefaultAndRecordsWhenOn)
{
    sim::TraceBuffer off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.on(sim::TraceCat::Task));
    EXPECT_EQ(off.size(), 0u);

    sim::TraceBuffer buf;
    sim::TraceConfig cfg;
    cfg.categories = sim::parseTraceCategories("task,dmu");
    buf.configure(cfg);
    EXPECT_TRUE(buf.enabled());
    EXPECT_TRUE(buf.on(sim::TraceCat::Task));
    EXPECT_FALSE(buf.on(sim::TraceCat::Noc));

    buf.span(sim::TracePoint::TaskExec, 3, 100, 250, 42, 7);
    buf.instant(sim::TracePoint::TaskRetire, 3, 250, 42);
    buf.counter(sim::TracePoint::DmuReadyQueue, 260,
                (std::uint64_t{1} << 40) + 5);
    ASSERT_EQ(buf.size(), 3u);

    std::vector<sim::TraceRecord> recs;
    buf.forEach([&](const sim::TraceRecord &r) { recs.push_back(r); });
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].tick, 100u);
    EXPECT_EQ(recs[0].dur, 150u);
    EXPECT_EQ(recs[0].core, 3u);
    EXPECT_EQ(recs[0].a, 42u);
    EXPECT_EQ(recs[0].b, 7u);
    EXPECT_EQ(recs[1].dur, 0u);
    // 64-bit counter values split across a (low) and b (high).
    EXPECT_EQ(recs[2].a, 5u);
    EXPECT_EQ(recs[2].b, 1u << 8);

    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_TRUE(buf.enabled()); // clear keeps the configuration
}

TEST(TraceBuffer, CapCountsDroppedRecords)
{
    sim::TraceBuffer buf;
    sim::TraceConfig cfg;
    cfg.categories = sim::traceCatAll;
    cfg.bufferEvents = 10;
    buf.configure(cfg);
    for (int i = 0; i < 25; ++i)
        buf.instant(sim::TracePoint::TaskReady, 0, i);
    EXPECT_EQ(buf.size(), 10u);
    EXPECT_EQ(buf.dropped(), 15u);
}

TEST(TraceBuffer, CrossesChunkBoundaries)
{
    sim::TraceBuffer buf;
    sim::TraceConfig cfg;
    cfg.categories = sim::traceCatAll;
    buf.configure(cfg);
    const std::size_t n = sim::TraceBuffer::chunkSize * 2 + 100;
    for (std::size_t i = 0; i < n; ++i)
        buf.instant(sim::TracePoint::TaskReady, 0, i, i);
    EXPECT_EQ(buf.size(), n);
    std::size_t k = 0;
    bool ordered = true;
    buf.forEach([&](const sim::TraceRecord &r) {
        ordered = ordered && r.tick == k && r.a == k;
        ++k;
    });
    EXPECT_EQ(k, n);
    EXPECT_TRUE(ordered);
}

TEST(TraceSpec, KeysBindConfigAndValidate)
{
    driver::Experiment e = smallExperiment(core::RuntimeType::Tdm);
    driver::spec::applyKey(e, "trace.categories", "task,dmu");
    EXPECT_EQ(e.config.trace.categories,
              sim::parseTraceCategories("task,dmu"));
    driver::spec::applyKey(e, "trace.buffer_events", "1000");
    EXPECT_EQ(e.config.trace.bufferEvents, 1000u);

    // The canonical spec round-trips the mask as names, so traced
    // points fingerprint differently from untraced ones (deliberate:
    // a traced re-run must miss the result cache).
    const sim::Config c = driver::spec::canonicalSpec(e);
    EXPECT_EQ(c.getString("trace.categories"), "task,dmu");

    EXPECT_THROW(
        driver::spec::applyKey(e, "trace.categories", "bogus"),
        driver::spec::SpecError);
}

TEST(TraceMachine, TracingDoesNotPerturbTheSimulation)
{
    // The zero-perturbation guarantee: every category on, same
    // makespan and task count bit-for-bit as the untraced run.
    for (core::RuntimeType rt_ :
         {core::RuntimeType::Software, core::RuntimeType::Tdm}) {
        driver::Experiment plain = smallExperiment(rt_);
        const driver::RunSummary base = driver::run(plain);

        driver::Experiment traced = smallExperiment(rt_);
        traced.config.trace.categories = sim::traceCatAll;
        sim::TraceBuffer tb;
        const driver::RunSummary t = driver::run(traced, nullptr, &tb);

        EXPECT_EQ(base.makespan, t.makespan);
        EXPECT_EQ(base.tasksExecuted, t.tasksExecuted);
        EXPECT_EQ(base.steals, t.steals);
        EXPECT_GT(tb.size(), 0u);
        EXPECT_EQ(tb.dropped(), 0u);
    }
}

TEST(TraceMachine, SpansAccountForEveryPhaseTick)
{
    // Each phase charge is traced as a span of the same length, so per
    // core the spans of a phase's points sum to its PhaseStats ticks.
    // The master's region prologues are its only untraced charge.
    using TP = sim::TracePoint;
    for (core::RuntimeType rt_ :
         {core::RuntimeType::Software, core::RuntimeType::Tdm,
          core::RuntimeType::Carbon, core::RuntimeType::TaskSuperscalar}) {
        driver::Experiment e = smallExperiment(rt_);
        e.config.mesh.width = 3;
        e.config.mesh.height = 3;
        e.config.trace.categories = sim::traceCatAll;
        const auto graph = driver::buildGraph(e);
        core::Machine m(e.config, graph, e.runtime);
        ASSERT_EQ(m.run().metrics.get("machine.completed"), 1.0);

        std::vector<cpu::PhaseBreakdown> spans(e.config.numCores);
        m.traceBuffer().forEach([&](const sim::TraceRecord &r) {
            if (r.core == sim::traceNoCore)
                return;
            cpu::PhaseBreakdown &b = spans.at(r.core);
            switch (static_cast<TP>(r.point)) {
              case TP::TaskCreate:
              case TP::TaskFinish:
                b.deps += r.dur;
                break;
              case TP::SchedPop:
              case TP::SchedSteal:
              case TP::SchedGetReady:
                b.sched += r.dur;
                break;
              case TP::TaskExec:
                b.exec += r.dur;
                break;
              case TP::CoreIdle:
                b.idle += r.dur;
                break;
              default:
                break;
            }
        });
        for (const rt::ParallelRegion &region : graph->parallelRegions())
            spans[0].exec += region.prologueCycles;

        const char *name = core::traitsOf(rt_).name;
        for (sim::CoreId c = 0; c < e.config.numCores; ++c) {
            const cpu::PhaseBreakdown &p = m.phases().core(c);
            EXPECT_EQ(spans[c].deps, p.deps) << name << " core " << c;
            EXPECT_EQ(spans[c].sched, p.sched) << name << " core " << c;
            EXPECT_EQ(spans[c].exec, p.exec) << name << " core " << c;
            EXPECT_EQ(spans[c].idle, p.idle) << name << " core " << c;
        }
    }
}

TEST(TraceMachine, IdenticalRunsGiveIdenticalDigests)
{
    auto capture = [] {
        driver::Experiment e = smallExperiment(core::RuntimeType::Tdm);
        e.config.trace.categories = sim::traceCatAll;
        sim::TraceBuffer tb;
        driver::run(e, nullptr, &tb);
        return tb;
    };
    const sim::TraceBuffer a = capture();
    const sim::TraceBuffer b = capture();
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(TraceMachine, PowerForksCarryTheColdTrace)
{
    // A power variant shares the leader's whole trajectory, so its
    // forked trace must equal its cold traced run's. The runner hands
    // out copies, so a second power fork still gets the full trace.
    driver::Experiment leader = smallExperiment(core::RuntimeType::Tdm);
    leader.config.trace.categories = sim::traceCatAll;
    driver::Experiment power = leader;
    power.config.power.activeWatts *= 2.0;
    sim::TraceBuffer cold;
    driver::run(power, nullptr, &cold);
    ASSERT_GT(cold.size(), 0u);

    const std::string roi = driver::spec::roiFingerprint(
        driver::campaign::canonicalConfig(leader));
    driver::ForkGroupRunner runner(nullptr);
    bool forked = true;
    sim::TraceBuffer tb;
    runner.run(leader, roi, &tb, &forked);
    EXPECT_FALSE(forked);
    for (int round = 0; round < 2; ++round) {
        runner.run(power, roi, &tb, &forked);
        EXPECT_TRUE(forked) << "power fork " << round;
        EXPECT_EQ(tb.size(), cold.size()) << "power fork " << round;
        EXPECT_EQ(tb.digest(), cold.digest()) << "power fork " << round;
    }
}

TEST(TraceWriter, EmitsWellFormedChromeTraceJson)
{
    driver::Experiment e = smallExperiment(core::RuntimeType::Tdm);
    e.config.trace.categories = sim::traceCatAll;
    sim::TraceBuffer tb;
    driver::run(e, nullptr, &tb);

    std::ostringstream os;
    driver::report::TraceMeta meta;
    meta.processName = "cholesky on tdm+fifo";
    meta.numCores = e.config.numCores;
    driver::report::writeChromeTrace(os, tb, meta);
    const std::string j = os.str();

    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos); // spans
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos); // instants
    EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos); // counters
    EXPECT_NE(j.find("\"name\":\"exec\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"dmu.ready_queue\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"core 0 (master)\""), std::string::npos);
    // Balanced braces and brackets: cheap structural sanity.
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));
}

TEST(TraceWriter, EventReferenceCoversEveryPoint)
{
    std::ostringstream os;
    driver::report::writeTraceEventReference(os);
    const std::string ref = os.str();
    const auto n = static_cast<std::size_t>(sim::TracePoint::NumPoints);
    for (std::size_t i = 0; i < n; ++i) {
        const sim::TracePointInfo &info =
            sim::tracePointInfo(static_cast<sim::TracePoint>(i));
        EXPECT_NE(ref.find(std::string("`") + info.name + "`"),
                  std::string::npos)
            << info.name;
    }
}

TEST(TraceEngine, WritesOneTraceFilePerTracedPoint)
{
    const fs::path dir =
        fs::temp_directory_path()
        / ("tdm_trace_test_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    driver::Experiment traced = smallExperiment(core::RuntimeType::Tdm);
    traced.config.trace.categories =
        sim::parseTraceCategories("task,dmu");
    std::vector<driver::SweepPoint> points = {
        {"traced", traced},
        {"twin", traced}, // duplicate: simulated once, shares the file
        {"untraced", smallExperiment(core::RuntimeType::Software)},
    };

    driver::campaign::EngineOptions opts;
    opts.threads = 2;
    opts.traceDir = dir.string();
    driver::campaign::CampaignEngine engine(opts);
    auto rep = engine.run("tracing", points);

    ASSERT_TRUE(rep.allOk());
    EXPECT_FALSE(rep.jobs[0].tracePath.empty());
    EXPECT_TRUE(fs::exists(rep.jobs[0].tracePath));
    EXPECT_EQ(rep.jobs[1].tracePath, rep.jobs[0].tracePath);
    EXPECT_TRUE(rep.jobs[2].tracePath.empty()); // tracing off
    EXPECT_GT(rep.simMsTotal, 0.0);

    std::ifstream f(rep.jobs[0].tracePath);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(ss.str().find("\"name\":\"exec\""), std::string::npos);

    fs::remove_all(dir);
}
