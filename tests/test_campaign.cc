/**
 * @file
 * Campaign-engine tests: fingerprint canonicalization, multi-threaded
 * determinism against per-point driver::run(), cache-hit behavior on
 * duplicated points, error propagation, the built-in campaign registry
 * and the JSON/CSV writers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "driver/campaign/campaign.hh"
#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/graph_cache.hh"
#include "driver/report/csv_writer.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/spec.hh"
#include "runtime/scheduler.hh"

using namespace tdm;
using namespace tdm::driver;

namespace {

Experiment
smallExperiment(core::RuntimeType rt_, const std::string &sched = "fifo")
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks
    e.runtime = rt_;
    e.config.scheduler = sched;
    e.config.numCores = 8;
    return e;
}

/** The engine's cache key of @p e: its canonical spec serialization. */
std::string
cacheKey(const Experiment &e)
{
    return campaign::canonicalConfig(e).serialize();
}

/** A small mixed campaign touching every runtime type. */
std::vector<SweepPoint>
mixedPoints()
{
    return {
        {"sw/fifo", smallExperiment(core::RuntimeType::Software)},
        {"sw/lifo", smallExperiment(core::RuntimeType::Software, "lifo")},
        {"tdm/fifo", smallExperiment(core::RuntimeType::Tdm)},
        {"tdm/age", smallExperiment(core::RuntimeType::Tdm, "age")},
        {"tdm/locality",
         smallExperiment(core::RuntimeType::Tdm, "locality")},
        {"carbon", smallExperiment(core::RuntimeType::Carbon)},
        {"tss", smallExperiment(core::RuntimeType::TaskSuperscalar)},
        {"sw/age", smallExperiment(core::RuntimeType::Software, "age")},
    };
}

void
expectSummariesEqual(const RunSummary &a, const RunSummary &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.timeMs, b.timeMs);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.avgWatts, b.avgWatts);
    EXPECT_EQ(a.numTasks, b.numTasks);
    EXPECT_EQ(a.tasksExecuted, b.tasksExecuted);
    EXPECT_EQ(a.dmuAccesses, b.dmuAccesses);
    EXPECT_EQ(a.steals, b.steals);
}

} // namespace

TEST(Fingerprint, StableAndCanonical)
{
    Experiment a = smallExperiment(core::RuntimeType::Tdm);
    Experiment b = smallExperiment(core::RuntimeType::Tdm);
    EXPECT_EQ(cacheKey(a), cacheKey(b));

    // Short workload names canonicalize to the full name.
    b.workload = "cho";
    EXPECT_EQ(cacheKey(a), cacheKey(b));

    // A default granularity resolves to the runtime's Table II optimum
    // (qr: 64 under SW, 32 under the DMU), so it keys like the
    // explicit value it runs.
    for (const auto &[rt, optimum] :
         {std::pair{core::RuntimeType::Software, 64.0},
          std::pair{core::RuntimeType::Tdm, 32.0}}) {
        Experiment dflt = smallExperiment(rt);
        dflt.workload = "qr";
        dflt.params.granularity = 0.0;
        Experiment explicitGran = dflt;
        explicitGran.params.granularity = optimum;
        EXPECT_EQ(cacheKey(dflt), cacheKey(explicitGran));
    }
}

TEST(Fingerprint, DistinguishesExperiments)
{
    const Experiment base = smallExperiment(core::RuntimeType::Tdm);
    const std::string fp = cacheKey(base);

    Experiment e = base;
    e.config.scheduler = "age";
    EXPECT_NE(cacheKey(e), fp);

    e = base;
    e.runtime = core::RuntimeType::Software;
    EXPECT_NE(cacheKey(e), fp);

    e = base;
    e.params.granularity = 131072;
    EXPECT_NE(cacheKey(e), fp);

    e = base;
    e.params.seed = 7;
    EXPECT_NE(cacheKey(e), fp);

    e = base;
    e.config.numCores = 16;
    EXPECT_NE(cacheKey(e), fp);

    e = base;
    e.config.dmu.accessCycles = 4;
    EXPECT_NE(cacheKey(e), fp);

    // Software pool costs feed the simulation too (machine.cc uses
    // them in the scheduling phase); they must be fingerprinted.
    e = base;
    e.config.swCosts.poolPopCycles += 1;
    EXPECT_NE(cacheKey(e), fp);
}

TEST(Fingerprint, DigestIsFixedWidth)
{
    const std::string d = campaign::digestOfKey(
        cacheKey(smallExperiment(core::RuntimeType::Tdm)));
    EXPECT_EQ(d.size(), 16u);
    EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_EQ(campaign::digestOfKey(""), "cbf29ce484222325");
}

TEST(Engine, FourThreadRunMatchesSequentialSweep)
{
    // The oracle is each point simulated on its own, in order, by
    // driver::run(): its own graph build, no cache, no fork, no
    // thread pool. The engine's run must export exactly the same.
    const auto points = mixedPoints();

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto par = engine.run("mixed", points);

    // All eight points use one explicit granularity, so they share a
    // single graph.
    EXPECT_EQ(par.graphBuilds, 1u);
    EXPECT_EQ(par.graphShares, par.simulated - 1);
    EXPECT_EQ(engine.graphCache().builds(), 1u);

    ASSERT_EQ(par.jobs.size(), points.size());
    EXPECT_EQ(par.threads, 4u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const campaign::JobResult &job = par.jobs[i];
        const RunSummary seq = driver::run(points[i].exp);
        EXPECT_EQ(job.label, points[i].label);
        EXPECT_TRUE(job.ok()) << job.label;
        expectSummariesEqual(job.summary, seq);
        // The full flattened metric tree — the payload every export
        // writer serializes — must match exactly, key set and values.
        EXPECT_EQ(job.summary.metrics().entries(),
                  seq.metrics().entries())
            << job.label;
    }
}

TEST(Engine, DeduplicatesIdenticalPointsWithinRun)
{
    std::vector<SweepPoint> points = {
        {"first", smallExperiment(core::RuntimeType::Tdm)},
        {"twin", smallExperiment(core::RuntimeType::Tdm)},
        {"other", smallExperiment(core::RuntimeType::Software)},
    };

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("dup", points);

    EXPECT_EQ(rep.simulated, 2u);
    EXPECT_EQ(rep.cacheHits, 1u);
    EXPECT_FALSE(rep.jobs[0].cacheHit());
    EXPECT_TRUE(rep.jobs[1].cacheHit());
    expectSummariesEqual(rep.jobs[0].summary, rep.jobs[1].summary);
}

TEST(Engine, ReportsCacheHitsOnRerun)
{
    const auto points = mixedPoints();

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto first = engine.run("mixed", points);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.simulated, points.size());

    auto second = engine.run("mixed", points);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cacheHits, points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(second.jobs[i].cacheHit());
        expectSummariesEqual(second.jobs[i].summary,
                             first.jobs[i].summary);
    }
    EXPECT_EQ(second.fromMemory, points.size());
}

TEST(Engine, NoCacheOptionDisablesDedup)
{
    std::vector<SweepPoint> points = {
        {"a", smallExperiment(core::RuntimeType::Software)},
        {"b", smallExperiment(core::RuntimeType::Software)},
    };
    campaign::EngineOptions opts;
    opts.threads = 2;
    opts.useCache = false;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("nocache", points);
    // Cache dedup is off, so neither point is *served* from a cache —
    // but fork grouping still groups the identical specs, so the
    // second point re-prices the first's metric tree instead of
    // simulating one, and its summary must come out identical.
    EXPECT_EQ(rep.simulated, 1u);
    EXPECT_EQ(rep.fromForked, 1u);
    EXPECT_EQ(rep.warmupsShared, 1u);
    EXPECT_EQ(rep.cacheHits, 0u);
    expectSummariesEqual(rep.jobs[0].summary, rep.jobs[1].summary);

    // With batching off too, both points simulate cold end-to-end —
    // the historical contract.
    opts.warmFork = false;
    campaign::CampaignEngine coldEngine(opts);
    auto coldRep = coldEngine.run("nocache", points);
    EXPECT_EQ(coldRep.simulated, 2u);
    EXPECT_EQ(coldRep.fromForked, 0u);
    EXPECT_EQ(coldRep.cacheHits, 0u);
    expectSummariesEqual(coldRep.jobs[0].summary, rep.jobs[1].summary);
}

TEST(Engine, PropagatesIncompleteRuns)
{
    Experiment doomed = smallExperiment(core::RuntimeType::Tdm);
    doomed.config.maxTicks = 1; // watchdog fires immediately

    std::vector<SweepPoint> points = {
        {"doomed", doomed},
        {"fine", smallExperiment(core::RuntimeType::Software)},
    };

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("errors", points);

    EXPECT_FALSE(rep.allOk());
    EXPECT_EQ(rep.failures(), 1u);
    EXPECT_FALSE(rep.jobs[0].ok());
    EXPECT_FALSE(rep.jobs[0].summary.completed);
    EXPECT_FALSE(rep.jobs[0].error.empty());
    EXPECT_TRUE(rep.jobs[1].ok());

    // The failed point's summary is the one a plain run produces.
    expectSummariesEqual(rep.jobs[0].summary, driver::run(doomed));
    expectSummariesEqual(rep.jobs[1].summary, driver::run(points[1].exp));

    // A failed run is cached like any other deterministic outcome.
    auto rerun = engine.run("errors", points);
    EXPECT_EQ(rerun.simulated, 0u);
    EXPECT_EQ(rerun.failures(), 1u);
    EXPECT_FALSE(rerun.jobs[0].error.empty());
}

TEST(Engine, ThrowingPointIsSharedButNotCached)
{
    rt::registerScheduler("test-throws",
                          [](unsigned, std::uint32_t)
                              -> std::unique_ptr<rt::Scheduler> {
                              throw std::runtime_error("factory threw");
                          });
    const Experiment bad =
        smallExperiment(core::RuntimeType::Software, "test-throws");
    std::vector<SweepPoint> points = {
        {"bad", bad},
        {"bad-twin", bad},
        {"fine", smallExperiment(core::RuntimeType::Software)},
    };

    campaign::EngineOptions opts;
    opts.threads = 2;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("throws", points);

    // The owner reports the exception; its duplicate waited on the
    // owner's claim and is handed the same error.
    EXPECT_EQ(rep.jobs[0].source, campaign::JobSource::Simulated);
    EXPECT_TRUE(rep.jobs[0].threw);
    EXPECT_EQ(rep.jobs[0].error, "factory threw");
    EXPECT_EQ(rep.jobs[1].source, campaign::JobSource::Inflight);
    EXPECT_TRUE(rep.jobs[1].threw);
    EXPECT_EQ(rep.jobs[1].error, rep.jobs[0].error);
    EXPECT_TRUE(rep.jobs[2].ok());
    // Only the completed point stays in the table.
    EXPECT_EQ(engine.cachedCount(), 1u);
    EXPECT_EQ(engine.inflightCount(), 0u);

    // Exceptions are not cached: the next run simulates the key again.
    auto rerun = engine.run("throws", points);
    EXPECT_EQ(rerun.jobs[0].source, campaign::JobSource::Simulated);
    EXPECT_TRUE(rerun.jobs[0].threw);
    EXPECT_EQ(rerun.jobs[2].source, campaign::JobSource::Memory);
    EXPECT_TRUE(rerun.jobs[2].ok());
}

TEST(Engine, SeedBaseGivesEachPointItsOwnSeed)
{
    std::vector<SweepPoint> points = {
        {"a", smallExperiment(core::RuntimeType::Software)},
        {"b", smallExperiment(core::RuntimeType::Software)},
    };
    campaign::EngineOptions opts;
    opts.threads = 2;
    opts.seedBase = 100;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("seeded", points);

    // Identical points reseeded by index are no longer duplicates.
    EXPECT_EQ(rep.simulated, 2u);
    EXPECT_NE(rep.jobs[0].digest, rep.jobs[1].digest);
    EXPECT_NE(rep.jobs[0].summary.makespan, rep.jobs[1].summary.makespan);
}

TEST(GraphCache, KeySeparatesGraphsAndSharesEqualOnes)
{
    // With an explicit granularity the graph is runtime-independent.
    const Experiment sw = smallExperiment(core::RuntimeType::Software);
    const Experiment tdm = smallExperiment(core::RuntimeType::Tdm);
    EXPECT_EQ(graphKey(sw), graphKey(tdm));

    // Short names canonicalize; seeds separate.
    Experiment cho = smallExperiment(core::RuntimeType::Tdm);
    cho.workload = "cho";
    EXPECT_EQ(graphKey(cho), graphKey(tdm));
    cho.params.seed = 7;
    EXPECT_NE(graphKey(cho), graphKey(tdm));

    // The key carries the resolved granularity, as the canonical spec
    // does.
    Experiment dflt = tdm;
    dflt.params.granularity = 0.0;
    EXPECT_NE(graphKey(dflt).find("workload.granularity=16384;"),
              std::string::npos)
        << graphKey(dflt);

    // The cache hands out one shared instance per distinct key.
    GraphCache cache;
    auto a = cache.obtain(sw);
    EXPECT_EQ(a.get(), cache.obtain(tdm).get());
    EXPECT_EQ(a.get(), cache.obtain(sw).get());
    EXPECT_NE(a.get(), cache.obtain(cho).get());
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(GraphCache, KeyIsTheWorkloadProjectionOfTheSpec)
{
    // Changing any workload key changes the graph key; changing any
    // other key leaves it alone. Explicit granularity keeps the
    // runtime key from moving the resolved default.
    const Experiment base = smallExperiment(core::RuntimeType::Tdm);
    const std::string baseKey = graphKey(base);
    for (const spec::Binding &b : spec::allBindings()) {
        const std::string cur = b.get(base);
        std::string alt;
        switch (b.kind) {
          case spec::ValueKind::Uint:
            alt = std::to_string(std::stoull(cur) + 1);
            break;
          case spec::ValueKind::Double:
            alt = spec::formatDouble(std::stod(cur) + 1.0);
            break;
          case spec::ValueKind::Bool:
            alt = cur == "true" ? "false" : "true";
            break;
          case spec::ValueKind::Workload: alt = "lu"; break;
          case spec::ValueKind::Runtime: alt = "sw"; break;
          case spec::ValueKind::Scheduler: alt = "lifo"; break;
          case spec::ValueKind::Categories: alt = "all"; break;
        }
        ASSERT_NE(alt, cur) << b.key;
        Experiment e = base;
        spec::applyKey(e, b.key, alt);
        const bool workloadKey =
            b.key == "workload" || b.key.starts_with("workload.");
        EXPECT_EQ(graphKey(e) != baseKey, workloadKey) << b.key;
    }
}

TEST(GraphCache, DefaultGranularitySharesEqualOptima)
{
    // Table II: cholesky's SW and TDM optima agree, qr's and
    // blackscholes' differ.
    for (const auto &[workload, graphs] :
         {std::pair{"cholesky", 1u}, std::pair{"qr", 2u},
          std::pair{"blackscholes", 2u}}) {
        GraphCache cache;
        for (core::RuntimeType rt :
             {core::RuntimeType::Software, core::RuntimeType::Tdm}) {
            Experiment e;
            e.workload = workload;
            e.runtime = rt;
            cache.obtain(e);
        }
        EXPECT_EQ(cache.builds(), graphs) << workload;
    }

    // fig13 (9 workloads x 8 runtime points) needs 9 + 2 graphs.
    GraphCache cache;
    for (const SweepPoint &p : campaign::makeCampaign("fig13").points)
        cache.obtain(p.exp);
    EXPECT_EQ(cache.builds(), 11u);
}

TEST(Registry, BuiltinCampaigns)
{
    EXPECT_TRUE(campaign::hasCampaign("fig12"));
    EXPECT_TRUE(campaign::hasCampaign("fig13"));
    EXPECT_TRUE(campaign::hasCampaign("ablation_scaling"));
    EXPECT_FALSE(campaign::hasCampaign("nope"));

    auto fig12 = campaign::makeCampaign("fig12");
    EXPECT_EQ(fig12.points.size(), 90u); // 9 workloads x 2 runtimes x 5
    auto fig13 = campaign::makeCampaign("fig13");
    EXPECT_EQ(fig13.points.size(), 72u); // 9 x (3 baselines + 5 TDM)
    auto abl = campaign::makeCampaign("ablation_scaling");
    EXPECT_EQ(abl.points.size(), 24u); // 3 x 4 core counts x 2

    for (const auto &c : {fig12, fig13, abl}) {
        std::set<std::string> labels;
        for (const auto &p : c.points)
            labels.insert(p.label);
        EXPECT_EQ(labels.size(), c.points.size()) << c.name;
    }

    EXPECT_GE(campaign::campaignList().size(), 3u);
}

TEST(Report, JsonAndCsvWriters)
{
    std::vector<SweepPoint> points = {
        {"sw, \"quoted\"", smallExperiment(core::RuntimeType::Software)},
        {"tdm", smallExperiment(core::RuntimeType::Tdm)},
    };
    campaign::CampaignEngine engine;
    auto rep = engine.run("writers", points);

    std::ostringstream json;
    report::writeJson(json, rep);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"name\": \"writers\""), std::string::npos);
    EXPECT_NE(j.find("\"label\": \"sw, \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(j.find("\"completed\": true"), std::string::npos);
    // Every job carries its full canonical spec.
    EXPECT_NE(j.find("\"spec\": {"), std::string::npos);
    EXPECT_NE(j.find("\"workload\": \"cholesky\""), std::string::npos);
    EXPECT_NE(j.find("\"dmu.tat_entries\": \"2048\""),
              std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));

    std::ostringstream csv;
    report::writeCsv(csv, rep);
    const std::string c = csv.str();
    // Header + one row per job.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 3);
    EXPECT_NE(c.find("campaign,label,digest"), std::string::npos);
    EXPECT_NE(c.find("\"sw, \"\"quoted\"\"\""), std::string::npos);
    EXPECT_NE(c.find("writers,tdm,"), std::string::npos);
}

TEST(Report, MetricSelectionFlowsThroughEngineAndWriters)
{
    campaign::Campaign c;
    c.name = "sel";
    c.points = {{"tdm", smallExperiment(core::RuntimeType::Tdm)}};
    c.metrics = "dmu.tat.*";

    campaign::CampaignEngine engine;
    campaign::CampaignResult rep = engine.run(c);
    EXPECT_EQ(rep.metricsPattern, "dmu.tat.*");
    // The full tree rides on the summary; selection happens at export.
    EXPECT_TRUE(
        rep.jobs[0].summary.metrics().contains("mesh.messages"));

    std::ostringstream json;
    report::writeJson(json, rep);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"metrics_pattern\": \"dmu.tat.*\""),
              std::string::npos);
    EXPECT_NE(j.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(j.find("\"dmu.tat.hits\":"), std::string::npos);
    EXPECT_EQ(j.find("\"mesh.messages\":"), std::string::npos);

    std::ostringstream csv;
    report::writeCsv(csv, rep);
    const std::string cs = csv.str();
    const std::string header = cs.substr(0, cs.find('\n'));
    EXPECT_NE(header.find(",dmu.tat.hits"), std::string::npos);
    EXPECT_EQ(header.find("mesh.messages"), std::string::npos);
}

TEST(Report, CsvFieldQuotesPerRfc4180)
{
    EXPECT_EQ(report::csvField("plain"), "plain");
    EXPECT_EQ(report::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(report::csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(report::csvField("line\nbreak"), "\"line\nbreak\"");
    // A bare carriage return corrupts rows for CRLF-aware readers just
    // like \n does and must be quoted too (regression: it used to slip
    // through unquoted).
    EXPECT_EQ(report::csvField("crlf\r\nlabel"), "\"crlf\r\nlabel\"");
    EXPECT_EQ(report::csvField("cr\ronly"), "\"cr\ronly\"");
}
