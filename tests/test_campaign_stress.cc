/**
 * @file
 * Concurrent campaign-engine stress tests — the TSan targets.
 *
 * The campaign engine's concurrency contract: one engine may serve
 * many client threads at once, each run() spawning its own worker
 * pool, all of them hammering the shared claim table and GraphCache;
 * results must be byte-identical to a quiet sequential run, with one
 * simulation ever per distinct fingerprint once the table has seen it.
 * CI builds this test with TDM_SANITIZE=thread, so every lock
 * elision, unsynchronized counter, or racing log write in the engine
 * / cache / logging stack is a loud failure here, not a rare
 * corruption in a long campaign.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "driver/campaign/engine.hh"
#include "driver/graph_cache.hh"
#include "driver/service/store.hh"
#include "sim/logging.hh"

using namespace tdm;
using namespace tdm::driver;

namespace {

Experiment
point(core::RuntimeType rt_, const std::string &sched, unsigned cores)
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks: fast
    e.runtime = rt_;
    e.config.scheduler = sched;
    e.config.numCores = cores;
    return e;
}

/** Six distinct specs plus two in-list duplicates. */
std::vector<SweepPoint>
stressPoints()
{
    return {
        {"tdm/fifo", point(core::RuntimeType::Tdm, "fifo", 8)},
        {"tdm/age", point(core::RuntimeType::Tdm, "age", 8)},
        {"tdm/locality", point(core::RuntimeType::Tdm, "locality", 8)},
        {"sw/fifo", point(core::RuntimeType::Software, "fifo", 8)},
        {"sw/lifo", point(core::RuntimeType::Software, "lifo", 8)},
        {"tdm/fifo16", point(core::RuntimeType::Tdm, "fifo", 16)},
        {"dup/tdm-fifo", point(core::RuntimeType::Tdm, "fifo", 8)},
        {"dup/sw-fifo", point(core::RuntimeType::Software, "fifo", 8)},
    };
}

} // namespace

TEST(CampaignStress, ConcurrentClientsHammerOneEngine)
{
    // 6 client threads x 4 engine workers each, all against one
    // engine: 24 simulating threads sharing the result cache and the
    // build-once graph store, with progress logging on so the logging
    // stack is exercised concurrently too.
    constexpr unsigned kClients = 6;

    campaign::EngineOptions opts;
    opts.threads = 4;
    opts.progress = true; // worker threads write through sim::inform
    campaign::CampaignEngine engine(opts);

    const auto points = stressPoints();

    std::vector<campaign::CampaignResult> results(kClients);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                results[c] = engine.run("stress-" + std::to_string(c),
                                        points);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }

    // Every client sees every point complete...
    for (const auto &rep : results) {
        ASSERT_EQ(rep.jobs.size(), points.size());
        EXPECT_TRUE(rep.allOk()) << rep.name;
    }
    // ...and identical specs produce identical summaries no matter
    // which client or worker simulated them (the determinism
    // contract under maximal contention).
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &first = results[0].jobs[i];
        for (unsigned c = 1; c < kClients; ++c) {
            const auto &other = results[c].jobs[i];
            EXPECT_EQ(first.digest, other.digest) << first.label;
            EXPECT_EQ(first.summary.makespan, other.summary.makespan)
                << first.label;
        }
    }

    // One simulation ever per distinct fingerprint — exactly. The
    // claim table means clients racing before the table is
    // warm attach to the winner's simulation instead of repeating it,
    // so 6 distinct specs cost 6 simulations total across all 24
    // simulating threads.
    EXPECT_EQ(engine.cachedCount(), 6u);
    std::uint64_t simulated = 0;
    for (const auto &rep : results)
        simulated += rep.simulated;
    EXPECT_EQ(simulated, 6u);

    // The graph store built each distinct (workload, params) graph a
    // bounded number of times (racing duplicate builds are wasted
    // work, never extra instances): 8-core and 16-core points share
    // one 120-task graph.
    EXPECT_EQ(engine.graphCache().size(), 1u);

    // A second concurrent wave must be pure cache hits.
    std::vector<campaign::CampaignResult> rerun(kClients);
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                rerun[c] = engine.run("rerun-" + std::to_string(c),
                                      points);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    for (const auto &rep : rerun) {
        EXPECT_EQ(rep.simulated, 0u) << rep.name;
        EXPECT_EQ(rep.cacheHits, points.size()) << rep.name;
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(rep.jobs[i].summary.makespan,
                      results[0].jobs[i].summary.makespan)
                << rep.jobs[i].label;
        }
    }
}

TEST(CampaignStress, ConcurrentForkedGroupsStayDeterministic)
{
    // Fork groups under contention: four runtime x scheduler cells,
    // each with a leader plus a `power.*` variant (finalize fork) and
    // a `mem.*` variant (its own cold leg). Caching is off, so every
    // client drives the full fork machinery itself — eight
    // ForkGroupRunners per run, leader trees re-priced on worker
    // threads — while four clients do the same concurrently. TSan
    // checks the isolation (each group's runner is worker-private);
    // the asserts check the fork paths were actually
    // taken and stayed deterministic.
    constexpr unsigned kClients = 4;

    std::vector<SweepPoint> points;
    for (core::RuntimeType rt_ :
         {core::RuntimeType::Tdm, core::RuntimeType::Software}) {
        for (const char *sched : {"fifo", "locality"}) {
            const std::string tag =
                std::string(core::traitsOf(rt_).name) + "/" + sched;
            Experiment lead = point(rt_, sched, 8);
            points.push_back({tag + "/lead", lead});
            Experiment pw = lead;
            pw.config.power.activeWatts *= 2.0;
            points.push_back({tag + "/power", pw});
            Experiment mm = lead;
            mm.config.mem.l1Bytes /= 2;
            points.push_back({tag + "/mem", mm});
        }
    }

    campaign::EngineOptions opts;
    opts.threads = 4;
    opts.useCache = false;
    campaign::CampaignEngine engine(opts);

    std::vector<campaign::CampaignResult> results(kClients);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                results[c] = engine.run("fork-" + std::to_string(c),
                                        points);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }

    // Every client: 8 cold legs (4 leaders, 4 mem variants), 4 forked
    // power members, 4 shared legs, zero cache traffic.
    for (const auto &rep : results) {
        ASSERT_EQ(rep.jobs.size(), points.size());
        EXPECT_TRUE(rep.allOk()) << rep.name;
        EXPECT_EQ(rep.simulated, 8u) << rep.name;
        EXPECT_EQ(rep.fromForked, 4u) << rep.name;
        EXPECT_EQ(rep.warmupsShared, 4u) << rep.name;
        EXPECT_EQ(rep.cacheHits, 0u) << rep.name;
    }

    // Forked results are deterministic across clients and identical
    // to a fork-disabled (all-cold) reference run.
    campaign::EngineOptions coldOpts;
    coldOpts.threads = 4;
    coldOpts.useCache = false;
    coldOpts.warmFork = false;
    campaign::CampaignEngine coldEngine(coldOpts);
    const campaign::CampaignResult cold =
        coldEngine.run("fork-cold-ref", points);
    EXPECT_EQ(cold.fromForked, 0u);

    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const auto &rep : results) {
            EXPECT_EQ(rep.jobs[i].summary.makespan,
                      cold.jobs[i].summary.makespan)
                << rep.jobs[i].label;
        }
    }
}

TEST(CampaignStress, ResultStoreConcurrentPublishFetch)
{
    // The persistent store behind a concurrently shared engine: 8
    // threads publish and fetch the same 24 keys (identical bytes per
    // key, so racing writers are benign). TSan checks the index lock;
    // the final sweep checks no entry was lost or damaged.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kOps = 400;
    constexpr unsigned kKeys = 24;

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path()
        / ("tdm_store_stress_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    {
        service::ResultStore store(dir.string());
        std::vector<RunSummary> summaries(kKeys);
        for (unsigned k = 0; k < kKeys; ++k) {
            sim::MetricSet m;
            m.set("machine.completed", 1);
            m.set("machine.makespan_ticks", 77000 + k);
            m.set("machine.time_ms", 0.5 * k);
            summaries[k] = *driver::summaryOf(m);
        }
        auto keyOf = [](unsigned k) {
            return "stress.key=" + std::to_string(k) + ";";
        };

        std::vector<std::thread> pool;
        pool.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            pool.emplace_back([&, t] {
                for (unsigned i = 0; i < kOps; ++i) {
                    const unsigned k = (t * 11 + i) % kKeys;
                    if (i % 4 == 0) {
                        store.publish(keyOf(k), summaries[k]);
                    } else if (auto hit = store.fetch(keyOf(k))) {
                        EXPECT_EQ(hit->makespan, 77000 + k);
                    }
                }
            });
        }
        for (std::thread &t : pool)
            t.join();

        EXPECT_EQ(store.corrupt(), 0u);
        EXPECT_EQ(store.size(), kKeys);
        for (unsigned k = 0; k < kKeys; ++k) {
            auto hit = store.fetch(keyOf(k));
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(hit->makespan, 77000 + k);
            EXPECT_EQ(hit->machine.metrics.get("machine.time_ms"),
                      0.5 * k);
        }
    }
    fs::remove_all(dir);
}

TEST(CampaignStress, GraphCacheConcurrentObtainSharesOneInstance)
{
    // 8 threads obtain the same 3 distinct graphs over and over; all
    // consumers of a key must receive pointer-identical instances
    // (first publisher wins), and builds() must count distinct keys,
    // not racing duplicate builds.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 25;

    GraphCache cache;
    std::vector<Experiment> exps = {
        point(core::RuntimeType::Tdm, "fifo", 8),
        point(core::RuntimeType::Software, "fifo", 8),
        point(core::RuntimeType::Tdm, "fifo", 8),
    };
    exps[1].params.granularity = 1048576; // distinct graph
    exps[2].params.seed = 7;              // distinct graph

    std::vector<std::vector<const rt::TaskGraph *>> seen(
        kThreads, std::vector<const rt::TaskGraph *>(exps.size(),
                                                     nullptr));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned r = 0; r < kRounds; ++r) {
                for (std::size_t e = 0; e < exps.size(); ++e) {
                    auto g = cache.obtain(exps[e]);
                    ASSERT_NE(g, nullptr);
                    if (!seen[t][e])
                        seen[t][e] = g.get();
                    else
                        EXPECT_EQ(seen[t][e], g.get());
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    for (std::size_t e = 0; e < exps.size(); ++e)
        for (unsigned t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[0][e], seen[t][e]);
    EXPECT_EQ(cache.size(), exps.size());
    EXPECT_EQ(cache.builds(), exps.size());
}

TEST(CampaignStress, LogLevelTogglesWhileWorkersLog)
{
    // The global log level is set by CLIs while campaign workers are
    // reporting progress; it must be safely readable mid-write (it
    // used to be a plain global — a TSan-visible race).
    const sim::LogLevel before = sim::logLevel();
    std::atomic<bool> stop{false};

    std::thread toggler([&] {
        for (int i = 0; i < 2000; ++i)
            sim::setLogLevel(i % 2 ? sim::LogLevel::Info
                                   : sim::LogLevel::Warn);
        stop.store(true);
    });
    std::vector<std::thread> loggers;
    for (int t = 0; t < 4; ++t) {
        loggers.emplace_back([&] {
            while (!stop.load())
                sim::inform("stress log line");
        });
    }
    toggler.join();
    for (std::thread &t : loggers)
        t.join();
    sim::setLogLevel(before);
    SUCCEED();
}
