/**
 * @file
 * hostbench: host-time benchmark of the TDM simulator.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--pins FILE] [--work DIR]
 *   hostbench --workload NAME --seed N --pin
 *
 * --trace 0 repeats passes of the workload for S seconds (each pass:
 * set-up, timed campaign leg with JSON export, replay leg), checks
 * every point's digest and prints the end-to-end metrics. --trace 1
 * runs one untraced pass, one span-traced leg and one layer-replay
 * leg, and prints the per-layer metrics. --pin prints the workload's
 * pin line (digests of a cold, unforked run) for the pin file. The
 * last stdout line is always one JSON object.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "core/machine.hh"
#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/fork_runner.hh"
#include "driver/graph_cache.hh"
#include "driver/report/json_writer.hh"
#include "driver/service/client.hh"
#include "driver/service/server.hh"
#include "driver/service/store.hh"
#include "driver/spec/spec.hh"

namespace hostbench {
namespace {

namespace fs = std::filesystem;
namespace driver = tdm::driver;
namespace report = tdm::driver::report;
namespace service = tdm::driver::service;
namespace spec = tdm::driver::spec;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string pins = "hostbench/pins.txt";
    std::string work = ".bench_build/hostbench-work";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "hostbench: " << msg
              << "\nusage: hostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--pins FILE] [--work DIR] [--pin]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--pins")
                o.pins = value();
            else if (a == "--work")
                o.work = value();
            else if (a == "--pin")
                o.pin = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!findWorkload(o.workload)) {
        std::string names;
        for (const std::string &n : workloadNames())
            names += " " + n;
        usage("--workload must be one of:" + names);
    }
    return o;
}

// ---- output check ----------------------------------------------------

/**
 * Per-point correctness: with a pinned seed every digest must equal
 * its pin; otherwise every point must complete with its graph's task
 * count, and every later sighting of a point (another pass, a replay,
 * the traced leg) must reproduce the first one's digest.
 */
class Checker
{
  public:
    Checker(const PinTable &pins, const std::string &workload,
            std::uint64_t seed)
    {
        auto it = pins.find({workload, seed});
        if (it != pins.end())
            pinned_ = it->second;
    }

    bool pinned() const { return !pinned_.empty(); }

    /** Check point @p i's outcome; returns true when it passes. */
    bool
    check(std::size_t i, const campaign::JobResult &job,
          std::uint32_t task_count)
    {
        if (!job.ok() || job.summary.numTasks != task_count)
            return false;
        const std::uint32_t d = summaryDigest(job.summary);
        if (pinned())
            return i < pinned_.size() && d == pinned_[i];
        if (reference_.size() <= i)
            reference_.resize(i + 1, std::nullopt);
        if (!reference_[i])
            reference_[i] = d;
        return *reference_[i] == d;
    }

    /** Check a whole campaign result; returns the failure count. */
    std::size_t
    checkAll(const campaign::CampaignResult &r,
             const std::vector<std::uint32_t> &task_counts)
    {
        if (r.jobs.size() != task_counts.size())
            return task_counts.size();
        std::size_t failed = 0;
        for (std::size_t i = 0; i < r.jobs.size(); ++i)
            if (!check(i, r.jobs[i], task_counts[i]))
                ++failed;
        return failed;
    }

  private:
    std::vector<std::uint32_t> pinned_;
    std::vector<std::optional<std::uint32_t>> reference_;
};

// ---- service replay --------------------------------------------------

/** Address of the replay leg's service: a unix socket in the work
 *  directory when its path is short enough, loopback tcp otherwise. */
std::string
serviceAddress(const fs::path &work)
{
    const fs::path sock = fs::relative(work) / "svc.sock";
    std::error_code ec;
    fs::remove(sock, ec);
    if (sock.string().size() < 100)
        return "unix:" + sock.string();
    return "tcp:127.0.0.1:0";
}

/** Runs a server's accept loop on its own thread; stops and joins on
 *  destruction (exception paths included). */
class ServerThread
{
  public:
    explicit ServerThread(service::CampaignServer &srv)
        : srv_(srv), thread_([this] { srv_.serve(); })
    {}
    ~ServerThread()
    {
        srv_.stop();
        thread_.join();
    }
    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;

  private:
    service::CampaignServer &srv_;
    std::thread thread_;
};

/** Serve @p c from the store in @p store_dir: an in-process server on
 *  a cold engine, one client re-submitting the whole campaign. */
campaign::CampaignResult
replayFromStore(const fs::path &work, const std::string &store_dir,
                const campaign::Campaign &c, unsigned threads)
{
    service::ServerOptions so;
    so.engine.threads = threads;
    so.storeDir = store_dir;
    service::CampaignServer srv(service::parseAddress(serviceAddress(work)),
                                so);
    ServerThread running(srv);
    service::ServiceClient client(srv.address().display());
    return client.submit(c);
}

// ---- untraced passes -------------------------------------------------

struct PassOut
{
    double setupS = 0.0, wallS = 0.0, cpuS = 0.0;
    std::uint64_t tasks = 0;
    double workerBusy = 0.0;
    /** Reference-speed factor: kCalibrationRefS over the calibration
     *  kernel's time around this pass. */
    double speed = 1.0;
    std::vector<double> replayS;
    std::size_t attempted = 0, failed = 0;
};

/**
 * One pass: set-up (spec expansion, engine and store construction,
 * every task graph through the engine's GraphCache), the timed leg
 * (cold result cache, JSON export included), then the replay leg.
 */
PassOut
runPass(const Workload &w, const Options &o, Checker &chk, unsigned pass)
{
    PassOut p;
    const fs::path work(o.work);
    const std::string storeDir =
        (work / ("store-" + std::to_string(pass))).string();
    fs::remove_all(storeDir);
    const double calBefore = calibrationSeconds();

    const Clock::time_point t0 = Clock::now();
    const campaign::Campaign c = w.build(o.seed);
    std::unique_ptr<service::ResultStore> store;
    campaign::EngineOptions eo;
    eo.threads = w.threads;
    if (w.store) {
        store = std::make_unique<service::ResultStore>(storeDir);
        eo.backend = store.get();
    }
    campaign::CampaignEngine engine(eo);
    std::vector<std::uint32_t> taskCounts;
    for (const tdm::driver::SweepPoint &pt : c.points)
        taskCounts.push_back(engine.graphCache().obtain(pt.exp)->numTasks());
    p.setupS = secondsSince(t0);

    const double cpu0 = cpuSeconds();
    const Clock::time_point t1 = Clock::now();
    const campaign::CampaignResult r = engine.run(c);
    {
        std::ofstream f(work / "export.json");
        report::writeJson(f, r);
    }
    p.wallS = secondsSince(t1);
    p.cpuS = cpuSeconds() - cpu0;

    double pointMs = 0.0;
    for (const campaign::JobResult &j : r.jobs) {
        p.tasks += j.summary.numTasks;
        pointMs += j.wallMs;
    }
    p.workerBusy = pointMs / (w.threads * std::max(r.wallMs, 1e-9));
    p.attempted += c.points.size();
    p.failed += chk.checkAll(r, taskCounts);

    // Replay leg: the same campaign served again — from the engine's
    // warm in-memory cache, or from disk through the service.
    const campaign::JobSource want = w.store ? campaign::JobSource::Disk
                                             : campaign::JobSource::Memory;
    for (unsigned k = 0; k < w.replays; ++k) {
        const Clock::time_point t2 = Clock::now();
        const campaign::CampaignResult rr =
            w.store ? replayFromStore(work, storeDir, c, w.threads)
                    : engine.run(c);
        std::ostringstream os;
        report::writeJson(os, rr);
        p.replayS.push_back(secondsSince(t2));
        p.attempted += c.points.size();
        p.failed += chk.checkAll(rr, taskCounts);
        for (const campaign::JobResult &j : rr.jobs)
            if (j.source != want)
                ++p.failed;
    }
    store.reset();
    fs::remove_all(storeDir);
    p.speed = kCalibrationRefS / ((calBefore + calibrationSeconds()) / 2);
    return p;
}

// ---- JSON result line ------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": ";
        report::jsonNumber(os, metrics[i].value);
        os << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

int
runEndToEnd(const Workload &w, const Options &o, Checker &chk)
{
    std::vector<PassOut> passes;
    const Clock::time_point t0 = Clock::now();
    // At least three passes; stop starting new ones once the budget is
    // spent or another pass could overrun the 180 s run limit.
    while (true) {
        passes.push_back(runPass(w, o, chk, passes.size()));
        const double elapsed = secondsSince(t0);
        const double perPass = elapsed / passes.size();
        if (passes.size() >= 3
            && (elapsed >= o.seconds || elapsed + perPass > 150.0))
            break;
    }

    std::vector<double> setup, wall, cpu, perTask, replay;
    std::size_t attempted = 0, failed = 0;
    for (const PassOut &p : passes) {
        std::printf("  pass (raw host time): setup %.4f s, wall %.4f s, "
                    "cpu %.4f s, replay %.4f s; host speed %.3f\n",
                    p.setupS, p.wallS, p.cpuS, median(p.replayS), p.speed);
        setup.push_back(p.setupS * p.speed);
        wall.push_back(p.wallS * p.speed);
        cpu.push_back(p.cpuS * p.speed);
        perTask.push_back(p.cpuS * p.speed * 1e6
                          / std::max<double>(1.0, p.tasks));
        for (double r : p.replayS)
            replay.push_back(r * p.speed);
        attempted += p.attempted;
        failed += p.failed;
    }
    std::printf("hostbench %s seed %llu: %zu passes, %zu points checked, "
                "%zu failed (fail_rate %.4f)\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                passes.size(), attempted, failed,
                static_cast<double>(failed) / std::max<std::size_t>(1,
                                                              attempted));
    // A shared host's speed drifts by tens of percent over minutes, so
    // every timing is scaled to reference-host seconds by the speed
    // the calibration kernel measured around its pass; the metric is
    // the median over the run's passes (replays).
    printResult(failed == 0, attempted, failed,
                {{"setup_s", median(setup), "s"},
                 {"wall_s", median(wall), "s"},
                 {"cpu_s", median(cpu), "s"},
                 {"host_us_per_task", median(perTask), "us"},
                 {"replay_s", median(replay), "s"},
                 {"peak_rss_mb", peakRssMb(), "MiB"}});
    return 0;
}

// ---- traced run ------------------------------------------------------

/** Per-point outcome of the span-traced leg. */
struct LegPoint
{
    campaign::JobResult job;
    std::uint64_t spanId = 0;
};

struct LayerTotals
{
    LayerReplay sum;
    double memDev = 0, dmuDev = 0, nocDev = 0, poolDev = 0;
    double runMsTotal = 0;
    std::vector<double> setupMs, runMs;

    void
    add(const LayerReplay &r)
    {
        LayerReplay &s = sum;
        s.memCalls += r.memCalls;
        s.memL1Hits += r.memL1Hits;
        s.memL1Misses += r.memL1Misses;
        s.memNs += r.memNs;
        s.eqEvents += r.eqEvents;
        s.eqNs += r.eqNs;
        s.dmuOps += r.dmuOps;
        s.dmuBlocked += r.dmuBlocked;
        s.dmuNs += r.dmuNs;
        s.nocMessages += r.nocMessages;
        s.nocFlitHops += r.nocFlitHops;
        s.nocNs += r.nocNs;
        s.poolOps += r.poolOps;
        s.poolNs += r.poolNs;
        memDev = std::max(memDev, r.memDev);
        dmuDev = std::max(dmuDev, r.dmuDev);
        nocDev = std::max(nocDev, r.nocDev);
        poolDev = std::max(poolDev, r.poolDev);
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
runTraced(const Workload &w, const Options &o, Checker &chk)
{
    const fs::path work(o.work);
    std::size_t attempted = 0, failed = 0;

    // 1. One untraced pass: the baseline for the tracing overhead, the
    //    engine's own worker occupancy, and the reference digests.
    const PassOut base = runPass(w, o, chk, 0);
    attempted += base.attempted;
    failed += base.failed;

    // 2. The span-traced leg: the engine's schedule (warm-prefix fork
    //    groups, one group per worker dispatch) re-driven from here so
    //    each layer call can be timed from outside.
    const unsigned workers = w.threads;
    SpanLog log(workers + 1, Clock::now());
    log.nameTrack(0, "main");
    for (unsigned k = 0; k < workers; ++k)
        log.nameTrack(k + 1, "engine worker " + std::to_string(k));

    double expandMs = 0, graphBuildMs = 0;
    campaign::Campaign c;
    driver::GraphCache graphs;
    std::vector<std::shared_ptr<const tdm::rt::TaskGraph>> graphOf;
    std::vector<std::uint32_t> taskCounts;
    std::vector<tdm::sim::Config> canon;
    std::vector<std::string> keys, roiKeys;
    std::vector<std::vector<std::size_t>> groups;
    const std::string storeDir = (work / "store-traced").string();
    fs::remove_all(storeDir);
    std::unique_ptr<service::ResultStore> store;
    {
        ScopedSpan setup(log, 0, "bench.setup");
        {
            ScopedSpan s(log, 0, "driver.spec.expand", "", setup.id());
            c = w.build(o.seed);
            expandMs = s.close();
        }
        for (const tdm::driver::SweepPoint &pt : c.points) {
            const std::uint64_t before = graphs.builds();
            ScopedSpan s(log, 0, "workloads.graph_obtain", pt.label,
                         setup.id());
            graphOf.push_back(graphs.obtain(pt.exp));
            const double ms = s.close();
            if (graphs.builds() != before)
                graphBuildMs += ms;
            taskCounts.push_back(graphOf.back()->numTasks());
        }
        if (w.store) {
            ScopedSpan s(log, 0, "driver.service.store_open", "",
                         setup.id());
            store = std::make_unique<service::ResultStore>(storeDir);
        }
        std::unordered_map<std::string, std::size_t> groupOf;
        for (const tdm::driver::SweepPoint &pt : c.points) {
            canon.push_back(campaign::canonicalConfig(pt.exp));
            keys.push_back(canon.back().serialize());
            roiKeys.push_back(spec::roiFingerprint(canon.back()));
            auto [it, fresh] = groupOf.emplace(
                spec::warmFingerprint(canon.back()), groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(keys.size() - 1);
        }
        for (std::vector<std::size_t> &g : groups)
            std::stable_sort(g.begin(), g.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return roiKeys[a] < roiKeys[b];
                             });
    }

    const std::size_t n = c.points.size();
    std::vector<LegPoint> legs(n);
    std::vector<double> coldMs(n, -1), warmMs(n, -1), finalMs(n, -1),
        publishMs(n, -1);
    std::vector<char> forkedFlag(n, 0);
    std::atomic<std::size_t> nextGroup{0};
    auto worker = [&](unsigned track) {
        for (;;) {
            const std::size_t gi = nextGroup.fetch_add(1);
            if (gi >= groups.size())
                return;
            const std::vector<std::size_t> &g = groups[gi];
            const bool forkGroup = g.size() > 1;
            ScopedSpan group(log, track,
                             forkGroup ? "driver.fork.group"
                                       : "driver.campaign.group");
            driver::ForkGroupRunner runner(graphOf[g.front()], true);
            std::string trajectoryRoi;
            for (const std::size_t i : g) {
                const driver::Experiment &exp = c.points[i].exp;
                ScopedSpan pt(log, track, "point", c.points[i].label,
                              group.id());
                LegPoint &lp = legs[i];
                lp.spanId = pt.id();
                lp.job.label = c.points[i].label;
                lp.job.spec = canon[i];
                lp.job.digest = campaign::digestOfKey(keys[i]);
                try {
                    if (!forkGroup) {
                        // What the engine runs for a singleton group.
                        std::unique_ptr<tdm::core::Machine> m;
                        {
                            ScopedSpan s(log, track, "core.machine_setup",
                                         lp.job.label, pt.id());
                            m = std::make_unique<tdm::core::Machine>(
                                exp.config, graphOf[i], exp.runtime);
                        }
                        tdm::core::MachineResult mr;
                        {
                            ScopedSpan s(log, track, "core.run", lp.job.label,
                                         pt.id());
                            mr = m->run();
                        }
                        ScopedSpan s(log, track, "driver.summarize",
                                     lp.job.label, pt.id());
                        lp.job.summary =
                            driver::summarize(std::move(mr), *graphOf[i]);
                    } else {
                        ScopedSpan s(log, track, "driver.fork.run",
                                     lp.job.label, pt.id());
                        bool forked = false;
                        lp.job.summary =
                            runner.run(exp, roiKeys[i], nullptr, &forked);
                        const double ms = s.close();
                        if (!forked) {
                            s.rename("driver.fork.cold_leg");
                            coldMs[i] = ms;
                            trajectoryRoi = roiKeys[i];
                        } else if (roiKeys[i] == trajectoryRoi) {
                            s.rename("driver.fork.final");
                            finalMs[i] = ms;
                        } else {
                            s.rename("driver.fork.warm");
                            warmMs[i] = ms;
                            trajectoryRoi = roiKeys[i];
                        }
                        forkedFlag[i] = forked;
                        if (forked)
                            lp.job.source = campaign::JobSource::Forked;
                    }
                } catch (const std::exception &e) {
                    // A failed point, as the engine reports one.
                    lp.job.error = e.what();
                    runner.reset();
                    continue;
                }
                if (store) {
                    ScopedSpan s(log, track,
                                 "driver.service.store_publish",
                                 lp.job.label, pt.id());
                    store->publish(keys[i], lp.job.summary);
                    publishMs[i] = s.close();
                }
            }
        }
    };

    const Clock::time_point legStart = Clock::now();
    {
        ScopedSpan leg(log, 0, "bench.traced_leg");
        const unsigned pool = static_cast<unsigned>(
            std::min<std::size_t>(workers, groups.size()));
        std::vector<std::thread> threads;
        for (unsigned k = 1; k < pool; ++k)
            threads.emplace_back(worker, k + 1);
        worker(1);
        for (std::thread &t : threads)
            t.join();
    }
    campaign::CampaignResult traced;
    traced.name = c.name;
    traced.threads = workers;
    for (LegPoint &lp : legs)
        traced.jobs.push_back(lp.job);
    double exportMs = 0;
    {
        ScopedSpan s(log, 0, "driver.report.export");
        std::ofstream f(work / "export-traced.json");
        report::writeJson(f, traced);
        exportMs = s.close();
    }
    const double tracedWallS = secondsSince(legStart);
    attempted += n;
    failed += chk.checkAll(traced, taskCounts);

    // Store reads from a freshly opened store, so every fetch is a
    // disk read.
    std::vector<double> fetchMs;
    std::uint64_t fetchHits = 0;
    if (store) {
        store.reset();
        service::ResultStore reopened(storeDir);
        for (std::size_t i = 0; i < n; ++i) {
            ScopedSpan s(log, 0, "driver.service.store_fetch",
                         c.points[i].label);
            if (reopened.fetch(keys[i]))
                ++fetchHits;
            fetchMs.push_back(s.close());
        }
    }
    fs::remove_all(storeDir);

    // 3. The layer-replay leg: every point the engine simulates cold
    //    (singleton groups and each fork group's leader) runs once
    //    untraced for core.* timing and once with simulator tracing on
    //    as the replay source.
    LayerTotals lt;
    double simTraceOverheadMs = 0;
    const std::uint32_t cats = tdm::sim::parseTraceCategories(
        kReplayCategories);
    for (const std::vector<std::size_t> &g : groups) {
        const std::size_t i = g.front();
        const driver::Experiment &exp = c.points[i].exp;
        const std::string &label = c.points[i].label;
        ScopedSpan pt(log, 0, "replay_source", label, legs[i].spanId);
        double runMs = 0;
        {
            std::unique_ptr<tdm::core::Machine> m;
            {
                ScopedSpan s(log, 0, "core.machine_setup", label, pt.id());
                m = std::make_unique<tdm::core::Machine>(
                    exp.config, graphOf[i], exp.runtime);
                lt.setupMs.push_back(s.close());
            }
            ScopedSpan s(log, 0, "core.run", label, pt.id());
            m->run();
            runMs = s.close();
            lt.runMs.push_back(runMs);
            lt.runMsTotal += runMs;
        }
        driver::Experiment texp = exp;
        texp.config.trace.categories = cats;
        texp.config.trace.bufferEvents = std::uint64_t{1} << 26;
        tdm::core::Machine tm(texp.config, graphOf[i], texp.runtime);
        tdm::core::MachineResult tr;
        {
            ScopedSpan s(log, 0, "bench.traced_run", label, pt.id());
            tr = tm.run();
            simTraceOverheadMs += s.close() - runMs;
        }
        ScopedSpan s(log, 0, "bench.replay", label, pt.id());
        const LayerReplay lr =
            replayLayers(exp, *graphOf[i], tm.traceBuffer(), tr.metrics);
        for (const LayerReplay::Timed &t : lr.timed)
            log.add(0, t.layer, label, s.id(), t.start, t.end);
        lt.add(lr);
    }

    const fs::path tracePath =
        work / ("trace-" + w.name + "-seed" + std::to_string(o.seed)
                + ".json");
    log.writeChromeTrace(tracePath.string());

    auto medianOf = [](const std::vector<double> &v) {
        std::vector<double> kept;
        for (double x : v)
            if (x >= 0)
                kept.push_back(x);
        return median(kept);
    };
    auto meanOf = [](const std::vector<double> &v) {
        double s = 0;
        std::size_t k = 0;
        for (double x : v)
            if (x >= 0) {
                s += x;
                ++k;
            }
        return k ? s / static_cast<double>(k) : 0.0;
    };
    std::size_t forked = 0;
    for (char f : forkedFlag)
        forked += f != 0;
    const LayerReplay &s = lt.sum;
    const double maxRun =
        lt.runMs.empty() ? 0.0
                         : *std::max_element(lt.runMs.begin(),
                                             lt.runMs.end());
    std::printf("hostbench %s seed %llu (traced): %zu points, %zu replay "
                "sources, trace %s\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed), n,
                groups.size(), tracePath.string().c_str());
    auto fidelity = [](const char *layer, bool has, double dev) {
        if (has && dev != 0.0)
            std::printf("  warning: %s replay deviates from the traced "
                        "run by %.6f; its per-call cost is approximate\n",
                        layer, dev);
    };
    fidelity("memory", s.memCalls > 0, lt.memDev);
    fidelity("DMU", s.dmuOps > 0, lt.dmuDev);
    fidelity("NoC", s.nocMessages > 0, lt.nocDev);
    fidelity("ready-pool", s.poolOps > 0, lt.poolDev);

    const double replayMs = s.totalNs() / 1e6;
    printResult(
        failed == 0, attempted, failed,
        {{"driver.spec.expand_ms", expandMs, "ms"},
         {"workloads.graph_build_ms", graphBuildMs, "ms"},
         {"core.machine_setup_ms", median(lt.setupMs), "ms"},
         {"core.run_ms.p50", median(lt.runMs), "ms"},
         {"core.run_ms.max", maxRun, "ms"},
         {"mem.ns_per_task_access", ratio(s.memNs, s.memCalls), "ns"},
         {"mem.task_accesses", static_cast<double>(s.memCalls), "count"},
         {"mem.l1_hit_rate",
          ratio(s.memL1Hits, s.memL1Hits + s.memL1Misses), "ratio"},
         {"mem.replay_deviation", lt.memDev, "ratio"},
         {"sim.eventq.ns_per_event", ratio(s.eqNs, s.eqEvents), "ns"},
         {"sim.eventq.events", static_cast<double>(s.eqEvents), "count"},
         {"dmu.ns_per_op", ratio(s.dmuNs, s.dmuOps), "ns"},
         {"dmu.ops", static_cast<double>(s.dmuOps), "count"},
         {"dmu.blocked_ratio", ratio(s.dmuBlocked, s.dmuOps), "ratio"},
         {"dmu.replay_deviation", lt.dmuDev, "ratio"},
         {"noc.ns_per_roundtrip", ratio(s.nocNs, s.nocMessages / 2.0),
          "ns"},
         {"noc.messages", static_cast<double>(s.nocMessages), "count"},
         {"noc.flit_hops", static_cast<double>(s.nocFlitHops), "count"},
         {"noc.replay_deviation", lt.nocDev, "ratio"},
         {"runtime.pool.ns_per_op", ratio(s.poolNs, s.poolOps), "ns"},
         {"runtime.pool.ops", static_cast<double>(s.poolOps), "count"},
         {"runtime.pool.replay_deviation", lt.poolDev, "ratio"},
         {"core.residual_share",
          lt.runMsTotal > 0 ? 1.0 - replayMs / lt.runMsTotal : 0.0,
          "ratio"},
         {"driver.fork.cold_leg_ms", medianOf(coldMs), "ms"},
         {"driver.fork.warm_ms", medianOf(warmMs), "ms"},
         {"driver.fork.final_ms", medianOf(finalMs), "ms"},
         {"driver.fork.forked_share", ratio(forked, n), "ratio"},
         {"driver.campaign.worker_busy", base.workerBusy, "ratio"},
         {"driver.service.store_publish_ms", meanOf(publishMs), "ms"},
         {"driver.service.store_fetch_ms", meanOf(fetchMs), "ms"},
         {"driver.service.disk_hit_rate",
          ratio(fetchHits, fetchMs.size()), "ratio"},
         {"driver.report.export_ms", exportMs, "ms"},
         {"bench.trace_overhead_ms", (tracedWallS - base.wallS) * 1e3,
          "ms"},
         {"bench.sim_trace_overhead_ms", simTraceOverheadMs, "ms"}});
    return 0;
}

// ---- pin generation --------------------------------------------------

int
runPin(const Workload &w, const Options &o)
{
    campaign::EngineOptions eo;
    eo.threads = 0;      // all hardware threads: results do not depend on it
    eo.warmFork = false; // pins come from cold runs only
    campaign::CampaignEngine engine(eo);
    const campaign::CampaignResult r = engine.run(w.build(o.seed));
    if (!r.allOk()) {
        std::cerr << "hostbench: " << r.failures()
                  << " points failed; not pinning\n";
        return 1;
    }
    std::vector<std::uint32_t> digests;
    for (const campaign::JobResult &j : r.jobs)
        digests.push_back(summaryDigest(j.summary));
    std::printf("%s\n", formatPinLine(w.name, o.seed, digests).c_str());
    return 0;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    const Options o = parseArgs(argc, argv);
    const Workload &w = *findWorkload(o.workload);
    try {
        if (o.pin)
            return runPin(w, o);
        std::filesystem::create_directories(o.work);
        Checker chk(loadPins(o.pins), w.name, o.seed);
        if (!chk.pinned())
            std::printf("hostbench: seed %llu has no pinned digests for "
                        "%s; checking completion, task counts and "
                        "repeatability only\n",
                        static_cast<unsigned long long>(o.seed),
                        w.name.c_str());
        return o.trace ? runTraced(w, o, chk) : runEndToEnd(w, o, chk);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 1;
    }
}
