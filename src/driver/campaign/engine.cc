#include "driver/campaign/engine.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "driver/campaign/fingerprint.hh"
#include "driver/fork_runner.hh"
#include "driver/report/trace_writer.hh"
#include "driver/spec/spec.hh"
#include "sim/logging.hh"

namespace tdm::driver::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Attach the standard incompletion error to a filled-in job. */
void
markIncomplete(JobResult &job)
{
    if (job.error.empty() && !job.summary.completed)
        job.error = "experiment did not complete (deadlock or watchdog)";
}

} // namespace

bool
jobSourceFromName(std::string_view name, JobSource &out)
{
    for (std::size_t s = 0; s < kJobSourceCount; ++s)
        if (name == kJobSourceNames[s]) {
            out = static_cast<JobSource>(s);
            return true;
        }
    return false;
}

std::size_t
CampaignResult::failures() const
{
    std::size_t n = 0;
    for (const JobResult &j : jobs)
        if (!j.ok())
            ++n;
    return n;
}

const JobResult *
CampaignResult::find(const std::string &label) const
{
    for (const JobResult &j : jobs)
        if (j.label == label)
            return &j;
    return nullptr;
}

const JobResult &
CampaignResult::at(const std::string &label) const
{
    const JobResult *j = find(label);
    if (!j)
        sim::fatal("campaign ", name, ": no point labeled ", label);
    return *j;
}

std::uint64_t
parseUintArg(const char *value, const char *flag, std::uint64_t max)
{
    // strtoull wraps negatives and overflow; reject both explicitly.
    if (!std::isdigit(static_cast<unsigned char>(value[0])))
        sim::fatal(flag, " expects a nonnegative integer, got '", value,
                   "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(value, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        sim::fatal(flag, " expects a nonnegative integer <= ", max,
                   ", got '", value, "'");
    return v;
}

EngineOptions
benchEngineOptions(int argc, char **argv)
{
    EngineOptions opts;
    opts.threads = 0; // hardware concurrency
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            opts.threads = static_cast<unsigned>(parseUintArg(
                argv[++i], "--threads", UINT32_MAX));
        else
            sim::fatal("unknown argument: ", argv[i],
                       " (benches accept --threads N)");
    }
    return opts;
}

CampaignEngine::CampaignEngine(EngineOptions opts) : opts_(opts) {}

std::size_t
CampaignEngine::cachedCount() const
{
    std::lock_guard<std::mutex> lock(claimsMutex_);
    return static_cast<std::size_t>(std::count_if(
        claims_.begin(), claims_.end(),
        [](const auto &kv) { return kv.second->done; }));
}

std::size_t
CampaignEngine::inflightCount() const
{
    std::lock_guard<std::mutex> lock(claimsMutex_);
    return static_cast<std::size_t>(std::count_if(
        claims_.begin(), claims_.end(),
        [](const auto &kv) { return !kv.second->done; }));
}

CampaignResult
CampaignEngine::run(const Campaign &c, const JobCallback &onJob)
{
    CampaignResult rep = run(c.name, c.points, onJob);
    rep.metricsPattern = c.metrics;
    return rep;
}

CampaignResult
CampaignEngine::run(const std::string &name,
                    const std::vector<SweepPoint> &points,
                    const JobCallback &onJob)
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = points.size();

    CampaignResult report;
    report.name = name;
    report.jobs.resize(n);

    unsigned threads = opts_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());

    // Serialized per-point completion hook (per-run mutex, so
    // concurrent run() calls on one engine never serialize each
    // other's streams). Stamps the point's position on this run's
    // timeline on the way out — the live-progress feed's x-axis.
    std::mutex emitMutex;
    auto emit = [&](JobResult &job, std::size_t index) {
        job.doneAtMs = msSince(t0);
        if (!onJob)
            return;
        std::lock_guard<std::mutex> lock(emitMutex);
        onJob(job, index, n);
    };

    // Publish job i's outcome to the claim this run owns on its key and
    // wake every point waiting on it. A thrown outcome is not cached:
    // its claim leaves the table in the same critical section, so the
    // waiters still receive the error and the next run() re-simulates.
    std::vector<std::string> keys(n);
    std::vector<std::shared_ptr<Claim>> owned(n);
    auto resolve = [&](std::size_t i) {
        const JobResult &job = report.jobs[i];
        {
            std::lock_guard<std::mutex> lock(claimsMutex_);
            Claim &claim = *owned[i];
            claim.summary = job.summary;
            claim.error = job.error;
            claim.threw = job.threw;
            claim.tracePath = job.tracePath;
            claim.done = true;
            if (job.threw)
                claims_.erase(keys[i]);
        }
        claimsCv_.notify_all();
    };

    // Phase 1 (serial intake): canonicalize and claim each point's
    // fingerprint. A new claim makes this run the key's owner: it asks
    // the external backend, and simulates on a miss. A done claim is a
    // memory hit. A pending one — an in-list duplicate, or an
    // identical point a concurrent run() is resolving — attaches and
    // is collected in phase 3 instead of re-simulating.
    std::vector<Experiment> exps;
    exps.reserve(n);
    std::vector<std::size_t> work; // indices this run simulates
    std::vector<std::pair<std::size_t, std::shared_ptr<Claim>>>
        attached; // indices waiting on another point's claim
    for (std::size_t i = 0; i < n; ++i) {
        exps.push_back(points[i].exp);
        if (opts_.seedBase != 0)
            exps.back().params.seed =
                opts_.seedBase + static_cast<std::uint64_t>(i);

        JobResult &job = report.jobs[i];
        job.label = points[i].label;
        job.spec = canonicalConfig(exps.back());
        const std::string &key = keys[i] = job.spec.serialize();
        job.digest = digestOfKey(key);

        if (!opts_.useCache) {
            work.push_back(i);
            continue;
        }
        std::unique_lock<std::mutex> lock(claimsMutex_);
        auto [it, fresh] = claims_.try_emplace(key);
        if (!fresh && !it->second->done) {
            attached.emplace_back(i, it->second);
            continue;
        }
        if (!fresh) {
            job.summary = it->second->summary;
            lock.unlock();
            job.source = JobSource::Memory;
            markIncomplete(job);
            emit(job, i);
            continue;
        }
        owned[i] = it->second = std::make_shared<Claim>();
        lock.unlock();
        if (opts_.backend) {
            if (auto hit = opts_.backend->fetch(key)) {
                job.summary = std::move(*hit);
                job.source = JobSource::Disk;
                markIncomplete(job);
                resolve(i);
                emit(job, i);
                continue;
            }
        }
        work.push_back(i);
    }

    // Phase 1.5: fork grouping. Points this run simulates are
    // bucketed by trajectory fingerprint (the Warmup-phase projection
    // of their canonical spec, first-seen order), so members differ
    // only in `power.*` keys; each bucket is one work unit simulating
    // a single cold leg and re-pricing its tree for the rest. Grouping
    // never changes any result — forked summaries are bit-identical
    // to cold ones — so output order and content stay
    // schedule-independent exactly as before.
    std::vector<std::string> forkKeys(n);
    std::vector<std::vector<std::size_t>> groups;
    if (opts_.warmFork) {
        std::unordered_map<std::string, std::size_t> groupOf;
        for (const std::size_t i : work) {
            forkKeys[i] = spec::warmFingerprint(report.jobs[i].spec);
            auto [it, fresh] =
                groupOf.emplace(forkKeys[i], groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    } else {
        groups.reserve(work.size());
        for (const std::size_t i : work)
            groups.push_back({i});
    }

    // Simulated points resolve their task graph through the engine's
    // build-once graph store from inside the worker loop, so workers
    // share one immutable graph per distinct graph key (the workload
    // keys of the canonical spec) instead of each rebuilding it — and
    // the builds themselves still run with full pool parallelism. A rare
    // concurrent duplicate build is wasted work, never wrong (first
    // publisher wins inside the cache).
    const std::uint64_t graphBuilds0 = graphs_.builds();

    // Phase 2: simulate the unique misses on the worker pool, one
    // fork group per dispatch. Results land at their input index, so
    // output order never depends on the execution schedule.
    std::atomic<std::size_t> nextJob{0};
    std::atomic<std::size_t> doneJobs{0};
    std::mutex progressMutex;
    auto workerLoop = [&] {
        for (;;) {
            const std::size_t g = nextJob.fetch_add(1);
            if (g >= groups.size())
                return;
            const std::vector<std::size_t> &group = groups[g];
            // Created on the group's first member so a graph-build
            // failure leaves it untouched; singleton groups skip the
            // fork machinery entirely.
            std::optional<ForkGroupRunner> runner;
            for (const std::size_t i : group) {
                JobResult &job = report.jobs[i];
                const bool wantTrace =
                    !opts_.traceDir.empty()
                    && exps[i].config.trace.categories != 0;
                sim::TraceBuffer tb;
                const Clock::time_point j0 = Clock::now();
                try {
                    // A graph-build failure lands in this job's
                    // error, exactly as it did when every point built
                    // its own. Members of one group share a graph by
                    // construction (workload keys are Warmup-phase).
                    std::shared_ptr<const rt::TaskGraph> graph =
                        graphs_.obtain(exps[i]);
                    if (!runner)
                        runner.emplace(graph, group.size() > 1);
                    bool forked = false;
                    job.summary =
                        runner->run(exps[i], forkKeys[i],
                                    wantTrace ? &tb : nullptr,
                                    &forked);
                    if (forked)
                        job.source = JobSource::Forked;
                    if (wantTrace) {
                        const std::string path =
                            opts_.traceDir + "/" + job.digest
                            + ".json";
                        std::ofstream f(path);
                        if (!f) {
                            sim::warn("cannot write trace file ",
                                      path);
                        } else {
                            report::TraceMeta meta;
                            meta.processName = job.label;
                            meta.numCores = exps[i].config.numCores;
                            meta.graph = graph.get();
                            report::writeChromeTrace(f, tb, meta);
                            job.tracePath = path;
                        }
                    }
                } catch (const std::exception &e) {
                    job.error = e.what();
                    job.threw = true;
                    if (runner)
                        runner->reset(); // machine may be mid-run
                } catch (...) {
                    job.error = "unknown error";
                    job.threw = true;
                    if (runner)
                        runner->reset();
                }
                job.wallMs = msSince(j0);
                // Publish any summary the simulator produced —
                // incomplete runs are as deterministic as complete
                // ones. Exceptions left no summary, so those are not
                // published.
                if (opts_.useCache && opts_.backend && job.error.empty())
                    opts_.backend->publish(keys[i], job.summary);
                markIncomplete(job);
                // Hand the outcome to every attached point (this run's
                // in-list duplicates and concurrent runs of the same
                // fingerprint). Runs even after an exception so
                // waiters never wait forever.
                if (opts_.useCache)
                    resolve(i);
                emit(job, i);
                const std::size_t k = doneJobs.fetch_add(1) + 1;
                if (opts_.progress) {
                    std::lock_guard<std::mutex> lock(progressMutex);
                    sim::inform("  [", k, "/", work.size(), "] ",
                                job.label,
                                job.source == JobSource::Forked
                                    ? " (forked)"
                                    : "",
                                job.ok() ? "" : " FAILED", " (",
                                job.wallMs, " ms)");
                }
            }
        }
    };

    const unsigned poolSize = static_cast<unsigned>(
        std::min<std::size_t>(threads, groups.size()));
    if (poolSize <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(poolSize);
        for (unsigned t = 0; t < poolSize; ++t)
            pool.emplace_back(workerLoop);
        for (std::thread &t : pool)
            t.join();
    }

    // Phase 3: collect the attached points. Their owners are this
    // run's own workers (in-list duplicates, already joined above) or
    // a concurrent run() on the same engine; owners always resolve
    // their claim — even on exception — so these waits terminate.
    for (auto &[i, claim] : attached) {
        JobResult &job = report.jobs[i];
        {
            std::unique_lock<std::mutex> lock(claimsMutex_);
            claimsCv_.wait(lock, [&] { return claim->done; });
            job.summary = claim->summary;
            job.error = claim->error;
            job.threw = claim->threw;
            job.tracePath = claim->tracePath;
        }
        job.source = JobSource::Inflight;
        markIncomplete(job);
        emit(job, i);
    }

    report.threads = threads;
    report.graphBuilds = graphs_.builds() - graphBuilds0;
    const std::uint64_t obtained = work.size();
    report.graphShares = obtained > report.graphBuilds
                             ? obtained - report.graphBuilds
                             : 0;
    report.wallMs = msSince(t0);
    for (const JobResult &j : report.jobs) {
        if (j.cacheHit())
            ++report.cacheHits;
        switch (j.source) {
        case JobSource::Memory: ++report.fromMemory; break;
        case JobSource::Disk: ++report.fromDisk; break;
        case JobSource::Inflight: ++report.fromInflight; break;
        case JobSource::Forked: ++report.fromForked; break;
        case JobSource::Simulated: break;
        }
        report.simMsTotal += j.wallMs;
    }
    // Cold legs = the simulated points minus the ones re-pricing
    // another point's run; a cold leg is "shared" when at least
    // one group member actually forked from it.
    report.simulated = work.size() - report.fromForked;
    for (const std::vector<std::size_t> &g : groups) {
        const bool shared = std::any_of(
            g.begin(), g.end(), [&](std::size_t i) {
                return report.jobs[i].source == JobSource::Forked;
            });
        if (shared)
            ++report.warmupsShared;
    }
    return report;
}

} // namespace tdm::driver::campaign
