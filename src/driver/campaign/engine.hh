/**
 * @file
 * The campaign engine: thread-pooled, cache-deduplicated execution of
 * experiment campaigns.
 *
 * The engine fingerprints every point, deduplicates identical points
 * through its ResultCache, runs the unique misses on a pool of worker
 * threads, and returns the results in input order. Because each
 * simulation is a pure function of its Experiment (all randomness is
 * seeded from the experiment parameters), every run, at any thread
 * count, is byte-identical to running each point on its own with
 * driver::run().
 */

#ifndef TDM_DRIVER_CAMPAIGN_ENGINE_HH
#define TDM_DRIVER_CAMPAIGN_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/campaign/campaign.hh"
#include "driver/campaign/result_cache.hh"
#include "driver/graph_cache.hh"
#include "sim/config.hh"

namespace tdm::driver::campaign {

/** Engine knobs. */
struct EngineOptions
{
    /** Worker threads; 0 selects the hardware concurrency. */
    unsigned threads = 1;

    /** Deduplicate identical points through the result cache. */
    bool useCache = true;

    /**
     * When nonzero, overrides every point's duration-noise seed with
     * seedBase + point index — deterministic per job by construction
     * (a job's seed depends on its position, never on which worker
     * thread picks it up or in which order jobs finish).
     */
    std::uint64_t seedBase = 0;

    /** Print per-job progress lines to stderr. */
    bool progress = false;

    /**
     * When nonempty, every simulated point whose spec enables trace
     * categories (trace.categories != none) writes its Chrome trace
     * JSON to "<traceDir>/<digest>.json". The directory must exist.
     * Points with tracing off are unaffected — their machines never
     * allocate a buffer.
     */
    std::string traceDir;

    /**
     * External result backend (typically the persistent on-disk
     * store): consulted after an in-memory cache miss, published to
     * after every successful simulation. Non-owning; must outlive the
     * engine. Only consulted when useCache is on.
     */
    CacheBackend *backend = nullptr;

    /**
     * Warm-start batching: group the points this run simulates by
     * their warm-prefix fingerprint (the Warmup-phase projection of
     * the canonical spec, see spec::KeyPhase), simulate one warmup
     * leg per group, and fork the remaining members from a checkpoint
     * taken at the warmup/ROI boundary (members differing only in
     * `power.*` keys fork at finalization and share the whole
     * trajectory). Pure wall-clock optimization: forked summaries are
     * bit-identical to cold runs (the forked-equivalence test pins
     * this), and groups degrade to cold legs when a checkpoint is
     * unavailable. Off (campaign_run --no-warm-fork) is only useful
     * for that comparison and for timing baselines.
     */
    bool warmFork = true;
};

/**
 * How a point's summary was obtained — the service-layer dedup
 * counters. "Disk" means the external CacheBackend (the on-disk
 * store); "Inflight" means the point attached to an identical point
 * already simulating (in this run or a concurrent one) instead of
 * re-simulating; "Forked" means the point was simulated, but resumed
 * from another point's warmup (or whole-trajectory) checkpoint instead
 * of starting cold (EngineOptions::warmFork).
 */
enum class JobSource { Simulated, Memory, Disk, Inflight, Forked };

/** "simulated" / "memory" / "disk" / "inflight" / "forked". */
const char *jobSourceName(JobSource source);

/** Outcome of one campaign point. */
struct JobResult
{
    std::string label;
    std::string digest;    ///< short fingerprint digest
    sim::Config spec;      ///< full canonical spec of the point (its
                           ///< serialization is the cache key)
    RunSummary summary{};
    bool cacheHit = false; ///< served without simulating this point
                           ///< (Memory/Disk/Inflight; Forked still
                           ///< simulates, just not from tick 0)
    JobSource source = JobSource::Simulated; ///< where the summary
                                             ///< came from
    double wallMs = 0.0;   ///< simulation wall-clock (0 for cache hits)
    double doneAtMs = 0.0; ///< when this point resolved, in ms since
                           ///< its run() started — the live-progress
                           ///< timeline (throughput, ETA). Host
                           ///< timing: reported, never cached.
    std::string error;     ///< empty when the run completed
    bool threw = false;    ///< error came from an exception, not the
                           ///< simulator's incompletion path
    std::string tracePath; ///< trace JSON written for this point
                           ///< (EngineOptions::traceDir; else empty)

    /** The experiment ran (or was cached) and completed. */
    bool ok() const { return error.empty() && summary.completed; }
};

/**
 * Per-point completion hook: invoked exactly once per point, as each
 * point resolves (cache/backend hits during the serial intake phase,
 * simulated points as their worker finishes, attached points when
 * their owner publishes). Invocations are serialized by the engine —
 * handlers never race each other — but run on engine threads, so a
 * handler must not call back into the same engine. The JobResult
 * reference is only valid for the duration of the call. This is how
 * the campaign service streams results as they finish.
 */
using JobCallback = std::function<void(const JobResult &job,
                                       std::size_t index,
                                       std::size_t total)>;

/** Outcome of one campaign. */
struct CampaignResult
{
    std::string name;
    std::vector<JobResult> jobs; ///< in point order
    /** Metric-selection globs the export writers apply to each job's
     *  metric tree (from Campaign::metrics / campaign_run --metrics);
     *  empty selects everything. */
    std::string metricsPattern;
    unsigned threads = 1;
    double wallMs = 0.0;         ///< end-to-end campaign wall-clock
    double simMsTotal = 0.0;     ///< summed wall-clock of simulated
                                 ///< points (cache hits cost ~0)
    std::uint64_t cacheHits = 0; ///< fromMemory + fromDisk + fromInflight
    std::uint64_t simulated = 0; ///< points simulated cold (from tick 0)
    std::uint64_t fromMemory = 0;   ///< served from the in-memory cache
    std::uint64_t fromDisk = 0;     ///< served from the external backend
    std::uint64_t fromInflight = 0; ///< attached to an identical
                                    ///< in-flight simulation
    std::uint64_t fromForked = 0;   ///< simulated by forking another
                                    ///< point's warm-start checkpoint
    std::uint64_t warmupsShared = 0; ///< cold warmup legs at least one
                                     ///< forked point resumed from
    std::uint64_t graphBuilds = 0; ///< distinct task graphs built
    std::uint64_t graphShares = 0; ///< simulated points served a
                                   ///< cached shared graph

    /** Number of jobs that failed to complete. */
    std::size_t failures() const;

    /** All jobs completed. */
    bool allOk() const { return failures() == 0; }

    /** Find a job by label; nullptr when absent. */
    const JobResult *find(const std::string &label) const;

    /** Find a job by label; fatal when absent. */
    const JobResult &at(const std::string &label) const;
};

/** One campaign counter: its export name (JSON member, done-event
 *  member) and the CampaignResult member that holds it. */
struct CampaignTotal
{
    const char *name;
    std::uint64_t CampaignResult::*member;
};

/** Every campaign counter, in export order. */
inline constexpr CampaignTotal kCampaignTotals[] = {
    {"cache_hits", &CampaignResult::cacheHits},
    {"simulated", &CampaignResult::simulated},
    {"from_memory", &CampaignResult::fromMemory},
    {"from_disk", &CampaignResult::fromDisk},
    {"from_inflight", &CampaignResult::fromInflight},
    {"from_forked", &CampaignResult::fromForked},
    {"warmups_shared", &CampaignResult::warmupsShared},
    {"graph_builds", &CampaignResult::graphBuilds},
    {"graph_shares", &CampaignResult::graphShares},
};

/** Parse a nonnegative integer CLI value no larger than @p max; fatal
 *  (with the flag named) on anything else, instead of throwing out of
 *  main. */
std::uint64_t parseUintArg(const char *value, const char *flag,
                           std::uint64_t max = UINT64_MAX);

/** Parse the bench binaries' common flags (--threads N; default: all
 *  hardware threads) into engine options. */
EngineOptions benchEngineOptions(int argc, char **argv);

/**
 * The engine. Its cache persists across run() calls, so executing
 * several campaigns on one engine deduplicates their shared points
 * (e.g. the SW+FIFO baselines common to fig12 and fig13).
 *
 * Error handling: a job whose experiment fails to complete (watchdog,
 * deadlock) or throws is reported through JobResult::error — the
 * campaign keeps running. Configuration errors that reach sim::fatal
 * / sim::panic still terminate the process, as they do everywhere
 * else in the simulator.
 */
class CampaignEngine
{
  public:
    explicit CampaignEngine(EngineOptions opts = {});

    /** Run a campaign; @p onJob (optional) streams points as they
     *  resolve. */
    CampaignResult run(const Campaign &c,
                       const JobCallback &onJob = nullptr);

    /** Run an ad-hoc list of points under @p name. */
    CampaignResult run(const std::string &name,
                       const std::vector<SweepPoint> &points,
                       const JobCallback &onJob = nullptr);

    ResultCache &cache() { return cache_; }

    /** The engine's build-once task-graph store; like the result
     *  cache it persists across run() calls. */
    GraphCache &graphCache() { return graphs_; }

    const EngineOptions &options() const { return opts_; }

    /** Points currently simulating (or claimed) across all concurrent
     *  run() calls on this engine. */
    std::size_t inflightCount() const;

  private:
    /**
     * One claimed fingerprint: the first run() to miss both caches on
     * a key becomes its owner and simulates it; every concurrent
     * claimant of the same key attaches here and is handed the
     * owner's outcome instead of re-simulating. This is the service
     * dedup invariant: N clients sweeping overlapping grids cost one
     * simulation per distinct fingerprint, even before the caches are
     * warm.
     */
    struct Inflight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        RunSummary summary{};
        std::string error;
        bool threw = false;
        std::string tracePath;
    };

    /** Claim @p key: (entry, true) when this caller became the owner,
     *  (entry, false) when it attached to an existing claim. */
    std::pair<std::shared_ptr<Inflight>, bool>
    claimInflight(const std::string &key);

    /** Publish @p job's outcome to @p key's claim and release it. */
    void resolveInflight(const std::string &key, const JobResult &job);

    EngineOptions opts_;
    ResultCache cache_;
    GraphCache graphs_;

    mutable std::mutex inflightMutex_;
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight_;
};

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_ENGINE_HH
