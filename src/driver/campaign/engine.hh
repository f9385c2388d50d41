/**
 * @file
 * The campaign engine: thread-pooled, deduplicated execution of
 * experiment campaigns.
 *
 * The engine fingerprints every point and claims each fingerprint in
 * one claim table: the first point to claim a key owns it (reads it
 * from the external backend, or simulates it; both run on a pool of
 * worker threads), a finished claim serves later points from memory,
 * and a pending one makes identical points wait for its owner instead
 * of re-simulating. Results return in input order. Because each
 * simulation is a pure function of its Experiment (all randomness is
 * seeded from the experiment parameters), every run, at any thread
 * count, is byte-identical to running each point on its own with
 * driver::run().
 */

#ifndef TDM_DRIVER_CAMPAIGN_ENGINE_HH
#define TDM_DRIVER_CAMPAIGN_ENGINE_HH

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/campaign/campaign.hh"
#include "driver/experiment.hh"
#include "driver/graph_cache.hh"
#include "sim/config.hh"

namespace tdm::driver::campaign {

/**
 * External result backend behind the engine's claim table: the engine
 * consults one (when configured) for every key it newly claims and
 * publishes every freshly simulated summary into it. The canonical
 * implementation is the persistent on-disk store
 * (driver::service::ResultStore); the interface exists so the engine
 * never depends on filesystems or sockets.
 *
 * Contract: fetch/publish are called concurrently from engine threads
 * and must be thread-safe. fetch returns nullopt on any miss or
 * unreadable entry (a backend must degrade to a miss, never throw for
 * corruption); publish must not throw on I/O failure (warn and drop
 * instead — losing a cache entry is always safe).
 */
class CacheBackend
{
  public:
    virtual ~CacheBackend() = default;

    /** Summary stored under @p key, or nullopt. */
    virtual std::optional<RunSummary> fetch(const std::string &key) = 0;

    /** Persist @p summary under @p key. */
    virtual void publish(const std::string &key,
                         const RunSummary &summary) = 0;
};

/** Engine knobs. */
struct EngineOptions
{
    /** Worker threads; 0 selects the hardware concurrency. */
    unsigned threads = 1;

    /**
     * Deduplicate identical points through the engine's claim table
     * (one entry per fingerprint, kept across run() calls). Off, every
     * point simulates and the table and the backend are bypassed
     * entirely.
     */
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
     * store): consulted by the owner of every newly claimed key before
     * it simulates, published to after every successful simulation.
     * A hit resolves the claim, so later identical points are memory
     * hits. Non-owning; must outlive the engine. Only consulted when
     * useCache is on.
     */
    CacheBackend *backend = nullptr;

    /**
     * Finalize forking: group the points this run simulates by their
     * trajectory fingerprint (the Warmup-phase projection of the
     * canonical spec, see spec::KeyPhase), simulate one cold leg per
     * group, and serve the remaining members, which differ only in
     * `power.*` keys, by re-pricing a copy of that leg's metric tree
     * under their power configuration (see ForkGroupRunner). Pure
     * wall-clock optimization: forked summaries are bit-identical to
     * cold runs (the forked-equivalence tests pin this), and members
     * run cold when the leg is incomplete or differs. Off is only
     * useful for that comparison and for timing baselines.
     */
    bool warmFork = true;
};

/**
 * How a point's summary was obtained — the service-layer dedup
 * counters. "Memory" means a finished claim in the engine's claim
 * table; "Disk" means the external CacheBackend (the on-disk store);
 * "Inflight" means the point attached to an identical point already
 * being resolved (simulated or read from the backend, in this run or
 * a concurrent one) instead of resolving it again — so a concurrent
 * duplicate of a key being read from disk reports Inflight, with the
 * same summary; "Forked" means the point re-priced another point's
 * simulated run under its own power configuration instead of
 * simulating one (EngineOptions::warmFork).
 */
enum class JobSource { Simulated, Memory, Disk, Inflight, Forked };

/** Each JobSource's export name, indexed by the enum: the one table
 *  both jobSourceName and jobSourceFromName read. */
inline constexpr const char *kJobSourceNames[] = {
    "simulated", "memory", "disk", "inflight", "forked"};

inline constexpr std::size_t kJobSourceCount = std::size(kJobSourceNames);

/** Point counts per JobSource, indexed by the enum. */
using SourceCounts = std::array<std::uint64_t, kJobSourceCount>;

/** "simulated" / "memory" / "disk" / "inflight" / "forked". */
inline const char *
jobSourceName(JobSource source)
{
    return kJobSourceNames[static_cast<std::size_t>(source)];
}

/** The JobSource named @p name; false when no source has that name. */
bool jobSourceFromName(std::string_view name, JobSource &out);

/** Outcome of one campaign point. */
struct JobResult
{
    std::string label;
    std::string digest;    ///< short fingerprint digest
    sim::Config spec;      ///< full canonical spec of the point (its
                           ///< serialization is the cache key)
    RunSummary summary{};
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

    /** Served without simulating this point (Memory/Disk/Inflight;
     *  a Forked point simulates nothing either, but is not a cache
     *  hit: it re-prices its leader's metric tree under its own power
     *  configuration). */
    bool
    cacheHit() const
    {
        return source == JobSource::Memory || source == JobSource::Disk
            || source == JobSource::Inflight;
    }
};

/**
 * Per-point completion hook: invoked exactly once per point, as each
 * point resolves (memory hits during the serial intake phase, backend
 * hits as their fetching thread reads them, simulated points as their
 * worker finishes, attached points when their owner publishes). Invocations are serialized by the engine —
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
    std::uint64_t fromForked = 0;   ///< re-priced another point's
                                    ///< simulated run
    std::uint64_t warmupsShared = 0; ///< cold legs at least one forked
                                     ///< point re-priced
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

/** Parse a nonnegative integer CLI value no larger than @p max; print
 *  "fatal:" with the flag named and exit 1 on anything else. */
std::uint64_t parseUintArg(const char *value, const char *flag,
                           std::uint64_t max = UINT64_MAX);

/** Parse the bench binaries' common flags (--threads N; default: all
 *  hardware threads) into engine options. */
EngineOptions benchEngineOptions(int argc, char **argv);

/**
 * The engine. Its claim table persists across run() calls, so
 * executing several campaigns on one engine deduplicates their shared
 * points (e.g. the SW+FIFO baselines common to fig12 and fig13).
 *
 * Error handling: a job whose experiment fails to complete (watchdog,
 * deadlock) or throws is reported through JobResult::error — the
 * campaign keeps running. That includes configuration errors that
 * reach sim::fatal (it throws sim::FatalError); only sim::panic, a
 * simulator bug, still ends the process.
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

    /** The engine's build-once task-graph store; like the claim table
     *  it persists across run() calls. */
    GraphCache &graphCache() { return graphs_; }

    const EngineOptions &options() const { return opts_; }

    /** Fingerprints whose summary the claim table holds (the
     *  in-memory cache). */
    std::size_t cachedCount() const;

    /** Points currently simulating (or claimed) across all concurrent
     *  run() calls on this engine. */
    std::size_t inflightCount() const;

  private:
    /**
     * One claimed fingerprint. The first point to claim a key owns it
     * and resolves it (from the backend or by simulating); every
     * identical point that arrives while it is pending waits for the
     * owner's outcome instead of re-simulating, and every later one
     * is served the finished summary. This is the service dedup
     * invariant: N clients sweeping overlapping grids cost one
     * simulation per distinct fingerprint, even before the table is
     * warm. A claim whose owner threw leaves the table as it resolves
     * (exceptions are not cached); incomplete runs stay.
     */
    struct Claim
    {
        bool done = false;
        RunSummary summary{};
        std::string error;
        bool threw = false;
        std::string tracePath;
    };

    EngineOptions opts_;
    GraphCache graphs_;

    mutable std::mutex claimsMutex_;
    std::condition_variable claimsCv_; ///< signalled as claims resolve
    std::unordered_map<std::string, std::shared_ptr<Claim>> claims_;
};

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_ENGINE_HH
