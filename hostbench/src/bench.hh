/**
 * @file
 * Host-time benchmark of the TDM simulator: shared declarations.
 *
 * The benchmark drives the simulator only through its public API
 * (campaign engine, graph cache, machine, fork runner, result store,
 * service) and times each layer from outside. See hostbench/README.md
 * for the workloads, the metrics and how they relate.
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/campaign/campaign.hh"
#include "driver/experiment.hh"

namespace hostbench {

namespace campaign = tdm::driver::campaign;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Process user + system CPU seconds (all threads). */
double cpuSeconds();

/** Process peak resident set size in MiB. */
double peakRssMb();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Seconds the fixed calibration kernel takes right now (best of three
 * runs). The kernel mixes dependent loads over a 1 MiB working set
 * with a 32-entry binary heap under push/pop churn, the two access
 * patterns that dominate the simulator, and is frozen with the
 * benchmark, so its cost tracks only the host's current speed.
 */
double calibrationSeconds();

/** Calibration-kernel seconds that define one reference host second. */
constexpr double kCalibrationRefS = 0.05;

// ---- workloads -------------------------------------------------------

/** One named benchmark workload: a campaign built from the seed. */
struct Workload
{
    std::string name;
    /** Engine worker threads. */
    unsigned threads = 1;
    /** The write leg publishes every point to a fresh ResultStore and
     *  the replay leg re-serves the campaign from disk over the
     *  service; otherwise the replay leg re-runs the campaign against
     *  the engine's warm in-memory result cache. */
    bool store = false;
    /** Replay repetitions per pass. */
    unsigned replays = 1;
    /** Build the campaign for @p seed (spec expansion happens here). */
    campaign::Campaign (*build)(std::uint64_t seed) = nullptr;
};

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Every workload name, in definition order. */
std::vector<std::string> workloadNames();

// ---- output check ----------------------------------------------------

/**
 * 32-bit digest of one point's outcome: FNV-1a over the completion
 * flag, the makespan, the task count and every (key, bit pattern of
 * value) of the metric tree.
 */
std::uint32_t summaryDigest(const tdm::driver::RunSummary &s);

/** Pinned per-point digests, keyed by (workload, seed). */
using PinTable =
    std::map<std::pair<std::string, std::uint64_t>,
             std::vector<std::uint32_t>>;

/** Load a pin file; an absent file yields an empty table. */
PinTable loadPins(const std::string &path);

/** One pin-file line for @p digests. */
std::string formatPinLine(const std::string &workload, std::uint64_t seed,
                          const std::vector<std::uint32_t> &digests);

// ---- spans -----------------------------------------------------------

/** One benchmark-side span, timed around a call into a layer. */
struct Span
{
    std::string name;
    std::string point; ///< campaign point label ("" for campaign-wide)
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no parent
    unsigned track = 0;       ///< engine worker (or phase) track

    double ms() const { return (endUs - startUs) / 1e3; }
};

/**
 * In-memory span recorder. Each track is written by one thread at a
 * time, so appends need no lock; ids come from one atomic counter.
 */
class SpanLog
{
  public:
    SpanLog(unsigned tracks, Clock::time_point epoch);

    /** Open a span on @p track; returns its index for close(). */
    std::size_t open(unsigned track, const std::string &name,
                     const std::string &point, std::uint64_t parent);

    /** Close the span opened as @p index on @p track; returns its
     *  duration in ms. */
    double close(unsigned track, std::size_t index);

    /** Id of the span opened as @p index on @p track. */
    std::uint64_t idOf(unsigned track, std::size_t index) const;

    /** Rename a span once its kind is known (e.g. cold vs forked). */
    void rename(unsigned track, std::size_t index, const std::string &name);

    /** Add an already-closed span timed elsewhere. */
    void add(unsigned track, const std::string &name,
             const std::string &point, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end);

    /** Name a track for the trace viewer. */
    void nameTrack(unsigned track, const std::string &name);

    /** Write the spans as Chrome trace-event JSON (Perfetto). */
    void writeChromeTrace(const std::string &path) const;

  private:
    double nowUs() const;

    Clock::time_point epoch_;
    std::vector<std::vector<Span>> tracks_;
    std::vector<std::string> trackNames_;
    std::atomic<std::uint64_t> nextId_{1};
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, unsigned track, const std::string &name,
               const std::string &point = "", std::uint64_t parent = 0)
        : log_(log), track_(track),
          index_(log.open(track, name, point, parent))
    {}
    ~ScopedSpan() { close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return log_.idOf(track_, index_); }

    void rename(const std::string &name) { log_.rename(track_, index_, name); }

    /** Close now; returns the duration in ms (idempotent). */
    double
    close()
    {
        if (!closed_) {
            ms_ = log_.close(track_, index_);
            closed_ = true;
        }
        return ms_;
    }

  private:
    SpanLog &log_;
    unsigned track_;
    std::size_t index_;
    bool closed_ = false;
    double ms_ = 0.0;
};

// ---- layer replays ---------------------------------------------------

/**
 * Host cost of the inner simulator layers on one traced point,
 * measured by replaying the point's recorded operation streams
 * through each layer's public functions on fresh instances. Each
 * replay first re-derives its counters and compares them with the
 * traced run's metric tree: `*Dev` is the relative deviation (0 when
 * the replay reproduced the run exactly).
 */
struct LayerReplay
{
    // memory model: MemoryModel::taskAccessTime per executed task
    std::uint64_t memCalls = 0, memL1Hits = 0, memL1Misses = 0;
    double memNs = 0.0, memDev = 0.0;
    // event kernel: per-core span chains on a standalone EventQueue
    std::uint64_t eqEvents = 0;
    double eqNs = 0.0;
    // DMU: every ISA op (blocked attempts included) through dmu::Dmu
    std::uint64_t dmuOps = 0, dmuBlocked = 0;
    double dmuNs = 0.0, dmuDev = 0.0;
    // NoC: Mesh::roundTrip per DMU op
    std::uint64_t nocMessages = 0, nocFlitHops = 0;
    double nocNs = 0.0, nocDev = 0.0;
    // software ready pool: push / pop through rt::ReadyPool
    std::uint64_t poolOps = 0;
    double poolNs = 0.0, poolDev = 0.0;

    /** Wall-clock interval of each timed replay loop, for the trace. */
    struct Timed
    {
        const char *layer;
        Clock::time_point start, end;
    };
    std::vector<Timed> timed;

    /** Sum of the replayed layer times in ns. */
    double totalNs() const
    {
        return memNs + eqNs + dmuNs + nocNs + poolNs;
    }
};

/** Trace categories the replays need (see replay.cc). */
extern const char *const kReplayCategories;

/**
 * Replay the layers of one traced run of @p exp on @p graph.
 * @p trace holds the run's records, @p traced its metric tree.
 */
LayerReplay replayLayers(const tdm::driver::Experiment &exp,
                         const tdm::rt::TaskGraph &graph,
                         const tdm::sim::TraceBuffer &trace,
                         const tdm::sim::MetricSet &traced);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
