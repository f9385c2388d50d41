/**
 * @file
 * First-class metric registry: addressable, phase-windowed statistics.
 *
 * Components register typed metrics once, through a scoped
 * MetricContext, under dotted key paths mirroring the experiment-spec
 * grammar ("dmu.tat.hits", "mesh.avg_hop_latency"). The registry is
 * then queryable by key (unknown keys throw with near-miss
 * suggestions, same policy as spec keys), dumpable in gem5 stats.txt
 * format, and snapshottable: two snapshots delimit a phase window
 * (warmup / ROI / drain) whose per-metric deltas the registry computes
 * without the components knowing windows exist.
 *
 * Kinds:
 *  - Counter      monotone accumulator (raw uint64 or probe function);
 *                 windows report the delta.
 *  - Average      mean of samples; windows report the window-local mean.
 *  - Distribution moments + range counts; flattens to .mean/.stdev/.count/
 *                 .min/.max/.underflow/.overflow subkeys; windows
 *                 report window-local mean and count.
 *  - Gauge        instantaneous level (function); excluded from windows.
 *  - Formula      derived value (function, e.g. a ratio of totals);
 *                 excluded from windows, since a windowed ratio of
 *                 deltas is a different quantity than a delta of
 *                 ratios.
 *
 * A MetricSet is the flat, exportable key→value view (what RunSummary,
 * the result cache and the JSON/CSV writers carry); a MetricSelection
 * picks keys from it with comma-separated glob patterns
 * ("dmu.*,mesh.*").
 */

#ifndef TDM_SIM_METRICS_HH
#define TDM_SIM_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace tdm::sim {

/** User error addressing the registry: unknown key, bad pattern,
 *  duplicate registration. */
class MetricError : public std::runtime_error
{
  public:
    explicit MetricError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Behavior class of a metric. */
enum class MetricKind { Counter, Average, Distribution, Gauge, Formula };

/** "counter", "average", ... for messages and the key reference. */
const char *metricKindName(MetricKind kind);

/**
 * Flat, ordered key→value map: the exportable form of a registry (or
 * of one phase window of it).
 */
class MetricSet
{
  public:
    void set(const std::string &key, double v) { map_[key] = v; }

    /** set() for readers of an entries() walk: a key that sorts after
     *  every present key lands in amortized constant time; any other
     *  key still lands in place (last value wins). */
    void append(std::string_view key, double v)
    {
        map_.insert_or_assign(map_.end(), std::string(key), v);
    }

    /** Value of @p key; throws MetricError with near-miss suggestions
     *  when absent. */
    double at(const std::string &key) const;

    /** Value of @p key, @p dflt when absent. */
    double get(const std::string &key, double dflt = 0.0) const;

    bool contains(const std::string &key) const {
        return map_.count(key) != 0;
    }
    bool empty() const { return map_.empty(); }
    std::size_t size() const { return map_.size(); }

    const std::map<std::string, double> &entries() const { return map_; }

  private:
    std::map<std::string, double> map_;
};

/**
 * A parsed metric selection: comma-separated globs over full dotted
 * keys ('*' any run of characters, dots included, so "dmu.*" selects
 * the whole subtree; '?' any one character). The empty pattern
 * selects everything. Parse once per campaign; the writers then walk
 * MetricSet::entries() and skip the keys that do not match.
 */
class MetricSelection
{
  public:
    /** Selects every key. */
    MetricSelection() = default;

    /** Parse @p patterns; throws MetricError on an empty glob token. */
    explicit MetricSelection(const std::string &patterns);

    /** Whether @p key is selected. */
    bool matches(const std::string &key) const;

  private:
    std::vector<std::string> globs_; ///< empty: select everything
};

class MetricRegistry;

/**
 * Scoped registration handle: prepends its prefix to every registered
 * name, and spawns child scopes. Components take one by value —
 * `void regMetrics(sim::MetricContext ctx)` — and never see the
 * registry or each other's prefixes.
 */
class MetricContext
{
  public:
    /** Child context for a sub-component ("dmu" -> "dmu.tat"). */
    MetricContext scope(const std::string &name) const;

    const std::string &prefix() const { return prefix_; }

    void counter(const std::string &name, const std::uint64_t *v,
                 const std::string &desc);
    /** Monotone probe: reads a counter the component keeps in another
     *  form. Must be non-decreasing for window deltas to make sense. */
    void counterFn(const std::string &name, std::function<double()> fn,
                   const std::string &desc);
    void average(const std::string &name, const Average *a,
                 const std::string &desc);
    void distribution(const std::string &name, const Distribution *d,
                      const std::string &desc);
    void gauge(const std::string &name, std::function<double()> fn,
               const std::string &desc);
    void formulaFn(const std::string &name, std::function<double()> fn,
                   const std::string &desc);

  private:
    friend class MetricRegistry;
    MetricContext(MetricRegistry *reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix)) {}

    std::string join(const std::string &name) const;

    MetricRegistry *reg_;
    std::string prefix_;
};

/** Registered identity of one metric (for the key reference). */
struct MetricInfo
{
    std::string key;
    MetricKind kind;
    std::string desc;
};

/**
 * Opaque accumulator-state capture used for windowed reporting; only
 * meaningful against the registry that produced it.
 */
class MetricSnapshot
{
  private:
    friend class MetricRegistry;
    std::map<std::string, std::vector<double>> state_;
};

/**
 * The registry. Owns no metric storage — components keep their
 * counters; the registry keeps typed pointers (or probe functions)
 * under dotted keys. Everything registered must outlive the registry's
 * last use.
 */
class MetricRegistry
{
  public:
    /** Root-level scope ("dmu", "mesh", ...). An empty name addresses
     *  the root itself. */
    MetricContext context(const std::string &scope = "");

    bool contains(const std::string &key) const;

    /** Current value of @p key (counter value / mean / gauge /
     *  formula); throws MetricError with suggestions when unknown. */
    double value(const std::string &key) const;

    /** All registered keys, sorted (primary keys, unflattened). */
    std::vector<std::string> keys() const;

    /** Identity of every metric, sorted by key. */
    std::vector<MetricInfo> list() const;

    std::size_t size() const { return map_.size(); }

    /** Flat end-state view: distributions and averages flatten into
     *  subkeys (see file header). */
    MetricSet values() const;

    /** Capture the accumulator state of every windowable metric. */
    MetricSnapshot snapshot() const;

    /**
     * Per-metric deltas between two snapshots of THIS registry:
     * counters difference, averages/distributions window-local mean
     * (and .count for distributions). Gauges and formulas are
     * excluded.
     */
    MetricSet window(const MetricSnapshot &from,
                     const MetricSnapshot &to) const;

    /** Write "key value # desc" lines, gem5 stats.txt style, sorted;
     *  each value in its shortest round-trip form. */
    void dump(std::ostream &os) const;

  private:
    friend class MetricContext;

    struct Entry
    {
        MetricKind kind;
        const std::uint64_t *u64 = nullptr;
        const Average *avg = nullptr;
        const Distribution *dist = nullptr;
        std::function<double()> fn;
        std::string desc;
    };

    void add(const std::string &key, Entry e);
    double valueOf(const Entry &e) const;
    std::vector<double> stateOf(const Entry &e) const;
    void flattenInto(MetricSet &out, const std::string &key,
                     const Entry &e) const;
    [[noreturn]] void throwUnknown(const std::string &key) const;

    std::map<std::string, Entry> map_;
};

} // namespace tdm::sim

#endif // TDM_SIM_METRICS_HH
