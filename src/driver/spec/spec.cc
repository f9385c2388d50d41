#include "driver/spec/spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>

#include "core/runtime_model.hh"
#include "sim/suggest.hh"
#include "sim/trace.hh"
#include "runtime/scheduler.hh"
#include "workloads/registry.hh"

namespace tdm::driver::spec {

namespace {

[[noreturn]] void
badKeyValue(const std::string &key, const std::string &value,
            const std::string &expected)
{
    throw SpecError("spec key '" + key + "': expected " + expected
                    + ", got '" + value + "'");
}

/** Non-fatal workload lookup by full or short name. */
const wl::WorkloadInfo *
lookupWorkload(const std::string &name)
{
    for (const wl::WorkloadInfo &w : wl::allWorkloads())
        if (w.name == name || w.shortName == name)
            return &w;
    return nullptr;
}

/** Non-fatal runtime lookup by traits name. */
bool
lookupRuntime(const std::string &name, core::RuntimeType &out)
{
    for (core::RuntimeType t : core::allRuntimeTypes()) {
        if (core::traitsOf(t).name == name) {
            out = t;
            return true;
        }
    }
    return false;
}

/** What a uint key bounded by [@p min, @p max] expects, in words. */
std::string
uintRange(std::uint64_t min, std::uint64_t max)
{
    if (max != std::numeric_limits<std::uint64_t>::max())
        return "an integer in [" + std::to_string(min) + ", "
             + std::to_string(max) + "]";
    return min == 0 ? "a nonnegative integer"
                    : "an integer >= " + std::to_string(min);
}

/**
 * Binding builders. Each takes an accessor lambda
 * (Experiment&) -> Field& so one helper covers every integer width;
 * the getter reuses it through a const_cast (it never mutates).
 * @p min and @p max bound the values the setter accepts: a value that
 * would divide by zero or reach a component's sim::fatal is a
 * SpecError (which the service answers with an error event) before
 * any point runs.
 */
template <typename Acc>
Binding
uintKey(const char *key, const char *doc, Acc acc, std::uint64_t min = 0,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    using Field = std::remove_reference_t<decltype(acc(
        std::declval<Experiment &>()))>;
    Binding b;
    b.key = key;
    b.kind = ValueKind::Uint;
    b.doc = doc;
    b.get = [acc](const Experiment &e) {
        return std::to_string(static_cast<std::uint64_t>(
            acc(const_cast<Experiment &>(e))));
    };
    b.set = [acc, min, max, key = std::string(key)](Experiment &e,
                                                    const std::string &v) {
        std::uint64_t u = 0;
        if (!sim::Config::tryParseUint(v, u) || u < min || u > max)
            badKeyValue(key, v, uintRange(min, max));
        const Field f = static_cast<Field>(u);
        if (static_cast<std::uint64_t>(f) != u)
            badKeyValue(key, v,
                        "a value representable by the field");
        acc(e) = f;
    };
    return b;
}

template <typename Acc>
Binding
doubleKey(const char *key, const char *doc, Acc acc,
          double min = -std::numeric_limits<double>::infinity())
{
    Binding b;
    b.key = key;
    b.kind = ValueKind::Double;
    b.doc = doc;
    b.get = [acc](const Experiment &e) {
        return formatDouble(acc(const_cast<Experiment &>(e)));
    };
    b.set = [acc, min, key = std::string(key)](Experiment &e,
                                               const std::string &v) {
        double d = 0.0;
        if (!sim::Config::tryParseDouble(v, d) || !std::isfinite(d)
            || d < min)
            badKeyValue(key, v,
                        std::isinf(min)
                            ? "a finite number"
                            : "a finite number >= " + formatDouble(min));
        acc(e) = d;
    };
    return b;
}

template <typename Acc>
Binding
boolKey(const char *key, const char *doc, Acc acc)
{
    Binding b;
    b.key = key;
    b.kind = ValueKind::Bool;
    b.doc = doc;
    b.get = [acc](const Experiment &e) {
        return acc(const_cast<Experiment &>(e)) ? std::string("true")
                                                : std::string("false");
    };
    b.set = [acc, key = std::string(key)](Experiment &e,
                                          const std::string &v) {
        bool f = false;
        if (!sim::Config::tryParseBool(v, f))
            badKeyValue(key, v, "true/false/1/0");
        acc(e) = f;
    };
    return b;
}

Binding
workloadKey()
{
    Binding b;
    b.key = "workload";
    b.kind = ValueKind::Workload;
    b.doc = "benchmark to run; full or short name (cholesky / cho)";
    b.get = [](const Experiment &e) {
        const wl::WorkloadInfo *w = lookupWorkload(e.workload);
        if (!w)
            throw SpecError("experiment names unknown workload '"
                            + e.workload + "'");
        return w->name;
    };
    b.set = [](Experiment &e, const std::string &v) {
        const wl::WorkloadInfo *w = lookupWorkload(v);
        if (!w) {
            std::vector<std::string> names;
            for (const wl::WorkloadInfo &info : wl::allWorkloads())
                names.push_back(info.name);
            throw SpecError("spec key 'workload': unknown workload '"
                            + v + "'" + sim::suggestHint(v, names));
        }
        e.workload = w->name; // canonicalize short names immediately
    };
    return b;
}

Binding
runtimeKey()
{
    Binding b;
    b.key = "runtime";
    b.kind = ValueKind::Runtime;
    b.doc = "runtime system: sw, tdm, carbon, or tss";
    b.get = [](const Experiment &e) {
        return std::string(core::traitsOf(e.runtime).name);
    };
    b.set = [](Experiment &e, const std::string &v) {
        core::RuntimeType t;
        if (!lookupRuntime(v, t))
            badKeyValue("runtime", v, "one of sw/tdm/carbon/tss");
        e.runtime = t;
    };
    return b;
}

Binding
schedulerKey()
{
    Binding b;
    b.key = "scheduler";
    b.kind = ValueKind::Scheduler;
    b.doc = "software scheduling policy (fifo, lifo, locality, "
            "successor, age, or a registered custom policy)";
    b.get = [](const Experiment &e) { return e.config.scheduler; };
    b.set = [](Experiment &e, const std::string &v) {
        if (!rt::hasScheduler(v))
            throw SpecError("spec key 'scheduler': unknown policy '"
                            + v + "'"
                            + sim::suggestHint(v, rt::allSchedulerNames()));
        e.config.scheduler = v;
    };
    return b;
}

Binding
traceCategoriesKey()
{
    Binding b;
    b.key = "trace.categories";
    b.kind = ValueKind::Categories;
    b.doc = "time-resolved trace categories: comma list of "
            "task,sched,dmu,noc,mem,core, or all, or none";
    b.get = [](const Experiment &e) {
        return sim::formatTraceCategories(e.config.trace.categories);
    };
    b.set = [](Experiment &e, const std::string &v) {
        try {
            e.config.trace.categories = sim::parseTraceCategories(v);
        } catch (const std::invalid_argument &err) {
            throw SpecError(std::string("spec key 'trace.categories': ")
                            + err.what());
        }
    };
    return b;
}

std::vector<Binding>
buildRegistry()
{
    std::vector<Binding> r;
    auto U = [&](const char *k, const char *d, auto acc, auto... min) {
        r.push_back(uintKey(k, d, acc, min...));
    };
    auto D = [&](const char *k, const char *d, auto acc, auto... min) {
        r.push_back(doubleKey(k, d, acc, min...));
    };
    auto B = [&](const char *k, const char *d, auto acc) {
        r.push_back(boolKey(k, d, acc));
    };
    using E = Experiment;

    // CONTRACT: every field driver::run() consumes must have a binding.
    // The canonical spec (and therefore the campaign cache key) is the
    // rendering of this registry — a field added to MachineConfig or
    // WorkloadParams but not bound here makes distinct experiments
    // share a cache key, and sweeps over the new field silently return
    // the first point's numbers (test_spec.cc's round-trip tests and
    // test_campaign.cc's Fingerprint tests are the tripwire).
    r.push_back(workloadKey());
    r.push_back(doubleKey(
        "workload.granularity",
        "task granularity in the benchmark's own unit; 0 selects the "
        "runtime's Table II optimum (canonical specs carry the "
        "resolved value)",
        [](E &e) -> double & { return e.params.granularity; }, 0.0));
    U("workload.seed", "seed of the deterministic task-duration noise",
      [](E &e) -> std::uint64_t & { return e.params.seed; });
    D("workload.noise", "relative sigma of task-duration noise",
      [](E &e) -> double & { return e.params.durationNoise; });

    r.push_back(runtimeKey());
    r.push_back(schedulerKey());
    U("scheduler.succ_threshold",
      "successor policy: high-priority successor-count threshold",
      [](E &e) -> std::uint32_t & { return e.config.succThreshold; });

    U("machine.cores", "number of OoO cores",
      [](E &e) -> unsigned & { return e.config.numCores; }, 2);
    B("machine.mem_model",
      "model the cache hierarchy's effect on task duration",
      [](E &e) -> bool & { return e.config.enableMemModel; });
    U("machine.throttle_tasks",
      "task-creation throttle: in-flight tasks before the master "
      "switches to executing",
      [](E &e) -> std::uint32_t & { return e.config.throttleTasks; });
    U("machine.max_ticks", "watchdog: abort runs exceeding this tick",
      [](E &e) -> sim::Tick & { return e.config.maxTicks; });
    U("machine.dmu_msg_bytes",
      "payload bytes of a DMU request/response message",
      [](E &e) -> unsigned & { return e.config.dmuMsgBytes; });

    U("mem.l1_bytes", "per-core data L1 size",
      [](E &e) -> std::uint64_t & { return e.config.mem.l1Bytes; }, 1);
    U("mem.l2_bytes", "shared L2 size",
      [](E &e) -> std::uint64_t & { return e.config.mem.l2Bytes; }, 1);
    U("mem.line_bytes", "cache line size",
      [](E &e) -> unsigned & { return e.config.mem.lineBytes; }, 1);
    U("mem.l1_hit_cycles", "L1 hit latency",
      [](E &e) -> unsigned & { return e.config.mem.l1HitCycles; });
    U("mem.l2_hit_cycles", "L2 hit latency",
      [](E &e) -> unsigned & { return e.config.mem.l2HitCycles; });
    U("mem.dram_cycles", "DRAM access latency",
      [](E &e) -> unsigned & { return e.config.mem.dramCycles; });
    D("mem.mlp",
      "effective memory-level parallelism of streaming footprints",
      [](E &e) -> double & { return e.config.mem.mlp; }, 1.0);

    U("mesh.width", "mesh columns (must fit cores + the DMU node)",
      [](E &e) -> unsigned & { return e.config.mesh.width; }, 1);
    U("mesh.height", "mesh rows",
      [](E &e) -> unsigned & { return e.config.mesh.height; }, 1);
    U("mesh.router_latency", "cycles per router traversal",
      [](E &e) -> unsigned & { return e.config.mesh.routerLatency; });
    U("mesh.link_latency", "cycles per link traversal",
      [](E &e) -> unsigned & { return e.config.mesh.linkLatency; });
    U("mesh.flit_bytes", "payload bytes per flit",
      [](E &e) -> unsigned & { return e.config.mesh.flitBytes; }, 1);

    // Internal ids and list entries are 16 bits with all-ones invalid.
    constexpr std::uint64_t maxHwIds = dmu::invalidHwId;
    U("dmu.tat_entries", "Task Alias Table entries",
      [](E &e) -> unsigned & { return e.config.dmu.tatEntries; }, 1,
      maxHwIds);
    U("dmu.tat_assoc", "TAT associativity",
      [](E &e) -> unsigned & { return e.config.dmu.tatAssoc; }, 1);
    U("dmu.dat_entries", "Dependence Alias Table entries",
      [](E &e) -> unsigned & { return e.config.dmu.datEntries; }, 1,
      maxHwIds);
    U("dmu.dat_assoc", "DAT associativity",
      [](E &e) -> unsigned & { return e.config.dmu.datAssoc; }, 1);
    U("dmu.sla_entries", "successor list array entries",
      [](E &e) -> unsigned & { return e.config.dmu.slaEntries; }, 1,
      maxHwIds);
    U("dmu.dla_entries", "dependence list array entries",
      [](E &e) -> unsigned & { return e.config.dmu.dlaEntries; }, 1,
      maxHwIds);
    U("dmu.rla_entries", "reader list array entries",
      [](E &e) -> unsigned & { return e.config.dmu.rlaEntries; }, 1,
      maxHwIds);
    U("dmu.elems_per_entry", "ids per list-array entry",
      [](E &e) -> unsigned & { return e.config.dmu.elemsPerEntry; }, 1,
      maxHwIds);
    U("dmu.ready_queue_entries", "Ready Queue entries",
      [](E &e) -> unsigned & {
          return e.config.dmu.readyQueueEntries;
      }, 1);
    U("dmu.access_cycles",
      "access latency of every DMU SRAM structure",
      [](E &e) -> unsigned & { return e.config.dmu.accessCycles; });
    B("dmu.dynamic_dat_index",
      "dynamic DAT set-index bit selection (Section III-B1)",
      [](E &e) -> bool & { return e.config.dmu.dynamicDatIndex; });
    U("dmu.static_dat_index_bit",
      "static DAT index start bit (when dynamic indexing is off)",
      [](E &e) -> unsigned & {
          return e.config.dmu.staticDatIndexBit;
      });

    U("sw.task_alloc", "SW runtime: task descriptor allocation cycles",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.taskAllocCycles;
      });
    U("sw.dep_lookup", "SW runtime: per-dependence region-map lookup",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.depLookupCycles;
      });
    U("sw.edge_insert", "SW runtime: TDG edge insertion",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.edgeInsertCycles;
      });
    U("sw.reader_scan", "SW runtime: per-reader WAR scan visit",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.readerScanCycles;
      });
    U("sw.fragment_split", "SW runtime: region-map split/merge",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.fragmentSplitCycles;
      });
    U("sw.finish_base", "SW runtime: fixed task finalization cost",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.finishBaseCycles;
      });
    U("sw.per_successor", "SW runtime: per-successor wake-up work",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.perSuccessorCycles;
      });
    U("sw.per_dep_cleanup", "SW runtime: per-dependence cleanup",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.perDepCleanupCycles;
      });
    U("sw.pool_push", "SW runtime: pool push lock hold time",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.poolPushCycles;
      });
    U("sw.pool_pop", "SW runtime: pool pop lock hold time",
      [](E &e) -> sim::Tick & {
          return e.config.swCosts.poolPopCycles;
      });

    U("tdm.task_alloc", "TDM: software task descriptor allocation",
      [](E &e) -> sim::Tick & {
          return e.config.tdmCosts.taskAllocCycles;
      });
    U("tdm.issue", "TDM: issue/commit overhead of one TDM instruction",
      [](E &e) -> sim::Tick & {
          return e.config.tdmCosts.issueCycles;
      });
    U("tdm.pool_push", "TDM: pool push lock hold time",
      [](E &e) -> sim::Tick & {
          return e.config.tdmCosts.poolPushCycles;
      });
    U("tdm.pool_pop", "TDM: pool pop lock hold time",
      [](E &e) -> sim::Tick & {
          return e.config.tdmCosts.poolPopCycles;
      });

    U("carbon.queue_entries", "Carbon: HW queue entries per core",
      [](E &e) -> unsigned & {
          return e.config.carbon.queueEntriesPerCore;
      }, 1);
    U("carbon.local_op", "Carbon: local task-queue op latency",
      [](E &e) -> unsigned & {
          return e.config.carbon.localOpCycles;
      });
    U("carbon.steal", "Carbon: steal probe + transfer latency",
      [](E &e) -> unsigned & { return e.config.carbon.stealCycles; });

    D("power.active_w", "active core watts",
      [](E &e) -> double & { return e.config.power.activeWatts; }, 0.0);
    D("power.idle_w", "idle (clock-gated) core watts",
      [](E &e) -> double & { return e.config.power.idleWatts; }, 0.0);
    D("power.uncore_w", "uncore static watts",
      [](E &e) -> double & { return e.config.power.uncoreWatts; }, 0.0);
    D("power.l1_line_nj", "nJ per 64B line from L1",
      [](E &e) -> double & { return e.config.power.l1LineNj; }, 0.0);
    D("power.l2_line_nj", "nJ per 64B line from L2",
      [](E &e) -> double & { return e.config.power.l2LineNj; }, 0.0);
    D("power.dram_line_nj", "nJ per 64B line from DRAM",
      [](E &e) -> double & { return e.config.power.dramLineNj; }, 0.0);

    // Trace keys ride in the canonical spec on purpose: a traced
    // re-run of a campaign point must miss the result cache (a cache
    // hit would skip the simulation and produce no trace).
    r.push_back(traceCategoriesKey());
    U("trace.buffer_events",
      "hard cap on buffered trace records; further records are "
      "counted as dropped",
      [](E &e) -> std::uint64_t & {
          return e.config.trace.bufferEvents;
      });

    // Phase classification (see KeyPhase in spec.hh). The registry
    // defaults every key to Warmup — the conservative choice — and
    // promotes exactly the one family whose consumer provably runs
    // later: `power.*` feeds pwr::EnergyAccountant, which is only
    // charged in Machine::finalize() after the event loop drains.
    // test_warm_fork.cc pins this table.
    for (Binding &b : r) {
        if (b.key.rfind("power.", 0) == 0)
            b.phase = KeyPhase::Final;
    }

    const Experiment defaults{};
    for (Binding &b : r)
        b.defaultValue = b.get(defaults);
    return r;
}

} // namespace

const char *
valueKindName(ValueKind kind)
{
    switch (kind) {
    case ValueKind::Uint: return "uint";
    case ValueKind::Double: return "double";
    case ValueKind::Bool: return "bool";
    case ValueKind::Workload: return "workload";
    case ValueKind::Runtime: return "runtime";
    case ValueKind::Scheduler: return "scheduler";
    case ValueKind::Categories: return "categories";
    }
    return "?";
}

const char *
keyPhaseName(KeyPhase phase)
{
    switch (phase) {
    case KeyPhase::Warmup: return "warmup";
    case KeyPhase::Final: return "final";
    }
    return "?";
}

const std::vector<Binding> &
allBindings()
{
    static const std::vector<Binding> registry = buildRegistry();
    return registry;
}

const Binding *
findBinding(const std::string &key)
{
    for (const Binding &b : allBindings())
        if (b.key == key)
            return &b;
    return nullptr;
}

void
applyKey(Experiment &exp, const std::string &key,
         const std::string &value)
{
    const Binding *b = findBinding(key);
    if (!b) {
        std::vector<std::string> names;
        for (const Binding &bd : allBindings())
            names.push_back(bd.key);
        throw SpecError("unknown spec key '" + key + "'"
                        + sim::suggestHint(key, names)
                        + " (campaign_run --keys lists every key)");
    }
    b->set(exp, value);
}

Experiment
apply(const sim::Config &spec)
{
    Experiment e;
    for (const auto &[key, value] : spec.entries())
        applyKey(e, key, value);
    return e;
}

sim::Config
describe(const Experiment &exp)
{
    sim::Config c;
    for (const Binding &b : allBindings())
        c.set(b.key, b.get(exp));
    return c;
}

Experiment
normalized(const Experiment &exp)
{
    Experiment n = exp;
    const wl::WorkloadInfo *w = lookupWorkload(n.workload);
    if (!w)
        throw SpecError("experiment names unknown workload '"
                        + n.workload + "'");
    n.workload = w->name;
    // The one place a default granularity resolves: each runtime runs
    // at its own Table II optimum (TDM-optimal under the DMU).
    double &gran = n.params.granularity;
    if (!(gran >= 0.0))
        badKeyValue("workload.granularity", formatDouble(gran),
                    "a finite number >= 0");
    if (gran == 0.0)
        gran = core::traitsOf(n.runtime).usesDmu() ? w->tdmGranularity
                                                   : w->swGranularity;
    return n;
}

sim::Config
canonicalSpec(const Experiment &exp)
{
    return describe(normalized(exp));
}

sim::Config
phaseSpec(const sim::Config &canonical, KeyPhase phase)
{
    sim::Config out;
    for (const Binding &b : allBindings()) {
        if (b.phase != phase)
            continue;
        if (canonical.contains(b.key))
            out.set(b.key, canonical.getString(b.key));
    }
    return out;
}

std::string
warmFingerprint(const sim::Config &canonical)
{
    return phaseSpec(canonical, KeyPhase::Warmup).serialize();
}

std::string
roiFingerprint(const sim::Config &canonical)
{
    return warmFingerprint(canonical);
}

std::string
formatDouble(double v)
{
    // to_chars' general format with a precision prints what %.*g does.
    char buf[32];
    std::string s;
    for (int prec = 1; prec <= 17; ++prec) {
        const auto end =
            std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, prec).ptr;
        s.assign(buf, end);
        double back = 0.0;
        if (sim::Config::tryParseDouble(s, back) && back == v)
            return s;
    }
    return s; // non-finite or pathological: last rendering
}

void
writeKeyReference(std::ostream &os)
{
    os << "| key | type | phase | default | description |\n";
    os << "|---|---|---|---|---|\n";
    for (const Binding &b : allBindings())
        os << "| `" << b.key << "` | " << valueKindName(b.kind)
           << " | " << keyPhaseName(b.phase) << " | `"
           << b.defaultValue << "` | " << b.doc << " |\n";
}

} // namespace tdm::driver::spec
