/**
 * @file
 * Declarative experiment specs: a string-keyed, key-path-addressable
 * view over Experiment + MachineConfig.
 *
 * Every tunable of an experiment registers one typed Binding (key,
 * getter, setter, default, doc), so applying a spec, describing an
 * experiment, validating user input and fingerprinting all share a
 * single source of truth. Keys are dotted paths mirroring the config
 * structs: `machine.cores=64`, `dmu.tat_entries=4096`,
 * `workload=cholesky`, `runtime=tdm`, `scheduler=locality`.
 *
 * A spec itself is a plain sim::Config (ordered key→value strings);
 * `apply()` turns one into an Experiment starting from the defaults,
 * `describe()` does the inverse, and `canonicalSpec()` describes the
 * normalized experiment (the one driver::run() runs) — its
 * serialization is the campaign cache key, so fingerprints are
 * human-readable specs.
 */

#ifndef TDM_DRIVER_SPEC_SPEC_HH
#define TDM_DRIVER_SPEC_SPEC_HH

#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "sim/config.hh"

namespace tdm::driver::spec {

/** User error in a spec: unknown key, bad value, malformed file. */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Value type of a binding (drives parsing and validation). */
enum class ValueKind
{
    Uint,      ///< nonnegative integer, range-checked to the field
    Double,    ///< finite decimal number
    Bool,      ///< true/false/1/0
    Workload,  ///< registered workload name (short names canonicalize)
    Runtime,   ///< runtime model name: sw/tdm/carbon/tss
    Scheduler, ///< built-in or registered scheduling policy name
    Categories, ///< trace-category list: task,dmu / all / none
};

/** "uint", "double", ... for messages and the key reference. */
const char *valueKindName(ValueKind kind);

/**
 * Earliest simulation phase whose outcome a key can influence. This is
 * the load-bearing contract behind finalize forking
 * (driver::ForkGroupRunner, CampaignEngine grouping): two experiments
 * whose Warmup-phase projections agree follow bit-identical
 * trajectories to the end of the event loop, so one run can be
 * simulated once and its metric tree re-priced for every member.
 *
 *  - Warmup: consumed during the simulated trajectory — task graph
 *    shape, runtime costs, machine geometry, DMU tables, memory
 *    model, trace config. The conservative default: anything not
 *    provably finalize-only is Warmup.
 *  - Final: consumed only after the event loop drains, to price the
 *    finished run: the energy-accounting keys (`power.*`), which
 *    change only `power.energy_j`, `power.edp` and `power.avg_watts`
 *    (pwr::EnergyAccountant::reprice). Members differing only here
 *    share the entire simulated trajectory.
 */
enum class KeyPhase
{
    Warmup,
    Final,
};

/** "warmup", "final" for messages and the key reference. */
const char *keyPhaseName(KeyPhase phase);

/** One key-path: typed accessors into an Experiment plus metadata. */
struct Binding
{
    std::string key;
    ValueKind kind;
    std::string doc;

    /** Earliest phase the key influences (see KeyPhase). */
    KeyPhase phase = KeyPhase::Warmup;

    /** Value of the key on a default-constructed Experiment. */
    std::string defaultValue;

    /** Render the key's current value. */
    std::function<std::string(const Experiment &)> get;

    /** Parse + validate + store; throws SpecError on a bad value. */
    std::function<void(Experiment &, const std::string &)> set;
};

/** Every registered binding, in stable registration (group) order. */
const std::vector<Binding> &allBindings();

/** Look up a binding; nullptr when the key is unknown. */
const Binding *findBinding(const std::string &key);

/** Set one key on @p exp; throws SpecError (with near-miss
 *  suggestions) on an unknown key or a bad value. */
void applyKey(Experiment &exp, const std::string &key,
              const std::string &value);

/** Build an Experiment from the defaults plus @p spec's entries. */
Experiment apply(const sim::Config &spec);

/** Full spec of @p exp: every registered key, canonical rendering. */
sim::Config describe(const Experiment &exp);

/**
 * @p exp resolved to what it runs: the workload name in its full form,
 * and a default (0) granularity replaced by the runtime's Table II
 * optimum — TDM-optimal under DMU runtimes, SW-optimal otherwise. The
 * only code that resolves an experiment; driver::run() builds its
 * graph from this, so the canonical spec carries the granularity the
 * run uses. Throws SpecError on an unknown workload or a negative
 * granularity.
 */
Experiment normalized(const Experiment &exp);

/** describe(normalized(exp)): the canonical spec of the experiment. */
sim::Config canonicalSpec(const Experiment &exp);

/**
 * Projection of a canonical spec onto the keys of @p phase, in
 * registry order. Unknown keys in @p canonical are ignored (they
 * cannot influence any phase).
 */
sim::Config phaseSpec(const sim::Config &canonical, KeyPhase phase);

/**
 * Trajectory fingerprint of a canonical spec: the serialization of its
 * Warmup-phase projection. Points with equal fingerprints differ only
 * in Final keys and share the entire simulated trajectory
 * (CampaignEngine's fork-group key).
 */
std::string warmFingerprint(const sim::Config &canonical);

/** Alias of warmFingerprint(), kept for existing callers. */
std::string roiFingerprint(const sim::Config &canonical);

/**
 * Shortest decimal rendering of @p v that parses back to exactly the
 * same double ("0.05", not "0.05000000000000000277..."), so specs stay
 * readable while round-tripping bit-exactly.
 */
std::string formatDouble(double v);

/** Markdown key-reference table generated from the registry
 *  (campaign_run --keys; the README section is this output). */
void writeKeyReference(std::ostream &os);

} // namespace tdm::driver::spec

#endif // TDM_DRIVER_SPEC_SPEC_HH
