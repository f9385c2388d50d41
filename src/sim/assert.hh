/**
 * @file
 * Debug-gated simulation invariant checks.
 *
 * SIM_ASSERT(cond, msg...) verifies an internal invariant at the hot
 * spots the flat-container rewrites made fragile (event-queue (tick,
 * seq) monotonicity, the memory model's recency-list links and cache
 * occupancy, DMU occupancy accounting, FixedRing bounds). A violated
 * invariant panics with the stringified condition plus the
 * caller-supplied context.
 *
 * The checks are compiled only when TDM_INVARIANTS is defined — which
 * the build system does for Debug builds and for every TDM_SANITIZE
 * preset — and compile to nothing in Release, so the perf gates never
 * pay for them. Expressions passed as arguments are not evaluated
 * when the checks are off; do not give them side effects.
 *
 * SIM_ASSERT is for *simulator bugs* (broken internal bookkeeping),
 * not user errors: misconfiguration should keep using sim::fatal, and
 * conditions that must hold even in Release (e.g. FixedRing overflow
 * turning into memory corruption) should keep their unconditional
 * panic.
 */

#ifndef TDM_SIM_ASSERT_HH
#define TDM_SIM_ASSERT_HH

#include "sim/logging.hh"

/** True in builds whose SIM_ASSERT checks are live (for tests). */
#ifdef TDM_INVARIANTS
#define SIM_INVARIANTS_ENABLED 1
#else
#define SIM_INVARIANTS_ENABLED 0
#endif

#if SIM_INVARIANTS_ENABLED

/**
 * Check an internal invariant; panic with context when it fails.
 * Usage: SIM_ASSERT(a <= b, "window base ", a, " past horizon ", b);
 */
#define SIM_ASSERT(cond, ...)                                           \
    do {                                                                \
        if (!(cond)) [[unlikely]]                                       \
            ::tdm::sim::panic("invariant '", #cond,                     \
                              "' violated" __VA_OPT__(": ", __VA_ARGS__)); \
    } while (false)

#else

#define SIM_ASSERT(cond, ...) do { } while (false)

#endif

#endif // TDM_SIM_ASSERT_HH
