/**
 * @file
 * Canonical fingerprinting of experiments.
 *
 * Two Experiments that would produce byte-identical simulations map to
 * the same fingerprint, so the campaign engine can deduplicate points
 * through its claim table. The fingerprint is exactly the canonical
 * experiment-spec serialization (driver/spec's binding registry covers
 * every field the simulation consumes), so cache keys read as specs:
 * "dmu.tat_entries=2048;...;workload=cholesky;...".
 */

#ifndef TDM_DRIVER_CAMPAIGN_FINGERPRINT_HH
#define TDM_DRIVER_CAMPAIGN_FINGERPRINT_HH

#include <string>
#include <string_view>

#include "driver/experiment.hh"
#include "sim/config.hh"

namespace tdm::driver::campaign {

/**
 * Flat canonical description of @p exp: spec::canonicalSpec, the
 * description of the experiment run() runs (workload short names
 * resolved, a default granularity resolved to the runtime's optimum),
 * so equivalent experiments serialize identically. Its serialize() is
 * the collision-free cache key. Doubles render as the shortest
 * decimal that round-trips bit-exactly. Throws spec::SpecError if the
 * workload name is unknown or the granularity negative.
 */
sim::Config canonicalConfig(const Experiment &exp);

/** Zero-padded 16-char hex digest of a cache key (FNV-1a 64-bit). */
std::string digestOfKey(std::string_view key);

/** FNV-1a 64-bit hash of an arbitrary string. */
std::uint64_t fnv1a64(std::string_view s);

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_FINGERPRINT_HH
