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

#include "driver/experiment.hh"
#include "sim/config.hh"

namespace tdm::driver::campaign {

/**
 * Flat canonical description of @p exp: spec::canonicalSpec. Applies
 * the same normalization run() applies (implied TDM-optimal
 * granularity) and resolves workload short names, so equivalent
 * experiments serialize identically. Doubles render as the shortest
 * decimal that round-trips bit-exactly. Throws spec::SpecError if the
 * workload name is unknown.
 */
sim::Config canonicalConfig(const Experiment &exp);

/** Full canonical key of @p exp; collision-free cache key. */
std::string fingerprint(const Experiment &exp);

/** Short FNV-1a 64-bit hex digest of fingerprint(), for display. */
std::string fingerprintDigest(const Experiment &exp);

/** Zero-padded 16-char hex digest of an already-built fingerprint. */
std::string digestOfKey(const std::string &key);

/** FNV-1a 64-bit hash of an arbitrary string. */
std::uint64_t fnv1a64(const std::string &s);

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_FINGERPRINT_HH
