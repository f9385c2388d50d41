/**
 * @file
 * Persistent content-addressed result store: the disk half of the
 * campaign service.
 *
 * Each stored entry maps a canonical-spec fingerprint (the campaign
 * cache key — see driver/campaign/fingerprint.hh) to a RunSummary
 * blob, named by the key's 64-bit FNV-1a digest:
 *
 *     <dir>/v<schema>/<16-hex-digest>.result
 *
 * Layout and invariants:
 *  - The schema version (ResultStore::kSchemaVersion) is baked into
 *    the directory name AND every blob header, so summaries written
 *    under an older schema can never be served — bumping the version
 *    silently invalidates the whole store.
 *  - Writes are atomic: a unique temp file in the same directory is
 *    renamed into place, so readers (including concurrent processes)
 *    only ever observe absent or complete blobs, and a crash mid-write
 *    leaves at worst an ignored temp file.
 *  - Loads are corruption-tolerant: a truncated, garbled, or
 *    checksum-mismatched blob — or a digest collision with a different
 *    key — degrades to a cache miss, never an error. The engine then
 *    re-simulates and re-publishes.
 *  - The in-memory index is rebuilt by a directory scan on startup, so
 *    a store survives restarts and can be shared across processes
 *    (last writer wins; entries are pure functions of their key, so
 *    concurrent writers write identical bytes).
 *
 * A blob holds the key and the metric tree only; a load rebuilds the
 * headline fields from the tree with driver::summaryOf, exactly as a
 * simulated run does. Doubles are serialized with 17 significant
 * digits and parse back bit-exactly, so a summary served from disk
 * re-exports byte-identical JSON — the service's restart invariant.
 */

#ifndef TDM_DRIVER_SERVICE_STORE_HH
#define TDM_DRIVER_SERVICE_STORE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/campaign/engine.hh"

namespace tdm::driver::service {

/** One consistent snapshot of the store's counters (the status op and
 *  the dashboard read them together; per-getter locking would let the
 *  fields shear against each other). */
struct StoreStats
{
    std::size_t blobs = 0;      ///< indexed result blobs
    std::uint64_t bytes = 0;    ///< their summed on-disk size
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt = 0; ///< unparsable blobs served as misses
};

/**
 * Serialize @p summary under @p key as one store blob (header, key,
 * metric lines, checksum, end marker). Exposed for tests.
 */
void writeSummaryBlob(std::ostream &os, const std::string &key,
                      const RunSummary &summary,
                      unsigned schema_version);

/**
 * Parse one store blob. Returns false (leaving outputs unspecified) on
 * any structural damage: bad header, wrong schema, malformed or
 * missing line, checksum mismatch, missing end marker, or a headline
 * metric that does not fit its summary member. Exposed for tests.
 */
bool readSummaryBlob(std::istream &is, std::string &key_out,
                     RunSummary &summary_out, unsigned schema_version);

/**
 * The persistent store. Thread-safe; implements the engine's
 * CacheBackend so it can sit directly behind the engine's claim table
 * (campaign_run --store, campaign_serve).
 */
class ResultStore : public campaign::CacheBackend
{
  public:
    /**
     * Summary-schema version, baked into the directory name and every
     * blob header. Bump whenever the shape of a stored RunSummary
     * changes (v2: summaries carry the full MetricSet tree, not six
     * fixed fields; v3: the tree is the only copy, stored blobs hold
     * nothing else) so blobs written under an older schema can never
     * be served.
     */
    static constexpr unsigned kSchemaVersion = 3;

    /**
     * Open (creating if needed) the store under @p dir and rebuild the
     * index by scanning it. @p schema_version defaults to the live
     * summary schema; tests override it to prove invalidation.
     * Throws std::runtime_error when the directory cannot be created.
     */
    explicit ResultStore(
        const std::string &dir,
        unsigned schema_version = kSchemaVersion);

    std::optional<RunSummary> fetch(const std::string &key) override;
    void publish(const std::string &key,
                 const RunSummary &summary) override;

    /** Root directory (as given). */
    const std::string &dir() const { return dir_; }

    /** Versioned directory blobs live in: <dir>/v<schema>. */
    const std::string &versionDir() const { return versionDir_; }

    /** Blob path for @p key (whether or not it exists). */
    std::string pathForKey(const std::string &key) const;

    /** Blob path for a 16-hex @p digest (whether or not it exists). */
    std::string pathForDigest(const std::string &digest) const;

    /** All counters in one locked read — O(1), safe to poll. */
    StoreStats stats() const;

    /** Indexed (digest, byte-size) pairs, digest-sorted. */
    std::vector<std::pair<std::string, std::uint64_t>> list() const;

    /**
     * Load the blob named by @p digest (the store browser's lookup:
     * address by digest, no key in hand). False when absent, corrupt,
     * or schema-mismatched; unlike fetch(), a failed load here touches
     * no counters and evicts nothing — browsing is read-only.
     */
    bool loadByDigest(const std::string &digest, std::string &key_out,
                      RunSummary &summary_out) const;

    /** Raw bytes of @p digest's blob (the store browser's ?raw=1
     *  view). False when absent or unreadable. */
    bool readRawBlob(const std::string &digest,
                     std::string &bytes_out) const;

  private:
    void scanIndex();

    std::string dir_;
    std::string versionDir_;
    unsigned schemaVersion_;

    mutable std::mutex mutex_;
    /** digest -> blob byte size for everything present on disk
     *  (ordered so listings are deterministic). */
    std::map<std::string, std::uint64_t> index_;
    /** Every counter but blobs (index_.size()); bytes sums the sizes
     *  of index_ entries. */
    StoreStats counts_;
    std::uint64_t tmpSeq_ = 0; ///< unique temp-file suffix
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_STORE_HH
