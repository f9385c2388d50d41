/**
 * @file
 * Thread-safe result cache keyed by canonical experiment fingerprints.
 *
 * The campaign engine consults the cache before simulating a point and
 * publishes every computed summary, so identical points — within one
 * campaign or across campaigns sharing an engine — simulate once.
 */

#ifndef TDM_DRIVER_CAMPAIGN_RESULT_CACHE_HH
#define TDM_DRIVER_CAMPAIGN_RESULT_CACHE_HH

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "driver/experiment.hh"

namespace tdm::driver::campaign {

/**
 * External result backend behind the in-memory cache: the campaign
 * engine consults one (when configured) on a memory miss and publishes
 * every freshly simulated summary into it. The canonical
 * implementation is the persistent on-disk store
 * (driver::service::ResultStore); the interface exists so the engine
 * never depends on filesystems or sockets.
 *
 * Contract: fetch/publish are called concurrently from engine worker
 * threads and must be thread-safe. fetch returns nullopt on any miss
 * or unreadable entry (a backend must degrade to a miss, never throw
 * for corruption); publish must not throw on I/O failure (warn and
 * drop instead — losing a cache entry is always safe).
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

    /** Short name for logs/stats ("disk-store"). */
    virtual const char *backendName() const = 0;
};

/** Fingerprint-keyed store of run summaries. */
class ResultCache
{
  public:
    /**
     * Summary-schema version, folded into every internal cache key.
     * Bump whenever the shape of a cached RunSummary changes (v2:
     * summaries carry the full MetricSet tree, not six fixed fields;
     * v3: the tree is the only copy, stored blobs hold nothing else)
     * so entries written under an older schema can never be served —
     * a no-op for this in-process map, but load-bearing for any
     * persisted or shared cache built on these keys.
     */
    static constexpr unsigned kSchemaVersion = 3;

    /** Look up @p key; counts a hit or miss. */
    std::optional<RunSummary> lookup(const std::string &key);

    /** Publish the summary computed for @p key. */
    void store(const std::string &key, const RunSummary &summary);

    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    void clear();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, RunSummary> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tdm::driver::campaign

#endif // TDM_DRIVER_CAMPAIGN_RESULT_CACHE_HH
