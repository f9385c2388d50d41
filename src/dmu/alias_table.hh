/**
 * @file
 * Task/Dependence Alias Tables (TAT / DAT).
 *
 * A set-associative directory mapping 64-bit addresses to small internal
 * IDs, backed by a queue of free IDs (Section III-B1). The set index is
 * taken from the address starting at a configurable bit; for the DAT the
 * paper's dynamic scheme starts at log2(dependence size), so consecutive
 * blocks of the same array spread over all sets.
 *
 * Capacity is limited both by free IDs and by set conflicts: an insert
 * into a full set fails even if other sets have room, which is exactly
 * the effect Figure 11 measures via set occupancy.
 */

#ifndef TDM_DMU_ALIAS_TABLE_HH
#define TDM_DMU_ALIAS_TABLE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dmu/geometry.hh"
#include "sim/fixed_ring.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::dmu {

/** Result of an alias-table insert. */
enum class AliasInsertStatus
{
    Ok,          ///< inserted, id assigned
    SetConflict, ///< all ways of the target set are in use
    NoFreeId,    ///< every internal id is live
};

/**
 * One alias table (used for both TAT and DAT).
 */
class AliasTable
{
  public:
    /**
     * @param name        stats name ("tat"/"dat")
     * @param entries     total entries (sets x ways), at most 65535
     *                    (internal ids are 16 bits, all-ones invalid)
     * @param assoc       ways per set
     * @param dynamic_index use log2(size) as the index start bit
     * @param static_bit  index start bit when not dynamic
     */
    AliasTable(std::string name, unsigned entries, unsigned assoc,
               bool dynamic_index, unsigned static_bit);

    /**
     * Look up an address. @return internal id if present.
     * @param pid operating-system process tag (Section III-D: tagging
     *            TAT and DAT with the process id lets different
     *            processes use the DMU concurrently without
     *            saving/restoring its structures at context switches).
     */
    std::optional<std::uint16_t>
    lookup(std::uint64_t addr, std::uint64_t size_bytes,
           std::uint32_t pid = 0)
    {
        ++lookups_;
        const std::size_t base =
            static_cast<std::size_t>(setOf(addr, size_bytes)) * assoc_;
        for (std::size_t w = base; w < base + assoc_; ++w) {
            if (addr_[w] == addr && id_[w] != invalidHwId
                && pid_[w] == pid) {
                ++hits_;
                return id_[w];
            }
        }
        return std::nullopt;
    }

    struct InsertResult
    {
        AliasInsertStatus status;
        std::uint16_t id = invalidHwId;
    };

    /** Insert a new translation; allocates an id from the free queue. */
    InsertResult insert(std::uint64_t addr, std::uint64_t size_bytes,
                        std::uint32_t pid = 0);

    /** Remove the live translation holding internal id @p id and
     *  recycle the id. */
    void erase(std::uint16_t id);

    /** Would an insert of this address succeed right now? */
    bool
    canInsert(std::uint64_t addr, std::uint64_t size_bytes) const
    {
        return !freeIds_.empty()
               && setLive_[setOf(addr, size_bytes)] < assoc_;
    }

    /** Number of live translations. */
    unsigned liveEntries() const { return live_; }

    /** Number of sets currently holding at least one valid way. */
    unsigned occupiedSets() const;

    /** Cumulative statistics. */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t conflicts() const { return conflicts_; }
    std::uint64_t inserts() const { return inserts_; }

    /** Mean of occupied-set samples taken at every insert. */
    double avgOccupiedSets() const;

    /** Register this table's metrics under @p ctx's scope
     *  ("dmu.tat", "dmu.dat"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    unsigned
    setOf(std::uint64_t addr, std::uint64_t size_bytes) const
    {
        const unsigned start = dynamicIndex_
            ? (size_bytes > 1 ? sim::floorLog2(size_bytes) : 0)
            : staticBit_;
        return static_cast<unsigned>((addr >> start) & (numSets_ - 1));
    }

    std::string name_;
    unsigned entries_;
    unsigned assoc_;
    unsigned numSets_;
    bool dynamicIndex_;
    unsigned staticBit_;

    /** Way tags as parallel arrays, set-major (set * assoc + way); a
     *  free way holds id invalidHwId. */
    std::vector<std::uint64_t> addr_;
    std::vector<std::uint32_t> pid_;
    std::vector<std::uint16_t> id_;
    /** Way holding each live internal id, so erase needs no set scan. */
    std::vector<std::uint16_t> wayOfId_;
    std::vector<unsigned> setLive_; // valid ways per set
    unsigned occupiedSets_ = 0;    // sets with >= 1 valid way
    /** Free internal ids, recycled in FIFO order (fixed ring: id
     *  allocation on the DMU hot path never touches the heap). */
    sim::FixedRing<std::uint16_t> freeIds_;
    unsigned live_ = 0;

    std::uint64_t lookups_ = 0, hits_ = 0, conflicts_ = 0, inserts_ = 0;
    double occSamples_ = 0.0;
    std::uint64_t occCount_ = 0;
};

} // namespace tdm::dmu

#endif // TDM_DMU_ALIAS_TABLE_HH
