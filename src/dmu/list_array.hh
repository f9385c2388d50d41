/**
 * @file
 * Generic list array (Successor / Dependence / Reader List Arrays).
 *
 * An SRAM whose entries hold a fixed number of element slots plus a Next
 * pointer, inspired by UNIX inodes (Figure 5 of the paper): a list
 * starts at a head entry and continues through chained entries. Invalid
 * slots hold all-ones; a Next field pointing at the entry itself marks
 * the end of the chain.
 *
 * Every operation reports the number of SRAM accesses a hardware walk
 * would make, which the DMU converts into cycles.
 *
 * Storage mirrors the modelled SRAM: one contiguous slot slab (entries
 * x elems-per-entry) plus parallel next/allocated arrays, with a fixed
 * ring recycling free entries in FIFO order. List walks visit
 * consecutive memory and alloc/free never touch the heap — this is on
 * the DMU's per-operation hot path. forEach is a template so walk
 * callbacks inline instead of paying a std::function dispatch per
 * chained entry.
 */

#ifndef TDM_DMU_LIST_ARRAY_HH
#define TDM_DMU_LIST_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dmu/geometry.hh"
#include "sim/fixed_ring.hh"

namespace tdm::dmu {

/** Head index of a list in a list array. */
using ListHead = std::uint16_t;

/**
 * One list array.
 */
class ListArray
{
  public:
    ListArray(std::string name, unsigned entries, unsigned elems_per_entry);

    /** Allocate an empty list. @return head entry, or invalidHwId. */
    ListHead allocList();

    /** True when at least @p n entries are free. */
    bool hasFree(unsigned n = 1) const { return freeEntries_.size() >= n; }

    /**
     * Append @p value to the list at @p head.
     * @param accesses incremented by the SRAM accesses performed.
     * @return false if a continuation entry was needed but none is free
     *         (no state change in that case).
     */
    bool push(ListHead head, std::uint16_t value, unsigned &accesses);

    /** Would push() need a new continuation entry? */
    bool pushNeedsEntry(ListHead head) const;

    /** Free element slots in the tail entry (push fills these first). */
    unsigned tailFreeSlots(ListHead head) const;

    /**
     * Continuation entries @p pushes consecutive push() calls on this
     * list would allocate, given the current tail occupancy.
     */
    unsigned entriesNeededFor(ListHead head, unsigned pushes) const;

    /** Visit each element in order; returns SRAM accesses. */
    template <typename Fn>
    unsigned
    forEach(ListHead head, Fn &&fn) const
    {
        if (head == invalidHwId)
            return 0;
        unsigned accesses = 0;
        std::uint16_t cur = head;
        while (true) {
            ++accesses;
            const std::uint16_t *slots = slotsOf(cur);
            for (unsigned i = 0; i < elemsPer_; ++i)
                if (slots[i] != invalidHwId)
                    fn(slots[i]);
            if (next_[cur] == cur)
                break;
            cur = next_[cur];
        }
        return accesses;
    }

    /** Number of elements in the list. */
    unsigned size(ListHead head) const;

    /**
     * Remove the first occurrence of @p value.
     * @return SRAM accesses; element may be absent (no-op).
     */
    unsigned remove(ListHead head, std::uint16_t value);

    /** Empty the list, freeing continuation entries but keeping head. */
    unsigned clear(ListHead head);

    /** Free the whole list including the head entry. */
    unsigned freeList(ListHead head);

    /** Entries currently allocated. */
    unsigned entriesInUse() const { return inUse_; }
    unsigned capacity() const { return entries_; }
    const std::string &name() const { return name_; }

  private:
    const std::uint16_t *
    slotsOf(std::uint16_t entry) const
    {
        return slots_.data()
               + static_cast<std::size_t>(entry) * elemsPer_;
    }

    std::uint16_t *
    slotsOf(std::uint16_t entry)
    {
        return slots_.data()
               + static_cast<std::size_t>(entry) * elemsPer_;
    }

    void resetEntry(std::uint16_t entry);

    std::string name_;
    unsigned entries_;
    unsigned elemsPer_;
    std::vector<std::uint16_t> slots_; ///< entries_ x elemsPer_ slab
    std::vector<std::uint16_t> next_;  ///< == own index: end of chain
    std::vector<std::uint8_t> allocated_;
    sim::FixedRing<std::uint16_t> freeEntries_;
    unsigned inUse_ = 0;
};

} // namespace tdm::dmu

#endif // TDM_DMU_LIST_ARRAY_HH
