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
 * x elems-per-entry) plus one record per entry holding its Next
 * pointer, with a fixed ring recycling free entries in FIFO order. The
 * record also keeps the entry's live-slot count and, for a list's head
 * entry, the list's tail entry, chain length and element count. A
 * push therefore reports the accesses of its walk to the tail (the
 * chain length) without taking it, and size / pushNeedsEntry /
 * tailFreeSlots / entriesNeededFor are O(1). This is the DMU's
 * per-operation hot path, so those members are inline here and
 * alloc/free never touch the heap. forEach is a template so walk
 * callbacks inline instead of paying a std::function dispatch per
 * chained entry.
 */

#ifndef TDM_DMU_LIST_ARRAY_HH
#define TDM_DMU_LIST_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dmu/geometry.hh"
#include "sim/assert.hh"
#include "sim/fixed_ring.hh"
#include "sim/logging.hh"

namespace tdm::dmu {

/** Head index of a list in a list array. */
using ListHead = std::uint16_t;

/**
 * One list array.
 */
class ListArray
{
  public:
    /** Entries and elems_per_entry must lie in [1, 65535]: entry ids
     *  are 16 bits and all-ones is the invalid id. */
    ListArray(std::string name, unsigned entries, unsigned elems_per_entry);

    /** Allocate an empty list. @return head entry, or invalidHwId. */
    ListHead allocList();

    /** True when at least @p n entries are free. */
    bool hasFree(unsigned n = 1) const { return freeEntries_.size() >= n; }

    /**
     * Append @p value to the list at @p head.
     * @param accesses incremented by the SRAM accesses performed: the
     *        chain length, plus one when a continuation entry is added.
     * @return false if a continuation entry was needed but none is free
     *         (no state change in that case).
     */
    bool
    push(ListHead head, std::uint16_t value, unsigned &accesses)
    {
        if (head >= entries_ || !meta_[head].allocated
            || value == invalidHwId)
            sim::panic("list array ", name_, ": bad push to list ", head);
        Meta &list = meta_[head];
        // A hardware push walks the chain to the tail: one access per
        // entry, the write folded into the tail access.
        accesses += list.chainLen;
        std::uint16_t tail = list.tail;
        if (meta_[tail].live == elemsPer_) {
            // Need a continuation entry.
            if (freeEntries_.empty())
                return false;
            const std::uint16_t e = takeEntry();
            meta_[tail].next = e;
            list.tail = tail = e;
            ++list.chainLen;
            ++accesses; // write of the new entry
        }
        std::uint16_t *s = slotsOf(tail);
        unsigned i = 0;
        while (s[i] != invalidHwId)
            ++i;
        s[i] = value;
        ++meta_[tail].live;
        ++list.count;
        checkList(head);
        return true;
    }

    /** Would push() need a new continuation entry? */
    bool
    pushNeedsEntry(ListHead head) const
    {
        return meta_[meta_[head].tail].live == elemsPer_;
    }

    /** Free element slots in the tail entry (push fills these first). */
    unsigned
    tailFreeSlots(ListHead head) const
    {
        return elemsPer_ - meta_[meta_[head].tail].live;
    }

    /**
     * Continuation entries @p pushes consecutive push() calls on this
     * list would allocate, given the current tail occupancy.
     */
    unsigned
    entriesNeededFor(ListHead head, unsigned pushes) const
    {
        const unsigned free = tailFreeSlots(head);
        if (pushes <= free)
            return 0;
        return (pushes - free + elemsPer_ - 1) / elemsPer_;
    }

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
            if (meta_[cur].next == cur)
                break;
            cur = meta_[cur].next;
        }
        return accesses;
    }

    /** Number of elements in the list. */
    unsigned size(ListHead head) const { return meta_[head].count; }

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

    /** Pop a free entry and make it an empty one-entry list. */
    std::uint16_t
    takeEntry()
    {
        const std::uint16_t e = freeEntries_.pop_front();
        std::uint16_t *s = slotsOf(e);
        for (unsigned i = 0; i < elemsPer_; ++i)
            s[i] = invalidHwId;
        meta_[e] = Meta{.next = e, .tail = e, .allocated = true};
        ++inUse_;
        return e;
    }

#if SIM_INVARIANTS_ENABLED
    /** Re-derive @p head's tail, chain length and count by walking. */
    void checkList(ListHead head) const;
#else
    void checkList(ListHead) const {}
#endif

    std::string name_;
    unsigned entries_;
    unsigned elemsPer_;
    /** Everything but the slots of one entry, in one 16-byte record
     *  so an operation touches one line per entry. The list fields are
     *  meaningful on a list's head entry only. */
    struct Meta
    {
        std::uint16_t next = 0;     ///< == own index: end of chain
        std::uint16_t live = 0;     ///< valid slots in this entry
        std::uint16_t tail = 0;     ///< list: last entry of the chain
        std::uint16_t chainLen = 1; ///< list: entries in the chain
        std::uint32_t count = 0;    ///< list: elements (< 2^32)
        bool allocated = false;
    };

    std::vector<std::uint16_t> slots_; ///< entries_ x elemsPer_ slab
    std::vector<Meta> meta_;

    sim::FixedRing<std::uint16_t> freeEntries_;
    unsigned inUse_ = 0;
};

} // namespace tdm::dmu

#endif // TDM_DMU_LIST_ARRAY_HH
