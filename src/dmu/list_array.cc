#include "dmu/list_array.hh"

#include <algorithm>

namespace tdm::dmu {

ListArray::ListArray(std::string name, unsigned entries,
                     unsigned elems_per_entry)
    : name_(std::move(name)), entries_(entries), elemsPer_(elems_per_entry)
{
    if (entries_ == 0 || elemsPer_ == 0)
        sim::fatal("list array ", name_, ": bad geometry");
    if (entries_ > invalidHwId || elemsPer_ > invalidHwId)
        sim::fatal("list array ", name_, ": ", entries_, " entries of ",
                   elemsPer_, " elements exceed the 16-bit id space (max ",
                   invalidHwId, " each)");
    slots_.assign(static_cast<std::size_t>(entries_) * elemsPer_,
                  invalidHwId);
    meta_.resize(entries_);
    freeEntries_.reset(entries_);
    for (unsigned i = 0; i < entries_; ++i)
        freeEntries_.push_back(static_cast<std::uint16_t>(i));
}

ListHead
ListArray::allocList()
{
    return freeEntries_.empty() ? invalidHwId : takeEntry();
}

unsigned
ListArray::remove(ListHead head, std::uint16_t value)
{
    if (head == invalidHwId)
        return 0;
    if (value == invalidHwId)
        sim::panic("list array ", name_, ": remove of the invalid id");
    unsigned accesses = 0;
    std::uint16_t cur = head;
    while (true) {
        ++accesses;
        std::uint16_t *s = slotsOf(cur);
        for (unsigned i = 0; i < elemsPer_; ++i) {
            if (s[i] == value) {
                s[i] = invalidHwId;
                --meta_[cur].live;
                --meta_[head].count;
                checkList(head);
                return accesses;
            }
        }
        if (meta_[cur].next == cur)
            break;
        cur = meta_[cur].next;
    }
    return accesses;
}

unsigned
ListArray::clear(ListHead head)
{
    if (head == invalidHwId)
        return 0;
    unsigned accesses = 1;
    std::uint16_t cur = meta_[head].next;
    // Free continuation entries.
    while (cur != head) {
        std::uint16_t next = meta_[cur].next;
        bool last = next == cur;
        meta_[cur].allocated = false;
        meta_[cur].next = cur;
        freeEntries_.push_back(cur);
        --inUse_;
        ++accesses;
        if (last)
            break;
        cur = next;
    }
    std::uint16_t *s = slotsOf(head);
    std::fill(s, s + elemsPer_, invalidHwId);
    meta_[head] = Meta{.next = head, .tail = head, .allocated = true};
    checkList(head);
    return accesses;
}

unsigned
ListArray::freeList(ListHead head)
{
    if (head == invalidHwId)
        return 0;
    unsigned accesses = clear(head);
    meta_[head].allocated = false;
    freeEntries_.push_back(head);
    --inUse_;
    return accesses;
}

#if SIM_INVARIANTS_ENABLED
void
ListArray::checkList(ListHead head) const
{
    std::uint16_t cur = head;
    unsigned len = 1, count = 0;
    while (true) {
        unsigned live = 0;
        const std::uint16_t *s = slotsOf(cur);
        for (unsigned i = 0; i < elemsPer_; ++i)
            live += s[i] != invalidHwId;
        SIM_ASSERT(live == meta_[cur].live, name_, " entry ", cur,
                   " holds ", live, " elements, metadata says ",
                   meta_[cur].live);
        count += live;
        if (meta_[cur].next == cur)
            break;
        cur = meta_[cur].next;
        ++len;
    }
    const Meta &list = meta_[head];
    SIM_ASSERT(cur == list.tail, name_, " list ", head, " ends at ", cur,
               ", metadata says ", list.tail);
    SIM_ASSERT(len == list.chainLen, name_, " list ", head, " chains ",
               len, " entries, metadata says ", list.chainLen);
    SIM_ASSERT(count == list.count, name_, " list ", head, " holds ",
               count, " elements, metadata says ", list.count);
}
#endif

} // namespace tdm::dmu
