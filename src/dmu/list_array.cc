#include "dmu/list_array.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tdm::dmu {

ListArray::ListArray(std::string name, unsigned entries,
                     unsigned elems_per_entry)
    : name_(std::move(name)), entries_(entries), elemsPer_(elems_per_entry)
{
    if (entries_ == 0 || elemsPer_ == 0)
        sim::fatal("list array ", name_, ": bad geometry");
    slots_.assign(static_cast<std::size_t>(entries_) * elemsPer_,
                  invalidHwId);
    next_.resize(entries_);
    allocated_.assign(entries_, 0);
    freeEntries_.reset(entries_);
    for (unsigned i = 0; i < entries_; ++i) {
        next_[i] = static_cast<std::uint16_t>(i);
        freeEntries_.push_back(static_cast<std::uint16_t>(i));
    }
}

void
ListArray::resetEntry(std::uint16_t entry)
{
    std::uint16_t *s = slotsOf(entry);
    std::fill(s, s + elemsPer_, invalidHwId);
    next_[entry] = entry;
}

ListHead
ListArray::allocList()
{
    if (freeEntries_.empty())
        return invalidHwId;
    std::uint16_t e = freeEntries_.pop_front();
    allocated_[e] = 1;
    resetEntry(e);
    ++inUse_;
    return e;
}

bool
ListArray::pushNeedsEntry(ListHead head) const
{
    return tailFreeSlots(head) == 0;
}

unsigned
ListArray::tailFreeSlots(ListHead head) const
{
    std::uint16_t cur = head;
    while (next_[cur] != cur)
        cur = next_[cur];
    const std::uint16_t *tail = slotsOf(cur);
    unsigned free = 0;
    for (unsigned i = 0; i < elemsPer_; ++i)
        if (tail[i] == invalidHwId)
            ++free;
    return free;
}

unsigned
ListArray::entriesNeededFor(ListHead head, unsigned pushes) const
{
    unsigned free = tailFreeSlots(head);
    if (pushes <= free)
        return 0;
    return (pushes - free + elemsPer_ - 1) / elemsPer_;
}

bool
ListArray::push(ListHead head, std::uint16_t value, unsigned &accesses)
{
    if (head == invalidHwId || !allocated_[head])
        sim::panic("list array ", name_, ": push to invalid list");
    // Walk to the tail; one SRAM access per chain entry.
    std::uint16_t cur = head;
    ++accesses;
    while (next_[cur] != cur) {
        cur = next_[cur];
        ++accesses;
    }
    std::uint16_t *tail = slotsOf(cur);
    for (unsigned i = 0; i < elemsPer_; ++i) {
        if (tail[i] == invalidHwId) {
            tail[i] = value;
            return true; // write folded into the tail access
        }
    }
    // Need a continuation entry.
    if (freeEntries_.empty())
        return false;
    std::uint16_t e = freeEntries_.pop_front();
    allocated_[e] = 1;
    resetEntry(e);
    slotsOf(e)[0] = value;
    next_[cur] = e;
    ++inUse_;
    ++accesses; // write of the new entry
    return true;
}

unsigned
ListArray::size(ListHead head) const
{
    unsigned n = 0;
    forEach(head, [&](std::uint16_t) { ++n; });
    return n;
}

unsigned
ListArray::remove(ListHead head, std::uint16_t value)
{
    if (head == invalidHwId)
        return 0;
    unsigned accesses = 0;
    std::uint16_t cur = head;
    while (true) {
        ++accesses;
        std::uint16_t *s = slotsOf(cur);
        for (unsigned i = 0; i < elemsPer_; ++i) {
            if (s[i] == value) {
                s[i] = invalidHwId;
                return accesses;
            }
        }
        if (next_[cur] == cur)
            break;
        cur = next_[cur];
    }
    return accesses;
}

unsigned
ListArray::clear(ListHead head)
{
    if (head == invalidHwId)
        return 0;
    unsigned accesses = 1;
    std::uint16_t cur = next_[head];
    // Free continuation entries.
    while (cur != head) {
        std::uint16_t next = next_[cur];
        bool last = next == cur;
        allocated_[cur] = 0;
        next_[cur] = cur;
        freeEntries_.push_back(cur);
        --inUse_;
        ++accesses;
        if (last)
            break;
        cur = next;
    }
    std::uint16_t *s = slotsOf(head);
    std::fill(s, s + elemsPer_, invalidHwId);
    next_[head] = head;
    return accesses;
}

unsigned
ListArray::freeList(ListHead head)
{
    if (head == invalidHwId)
        return 0;
    unsigned accesses = clear(head);
    allocated_[head] = 0;
    freeEntries_.push_back(head);
    --inUse_;
    return accesses;
}

} // namespace tdm::dmu
