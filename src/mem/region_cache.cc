#include "mem/region_cache.hh"

#include <algorithm>

#include "sim/assert.hh"
#include "sim/logging.hh"

namespace tdm::mem {

namespace {

/** splitmix64 finalizer: region ids are small sequential integers, so
 *  they need real mixing before masking into the open table. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::size_t initialCells = 64;

} // namespace

RegionCache::RegionCache(std::uint64_t capacityBytes)
    : capacity_(capacityBytes)
{
    if (capacity_ == 0)
        sim::fatal("region cache capacity must be nonzero");
    cells_.assign(initialCells, Cell{0, npos});
    mask_ = initialCells - 1;
}

std::size_t
RegionCache::homeOf(RegionId id) const
{
    return static_cast<std::size_t>(mix(id)) & mask_;
}

std::uint32_t
RegionCache::findCell(RegionId id) const
{
    std::size_t c = homeOf(id);
    while (cells_[c].slot != npos) {
        if (cells_[c].key == id)
            return static_cast<std::uint32_t>(c);
        c = (c + 1) & mask_;
    }
    return npos;
}

void
RegionCache::indexInsert(RegionId id, std::uint32_t slot)
{
    // Keep the load factor below 1/2 so probe chains stay short.
    if ((live_ + 1) * 2 > cells_.size())
        growIndex();
    std::size_t c = homeOf(id);
    while (cells_[c].slot != npos)
        c = (c + 1) & mask_;
    cells_[c] = Cell{id, slot};
}

void
RegionCache::indexErase(std::uint32_t cell)
{
    // Linear-probing deletion with backward shift (Knuth 6.4, R): pull
    // displaced entries back so lookups never need tombstones.
    std::size_t i = cell;
    std::size_t j = cell;
    cells_[i].slot = npos;
    for (;;) {
        j = (j + 1) & mask_;
        if (cells_[j].slot == npos)
            return;
        std::size_t h = homeOf(cells_[j].key);
        // Move j down iff its home bucket does not lie in (i, j].
        bool between = i < j ? (h > i && h <= j) : (h > i || h <= j);
        if (!between) {
            cells_[i] = cells_[j];
            cells_[j].slot = npos;
            i = j;
        }
    }
}

void
RegionCache::growIndex()
{
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.size() * 2, Cell{0, npos});
    mask_ = cells_.size() - 1;
    for (const Cell &c : old) {
        if (c.slot == npos)
            continue;
        std::size_t at = homeOf(c.key);
        while (cells_[at].slot != npos)
            at = (at + 1) & mask_;
        cells_[at] = c;
    }
}

std::uint32_t
RegionCache::allocSlot()
{
    if (!free_.empty()) {
        std::uint32_t s = free_.back();
        free_.pop_back();
        return s;
    }
    slots_.push_back(Slot{});
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
RegionCache::linkFront(std::uint32_t s)
{
    slots_[s].prev = npos;
    slots_[s].next = head_;
    if (head_ != npos)
        slots_[head_].prev = s;
    head_ = s;
    if (tail_ == npos)
        tail_ = s;
}

void
RegionCache::unlink(std::uint32_t s)
{
    Slot &n = slots_[s];
    // Recency-list integrity: a slot is the head iff it has no prev,
    // the tail iff it has no next, and its neighbors point back at it.
    SIM_ASSERT((n.prev == npos) == (head_ == s),
               "slot ", s, " prev/head mismatch");
    SIM_ASSERT((n.next == npos) == (tail_ == s),
               "slot ", s, " next/tail mismatch");
    SIM_ASSERT(n.prev == npos || slots_[n.prev].next == s,
               "slot ", s, " not linked from its prev");
    SIM_ASSERT(n.next == npos || slots_[n.next].prev == s,
               "slot ", s, " not linked from its next");
    if (n.prev != npos)
        slots_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != npos)
        slots_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
RegionCache::dropSlot(std::uint32_t s)
{
    unlink(s);
    std::uint32_t cell = findCell(slots_[s].id);
    if (cell == npos)
        sim::panic("region cache: resident region missing from index");
    indexErase(cell);
    free_.push_back(s);
    --live_;
}

void
RegionCache::evictFor(std::uint64_t bytes, std::vector<RegionId> *evicted)
{
    while (used_ + bytes > capacity_ && tail_ != npos) {
        std::uint32_t victim = tail_;
        used_ -= slots_[victim].bytes;
        if (evicted)
            evicted->push_back(slots_[victim].id);
        dropSlot(victim);
        ++evictions_;
    }
}

bool
RegionCache::touch(RegionId id, std::uint64_t bytes,
                   std::vector<RegionId> *evicted)
{
    std::uint64_t eff = std::min(bytes, capacity_);
    std::uint32_t cell = findCell(id);
    if (cell != npos) {
        // Hit: pull the region out of the recency list (so it cannot
        // evict itself), make room for its possibly re-declared size,
        // and relink as MRU — same effective semantics as the old
        // list-erase / re-push-front implementation.
        std::uint32_t s = cells_[cell].slot;
        // Slab/index consistency: the index cell must name a slab slot
        // that actually holds this region.
        SIM_ASSERT(slots_[s].id == id, "index cell for region ", id,
                   " points at slot ", s, " holding region ",
                   slots_[s].id);
        used_ -= slots_[s].bytes;
        unlink(s);
        evictFor(eff, evicted);
        slots_[s].bytes = eff;
        linkFront(s);
        used_ += eff;
        ++hits_;
        SIM_ASSERT(used_ <= capacity_, "used ", used_, " over capacity ",
                   capacity_, " after hit on region ", id);
        return true;
    }
    evictFor(eff, evicted);
    std::uint32_t s = allocSlot();
    slots_[s].id = id;
    slots_[s].bytes = eff;
    linkFront(s);
    indexInsert(id, s);
    ++live_;
    used_ += eff;
    ++misses_;
    // Occupancy accounting: every slab slot is either live or on the
    // free list, and the index load factor stays below 1/2 (probe
    // chains in findCell terminate only because of this).
    SIM_ASSERT(live_ + free_.size() == slots_.size(),
               "live ", live_, " + free ", free_.size(),
               " != slab size ", slots_.size());
    SIM_ASSERT(live_ * 2 <= cells_.size(), "index over half full: ",
               live_, " live in ", cells_.size(), " cells");
    SIM_ASSERT(used_ <= capacity_, "used ", used_, " over capacity ",
               capacity_, " after miss on region ", id);
    return false;
}

bool
RegionCache::contains(RegionId id) const
{
    return findCell(id) != npos;
}

bool
RegionCache::invalidate(RegionId id)
{
    std::uint32_t cell = findCell(id);
    if (cell == npos)
        return false;
    std::uint32_t s = cells_[cell].slot;
    used_ -= slots_[s].bytes;
    dropSlot(s);
    return true;
}

void
RegionCache::flush()
{
    std::fill(cells_.begin(), cells_.end(), Cell{0, npos});
    free_.clear();
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
        free_.push_back(s);
    head_ = tail_ = npos;
    live_ = 0;
    used_ = 0;
}

} // namespace tdm::mem
