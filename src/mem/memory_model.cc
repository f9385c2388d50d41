#include "mem/memory_model.hh"

#include <algorithm>

#include "sim/assert.hh"
#include "sim/logging.hh"

namespace tdm::mem {

MemoryModel::MemoryModel(const MemConfig &cfg, unsigned num_cores,
                         std::size_t num_regions)
    : cfg_(cfg), caches_(num_cores + std::size_t{1}),
      regions_(num_regions)
{
    if (num_cores == 0)
        sim::fatal("memory model needs at least one core");
    if (cfg_.l1Bytes == 0 || cfg_.l2Bytes == 0)
        sim::fatal("memory model cache capacity must be nonzero");
}

std::uint32_t
MemoryModel::findL1(sim::CoreId core, RegionId region) const
{
    std::uint32_t n = regions_[region].l1;
    while (n != npos && lines_[n].cache != core)
        n = lines_[n].sharer;
    return n;
}

int
MemoryModel::levelOf(sim::CoreId core, RegionId region) const
{
    if (region >= regions_.size())
        return 3;
    if (findL1(core, region) != npos)
        return 1;
    return regions_[region].l2 != npos ? 2 : 3;
}

sim::Tick
MemoryModel::taskAccessTime(sim::CoreId core,
                            std::span<const MemAccess> accesses)
{
    if (core >= l2Cache())
        sim::panic("core id ", core, " out of range");
    double stall = 0.0;
    for (const MemAccess &a : accesses) {
        if (a.bytes == 0)
            continue;
        if (a.region >= regions_.size())
            regions_.resize(a.region + std::size_t{1});
        std::uint64_t lines = sim::divCeil<std::uint64_t>(a.bytes,
                                                          cfg_.lineBytes);
        // The touches report residency before this access, which
        // classifies it (the L1 touch cannot change the L2).
        const bool l1_hit =
            touch(core, findL1(core, a.region), a.region, a.bytes);
        const bool l2_hit =
            touch(l2Cache(), regions_[a.region].l2, a.region, a.bytes);
        double per_line;
        if (l1_hit) {
            per_line = cfg_.l1HitCycles;
            ++l1Hits_;
            l1LineAcc_ += lines;
        } else if (l2_hit) {
            per_line = cfg_.l2HitCycles;
            ++l1Misses_;
            ++l2Hits_;
            l1LineAcc_ += lines;
            l2LineAcc_ += lines;
        } else {
            per_line = cfg_.dramCycles;
            ++l1Misses_;
            ++l2Misses_;
            l1LineAcc_ += lines;
            l2LineAcc_ += lines;
            dramLineAcc_ += lines;
        }
        // Hits in L1 are mostly hidden by the OoO core; misses overlap
        // up to the modelled MLP.
        double overlap = l1_hit ? 2.0 : cfg_.mlp;
        stall += static_cast<double>(lines) * per_line / overlap;

        if (a.write)
            invalidateSharers(a.region, core);
    }
    return static_cast<sim::Tick>(stall);
}

bool
MemoryModel::touch(std::uint32_t cache, std::uint32_t line,
                   RegionId region, std::uint64_t bytes)
{
    const std::uint64_t cap = capacityOf(cache);
    const std::uint64_t eff = std::min(bytes, cap);
    const bool hit = line != npos;
    if (hit) {
        // Pull the line out of the recency list so it cannot evict
        // itself, make room for its possibly re-declared size, and
        // relink it as MRU.
        SIM_ASSERT(lines_[line].cache == cache
                       && lines_[line].region == region,
                   "line ", line, " looked up for region ", region,
                   " in cache ", cache, " holds region ",
                   lines_[line].region, " in cache ", lines_[line].cache);
        caches_[cache].used -= lines_[line].bytes;
        unlink(line);
        evictFor(cache, eff);
        lines_[line].bytes = eff;
    } else {
        evictFor(cache, eff);
        if (freeLine_ != npos) {
            line = freeLine_;
            freeLine_ = lines_[line].next;
        } else {
            line = static_cast<std::uint32_t>(lines_.size());
            lines_.emplace_back();
        }
        Region &r = regions_[region];
        std::uint32_t &first = cache == l2Cache() ? r.l2 : r.l1;
        lines_[line] = Line{eff, region, cache, npos, npos, first};
        first = line;
    }
    linkFront(line);
    caches_[cache].used += eff;
    SIM_ASSERT(caches_[cache].used <= cap, "cache ", cache, " holds ",
               caches_[cache].used, " bytes over capacity ", cap,
               " after touching region ", region);
    return hit;
}

void
MemoryModel::evictFor(std::uint32_t cache, std::uint64_t bytes)
{
    while (caches_[cache].used + bytes > capacityOf(cache)
           && caches_[cache].tail != npos) {
        const std::uint32_t victim = caches_[cache].tail;
        Region &r = regions_[lines_[victim].region];
        if (cache == l2Cache()) {
            r.l2 = npos;
        } else {
            std::uint32_t *link = &r.l1;
            while (*link != victim) {
                if (*link == npos)
                    sim::panic("memory model: line ", victim,
                               " missing from its sharer list");
                link = &lines_[*link].sharer;
            }
            *link = lines_[victim].sharer;
        }
        release(victim);
    }
}

void
MemoryModel::linkFront(std::uint32_t line)
{
    Cache &c = caches_[lines_[line].cache];
    lines_[line].prev = npos;
    lines_[line].next = c.head;
    if (c.head != npos)
        lines_[c.head].prev = line;
    c.head = line;
    if (c.tail == npos)
        c.tail = line;
}

void
MemoryModel::unlink(std::uint32_t line)
{
    Line &n = lines_[line];
    Cache &c = caches_[n.cache];
    // Recency-list integrity: a line is the head iff it has no prev,
    // the tail iff it has no next, and its neighbours point back at it.
    SIM_ASSERT((n.prev == npos) == (c.head == line), "line ", line,
               " prev/head mismatch");
    SIM_ASSERT((n.next == npos) == (c.tail == line), "line ", line,
               " next/tail mismatch");
    SIM_ASSERT(n.prev == npos || lines_[n.prev].next == line, "line ",
               line, " not linked from its prev");
    SIM_ASSERT(n.next == npos || lines_[n.next].prev == line, "line ",
               line, " not linked from its next");
    if (n.prev != npos)
        lines_[n.prev].next = n.next;
    else
        c.head = n.next;
    if (n.next != npos)
        lines_[n.next].prev = n.prev;
    else
        c.tail = n.prev;
}

void
MemoryModel::release(std::uint32_t line)
{
    caches_[lines_[line].cache].used -= lines_[line].bytes;
    unlink(line);
    lines_[line].next = freeLine_;
    freeLine_ = line;
}

void
MemoryModel::invalidateSharers(RegionId region, sim::CoreId writer)
{
    std::uint32_t kept = npos;
    for (std::uint32_t n = regions_[region].l1; n != npos;) {
        const std::uint32_t next = lines_[n].sharer;
        if (lines_[n].cache == writer) {
            kept = n;
        } else {
            release(n);
        }
        n = next;
    }
    if (kept != npos)
        lines_[kept].sharer = npos;
    regions_[region].l1 = kept;
}

void
MemoryModel::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("l1_hits", &l1Hits_, "region hits in any L1");
    ctx.counter("l1_misses", &l1Misses_, "region misses in L1");
    ctx.counter("l2_hits", &l2Hits_, "region hits in shared L2");
    ctx.counter("l2_misses", &l2Misses_, "region misses to DRAM");
    ctx.counter("l1_line_accesses", &l1LineAcc_,
                "L1 traffic in cache lines");
    ctx.counter("l2_line_accesses", &l2LineAcc_,
                "L2 traffic in cache lines");
    ctx.counter("dram_line_accesses", &dramLineAcc_,
                "DRAM traffic in cache lines");
    ctx.formulaFn("l1_hit_rate",
                  [this] {
                      const std::uint64_t n = l1Hits_ + l1Misses_;
                      return n ? static_cast<double>(l1Hits_)
                                     / static_cast<double>(n)
                               : 0.0;
                  },
                  "fraction of region classifications that hit in L1");
    ctx.formulaFn("l2_hit_rate",
                  [this] {
                      const std::uint64_t n = l2Hits_ + l2Misses_;
                      return n ? static_cast<double>(l2Hits_)
                                     / static_cast<double>(n)
                               : 0.0;
                  },
                  "fraction of L1-missing classifications that hit in "
                  "L2");
}

} // namespace tdm::mem
