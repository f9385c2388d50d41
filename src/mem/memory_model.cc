#include "mem/memory_model.hh"

#include "sim/assert.hh"
#include "sim/logging.hh"

namespace tdm::mem {

MemoryModel::MemoryModel(const MemConfig &cfg, unsigned num_cores,
                         std::size_t num_regions)
    : cfg_(cfg), l2_(cfg.l2Bytes), sharerHead_(num_regions, npos)
{
    if (num_cores == 0)
        sim::fatal("memory model needs at least one core");
    l1_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c)
        l1_.push_back(std::make_unique<RegionCache>(cfg_.l1Bytes));
}

int
MemoryModel::levelOf(sim::CoreId core, RegionId region) const
{
    if (l1_[core]->contains(region))
        return 1;
    if (l2_.contains(region))
        return 2;
    return 3;
}

sim::Tick
MemoryModel::taskAccessTime(sim::CoreId core,
                            std::span<const MemAccess> accesses)
{
    if (core >= l1_.size())
        sim::panic("core id ", core, " out of range");
    double stall = 0.0;
    for (const MemAccess &a : accesses) {
        if (a.bytes == 0)
            continue;
        if (a.region >= sharerHead_.size())
            sharerHead_.resize(a.region + std::size_t{1}, npos);
        std::uint64_t lines = sim::divCeil<std::uint64_t>(a.bytes,
                                                          cfg_.lineBytes);
        // The touches report residency before this access (the L1
        // touch cannot change the L2), which classifies it. The L1
        // touch also reports its evictions: those regions lose this
        // core as a sharer, and an L1 miss gains it (a touch never
        // evicts the region it touches).
        evicted_.clear();
        const bool l1_hit = l1_[core]->touch(a.region, a.bytes, &evicted_);
        const bool l2_hit = l2_.touch(a.region, a.bytes);
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

        for (RegionId r : evicted_)
            dropSharer(r, core);
        if (!l1_hit)
            addSharer(a.region, core);
        if (a.write)
            invalidateSharers(a.region, core);
        SIM_ASSERT(sharersExact(a.region), "sharer list of region ",
                   a.region, " differs from L1 residency after core ",
                   core, " touched it");
#if SIM_INVARIANTS_ENABLED
        for (RegionId r : evicted_)
            SIM_ASSERT(sharersExact(r), "sharer list of region ", r,
                       " differs from L1 residency after core ", core,
                       " evicted it");
#endif
    }
    return static_cast<sim::Tick>(stall);
}

void
MemoryModel::addSharer(RegionId region, sim::CoreId core)
{
    std::uint32_t n = freeSharer_;
    if (n != npos) {
        freeSharer_ = sharers_[n].next;
    } else {
        n = static_cast<std::uint32_t>(sharers_.size());
        sharers_.emplace_back();
    }
    sharers_[n] = Sharer{core, sharerHead_[region]};
    sharerHead_[region] = n;
}

void
MemoryModel::dropSharer(RegionId region, sim::CoreId core)
{
    std::uint32_t *link = &sharerHead_[region];
    while (*link != npos && sharers_[*link].core != core)
        link = &sharers_[*link].next;
    const std::uint32_t n = *link;
    if (n == npos)
        sim::panic("memory model: core ", core, " evicted region ",
                   region, " it is not listed as sharing");
    *link = sharers_[n].next;
    sharers_[n].next = freeSharer_;
    freeSharer_ = n;
}

void
MemoryModel::invalidateSharers(RegionId region, sim::CoreId writer)
{
    std::uint32_t kept = npos;
    for (std::uint32_t n = sharerHead_[region]; n != npos;) {
        const std::uint32_t next = sharers_[n].next;
        if (sharers_[n].core == writer) {
            kept = n;
        } else {
            l1_[sharers_[n].core]->invalidate(region);
            sharers_[n].next = freeSharer_;
            freeSharer_ = n;
        }
        n = next;
    }
    if (kept != npos)
        sharers_[kept].next = npos;
    sharerHead_[region] = kept;
}

bool
MemoryModel::sharersExact(RegionId region) const
{
    std::vector<bool> listed(l1_.size(), false);
    std::size_t len = 0;
    for (std::uint32_t n = sharerHead_[region]; n != npos;
         n = sharers_[n].next) {
        const sim::CoreId c = sharers_[n].core;
        if (c >= l1_.size() || listed[c] || !l1_[c]->contains(region))
            return false;
        listed[c] = true;
        ++len;
    }
    std::size_t holders = 0;
    for (const auto &l1 : l1_)
        holders += l1->contains(region) ? 1 : 0;
    return holders == len;
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
