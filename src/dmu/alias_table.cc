#include "dmu/alias_table.hh"

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tdm::dmu {

AliasTable::AliasTable(std::string name, unsigned entries, unsigned assoc,
                       bool dynamic_index, unsigned static_bit)
    : name_(std::move(name)), entries_(entries), assoc_(assoc),
      dynamicIndex_(dynamic_index), staticBit_(static_bit)
{
    if (entries == 0 || assoc == 0 || entries % assoc != 0)
        sim::fatal("alias table ", name_, ": bad geometry ", entries, "/",
                   assoc);
    if (entries > invalidHwId)
        sim::fatal("alias table ", name_, ": ", entries,
                   " entries exceed the 16-bit id space (max ",
                   invalidHwId, ")");
    numSets_ = entries / assoc;
    if (!sim::isPowerOf2(numSets_))
        sim::fatal("alias table ", name_, ": sets must be a power of two");
    addr_.assign(entries_, 0);
    pid_.assign(entries_, 0);
    id_.assign(entries_, invalidHwId);
    wayOfId_.assign(entries_, 0);
    setLive_.assign(numSets_, 0);
    freeIds_.reset(entries_);
    for (unsigned i = 0; i < entries_; ++i)
        freeIds_.push_back(static_cast<std::uint16_t>(i));
}

AliasTable::InsertResult
AliasTable::insert(std::uint64_t addr, std::uint64_t size_bytes,
                   std::uint32_t pid)
{
    if (freeIds_.empty())
        return {AliasInsertStatus::NoFreeId, invalidHwId};
    const unsigned set = setOf(addr, size_bytes);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    for (std::size_t w = base; w < base + assoc_; ++w) {
        if (id_[w] == invalidHwId) {
            const std::uint16_t id = freeIds_.pop_front();
            addr_[w] = addr;
            pid_[w] = pid;
            id_[w] = id;
            wayOfId_[id] = static_cast<std::uint16_t>(w);
            if (setLive_[set] == 0)
                ++occupiedSets_;
            ++setLive_[set];
            ++live_;
            ++inserts_;
            occSamples_ += occupiedSets();
            ++occCount_;
            return {AliasInsertStatus::Ok, id};
        }
    }
    ++conflicts_;
    return {AliasInsertStatus::SetConflict, invalidHwId};
}

void
AliasTable::erase(std::uint16_t id)
{
    if (id >= entries_ || id_[wayOfId_[id]] != id)
        sim::panic("alias table ", name_, ": erase of absent id ", id);
    const std::uint16_t w = wayOfId_[id];
    id_[w] = invalidHwId;
    freeIds_.push_back(id);
    const unsigned set = w / assoc_;
    if (--setLive_[set] == 0)
        --occupiedSets_;
    --live_;
}

unsigned
AliasTable::occupiedSets() const
{
    return occupiedSets_;
}

double
AliasTable::avgOccupiedSets() const
{
    return occCount_ ? occSamples_ / static_cast<double>(occCount_) : 0.0;
}

void
AliasTable::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("lookups", &lookups_, "address lookups");
    ctx.counter("hits", &hits_, "lookups that found a live entry");
    ctx.counter("inserts", &inserts_, "successful inserts");
    ctx.counter("conflicts", &conflicts_,
                "failed inserts due to set conflicts");
    ctx.formulaFn("hit_rate",
                  [this] {
                      return lookups_
                                 ? static_cast<double>(hits_)
                                       / static_cast<double>(lookups_)
                                 : 0.0;
                  },
                  "fraction of lookups that hit");
    ctx.gauge("occupied_sets",
              [this] { return static_cast<double>(occupiedSets()); },
              "sets currently holding at least one valid way");
    ctx.formulaFn("avg_occupied_sets",
                  [this] { return avgOccupiedSets(); },
                  "mean occupied sets sampled at every insert");
    ctx.gauge("live_entries",
              [this] { return static_cast<double>(live_); },
              "live translations");
}

} // namespace tdm::dmu
