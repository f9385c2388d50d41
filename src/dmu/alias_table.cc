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
    numSets_ = entries / assoc;
    if (!sim::isPowerOf2(numSets_))
        sim::fatal("alias table ", name_, ": sets must be a power of two");
    ways_.assign(entries_, Way{});
    setLive_.assign(numSets_, 0);
    freeIds_.reset(entries_);
    for (unsigned i = 0; i < entries_; ++i)
        freeIds_.push_back(static_cast<std::uint16_t>(i));
}

unsigned
AliasTable::setOf(std::uint64_t addr, std::uint64_t size_bytes) const
{
    unsigned start = dynamicIndex_
        ? (size_bytes > 1 ? sim::floorLog2(size_bytes) : 0)
        : staticBit_;
    return static_cast<unsigned>((addr >> start) & (numSets_ - 1));
}

std::optional<std::uint16_t>
AliasTable::lookup(std::uint64_t addr, std::uint64_t size_bytes,
                   std::uint32_t pid)
{
    ++lookups_;
    unsigned set = setOf(addr, size_bytes);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].addr == addr && base[w].pid == pid) {
            ++hits_;
            return base[w].id;
        }
    }
    return std::nullopt;
}

bool
AliasTable::canInsert(std::uint64_t addr, std::uint64_t size_bytes) const
{
    if (freeIds_.empty())
        return false;
    unsigned set = setOf(addr, size_bytes);
    return setLive_[set] < assoc_;
}

AliasTable::InsertResult
AliasTable::insert(std::uint64_t addr, std::uint64_t size_bytes,
                   std::uint32_t pid)
{
    if (freeIds_.empty())
        return {AliasInsertStatus::NoFreeId, invalidHwId};
    unsigned set = setOf(addr, size_bytes);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!base[w].valid) {
            std::uint16_t id = freeIds_.pop_front();
            base[w].valid = true;
            base[w].addr = addr;
            base[w].pid = pid;
            base[w].id = id;
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
AliasTable::erase(std::uint64_t addr, std::uint64_t size_bytes,
                  std::uint32_t pid)
{
    unsigned set = setOf(addr, size_bytes);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].addr == addr && base[w].pid == pid) {
            base[w].valid = false;
            freeIds_.push_back(base[w].id);
            --setLive_[set];
            if (setLive_[set] == 0)
                --occupiedSets_;
            --live_;
            return;
        }
    }
    sim::panic("alias table ", name_, ": erase of absent address ", addr);
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
