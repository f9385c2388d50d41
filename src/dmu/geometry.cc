#include "dmu/geometry.hh"

namespace tdm::dmu {

std::vector<pwr::SramSpec>
sramSpecs(const DmuConfig &cfg)
{
    std::vector<pwr::SramSpec> specs;

    // Task Table: 48-bit canonical descriptor address, predecessor and
    // successor counts (task-id wide), successor/dependence list
    // pointers, valid + flags.
    unsigned task_bits = 48 + 2 * cfg.taskIdBits() + cfg.slaPtrBits()
                       + cfg.dlaPtrBits() + 2;
    specs.push_back({"TaskTable", cfg.taskTableEntries(), task_bits, 1, 0});

    // Dependence Table: last-writer task id + reader list pointer
    // (invalid last writer encoded as all-ones id).
    unsigned dep_bits = cfg.taskIdBits() + cfg.rlaPtrBits();
    specs.push_back({"DepTable", cfg.depTableEntries(), dep_bits, 1, 0});

    // Alias tables: full 64-bit address + internal id; associative
    // lookups compare the full address.
    specs.push_back({"TAT", cfg.tatEntries,
                     64 + cfg.taskIdBits(), cfg.tatAssoc, 64});
    specs.push_back({"DAT", cfg.datEntries,
                     64 + cfg.depIdBits(), cfg.datAssoc, 64});

    // List arrays: elemsPerEntry ids + next pointer.
    unsigned sla_bits = cfg.elemsPerEntry * cfg.taskIdBits()
                      + cfg.slaPtrBits();
    specs.push_back({"SLA", cfg.slaEntries, sla_bits, 1, 0});
    unsigned dla_bits = cfg.elemsPerEntry * cfg.depIdBits()
                      + cfg.dlaPtrBits();
    specs.push_back({"DLA", cfg.dlaEntries, dla_bits, 1, 0});
    unsigned rla_bits = cfg.elemsPerEntry * cfg.taskIdBits()
                      + cfg.rlaPtrBits();
    specs.push_back({"RLA", cfg.rlaEntries, rla_bits, 1, 0});

    // Ready Queue: a FIFO of task ids.
    specs.push_back({"ReadyQ", cfg.readyQueueEntries, cfg.taskIdBits(),
                     1, 0});
    return specs;
}

double
totalStorageKB(const DmuConfig &cfg)
{
    double kb = 0.0;
    for (const auto &s : sramSpecs(cfg))
        kb += s.storageKB();
    return kb;
}

double
totalAreaMm2(const DmuConfig &cfg)
{
    pwr::CactiModel model;
    double mm2 = 0.0;
    for (const auto &s : sramSpecs(cfg))
        mm2 += model.estimate(s).areaMm2;
    return mm2;
}

double
totalLeakageMw(const DmuConfig &cfg)
{
    pwr::CactiModel model;
    double mw = 0.0;
    for (const auto &s : sramSpecs(cfg))
        mw += model.estimate(s).leakageMw;
    return mw;
}

} // namespace tdm::dmu
