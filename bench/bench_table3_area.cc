/**
 * @file
 * Table III: DMU storage and area requirements per structure, plus the
 * hardware-cost comparison against Task Superscalar and Carbon
 * (Section VI-C).
 */

#include <iostream>

#include "dmu/geometry.hh"
#include "hwbaselines/carbon.hh"
#include "hwbaselines/task_superscalar.hh"
#include "power/cacti_model.hh"
#include "sim/table.hh"

using namespace tdm;

int
main()
{
    dmu::DmuConfig cfg;
    pwr::CactiModel model;

    sim::Table t("Table III: DMU storage (KB) and area (mm^2)");
    t.header({"structure", "storage KB", "area mm^2", "read pJ",
              "leak mW"});
    for (const auto &s : dmu::sramSpecs(cfg)) {
        auto e = model.estimate(s);
        t.row()
            .cell(s.name)
            .cell(e.storageKB, 2)
            .cell(e.areaMm2, 3)
            .cell(e.readEnergyPj, 2)
            .cell(e.leakageMw, 3);
    }
    t.row()
        .cell("Total")
        .cell(dmu::totalStorageKB(cfg), 2)
        .cell(dmu::totalAreaMm2(cfg), 3)
        .cell("")
        .cell(dmu::totalLeakageMw(cfg), 3);
    t.print(std::cout);
    std::cout << "paper totals: 105.25 KB, 0.17 mm^2\n\n";

    hw::TssConfig tss;
    sim::Table t2("Task Superscalar structures (Section VI-C)");
    t2.header({"structure", "storage KB"});
    for (const auto &s : hw::tssSramSpecs(tss))
        t2.row().cell(s.name).cell(s.storageKB(), 2);
    t2.row().cell("Total").cell(hw::tssStorageKB(tss), 2);
    t2.print(std::cout);
    std::cout << "storage ratio TaskSS/DMU: "
              << hw::tssStorageKB(tss) / dmu::totalStorageKB(cfg)
              << "x (paper: 7.3x)\n";
    std::cout << "Carbon queues (32 cores): "
              << hw::carbonStorageKB(hw::CarbonConfig{}, 32) << " KB\n";
    return 0;
}
