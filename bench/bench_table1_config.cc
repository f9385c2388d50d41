/**
 * @file
 * Table I: configuration of the simulated machine, plus the DMU
 * structure inventory.
 */

#include <iostream>

#include "dmu/geometry.hh"
#include "driver/spec/spec.hh"
#include "sim/table.hh"

using namespace tdm;

int
main()
{
    const driver::Experiment exp;
    std::cout << "== Table I: simulated machine configuration ==\n";
    driver::spec::describe(exp).dump(std::cout);

    std::cout << "\n== DMU structures ==\n";
    sim::Table t;
    t.header({"structure", "entries", "bits/entry", "assoc", "KB"});
    for (const auto &s : dmu::sramSpecs(exp.config.dmu)) {
        t.row()
            .cell(s.name)
            .cell(static_cast<std::uint64_t>(s.entries))
            .cell(static_cast<std::uint64_t>(s.bitsPerEntry))
            .cell(static_cast<std::uint64_t>(s.assoc))
            .cell(s.storageKB(), 2);
    }
    t.print(std::cout);
    return 0;
}
