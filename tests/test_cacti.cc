/**
 * @file
 * Tests of the fitted CACTI-style model and the DMU storage geometry.
 * The headline check is Table III: the default DMU configuration must
 * reproduce the paper's storage (105.25 KB total) exactly and the area
 * (0.17 mm^2) closely.
 */

#include <gtest/gtest.h>

#include "dmu/geometry.hh"
#include "power/cacti_model.hh"

using namespace tdm;

TEST(Cacti, AreaScalesWithBits)
{
    pwr::CactiModel m;
    pwr::SramSpec small{"s", 256, 32, 1, 0};
    pwr::SramSpec big{"b", 4096, 32, 1, 0};
    EXPECT_GT(m.estimate(big).areaMm2, m.estimate(small).areaMm2);
}

TEST(Cacti, AssociativityCostsArea)
{
    pwr::CactiModel m;
    pwr::SramSpec direct{"d", 2048, 75, 1, 0};
    pwr::SramSpec assoc{"a", 2048, 75, 8, 64};
    EXPECT_GT(m.estimate(assoc).areaMm2, m.estimate(direct).areaMm2);
    EXPECT_GT(m.estimate(assoc).readEnergyPj,
              m.estimate(direct).readEnergyPj);
}

// ---- Table III: storage per structure (KB) ----

TEST(DmuGeometry, TableIIIStorageExact)
{
    dmu::DmuConfig cfg; // paper defaults
    auto specs = dmu::sramSpecs(cfg);
    ASSERT_EQ(specs.size(), 8u);

    // Paper: TaskTable 23.00, DepTable 5.25, TAT 18.75, DAT 18.75,
    // SLA 12.25, DLA 12.25, RLA 12.25, ReadyQ 2.75 (KB).
    EXPECT_DOUBLE_EQ(specs[0].storageKB(), 23.00); // TaskTable
    EXPECT_DOUBLE_EQ(specs[1].storageKB(), 5.25);  // DepTable
    EXPECT_DOUBLE_EQ(specs[2].storageKB(), 18.75); // TAT
    EXPECT_DOUBLE_EQ(specs[3].storageKB(), 18.75); // DAT
    EXPECT_DOUBLE_EQ(specs[4].storageKB(), 12.25); // SLA
    EXPECT_DOUBLE_EQ(specs[5].storageKB(), 12.25); // DLA
    EXPECT_DOUBLE_EQ(specs[6].storageKB(), 12.25); // RLA
    EXPECT_DOUBLE_EQ(specs[7].storageKB(), 2.75);  // ReadyQ

    EXPECT_DOUBLE_EQ(dmu::totalStorageKB(cfg), 105.25);
}

TEST(DmuGeometry, TableIIIAreaClose)
{
    dmu::DmuConfig cfg;
    pwr::CactiModel m;
    auto specs = dmu::sramSpecs(cfg);

    // Paper: 0.026, 0.013, 0.031, 0.031, 0.019, 0.019, 0.019, 0.012.
    const double expected[] = {0.026, 0.013, 0.031, 0.031,
                               0.019, 0.019, 0.019, 0.012};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_NEAR(m.estimate(specs[i]).areaMm2, expected[i], 0.003)
            << specs[i].name;
    }
    EXPECT_NEAR(dmu::totalAreaMm2(cfg), 0.17, 0.01);
}

TEST(DmuGeometry, IdWidthsFollowTableSizes)
{
    dmu::DmuConfig cfg;
    EXPECT_EQ(cfg.taskIdBits(), 11u);
    EXPECT_EQ(cfg.depIdBits(), 11u);
    EXPECT_EQ(cfg.slaPtrBits(), 10u);

    dmu::DmuConfig big;
    big.tatEntries = 4096;
    EXPECT_EQ(big.taskIdBits(), 12u);
}

TEST(DmuGeometry, StorageShrinksWithSmallerTables)
{
    dmu::DmuConfig small;
    small.tatEntries = 512;
    small.datEntries = 512;
    small.slaEntries = 128;
    small.dlaEntries = 128;
    small.rlaEntries = 128;
    small.readyQueueEntries = 512;
    EXPECT_LT(dmu::totalStorageKB(small), dmu::totalStorageKB({}));
}

TEST(DmuGeometry, LeakageIsMilliwattScale)
{
    // The paper reports DMU power below 0.01% of a ~30 W chip.
    double mw = dmu::totalLeakageMw(dmu::DmuConfig{});
    EXPECT_GT(mw, 0.1);
    EXPECT_LT(mw, 10.0);
}
