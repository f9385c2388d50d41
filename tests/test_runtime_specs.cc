/**
 * @file
 * Tests for the runtime-model descriptors: traits, axes, names, and
 * the hardware-cost figures used in Section VI-C.
 */

#include <gtest/gtest.h>

#include "core/runtime_model.hh"
#include "cpu/machine_config.hh"
#include "driver/spec/spec.hh"

using namespace tdm;

TEST(RuntimeTraits, AxesMatchThePaperTable)
{
    using core::DepMode;
    using core::RuntimeType;
    using core::SchedMode;
    const auto &sw = core::traitsOf(RuntimeType::Software);
    EXPECT_EQ(sw.dep, DepMode::Software);
    EXPECT_EQ(sw.sched, SchedMode::SoftwarePool);
    EXPECT_FALSE(sw.usesDmu());

    const auto &tdm = core::traitsOf(RuntimeType::Tdm);
    EXPECT_EQ(tdm.dep, DepMode::Hardware);
    EXPECT_EQ(tdm.sched, SchedMode::SoftwarePool);
    EXPECT_TRUE(tdm.usesDmu());

    const auto &carbon = core::traitsOf(RuntimeType::Carbon);
    EXPECT_EQ(carbon.dep, DepMode::Software);
    EXPECT_EQ(carbon.sched, SchedMode::HardwareQueues);

    const auto &tss = core::traitsOf(RuntimeType::TaskSuperscalar);
    EXPECT_EQ(tss.dep, DepMode::Hardware);
    EXPECT_EQ(tss.sched, SchedMode::HardwareFifo);
}

TEST(RuntimeTraits, RoundTripNames)
{
    for (auto t : core::allRuntimeTypes()) {
        driver::Experiment e;
        driver::spec::applyKey(e, "runtime", core::traitsOf(t).name);
        EXPECT_EQ(e.runtime, t);
    }
    EXPECT_EQ(core::allRuntimeTypes().size(), 4u);
}

TEST(RuntimeSpecs, HardwareCostOrdering)
{
    cpu::MachineConfig cfg;
    auto sw = core::runtimeSpec(core::RuntimeType::Software, cfg);
    auto tdm = core::runtimeSpec(core::RuntimeType::Tdm, cfg);
    auto carbon = core::runtimeSpec(core::RuntimeType::Carbon, cfg);
    auto tss = core::runtimeSpec(core::RuntimeType::TaskSuperscalar, cfg);

    EXPECT_DOUBLE_EQ(sw.hwStorageKB, 0.0);
    EXPECT_LT(carbon.hwStorageKB, tdm.hwStorageKB);
    EXPECT_LT(tdm.hwStorageKB, tss.hwStorageKB);
    EXPECT_NEAR(tss.hwStorageKB / tdm.hwStorageKB, 7.3, 0.1);

    EXPECT_EQ(sw.displayName, "SW");
    EXPECT_EQ(tdm.displayName, "TDM");
    EXPECT_FALSE(tdm.description.empty());
}

TEST(RuntimeSpecs, TdmStorageTracksDmuConfig)
{
    cpu::MachineConfig small;
    small.dmu.tatEntries = 512;
    small.dmu.datEntries = 512;
    cpu::MachineConfig big;
    EXPECT_LT(core::runtimeSpec(core::RuntimeType::Tdm, small).hwStorageKB,
              core::runtimeSpec(core::RuntimeType::Tdm, big).hwStorageKB);
}

TEST(SpecDescribe, TableIDefaults)
{
    const sim::Config c = driver::spec::describe(driver::Experiment{});
    EXPECT_EQ(c.getString("machine.cores"), "32");
    EXPECT_EQ(c.getString("dmu.tat_entries"), "2048");
    EXPECT_EQ(c.getString("dmu.dat_assoc"), "8");
    EXPECT_EQ(c.getString("mem.l1_bytes"), "32768");
    EXPECT_EQ(c.getString("mem.l2_bytes"), "4194304");
    EXPECT_EQ(c.getString("dmu.dynamic_dat_index"), "true");
    EXPECT_EQ(c.getString("scheduler"), "fifo");
}
