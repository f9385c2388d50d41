/**
 * @file
 * Randomized stress tests of the DMU under tight capacities: blocked
 * operations must have no side effects, resources must be conserved,
 * every operation's reported SRAM accesses must match the access
 * ledger, and after draining everything the unit must be completely
 * empty.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "dmu/dmu.hh"
#include "sim/rng.hh"

using namespace tdm;

namespace {

constexpr std::uint64_t desc(std::uint64_t i)
{
    return 0xb000000000ULL + i * 0x140;
}

constexpr std::uint64_t addr(std::uint64_t i)
{
    return 0x400000000ULL + i * 8192;
}

struct FuzzParam
{
    std::uint64_t seed;
    unsigned tat, dat, lists, elems;
    unsigned regions;
    unsigned steps;
};

class DmuFuzz : public ::testing::TestWithParam<FuzzParam>
{};

struct Snapshot
{
    unsigned tasks, deps, sla, dla, rla;
    std::size_t ready;
};

Snapshot
snap(const dmu::Dmu &d)
{
    return {d.tasksInFlight(), d.depsInFlight(), d.sla().entriesInUse(),
            d.dla().entriesInUse(), d.rla().entriesInUse(),
            d.readyCount()};
}

bool
operator==(const Snapshot &a, const Snapshot &b)
{
    return a.tasks == b.tasks && a.deps == b.deps && a.sla == b.sla
        && a.dla == b.dla && a.rla == b.rla && a.ready == b.ready;
}

/** The access ledger and block count before an operation. */
struct Ledger
{
    dmu::DmuAccessCounts counts;
    std::uint64_t blocked = 0;
};

Ledger
ledger(const dmu::Dmu &d)
{
    return {d.accessCounts(), d.blockedOps()};
}

/**
 * An operation's reported accesses are its growth of the ledger total;
 * a blocked operation records no access and counts exactly one block.
 */
void
expectLedger(const dmu::Dmu &d, const Ledger &before, unsigned accesses,
             bool blocked)
{
    const dmu::DmuAccessCounts &now = d.accessCounts();
    EXPECT_EQ(accesses, now.total() - before.counts.total());
    EXPECT_EQ(d.blockedOps(), before.blocked + (blocked ? 1 : 0));
    if (blocked) {
        EXPECT_EQ(now.bySram, before.counts.bySram);
    }
}

} // namespace

TEST_P(DmuFuzz, InvariantsUnderPressure)
{
    const FuzzParam &p = GetParam();
    dmu::DmuConfig cfg;
    cfg.tatEntries = p.tat;
    cfg.tatAssoc = std::min(8u, p.tat);
    cfg.datEntries = p.dat;
    cfg.datAssoc = std::min(8u, p.dat);
    cfg.slaEntries = p.lists;
    cfg.dlaEntries = p.lists;
    cfg.rlaEntries = p.lists;
    cfg.elemsPerEntry = p.elems;
    cfg.readyQueueEntries = p.tat;
    dmu::Dmu d(cfg);

    sim::Rng rng(p.seed);
    std::uint64_t next_task = 0;
    // Tasks popped from the Ready Queue, executing, not yet finished.
    // (The runtime contract: only dispatched tasks may finish.)
    std::deque<std::uint64_t> running;
    std::uint64_t created_ok = 0, blocked_seen = 0;

    for (unsigned step = 0; step < p.steps; ++step) {
        bool do_create = rng.uniform() < 0.55;
        if (do_create) {
            // Try to create a task with 1..3 deps; on any block, give
            // up on the whole task after verifying no state change.
            std::uint64_t id = next_task;
            Snapshot before = snap(d);
            Ledger lg = ledger(d);
            auto cres = d.createTask(desc(id));
            expectLedger(d, lg, cres.accesses, cres.blocked);
            if (cres.blocked) {
                ++blocked_seen;
                EXPECT_TRUE(snap(d) == before);
            } else {
                ++next_task;
                unsigned ndeps = 1 + rng.below(3);
                for (unsigned k = 0; k < ndeps; ++k) {
                    std::uint64_t r = rng.below(p.regions);
                    bool out = rng.uniform() < 0.5;
                    Snapshot b2 = snap(d);
                    lg = ledger(d);
                    auto ares =
                        d.addDependence(desc(id), addr(r), 8192, out);
                    expectLedger(d, lg, ares.accesses, ares.blocked);
                    if (ares.blocked) {
                        ++blocked_seen;
                        EXPECT_TRUE(snap(d) == b2);
                        break;
                    }
                }
                lg = ledger(d);
                expectLedger(d, lg, d.commitTask(desc(id)).accesses,
                             false);
                ++created_ok;
            }
        }
        // Dispatch: pop a ready task now and then.
        if (rng.uniform() < 0.6) {
            unsigned acc = 0;
            const Ledger lg = ledger(d);
            auto info = d.getReadyTask(acc);
            expectLedger(d, lg, acc, false);
            if (info)
                running.push_back((info->descAddr - 0xb000000000ULL)
                                  / 0x140);
        }
        // Finish a running task half of the time.
        if (!running.empty() && rng.uniform() < 0.5) {
            std::uint64_t id = running.front();
            running.pop_front();
            const Ledger lg = ledger(d);
            expectLedger(d, lg, d.finishTask(desc(id)).accesses, false);
        }
    }
    // Drain everything: keep dispatching and finishing until empty.
    while (d.tasksInFlight() > 0) {
        for (;;) {
            unsigned acc = 0;
            const Ledger lg = ledger(d);
            auto info = d.getReadyTask(acc);
            expectLedger(d, lg, acc, false);
            if (!info)
                break;
            running.push_back((info->descAddr - 0xb000000000ULL)
                              / 0x140);
        }
        ASSERT_FALSE(running.empty()) << "ready tasks vanished";
        const Ledger lg = ledger(d);
        expectLedger(d, lg, d.finishTask(desc(running.front())).accesses,
                     false);
        running.pop_front();
    }
    EXPECT_EQ(d.tasksInFlight(), 0u);
    EXPECT_EQ(d.depsInFlight(), 0u);
    EXPECT_EQ(d.sla().entriesInUse(), 0u);
    EXPECT_EQ(d.dla().entriesInUse(), 0u);
    EXPECT_EQ(d.rla().entriesInUse(), 0u);
    EXPECT_EQ(d.tat().liveEntries(), 0u);
    EXPECT_EQ(d.dat().liveEntries(), 0u);
    EXPECT_GT(created_ok, 0u);
    EXPECT_EQ(d.blockedOps(), blocked_seen);

    // The metric tree reads the same ledger.
    sim::MetricRegistry reg;
    d.regMetrics(reg.context("dmu"));
    const dmu::DmuAccessCounts &c = d.accessCounts();
    EXPECT_EQ(reg.value("dmu.accesses"), static_cast<double>(c.total()));
    const std::pair<dmu::Sram, const char *> keys[] = {
        {dmu::Sram::TaskTable, "dmu.task_table.accesses"},
        {dmu::Sram::DepTable, "dmu.dep_table.accesses"},
        {dmu::Sram::Tat, "dmu.tat.accesses"},
        {dmu::Sram::Dat, "dmu.dat.accesses"},
        {dmu::Sram::Sla, "dmu.sla.accesses"},
        {dmu::Sram::Dla, "dmu.dla.accesses"},
        {dmu::Sram::Rla, "dmu.rla.accesses"},
        {dmu::Sram::ReadyQueue, "dmu.ready_queue.accesses"},
    };
    for (const auto &[sram, key] : keys)
        EXPECT_EQ(reg.value(key), static_cast<double>(c[sram])) << key;
}

INSTANTIATE_TEST_SUITE_P(
    Pressure, DmuFuzz,
    ::testing::Values(
        FuzzParam{1, 16, 16, 16, 2, 8, 2000},
        FuzzParam{2, 8, 8, 8, 2, 4, 2000},
        FuzzParam{3, 32, 16, 8, 4, 12, 3000},
        FuzzParam{4, 64, 64, 64, 8, 24, 4000},
        FuzzParam{5, 16, 64, 32, 2, 6, 3000},
        FuzzParam{6, 64, 16, 16, 4, 4, 3000},
        FuzzParam{7, 8, 32, 64, 8, 16, 2000},
        FuzzParam{8, 128, 128, 32, 2, 40, 5000}),
    [](const ::testing::TestParamInfo<FuzzParam> &info) {
        return "seed" + std::to_string(info.param.seed);
    });
