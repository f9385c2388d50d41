/**
 * @file
 * Tests for the per-core phase accounting.
 */

#include <gtest/gtest.h>


#include "cpu/phase_stats.hh"

using namespace tdm;

TEST(PhaseBreakdown, FractionsSumToOne)
{
    cpu::PhaseBreakdown b;
    b.deps = 10;
    b.sched = 20;
    b.exec = 30;
    b.idle = 40;
    EXPECT_EQ(b.total(), 100u);
    EXPECT_EQ(b.busy(), 60u);
    double sum = b.fraction(cpu::Phase::Deps)
               + b.fraction(cpu::Phase::Sched)
               + b.fraction(cpu::Phase::Exec)
               + b.fraction(cpu::Phase::Idle);
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(b.fraction(cpu::Phase::Idle), 0.4);
}

TEST(PhaseBreakdown, EmptyFractionIsZero)
{
    cpu::PhaseBreakdown b;
    EXPECT_DOUBLE_EQ(b.fraction(cpu::Phase::Exec), 0.0);
}

TEST(PhaseStats, AccumulatesPerCore)
{
    cpu::PhaseStats s(4);
    s.add(0, cpu::Phase::Deps, 100);
    s.add(0, cpu::Phase::Deps, 50);
    s.add(1, cpu::Phase::Exec, 200);
    s.add(3, cpu::Phase::Idle, 300);
    EXPECT_EQ(s.core(0).deps, 150u);
    EXPECT_EQ(s.core(1).exec, 200u);
    EXPECT_EQ(s.master().deps, 150u);

    cpu::PhaseBreakdown workers = s.workersTotal();
    EXPECT_EQ(workers.exec, 200u);
    EXPECT_EQ(workers.idle, 300u);
    EXPECT_EQ(workers.deps, 0u); // master excluded

    cpu::PhaseBreakdown chip = s.chipTotal();
    EXPECT_EQ(chip.total(), 650u);
}

TEST(PhaseStats, PhaseNames)
{
    EXPECT_STREQ(cpu::toString(cpu::Phase::Deps), "DEPS");
    EXPECT_STREQ(cpu::toString(cpu::Phase::Sched), "SCHED");
    EXPECT_STREQ(cpu::toString(cpu::Phase::Exec), "EXEC");
    EXPECT_STREQ(cpu::toString(cpu::Phase::Idle), "IDLE");
}

TEST(PhaseStatsDeath, OutOfRangeCore)
{
    cpu::PhaseStats s(2);
    EXPECT_DEATH(s.add(2, cpu::Phase::Exec, 1), "out of range");
}
