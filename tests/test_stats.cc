/**
 * @file
 * Unit tests for the stats package.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hh"

using namespace tdm;

TEST(Average, MeanOfSamples)
{
    sim::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Distribution, MomentsAndRange)
{
    sim::Distribution d(0.0, 10.0);
    for (int i = 0; i < 10; ++i)
        d.sample(i + 0.5);
    EXPECT_EQ(d.count(), 10u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
}

TEST(Distribution, UnderflowOverflow)
{
    sim::Distribution d(0.0, 1.0);
    d.sample(-1.0);
    d.sample(2.0);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_DOUBLE_EQ(d.minSample(), -1.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 2.0);
}

TEST(Distribution, StdevOfConstantIsZero)
{
    sim::Distribution d(0.0, 10.0);
    d.sample(3.0);
    d.sample(3.0);
    d.sample(3.0);
    EXPECT_NEAR(d.stdev(), 0.0, 1e-12);
}

TEST(Distribution, StdevMatchesSampleFormula)
{
    sim::Distribution d(0.0, 10.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    // Sample (n-1) stdev of the classic sigma=2 data set:
    // sum of squared deviations = 32, n-1 = 7.
    EXPECT_NEAR(d.stdev(), std::sqrt(32.0 / 7.0), 1e-9);
}
