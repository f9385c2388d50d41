/**
 * @file
 * Golden-determinism guard for tracing: the instrumented run IS the
 * plain run.
 *
 * Every pinned makespan from test_golden_determinism.cc must reproduce
 * bit-for-bit with every trace category enabled — tracing is pure
 * observation (inline mask checks and buffer appends; no events, no
 * allocation in the hot path, no reordering). One reference point
 * additionally pins its event count and record digest, so silent
 * changes to what gets recorded (dropped instrumentation, double
 * recording, reordered sampling) show up as a diff here rather than as
 * a mystery in somebody's Perfetto timeline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <streambuf>

#include "driver/experiment.hh"
#include "driver/graph_cache.hh"
#include "driver/report/trace_writer.hh"
#include "sim/trace.hh"

using namespace tdm;

namespace {

struct Golden
{
    core::RuntimeType runtime;
    const char *workload;
    const char *scheduler;
    sim::Tick makespan;
};

// Same table as test_golden_determinism.cc: the seed kernel's pinned
// makespans.
const Golden goldens[] = {
    {core::RuntimeType::Tdm, "cholesky", "fifo", 142451635ull},
    {core::RuntimeType::Tdm, "cholesky", "locality", 144116539ull},
    {core::RuntimeType::Tdm, "lu", "fifo", 46711567ull},
    {core::RuntimeType::Tdm, "lu", "locality", 45515187ull},
    {core::RuntimeType::Tdm, "dedup", "fifo", 809107314ull},
    {core::RuntimeType::Tdm, "dedup", "locality", 801222268ull},
    {core::RuntimeType::Software, "cholesky", "fifo", 157277791ull},
    {core::RuntimeType::Software, "cholesky", "locality", 160051164ull},
    {core::RuntimeType::Software, "lu", "fifo", 47266035ull},
    {core::RuntimeType::Software, "lu", "locality", 45521241ull},
    {core::RuntimeType::Software, "dedup", "fifo", 809344123ull},
    {core::RuntimeType::Software, "dedup", "locality", 801426713ull},
};

class TracedGolden : public ::testing::TestWithParam<Golden>
{};

/** An output sink that keeps only the FNV-1a digest of its bytes, so a
 *  large trace is pinned without holding it in memory. */
class Fnv1aSink : public std::streambuf
{
  public:
    std::uint64_t digest() const { return h_; }
    std::uint64_t bytes() const { return n_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            const char c = traits_type::to_char_type(ch);
            xsputn(&c, 1);
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i) {
            h_ ^= static_cast<unsigned char>(s[i]);
            h_ *= 0x100000001b3ull;
        }
        n_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
    std::uint64_t n_ = 0;
};

} // namespace

TEST_P(TracedGolden, FullTracingLeavesTheMakespanByteIdentical)
{
    const Golden &g = GetParam();
    driver::Experiment e;
    e.workload = g.workload;
    e.runtime = g.runtime;
    e.config.scheduler = g.scheduler;
    e.config.trace.categories = sim::traceCatAll;

    sim::TraceBuffer tb;
    driver::RunSummary s = driver::run(e, nullptr, &tb);
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(s.makespan, g.makespan)
        << "tracing perturbed the simulation for " << g.workload << "/"
        << g.scheduler;
    EXPECT_GT(tb.size(), 0u);
    EXPECT_EQ(tb.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldens, TracedGolden, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(core::traitsOf(info.param.runtime).name) + "_"
             + info.param.workload + "_" + info.param.scheduler;
    });

TEST(TracedGolden, ReferencePointPinsEventCountAndDigest)
{
    // Tdm/cholesky/fifo with every category on. If instrumentation is
    // added, removed or resampled, re-pin these two values in the same
    // commit and say so — an unexplained diff means the simulation (or
    // what the trace claims about it) changed.
    driver::Experiment e;
    e.workload = "cholesky";
    e.runtime = core::RuntimeType::Tdm;
    e.config.scheduler = "fifo";
    e.config.trace.categories = sim::traceCatAll;

    sim::TraceBuffer tb;
    driver::RunSummary s = driver::run(e, nullptr, &tb);
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(s.makespan, 142451635ull);
    EXPECT_EQ(tb.dropped(), 0u);
    EXPECT_EQ(tb.size(), 510791ull);
    EXPECT_EQ(tb.digest(), 15356664645439498864ull);
}

struct TraceGolden
{
    core::RuntimeType runtime;
    sim::Tick makespan;
    std::uint64_t records;
    std::uint64_t digest;
};

class TracedRuntime : public ::testing::TestWithParam<TraceGolden>
{};

TEST_P(TracedRuntime, PinsEventCountAndDigest)
{
    // The reference point's pin for the other three runtimes: their
    // scheduling spans (pool pops, Carbon local pops and steals,
    // Task Superscalar get_ready dispatches) and wake-ups differ from
    // TDM's, so each runtime's stream is pinned on its own.
    const TraceGolden &g = GetParam();
    driver::Experiment e;
    e.workload = "cholesky";
    e.runtime = g.runtime;
    e.config.scheduler = "fifo";
    e.config.trace.categories = sim::traceCatAll;

    sim::TraceBuffer tb;
    driver::RunSummary s = driver::run(e, nullptr, &tb);
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(s.makespan, g.makespan);
    EXPECT_EQ(tb.dropped(), 0u);
    EXPECT_EQ(tb.size(), g.records);
    EXPECT_EQ(tb.digest(), g.digest);
}

const TraceGolden traceGoldens[] = {
    {core::RuntimeType::Software, 157277791ull, 73277ull,
     13894779406759167581ull},
    {core::RuntimeType::Carbon, 151269426ull, 56644ull,
     13352421883559761481ull},
    {core::RuntimeType::TaskSuperscalar, 142349364ull, 480952ull,
     10018493452510148744ull},
};

INSTANTIATE_TEST_SUITE_P(
    OtherRuntimes, TracedRuntime, ::testing::ValuesIn(traceGoldens),
    [](const ::testing::TestParamInfo<TraceGolden> &info) {
        return std::string(core::traitsOf(info.param.runtime).name);
    });

TEST(TracedGolden, ReferencePointChromeTraceBytes)
{
    // The same reference point, written as Chrome trace JSON the way
    // tdm_run --trace writes it: pins the trace writer's timestamp and
    // argument formatting byte for byte.
    driver::Experiment e;
    e.workload = "cholesky";
    e.runtime = core::RuntimeType::Tdm;
    e.config.scheduler = "fifo";
    e.config.trace.categories = sim::traceCatAll;

    const auto graph = driver::buildGraph(e);
    sim::TraceBuffer tb;
    driver::RunSummary s = driver::run(e, graph, &tb);
    ASSERT_TRUE(s.completed);

    driver::report::TraceMeta meta;
    meta.processName = "cholesky on tdm+fifo";
    meta.numCores = e.config.numCores;
    meta.graph = graph.get();
    Fnv1aSink sink;
    std::ostream os(&sink);
    driver::report::writeChromeTrace(os, tb, meta);
    EXPECT_EQ(sink.bytes(), 53271728ull);
    EXPECT_EQ(sink.digest(), 1972227709973540875ull);
}
