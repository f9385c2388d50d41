/**
 * @file
 * Golden bytes of every writer of a run's numbers: the JSON and CSV
 * exports, the wire point event and the result-store blob.
 *
 * The input is a fixed reference campaign: three small simulated
 * points plus one synthetic job whose labels need escaping and whose
 * metrics are the awkward doubles (-0, subnormals, DBL_MAX, 2^53+1,
 * NaN of both signs, infinities). Host-time fields are zeroed, so the
 * bytes depend only on the simulation and the formatters. Each writer's
 * output is pinned by its FNV-1a digest; a formatter change that moves
 * one byte fails here. Re-pin only with a deliberate, stated format
 * change (store blobs and point sums are read back by older clients
 * and stores).
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/report/csv_writer.hh"
#include "driver/report/json_writer.hh"
#include "driver/service/protocol.hh"
#include "driver/service/store.hh"

using namespace tdm;
using namespace tdm::driver;

namespace {

Experiment
smallExperiment(core::RuntimeType rt_)
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144;
    e.runtime = rt_;
    e.config.scheduler = "fifo";
    e.config.numCores = 8;
    return e;
}

/** A job no simulation produces: escapes in every string field and
 *  the doubles a formatter gets wrong first. */
campaign::JobResult
syntheticJob()
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    sim::MetricSet m;
    m.set("machine.completed", 0);
    m.set("machine.makespan_ticks", 9007199254740993.0);
    m.set("machine.time_ms", 1.0 / 3.0);
    m.set("power.energy_j", DBL_TRUE_MIN);
    m.set("power.edp", DBL_MAX);
    m.set("power.avg_watts", -0.0);
    m.set("workload.num_tasks", 4294967295.0);
    m.set("workload.avg_task_us", 0.1);
    m.set("dmu.tat.neg_zero", -0.0);
    m.set("dmu.tat.subnormal", DBL_MIN / 3.0);
    m.set("dmu.tat.nan", nan);
    m.set("dmu.tat.neg_nan", -nan);
    m.set("dmu.tat.inf", inf);
    m.set("dmu.tat.neg_inf", -inf);
    m.set("dmu.tat.big", 1e300);
    m.set("dmu.tat.tiny", -2.5e-300);
    m.set("dmu.tat.int53", 9007199254740991.0);
    m.set("odd.\"key\",\\x", 7.0);
    std::optional<RunSummary> summary = summaryOf(std::move(m));
    campaign::JobResult j;
    j.label = "odd \"label\", tab\t nl\n ctl\x01 \xc3\xa9";
    j.digest = "0123456789abcdef";
    j.summary = *std::move(summary);
    j.source = campaign::JobSource::Disk;
    j.error = "failed, \"quoted\"\r";
    j.tracePath = "/traces/a,b.json";
    return j;
}

/** The reference campaign under @p pattern, host-time fields zeroed. */
campaign::CampaignResult
referenceCampaign(const std::string &name, const std::string &pattern)
{
    campaign::Campaign c;
    c.name = name;
    c.metrics = pattern;
    c.points = {
        {"sw/fifo", smallExperiment(core::RuntimeType::Software)},
        {"tdm/fifo", smallExperiment(core::RuntimeType::Tdm)},
        {"carbon", smallExperiment(core::RuntimeType::Carbon)},
    };
    campaign::EngineOptions opts;
    opts.threads = 1;
    campaign::CampaignEngine engine(opts);
    campaign::CampaignResult r = engine.run(c);
    r.jobs.push_back(syntheticJob());
    r.wallMs = 0.0;
    r.simMsTotal = 0.0;
    for (campaign::JobResult &j : r.jobs) {
        j.wallMs = 0.0;
        j.doneAtMs = 0.0;
    }
    return r;
}

const std::vector<campaign::CampaignResult> &
reference()
{
    static const std::vector<campaign::CampaignResult> r = {
        referenceCampaign("all \"metrics\"", ""),
        referenceCampaign("selected", "dmu.tat.*, power.energy_j,odd.*"),
    };
    return r;
}

std::string
hexDigest(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  campaign::fnv1a64(bytes));
    return buf;
}

} // namespace

TEST(OutputGolden, ReferenceCampaignRan)
{
    for (const campaign::CampaignResult &c : reference()) {
        ASSERT_EQ(c.jobs.size(), 4u);
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_TRUE(c.jobs[i].ok()) << c.jobs[i].label;
    }
}

TEST(OutputGolden, JsonExport)
{
    std::ostringstream both, one;
    report::writeJson(both, reference());
    report::writeJson(one, reference()[1]);
    EXPECT_EQ(hexDigest(both.str()), "1a891aa9e61b07af");
    EXPECT_EQ(hexDigest(one.str()), "8a04a7e042808d71");
}

TEST(OutputGolden, CsvExport)
{
    std::ostringstream both, one;
    report::writeCsv(both, reference());
    report::writeCsv(one, reference()[1]);
    EXPECT_EQ(hexDigest(both.str()), "7dfad59d0a672253");
    EXPECT_EQ(hexDigest(one.str()), "6090539808f49f96");
}

TEST(OutputGolden, WirePointEvents)
{
    report::Text os;
    for (const campaign::CampaignResult &c : reference())
        for (std::size_t i = 0; i < c.jobs.size(); ++i)
            service::writePoint(os, 7, c.jobs[i], i, c.jobs.size(),
                                sim::MetricSelection(c.metricsPattern));
    EXPECT_EQ(hexDigest(os.str()), "965726b16e089f91");
}

TEST(OutputGolden, StoreBlobs)
{
    std::ostringstream os;
    const campaign::CampaignResult &c = reference()[0];
    for (const campaign::JobResult &j : c.jobs)
        service::writeSummaryBlob(os, "key " + j.digest, j.summary, 3);
    EXPECT_EQ(hexDigest(os.str()), "0eab2bb26dd84d5b");
}
