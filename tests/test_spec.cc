/**
 * @file
 * Spec-API tests: binding-registry round-trips, validation errors with
 * near-miss suggestions, grid/zip expansion, the campaign text format,
 * and the golden check that the spec-built fig12/fig13/ablation
 * campaigns are byte-identical (labels and fingerprints) to the
 * historical hand-coded loops.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "driver/campaign/campaign.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/grid.hh"
#include "driver/spec/spec.hh"
#include "runtime/scheduler.hh"
#include "sim/suggest.hh"
#include "workloads/registry.hh"

using namespace tdm;
using namespace tdm::driver;
namespace spc = tdm::driver::spec;

namespace {

/** A valid non-default sample value for a binding, from its type. */
std::string
sampleValue(const spc::Binding &b)
{
    switch (b.kind) {
    case spc::ValueKind::Uint:
        return std::to_string(std::stoull(b.defaultValue) + 1);
    case spc::ValueKind::Double: {
        double d = std::stod(b.defaultValue);
        return spc::formatDouble(d * 2.0 + 0.125);
    }
    case spc::ValueKind::Bool:
        return b.defaultValue == "true" ? "false" : "true";
    case spc::ValueKind::Workload:
        return b.defaultValue == "lu" ? "qr" : "lu";
    case spc::ValueKind::Runtime:
        return b.defaultValue == "tdm" ? "carbon" : "tdm";
    case spc::ValueKind::Scheduler:
        return b.defaultValue == "age" ? "locality" : "age";
    case spc::ValueKind::Categories:
        return b.defaultValue == "task,dmu" ? "all" : "task,dmu";
    }
    return "";
}

} // namespace

TEST(Spec, DescribeOfDefaultsYieldsDefaults)
{
    const sim::Config d = spc::describe(Experiment{});
    EXPECT_EQ(d.entries().size(), spc::allBindings().size());
    for (const spc::Binding &b : spc::allBindings())
        EXPECT_EQ(d.getString(b.key), b.defaultValue) << b.key;

    // apply() of the described defaults reproduces the defaults.
    const sim::Config back = spc::describe(spc::apply(d));
    EXPECT_EQ(back.entries(), d.entries());
}

TEST(Spec, RoundTripsEveryRegisteredKey)
{
    const sim::Config defaults = spc::describe(Experiment{});
    for (const spc::Binding &b : spc::allBindings()) {
        const std::string sample = sampleValue(b);
        ASSERT_NE(sample, b.defaultValue) << b.key;

        sim::Config s = defaults;
        s.set(b.key, sample);
        const Experiment e = spc::apply(s);
        const sim::Config back = spc::describe(e);
        EXPECT_EQ(back.entries(), s.entries())
            << "describe(apply(spec)) != spec when setting " << b.key;
        EXPECT_EQ(back.getString(b.key), sample) << b.key;
    }
}

TEST(Spec, ShortWorkloadNamesCanonicalizeOnApply)
{
    Experiment e;
    spc::applyKey(e, "workload", "cho");
    EXPECT_EQ(e.workload, "cholesky");
    spc::applyKey(e, "workload", "str");
    EXPECT_EQ(e.workload, "streamcluster");
}

TEST(Spec, UnknownKeySuggestsNearMisses)
{
    Experiment e;
    try {
        spc::applyKey(e, "machine.core", "8");
        FAIL() << "expected SpecError";
    } catch (const spc::SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("machine.cores"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Spec, BadValuesAreHardErrors)
{
    Experiment e;
    EXPECT_THROW(spc::applyKey(e, "machine.cores", "banana"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "machine.cores", "-3"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "machine.cores", "12abc"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "workload.noise", "0.1.2"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "dmu.dynamic_dat_index", "maybe"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "workload", "nope"), spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "runtime", "hardware"),
                 spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "scheduler", "zzz"), spc::SpecError);
    EXPECT_THROW(spc::applyKey(e, "no.such.key", "1"), spc::SpecError);
    // The Task Superscalar is priced at the paper's fixed 769 KB
    // configuration; its sizes are not spec keys.
    EXPECT_THROW(spc::applyKey(e, "tss.entries", "2048"), spc::SpecError);
    // Out of range for the field width (unsigned).
    EXPECT_THROW(spc::applyKey(e, "machine.cores", "4294967296"),
                 spc::SpecError);
    // Below a key's lower bound: a divide by zero (line and flit
    // sizes, mlp), an overlapped miss dearer than a serial one
    // (mlp < 1), negative energy (power.*), or a component's fatal
    // geometry check, which would fail the point only once it runs.
    const std::pair<const char *, const char *> belowBound[] = {
        {"mem.line_bytes", "0"},       {"mesh.flit_bytes", "0"},
        {"mem.mlp", "0"},              {"mem.mlp", "0.999"},
        {"mem.mlp", "0.000001"},       {"power.active_w", "-5"},
        {"power.idle_w", "-0.1"},      {"power.uncore_w", "-1"},
        {"power.l1_line_nj", "-1"},    {"power.l2_line_nj", "-1"},
        {"power.dram_line_nj", "-1"},  {"mem.l1_bytes", "0"},
        {"mem.l2_bytes", "0"},         {"mesh.width", "0"},
        {"mesh.height", "0"},          {"dmu.tat_entries", "0"},
        {"dmu.dat_entries", "0"},      {"dmu.sla_entries", "0"},
        {"dmu.dla_entries", "0"},      {"dmu.rla_entries", "0"},
        {"dmu.ready_queue_entries", "0"}, {"dmu.tat_assoc", "0"},
        {"dmu.dat_assoc", "0"},        {"dmu.elems_per_entry", "0"},
        {"carbon.queue_entries", "0"}, {"machine.cores", "0"},
        {"machine.cores", "1"},
    };
    for (const auto &[key, value] : belowBound) {
        try {
            spc::applyKey(e, key, value);
            ADD_FAILURE() << "expected SpecError for " << key << "="
                          << value;
        } catch (const spc::SpecError &err) {
            EXPECT_NE(std::string(err.what())
                          .find(std::string("spec key '") + key + "'"),
                      std::string::npos)
                << err.what();
        }
    }
    // Each bound itself is accepted.
    Experiment atBound;
    for (const char *key : {"mem.line_bytes", "mesh.flit_bytes",
                            "mem.l1_bytes", "mesh.width",
                            "dmu.elems_per_entry", "mem.mlp"})
        EXPECT_NO_THROW(spc::applyKey(atBound, key, "1")) << key;
    EXPECT_NO_THROW(spc::applyKey(atBound, "machine.cores", "2"));
    EXPECT_NO_THROW(spc::applyKey(atBound, "power.active_w", "0"));
    // DMU ids and list entries are 16 bits with all-ones reserved, so
    // each sizing key tops out at 65535 (a 65536-entry TAT issued the
    // invalid id; a 70000-entry list array wrapped onto live entries).
    for (const char *key :
         {"dmu.tat_entries", "dmu.dat_entries", "dmu.sla_entries",
          "dmu.dla_entries", "dmu.rla_entries", "dmu.elems_per_entry"}) {
        for (const char *value : {"65536", "70000", "4294967295"}) {
            try {
                spc::applyKey(e, key, value);
                ADD_FAILURE() << "expected SpecError for " << key << "="
                              << value;
            } catch (const spc::SpecError &err) {
                EXPECT_NE(std::string(err.what()).find("[1, 65535]"),
                          std::string::npos)
                    << err.what();
            }
        }
        EXPECT_NO_THROW(spc::applyKey(atBound, key, "65535")) << key;
    }
    // Nothing was modified by the failed applications.
    EXPECT_EQ(spc::describe(e).entries(),
              spc::describe(Experiment{}).entries());
}

TEST(Spec, NegativeGranularityIsRejected)
{
    // A negative granularity names no task size; it used to fall
    // through to the SW-optimal default whatever the runtime.
    Experiment e;
    for (const char *v : {"-1", "-0.5", "-262144"}) {
        try {
            spc::applyKey(e, "workload.granularity", v);
            FAIL() << "expected SpecError for " << v;
        } catch (const spc::SpecError &err) {
            EXPECT_NE(std::string(err.what()).find("workload.granularity"),
                      std::string::npos)
                << err.what();
        }
    }
    EXPECT_EQ(e.params.granularity, 0.0);
    spc::applyKey(e, "workload.granularity", "0");
    spc::applyKey(e, "workload.granularity", "64");
    EXPECT_EQ(e.params.granularity, 64.0);

    // An experiment built in code is refused where it is resolved.
    e.params.granularity = -1.0;
    EXPECT_THROW(spc::normalized(e), spc::SpecError);
    EXPECT_THROW(spc::canonicalSpec(e), spc::SpecError);
}

TEST(Spec, CanonicalSpecCarriesTheResolvedGranularity)
{
    Experiment e;
    e.workload = "cho";
    e.runtime = core::RuntimeType::Tdm;
    const sim::Config c = spc::canonicalSpec(e);
    EXPECT_EQ(c.getString("workload"), "cholesky");
    EXPECT_EQ(c.getString("workload.granularity"), "16384");

    // qr is one of the two benchmarks whose optima differ: a default
    // TDM point runs (and records) the TDM-optimal 32, SW the 64.
    e.workload = "qr";
    EXPECT_EQ(spc::canonicalSpec(e).getString("workload.granularity"),
              "32");
    e.runtime = core::RuntimeType::Software;
    EXPECT_EQ(spc::canonicalSpec(e).getString("workload.granularity"),
              "64");

    // An explicit granularity is kept as given.
    e.params.granularity = 128;
    EXPECT_EQ(spc::canonicalSpec(e).getString("workload.granularity"),
              "128");
}

TEST(Spec, FormatDoubleRoundTripsAndStaysShort)
{
    EXPECT_EQ(spc::formatDouble(0.05), "0.05");
    EXPECT_EQ(spc::formatDouble(262144.0), "262144");
    EXPECT_EQ(spc::formatDouble(0.0), "0");
    for (double v : {0.1, 1.0 / 3.0, 8.0, 2e-9, 123456789.125}) {
        double back = 0.0;
        ASSERT_TRUE(
            sim::Config::tryParseDouble(spc::formatDouble(v), back));
        EXPECT_EQ(back, v);
    }
}

TEST(Spec, FormatDoubleMatchesTheStreamRendering)
{
    // The reference: the shortest std::setprecision rendering that
    // reads back equal, else the 17-digit one.
    auto viaStream = [](double v) {
        std::string s;
        for (int prec = 1; prec <= 17; ++prec) {
            std::ostringstream oss;
            oss << std::setprecision(prec) << v;
            s = oss.str();
            double back = 0.0;
            if (sim::Config::tryParseDouble(s, back) && back == v)
                return s;
        }
        return s;
    };
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> corpus = {
        0.0, -0.0, 0.05, 0.1 + 0.2, 1.0 / 3.0, 262144.0, 2e-9, 1e21,
        1e22, 123456789.125, 9007199254740993.0, 1e-5, 1e-4, 1e15,
        1e16, 1e17, 5e-324, 2.2250738585072009e-308,
        1.7976931348623157e308,
        inf, -inf, std::numeric_limits<double>::quiet_NaN()};
    std::uint64_t x = 0x9e3779b97f4a7c15u;
    for (int i = 0; i < 4000; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        const std::uint64_t r = x * 0x2545f4914f6cdd1du;
        corpus.push_back(std::bit_cast<double>(r)); // any bit pattern
        corpus.push_back(static_cast<double>(r % 100000) / 1000.0);
        corpus.push_back(static_cast<double>(r >> 11) * 0x1p-40);
    }
    for (double v : corpus)
        EXPECT_EQ(spc::formatDouble(v), viaStream(v)) << viaStream(v);
}

TEST(Spec, ClosestMatchesRanksByDistance)
{
    const std::vector<std::string> cand = {"fig12", "fig13",
                                           "ablation_scaling"};
    const auto near = sim::closestMatches("fig21", cand);
    ASSERT_FALSE(near.empty());
    EXPECT_EQ(near[0], "fig12");
    // Substring relation surfaces long keys from short queries.
    const auto sub = sim::closestMatches(
        "tat", {"dmu.tat_entries", "power.active_w"});
    ASSERT_EQ(sub.size(), 1u);
    EXPECT_EQ(sub[0], "dmu.tat_entries");
}

TEST(Grid, ProductExpansionOrderAndLabels)
{
    spc::Grid g;
    g.set("runtime", "tdm")
        .axis("workload", {"cholesky", "qr"})
        .axis("machine.cores", spc::valueStrings({8, 16}))
        .label("{workload}/c{machine.cores}/{scheduler}");
    EXPECT_EQ(g.size(), 4u);

    const auto pts = g.points();
    ASSERT_EQ(pts.size(), 4u);
    // First-declared axis outermost.
    EXPECT_EQ(pts[0].label, "cholesky/c8/fifo");
    EXPECT_EQ(pts[1].label, "cholesky/c16/fifo");
    EXPECT_EQ(pts[2].label, "qr/c8/fifo");
    EXPECT_EQ(pts[3].label, "qr/c16/fifo");
    EXPECT_EQ(pts[1].exp.config.numCores, 16u);
    EXPECT_EQ(pts[2].exp.workload, "qr");
    EXPECT_EQ(pts[0].exp.runtime, core::RuntimeType::Tdm);
}

TEST(Grid, ZipAxisVariesKeysTogether)
{
    spc::Grid g;
    g.zip({"machine.cores", "mesh.width", "mesh.height"},
          {{"8", "3", "3"}, {"64", "9", "9"}})
        .axis("runtime", {"sw", "tdm"});
    EXPECT_EQ(g.size(), 4u);
    const auto pts = g.points();
    EXPECT_EQ(pts[0].exp.config.numCores, 8u);
    EXPECT_EQ(pts[0].exp.config.mesh.width, 3u);
    EXPECT_EQ(pts[3].exp.config.numCores, 64u);
    EXPECT_EQ(pts[3].exp.config.mesh.height, 9u);
    EXPECT_EQ(pts[3].exp.runtime, core::RuntimeType::Tdm);
    // Default label: axis values joined with '/'.
    EXPECT_EQ(pts[0].label, "8/3/3/sw");

    EXPECT_THROW(spc::Grid().zip({"machine.cores"}, {{"8", "3"}}),
                 spc::SpecError);
}

TEST(Grid, InvalidKeysAndLabelTemplatesThrow)
{
    EXPECT_THROW(spc::Grid().set("nope", "1").points(), spc::SpecError);
    EXPECT_THROW(spc::Grid().axis("machine.cores", {"8", "x"}).points(),
                 spc::SpecError);
    EXPECT_THROW(
        spc::Grid().label("{machine.core}").points(), spc::SpecError);
    EXPECT_THROW(spc::Grid().label("{oops").points(), spc::SpecError);
}

// The golden check behind the redesign: the grid-declared builtins
// expand to byte-identical labels and fingerprints as the historical
// hand-coded loops (reproduced verbatim below).
namespace golden {

SweepPoint
point(const std::string &workload, core::RuntimeType runtime,
      const std::string &scheduler)
{
    Experiment e;
    e.workload = workload;
    e.runtime = runtime;
    e.config.scheduler = scheduler;
    return SweepPoint{campaign::pointLabel(
                          workload, core::traitsOf(runtime).name,
                          scheduler),
                      e};
}

std::vector<SweepPoint>
fig12()
{
    std::vector<SweepPoint> pts;
    for (const auto &w : wl::allWorkloads()) {
        for (const auto &s : rt::allSchedulerNames())
            pts.push_back(point(w.name, core::RuntimeType::Software, s));
        for (const auto &s : rt::allSchedulerNames())
            pts.push_back(point(w.name, core::RuntimeType::Tdm, s));
    }
    return pts;
}

std::vector<SweepPoint>
fig13()
{
    std::vector<SweepPoint> pts;
    for (const auto &w : wl::allWorkloads()) {
        pts.push_back(point(w.name, core::RuntimeType::Software, "fifo"));
        pts.push_back(point(w.name, core::RuntimeType::Carbon, "fifo"));
        pts.push_back(
            point(w.name, core::RuntimeType::TaskSuperscalar, "fifo"));
        for (const auto &s : rt::allSchedulerNames())
            pts.push_back(point(w.name, core::RuntimeType::Tdm, s));
    }
    return pts;
}

std::vector<SweepPoint>
ablationScaling()
{
    static const unsigned coreCounts[] = {8, 16, 32, 64};
    static const char *workloads[] = {"cholesky", "qr", "streamcluster"};

    std::vector<SweepPoint> pts;
    for (const char *w : workloads) {
        for (unsigned cores : coreCounts) {
            for (core::RuntimeType rt_ : {core::RuntimeType::Software,
                                          core::RuntimeType::Tdm}) {
                SweepPoint p = point(w, rt_, "fifo");
                p.exp.config.numCores = cores;
                unsigned dim = 2;
                while (dim * dim < cores + 1)
                    ++dim;
                p.exp.config.mesh.width = dim;
                p.exp.config.mesh.height = dim;
                p.label = std::string(w) + "/c" + std::to_string(cores)
                        + "/" + core::traitsOf(rt_).name;
                pts.push_back(std::move(p));
            }
        }
    }
    return pts;
}

void
expectIdentical(const std::string &name,
                const std::vector<SweepPoint> &want)
{
    const campaign::Campaign c = campaign::makeCampaign(name);
    ASSERT_EQ(c.points.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(c.points[i].label, want[i].label)
            << name << " point " << i;
        EXPECT_EQ(campaign::canonicalConfig(c.points[i].exp).serialize(),
                  campaign::canonicalConfig(want[i].exp).serialize())
            << name << " point " << i << " (" << want[i].label << ")";
    }
}

} // namespace golden

TEST(GoldenBuiltins, Fig12MatchesHandCodedLoops)
{
    golden::expectIdentical("fig12", golden::fig12());
}

TEST(GoldenBuiltins, Fig13MatchesHandCodedLoops)
{
    golden::expectIdentical("fig13", golden::fig13());
}

TEST(GoldenBuiltins, AblationScalingMatchesHandCodedLoops)
{
    golden::expectIdentical("ablation_scaling",
                            golden::ablationScaling());
}

TEST(CampaignRegistry, PointCountIsCheapAndExact)
{
    EXPECT_EQ(campaign::campaignPointCount("fig12"), 90u);
    EXPECT_EQ(campaign::campaignPointCount("fig13"), 72u);
    EXPECT_EQ(campaign::campaignPointCount("ablation_scaling"), 24u);
}

TEST(CampaignFile, ParsesMetaSetAxisZip)
{
    std::istringstream in(R"(# comment
[meta]
name = demo
description = a demo study
label = {workload}/tat{dmu.tat_entries}

set runtime = tdm           # trailing comment
set scheduler = age
zip workload, workload.granularity = cholesky, 262144 | qr, 128
axis dmu.tat_entries = 512, \
                       2048
)");
    const spc::FileCampaign fc = spc::parseCampaignFile(in, "demo");
    EXPECT_EQ(fc.name, "demo");
    EXPECT_EQ(fc.description, "a demo study");
    EXPECT_EQ(fc.grid.size(), 4u);

    const campaign::Campaign c = fc.toCampaign();
    ASSERT_EQ(c.points.size(), 4u);
    EXPECT_EQ(c.points[0].label, "cholesky/tat512");
    EXPECT_EQ(c.points[1].label, "cholesky/tat2048");
    EXPECT_EQ(c.points[2].label, "qr/tat512");
    EXPECT_EQ(c.points[0].exp.runtime, core::RuntimeType::Tdm);
    EXPECT_EQ(c.points[0].exp.config.scheduler, "age");
    EXPECT_EQ(c.points[2].exp.params.granularity, 128.0);
    std::set<std::string> labels;
    for (const auto &p : c.points)
        labels.insert(p.label);
    EXPECT_EQ(labels.size(), c.points.size());
}

TEST(CampaignFile, CommentEndingInBackslashDoesNotSwallowNextLine)
{
    // Regression: continuation joining used to run before comment
    // stripping, so a '#'-comment ending in '\' silently consumed the
    // following directive.
    std::istringstream in(
        "set runtime = tdm  # tried sw \\\n"
        "set scheduler = age\n");
    const spc::FileCampaign fc = spc::parseCampaignFile(in, "c");
    const auto pts = fc.grid.points();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].exp.runtime, core::RuntimeType::Tdm);
    EXPECT_EQ(pts[0].exp.config.scheduler, "age");
}

TEST(CampaignFile, LabelTemplatePropagatesForReRendering)
{
    std::istringstream in(
        "[meta]\n"
        "label = c{machine.cores}\n"
        "axis machine.cores = 8, 16\n");
    const campaign::Campaign c =
        spc::parseCampaignFile(in, "c").toCampaign();
    EXPECT_EQ(c.labelTemplate, "c{machine.cores}");
    ASSERT_EQ(c.points.size(), 2u);
    EXPECT_EQ(c.points[0].label, "c8");

    // The campaign_run --set path: after mutating a point, the
    // template re-renders a truthful label.
    Experiment e = c.points[0].exp;
    spc::applyKey(e, "machine.cores", "32");
    EXPECT_EQ(spc::renderLabel(c.labelTemplate, e), "c32");
}

TEST(CampaignFile, MetricsDirectivePropagatesToCampaign)
{
    std::istringstream in(
        "set runtime = tdm\n"
        "metrics = dmu.*, mesh.avg_hop_latency\n");
    const campaign::Campaign c =
        spc::parseCampaignFile(in, "c").toCampaign();
    EXPECT_EQ(c.metrics, "dmu.*, mesh.avg_hop_latency");

    // Without the directive the pattern stays empty (= export all).
    std::istringstream none("set runtime = tdm\n");
    EXPECT_EQ(spc::parseCampaignFile(none, "c").toCampaign().metrics,
              "");
}

TEST(CampaignFile, MetricsDirectiveValidatesGlobTokens)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return spc::parseCampaignFile(in, "bad.campaign");
    };
    EXPECT_THROW(parse("metrics =\n"), spc::SpecError);
    // Junk between the keyword and '=' must not parse (it would
    // silently select the wrong subtree).
    EXPECT_THROW(parse("metrics dmu.* = mesh.*\n"), spc::SpecError);
    EXPECT_THROW(parse("metrics pattern = dmu.*\n"), spc::SpecError);
    try {
        parse("set runtime = tdm\nmetrics = dmu.*,,mesh.*\n");
        FAIL() << "expected SpecError";
    } catch (const spc::SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.campaign:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CampaignFile, ErrorsCarryFileAndLineContext)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return spc::parseCampaignFile(in, "bad.campaign");
    };
    try {
        parse("set dmu.tat_entrees = 512\n");
        FAIL() << "expected SpecError";
    } catch (const spc::SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad.campaign:1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dmu.tat_entries"), std::string::npos) << msg;
    }
    EXPECT_THROW(parse("frobnicate workload = x\n"), spc::SpecError);
    EXPECT_THROW(parse("axis machine.cores\n"), spc::SpecError);
    EXPECT_THROW(parse("zip a, b = 1 | 2, 3\n"), spc::SpecError);
    EXPECT_THROW(parse("[meta]\nbogus = 1\n"), spc::SpecError);
    EXPECT_THROW(parse("[metadata]\n"), spc::SpecError);
    // Values are validated at expansion.
    EXPECT_THROW(parse("axis machine.cores = 8, x\n").grid.points(),
                 spc::SpecError);
}
