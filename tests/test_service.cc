/**
 * @file
 * Campaign-service tests: the wire protocol (request validation,
 * point-event round-trips, the client's event readers) and the live
 * server/client stack — concurrent clients deduplicating onto one
 * engine, a cold-restarted server replaying a sweep entirely from its
 * persistent store with byte-identical metrics, and the connection
 * lifecycle (thread reaping, racing stops, the request-line cap).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/service/client.hh"
#include "driver/service/protocol.hh"
#include "driver/service/server.hh"
#include "driver/service/store.hh"
#include "driver/report/json_writer.hh"

using namespace tdm;
using namespace tdm::driver;
namespace svc = tdm::driver::service;
namespace fs = std::filesystem;

// ---- protocol: requests --------------------------------------------------

TEST(ServiceProtocol, ParsesSubmitWithPoints)
{
    svc::Request req;
    std::string err;
    ASSERT_TRUE(svc::parseRequest(
        R"({"op":"submit","name":"grid","metrics":"dmu.*",)"
        R"("set":{"machine.cores":16},)"
        R"("points":[{"label":"a","spec":{"workload":"cholesky"}},)"
        R"({"spec":{"workload":"fft","seed":7}}]})",
        req, err))
        << err;
    EXPECT_EQ(req.op, svc::RequestOp::Submit);
    EXPECT_EQ(req.submit.name, "grid");
    EXPECT_EQ(req.submit.metrics, "dmu.*");
    ASSERT_EQ(req.submit.set.size(), 1u);
    EXPECT_EQ(req.submit.set[0].first, "machine.cores");
    EXPECT_EQ(req.submit.set[0].second, "16");
    ASSERT_EQ(req.submit.points.size(), 2u);
    EXPECT_EQ(req.submit.points[0].label, "a");
    EXPECT_EQ(req.submit.points[1].label, "");
    ASSERT_EQ(req.submit.points[1].spec.size(), 2u);
    EXPECT_EQ(req.submit.points[1].spec[1].second, "7");
}

TEST(ServiceProtocol, RejectsInvalidRequests)
{
    svc::Request req;
    std::string err;
    for (const char *bad : {
             "{}",                                   // no op
             R"({"op":"frobnicate"})",               // unknown op
             R"({"op":"submit"})",                   // neither body
             R"({"op":"submit","campaign":"x",)"
             R"("points":[{"spec":{}}]})",           // both bodies
             R"({"op":"submit","points":[]})",       // empty grid
             R"({"op":"submit","points":[{}]})",     // point sans spec
             R"({"op":"submit","campaign":42})",     // wrong type
             R"({"op":"submit","points":[{"spec":)"
             R"({"k":[1]}}]})",                      // non-scalar value
         }) {
        EXPECT_FALSE(svc::parseRequest(bad, req, err)) << bad;
    }
    // A malformed metric selection is refused with the parser's
    // message, before any point could apply it.
    EXPECT_FALSE(svc::parseRequest(
        R"({"op":"submit","metrics":"dmu.*,,mesh.*",)"
        R"("points":[{"spec":{}}]})",
        req, err));
    EXPECT_NE(err.find("empty glob"), std::string::npos) << err;
}

TEST(ServiceProtocol, PointEventRoundTrips)
{
    campaign::JobResult job;
    job.label = "cholesky/fifo";
    job.digest = "114b9f71d3add9e3";
    job.source = campaign::JobSource::Disk;
    job.wallMs = 0.0;
    job.summary.completed = true;
    job.summary.makespan = (sim::Tick{1} << 60) + 99; // > 2^53
    job.summary.timeMs = 0.1 + 0.2;
    job.summary.machine.metrics.set("dmu.tat.hit_rate",
                                    0.81481481481481477);
    job.summary.machine.metrics.set("machine.time_ms", 0.1 + 0.2);

    report::Text os;
    svc::writePoint(os, 7, job, 2, 5, sim::MetricSelection("*"));
    std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();

    campaign::JobResult decoded;
    std::size_t index = 0, total = 0;
    ASSERT_TRUE(svc::decodePointEvent(line, decoded, index, total));
    EXPECT_EQ(index, 2u);
    EXPECT_EQ(total, 5u);
    EXPECT_EQ(decoded.label, job.label);
    EXPECT_EQ(decoded.digest, job.digest);
    EXPECT_EQ(decoded.source, campaign::JobSource::Disk);
    EXPECT_TRUE(decoded.cacheHit());
    EXPECT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.summary.makespan, job.summary.makespan);
    EXPECT_EQ(decoded.summary.timeMs, job.summary.timeMs);
    EXPECT_EQ(decoded.summary.machine.metrics.entries(),
              job.summary.machine.metrics.entries());
}

namespace {

/** @p body closed with the point event's "sum" member, so the decoder
 *  reaches its JSON (hand-written lines exercise what writePoint never
 *  emits: escapes, duplicates, out-of-range literals). */
std::string
withSum(const std::string &body)
{
    return body + ",\"sum\":\"" + campaign::digestOfKey(body) + "\"}";
}

/** Every member of a point event but "metrics" and "sum". */
const std::string kPointHead =
    R"({"event":"point","id":1,"index":3,"index":"x","total":9,)"
    R"("label":"a\"b\\c\u00e9\ud83d\ude00","label":"second",)"
    R"("digest":"0123456789abcdef","source":"disk","cache_hit":true,)"
    R"("ok":true,"error":"","wall_ms":4.9406564584124654e-324,)"
    R"("done_at_ms":1e400,"completed":true,)"
    R"("makespan":18446744073709551615,"time_ms":-1e400,)"
    R"("energy_j":0.30000000000000004,"edp":1e-400,"avg_watts":-0,)"
    R"("num_tasks":4294967295,"avg_task_us":2.2250738585072009e-308,)"
    R"("tasks_executed":9007199254740993,"dmu_accesses":0,)"
    R"("dmu_blocked_ops":1,"steals":2,"master_creation_fraction":1.5)";

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

TEST(ServiceProtocol, PointLineValueClassesDecodeToPinnedBits)
{
    // Pinned against the tree-building reader: the first of duplicated
    // top-level members wins, the last of duplicated metric keys wins,
    // escapes (surrogate pairs included) decode to UTF-8, 64-bit
    // counts stay exact, and out-of-range literals read as strtod
    // reads them (+-inf, 0).
    const double inf = std::numeric_limits<double>::infinity();
    const std::string line = withSum(
        kPointHead
        + R"(,"metrics":{"k\"q":1,"k\\b":-1e400,"ké":1e400,)"
          R"("k\ud83d\ude00":4.9406564584124654e-324,"z.dup":1,)"
          R"("z.dup":2},"metrics":{"ignored":null})");
    campaign::JobResult job;
    std::size_t index = 0, total = 0;
    ASSERT_TRUE(svc::decodePointEvent(line, job, index, total));
    EXPECT_EQ(index, 3u);
    EXPECT_EQ(total, 9u);
    EXPECT_EQ(job.label, "a\"b\\c\xc3\xa9\xf0\x9f\x98\x80");
    EXPECT_EQ(job.digest, "0123456789abcdef");
    EXPECT_EQ(job.source, campaign::JobSource::Disk);
    EXPECT_EQ(job.error, "");
    EXPECT_EQ(bitsOf(job.wallMs), 1u); // the smallest subnormal
    EXPECT_EQ(bitsOf(job.doneAtMs), bitsOf(inf));

    const RunSummary &s = job.summary;
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.makespan, UINT64_MAX);
    EXPECT_EQ(bitsOf(s.timeMs), bitsOf(-inf));
    EXPECT_EQ(bitsOf(s.energyJ), 0x3fd3333333333334u);
    EXPECT_EQ(bitsOf(s.edp), 0u);
    EXPECT_EQ(bitsOf(s.avgWatts), 0x8000000000000000u); // -0
    EXPECT_EQ(s.numTasks, UINT32_MAX);
    EXPECT_EQ(bitsOf(s.avgTaskUs), 0x000fffffffffffffu);
    EXPECT_EQ(s.tasksExecuted, (std::uint64_t{1} << 53) + 1);
    EXPECT_EQ(s.dmuAccesses, 0u);
    EXPECT_EQ(s.dmuBlockedOps, 1u);
    EXPECT_EQ(s.steals, 2u);
    EXPECT_EQ(s.masterCreationFraction, 1.5);

    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"k\"q", bitsOf(1.0)},
        {"k\\b", bitsOf(-inf)},
        {"k\xc3\xa9", bitsOf(inf)},
        {"k\xf0\x9f\x98\x80", 1u},
        {"z.dup", bitsOf(2.0)},
    };
    ASSERT_EQ(s.metrics().size(), want.size());
    auto it = s.metrics().entries().begin();
    for (const auto &[key, bits] : want) {
        EXPECT_EQ(it->first, key);
        EXPECT_EQ(bitsOf(it->second), bits) << key;
        ++it;
    }

    // An empty metric tree is a valid point; a null metric (what the
    // writer prints for a non-finite value) is not.
    ASSERT_TRUE(svc::decodePointEvent(
        withSum(kPointHead + R"(,"metrics":{})"), job, index, total));
    EXPECT_TRUE(job.summary.metrics().empty());
    EXPECT_EQ(job.label, "a\"b\\c\xc3\xa9\xf0\x9f\x98\x80");
    EXPECT_FALSE(svc::decodePointEvent(
        withSum(kPointHead + R"(,"metrics":{"a":1,"b":null})"), job,
        index, total));
}

namespace {

/** Every number and bool (as 1 or 0) of the JSON value at @p c into
 *  @p out, keyed by its path ("/campaigns/0/jobs/1/steals"); read
 *  through the service's JSON cursor. False when malformed. */
bool
flattenJson(svc::JsonCursor &c, const std::string &path,
            std::map<std::string, double> &out)
{
    std::size_t item = 0;
    switch (c.peek()) {
    case '{':
        return c.object([&](std::string_view key) {
            return flattenJson(c, path + "/" + std::string(key), out);
        });
    case '[':
        return c.array([&] {
            return flattenJson(c, path + "/" + std::to_string(item++), out);
        });
    case 't': out[path] = 1.0; return c.word("true");
    case 'f': out[path] = 0.0; return c.word("false");
    default:
        return c.atNumber() ? c.real(out[path]) : svc::skipValue(c, 0);
    }
}

} // namespace

TEST(ServiceProtocol, AbortedPointsReportTheirOwnNumbers)
{
    // A watchdog-aborted run still has a metric tree. Every headline
    // field of its record, in the file export and over the wire, must
    // equal its metric twin, not a default left where none was set.
    std::vector<SweepPoint> points;
    for (core::RuntimeType rt : core::allRuntimeTypes()) {
        Experiment e;
        e.workload = "cholesky";
        e.params.granularity = 262144; // ~350 ms runs on 8 cores
        e.runtime = rt;
        e.config.scheduler = "fifo";
        e.config.numCores = 8;
        e.config.maxTicks = sim::usToTicks(100000);
        points.push_back({core::traitsOf(rt).name, e});
    }
    campaign::CampaignEngine engine;
    const campaign::CampaignResult rep = engine.run("aborted", points);

    std::ostringstream os;
    report::writeJson(os, rep);
    const std::string text = os.str();
    svc::JsonCursor cursor(text);
    std::map<std::string, double> exported;
    ASSERT_TRUE(flattenJson(cursor, "", exported) && cursor.atEnd())
        << cursor.error();

    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const campaign::JobResult &job = rep.jobs[i];
        ASSERT_FALSE(job.summary.completed) << job.label;
        const std::string record = "/campaigns/0/jobs/" + std::to_string(i);
        ASSERT_EQ(exported.count(record + "/metrics/machine.completed"), 1u);

        report::Text wire;
        svc::writePoint(wire, 1, job, i, rep.jobs.size(),
                        sim::MetricSelection());
        std::string line = wire.str();
        line.pop_back();
        campaign::JobResult decoded;
        std::size_t index = 0, total = 0;
        ASSERT_TRUE(svc::decodePointEvent(line, decoded, index, total));

        for (const HeadlineField &f : kHeadlineFields) {
            const auto field = exported.find(record + "/" + f.name);
            ASSERT_NE(field, exported.end()) << f.name;
            const auto twin = exported.find(record + "/metrics/" + f.metric);
            EXPECT_EQ(field->second,
                      twin == exported.end() ? 0.0 : twin->second)
                << job.label << " export: " << f.name;
            std::visit(
                [&](auto member) {
                    EXPECT_EQ(static_cast<double>(decoded.summary.*member),
                              decoded.summary.metrics().get(f.metric))
                        << job.label << " wire: " << f.name;
                },
                f.member);
        }
    }
    // The watchdog struck mid-run, so there were numbers to lose.
    EXPECT_GT(rep.at("tdm").summary.dmuAccesses, 0u);
    EXPECT_GT(rep.at("carbon").summary.steals, 0u);
    EXPECT_GT(rep.at("sw").summary.masterCreationFraction, 0.0);
}

// ---- protocol: response lines, byte for byte ---------------------------

TEST(ServiceProtocol, ControlLinesArePinnedBytes)
{
    report::Text pong, bye, accepted;
    svc::writePong(pong);
    svc::writeBye(bye);
    svc::writeAccepted(accepted, 42, "sw\"eep\\1", 7);
    EXPECT_EQ(pong.str(), "{\"event\":\"pong\"}\n");
    EXPECT_EQ(bye.str(), "{\"event\":\"bye\"}\n");
    EXPECT_EQ(accepted.str(),
              "{\"event\":\"accepted\",\"id\":42,"
              "\"name\":\"sw\\\"eep\\\\1\",\"points\":7}\n");
}

TEST(ServiceProtocol, ErrorLineEscapesItsMessage)
{
    report::Text os;
    svc::writeError(os, "bad \"key\" a\\b \x01\t\n caf\xc3\xa9");
    EXPECT_EQ(os.str(),
              "{\"event\":\"error\",\"message\":\"bad \\\"key\\\" "
              "a\\\\b \\u0001\\t\\n caf\xc3\xa9\"}\n");
}

TEST(ServiceProtocol, DoneLineIsPinned)
{
    campaign::CampaignResult r;
    r.name = "fig\"13";
    r.jobs.resize(4);
    for (std::size_t i = 0; i < 3; ++i)
        r.jobs[i].summary.completed = true; // the fourth failed
    r.threads = 4;
    r.wallMs = 0.1 + 0.2;
    std::uint64_t n = 1;
    for (const campaign::CampaignTotal &t : campaign::kCampaignTotals)
        r.*t.member = n++;
    report::Text os;
    svc::writeDone(os, 9, r);
    EXPECT_EQ(os.str(),
              "{\"event\":\"done\",\"id\":9,\"name\":\"fig\\\"13\","
              "\"points\":4,\"cache_hits\":1,\"simulated\":2,"
              "\"from_memory\":3,\"from_disk\":4,\"from_inflight\":5,"
              "\"from_forked\":6,\"warmups_shared\":7,"
              "\"graph_builds\":8,\"graph_shares\":9,\"failures\":1,"
              "\"threads\":4,\"wall_ms\":0.30000000000000004}\n");
}

TEST(ServiceProtocol, StatusLineIsPinned)
{
    svc::StatusInfo info;
    info.campaigns = 3;
    info.points = 12;
    info.served = {5, 4, 2, 1, 0};
    info.cachePoints = 9;
    info.inflight = 1;
    info.threads = 4;
    info.uptimeMs = 1234.5;
    report::Text bare;
    svc::writeStatus(bare, info);
    EXPECT_EQ(bare.str(),
              "{\"event\":\"status\",\"campaigns\":3,\"points\":12,"
              "\"served\":{\"simulated\":5,\"memory\":4,\"disk\":2,"
              "\"inflight\":1,\"forked\":0},\"cache_points\":9,"
              "\"inflight\":1,\"threads\":4,\"uptime_ms\":1234.5,"
              "\"store\":null,\"http\":null}\n");

    info.hasStore = true;
    info.storeDir = "/var/s\"tore";
    info.store = {.blobs = 7, .bytes = 8192, .hits = 4, .misses = 3,
                  .stores = 6, .corrupt = 1};
    info.hasHttp = true;
    info.httpAddr = "tcp:127.0.0.1:8080";
    info.httpRequests = 17;
    info.sseSubscribers = 2;
    info.eventsPublished = 40;
    info.eventsDropped = 5;
    report::Text full;
    svc::writeStatus(full, info);
    EXPECT_EQ(full.str(),
              "{\"event\":\"status\",\"campaigns\":3,\"points\":12,"
              "\"served\":{\"simulated\":5,\"memory\":4,\"disk\":2,"
              "\"inflight\":1,\"forked\":0},\"cache_points\":9,"
              "\"inflight\":1,\"threads\":4,\"uptime_ms\":1234.5,"
              "\"store\":{\"dir\":\"/var/s\\\"tore\",\"blobs\":7,"
              "\"bytes\":8192,\"hits\":4,\"misses\":3,\"stores\":6,"
              "\"corrupt\":1},\"http\":{\"addr\":\"tcp:127.0.0.1:8080\","
              "\"requests\":17,\"sse_subscribers\":2,"
              "\"events_published\":40,\"events_dropped\":5}}\n");
}

// ---- live server/client --------------------------------------------------

namespace {

Experiment
point(const std::string &sched, unsigned cores)
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks: fast
    e.runtime = core::RuntimeType::Tdm;
    e.config.scheduler = sched;
    e.config.numCores = cores;
    return e;
}

campaign::Campaign
grid(const std::string &name, std::vector<SweepPoint> points)
{
    campaign::Campaign c;
    c.name = name;
    c.points = std::move(points);
    c.metrics = "dmu.tat.*";
    return c;
}

/** The six distinct specs the concurrent clients overlap on. */
std::vector<SweepPoint>
distinctSix()
{
    return {
        {"fifo8", point("fifo", 8)},    {"age8", point("age", 8)},
        {"loc8", point("locality", 8)}, {"fifo16", point("fifo", 16)},
        {"age16", point("age", 16)},    {"fifo4", point("fifo", 4)},
    };
}

/** Render a job's selected metrics exactly as the service does, for
 *  byte-level comparison across server generations. */
std::string
metricBytes(const campaign::JobResult &job)
{
    std::ostringstream os;
    for (const auto &[k, v] : job.summary.metrics().entries()) {
        os << k << "=";
        report::jsonNumber(os, v);
        os << ";";
    }
    return os.str();
}

/** An in-process daemon on an ephemeral loopback port. */
class ServerFixture
{
  public:
    explicit ServerFixture(const std::string &store_dir)
    {
        svc::ServerOptions opts;
        opts.engine.threads = 2;
        opts.storeDir = store_dir;
        server_ = std::make_unique<svc::CampaignServer>(
            svc::parseAddress("tcp:127.0.0.1:0"), opts);
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~ServerFixture() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->stop();
            thread_.join();
        }
    }

    std::string address() const { return server_->address().display(); }
    svc::CampaignServer &server() { return *server_; }

  private:
    std::unique_ptr<svc::CampaignServer> server_;
    std::thread thread_;
};

} // namespace

TEST(ServiceClient, SubmitLineMatchesTheStreamRendering)
{
    // The submit line, against the ostringstream/jsonEscape rendering
    // it replaced: every canonical spec key and value, escaped names
    // and labels included.
    svc::Listener listener(svc::parseAddress("tcp:127.0.0.1:0"));
    std::string request;
    std::thread peer([&] {
        svc::Socket s = listener.accept();
        s.readLine(request);
        s.sendAll("{\"event\":\"error\",\"message\":\"pinned\"}\n");
    });
    campaign::Campaign c = grid("pin\"ned\t", {{"a\\b", point("fifo", 8)},
                                               {"\xc3\xa9", point("age", 4)}});
    svc::ServiceClient client(listener.address().display());
    EXPECT_THROW(client.submit(c), std::runtime_error);
    peer.join();

    std::ostringstream want;
    want << "{\"op\":\"submit\",\"name\":\"" << report::jsonEscape(c.name)
         << "\",\"metrics\":\"" << report::jsonEscape(c.metrics)
         << "\",\"points\":[";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        want << (i ? "," : "") << "{\"label\":\""
             << report::jsonEscape(c.points[i].label) << "\",\"spec\":{";
        const sim::Config spec = campaign::canonicalConfig(c.points[i].exp);
        bool first = true;
        for (const auto &[k, v] : spec.entries()) {
            want << (first ? "" : ",") << "\"" << report::jsonEscape(k)
                 << "\":\"" << report::jsonEscape(v) << "\"";
            first = false;
        }
        want << "}}";
    }
    want << "]}";
    EXPECT_EQ(request, want.str());
    EXPECT_GT(request.size(), 2000u); // every binding key, both points
}

namespace {

/** Run @p use on a client of a scripted server that reads one request
 *  line and answers with @p script. Returns what @p use threw, minus
 *  the "campaign service ADDR: " prefix ("" when it returned). */
template <typename F>
std::string
scripted(const std::string &script, F &&use)
{
    svc::Listener listener(svc::parseAddress("tcp:127.0.0.1:0"));
    std::thread peer([&] {
        svc::Socket s = listener.accept();
        std::string request;
        s.readLine(request);
        s.sendAll(script);
    });
    const std::string address = listener.address().display();
    std::string error;
    try {
        svc::ServiceClient client(address);
        use(client);
    } catch (const std::runtime_error &e) {
        error = e.what();
        const std::string prefix = "campaign service " + address + ": ";
        EXPECT_EQ(error.substr(0, prefix.size()), prefix);
        error.erase(0, prefix.size());
    }
    peer.join();
    return error;
}

/** scripted() for a submit of @p c that returns into @p out. */
std::string
scriptedSubmit(const campaign::Campaign &c, const std::string &script,
               campaign::CampaignResult &out)
{
    return scripted(script, [&](svc::ServiceClient &client) {
        out = client.submit(c);
    });
}

/** @p c's points as the server streams them: job i labelled like
 *  point i, completed unless @p failed. */
std::string
pointLines(const campaign::Campaign &c, std::size_t failed)
{
    report::Text out;
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        campaign::JobResult job;
        job.label = c.points[i].label;
        job.digest = std::to_string(i);
        job.summary.completed = i != failed;
        job.summary.machine.metrics.append("x", 0.5 + i);
        svc::writePoint(out, 1, job, i, c.points.size(),
                        sim::MetricSelection());
    }
    return out.str();
}

} // namespace

TEST(ServiceClient, ReadsEveryEventAScriptedServerSends)
{
    const campaign::Campaign c =
        grid("scripted", {{"a", point("fifo", 8)}, {"b", point("age", 4)}});
    const std::string accepted =
        "{\"event\":\"accepted\",\"id\":1,\"name\":\"scripted\","
        "\"points\":2}\n";

    // Every member writeDone writes lands in the result: the totals,
    // threads and wall_ms as sent, the name, point count and failures
    // as the client's own records agree with them.
    campaign::CampaignResult want;
    want.name = c.name;
    want.jobs.resize(2);
    want.jobs[0].summary.completed = true;
    want.threads = 3;
    want.wallMs = 0.1 + 0.2;
    std::uint64_t n = 11;
    for (const campaign::CampaignTotal &t : campaign::kCampaignTotals)
        want.*t.member = n++;
    report::Text done;
    svc::writeDone(done, 1, want);
    campaign::CampaignResult got;
    ASSERT_EQ(scriptedSubmit(c, accepted + pointLines(c, 1) + done.str(),
                             got),
              "");
    EXPECT_EQ(got.name, want.name);
    ASSERT_EQ(got.jobs.size(), want.jobs.size());
    EXPECT_EQ(got.failures(), want.failures());
    for (const campaign::CampaignTotal &t : campaign::kCampaignTotals)
        EXPECT_EQ(got.*t.member, want.*t.member) << t.name;
    EXPECT_EQ(got.threads, want.threads);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wallMs),
              std::bit_cast<std::uint64_t>(want.wallMs));
    EXPECT_EQ(got.jobs[1].label, "b");
    EXPECT_EQ(got.jobs[1].summary.metrics().get("x"), 1.5);
    EXPECT_EQ(got.jobs[1].spec.entries(),
              campaign::canonicalConfig(c.points[1].exp).entries());

    // A hand-written done: members in any order, the first of a
    // repeated one counts, and a count that is not a plain unsigned
    // integer keeps its default.
    got = {};
    ASSERT_EQ(scriptedSubmit(
                  c,
                  pointLines(c, 2)
                      + "{\"threads\":7,\"extra\":[{}],\"event\":\"done\","
                        "\"cache_hits\":5,\"cache_hits\":9,"
                        "\"simulated\":\"2\",\"from_disk\":1.5,"
                        "\"from_memory\":-1,\"wall_ms\":2.5e0}\n",
                  got),
              "");
    EXPECT_EQ(got.threads, 7u);
    EXPECT_EQ(got.cacheHits, 5u);
    EXPECT_EQ(got.simulated, 0u);
    EXPECT_EQ(got.fromDisk, 0u);
    EXPECT_EQ(got.fromMemory, 0u);
    EXPECT_EQ(got.wallMs, 2.5);
    EXPECT_TRUE(got.allOk());

    // A done without threads leaves a result's default of one.
    got = {};
    ASSERT_EQ(scriptedSubmit(c, pointLines(c, 2) + "{\"event\":\"done\"}\n",
                             got),
              "");
    EXPECT_EQ(got.threads, 1u);

    // Everything else ends the submit with its message.
    const std::pair<std::string, std::string> faults[] = {
        {accepted + "{\"event\":\"error\",\"message\":\"no \\\"way\\\"\"}\n",
         "no \"way\""},
        {"{\"event\":\"error\",\"message\":\"a\",\"message\":\"b\"}\n", "a"},
        {"{\"event\":\"error\"}\n", "unknown error"},
        {"{\"event\":\"error\",\"message\":5}\n", ""},
        {"{\"event\":\n", "malformed event: unexpected end of input at "
                         "offset 9"},
        {"{\"event\":\"done\"} x\n",
         "malformed event: trailing characters after JSON value"},
        {"{\"event\":\"bogus\",\"message\":\"m\"}\n",
         "unexpected event \"bogus\""},
        {"{\"event\":5}\n", "unexpected event \"\""},
        {"[\"event\",\"done\"]\n", "unexpected event \"\""},
        {"{\"event\":\"point\",\"index\":0}\n", "malformed point event"},
        {pointLines(c, 2).substr(0, 40) + "\n", "malformed event: "
                                                "unterminated string at "
                                                "offset 40"},
        {accepted + "{\"event\":\"done\"}\n", "done after 0/2 points"},
        {accepted, "connection closed mid-campaign"},
    };
    for (const auto &[script, message] : faults)
        EXPECT_EQ(scriptedSubmit(c, script, got), message) << script;
}

TEST(ServiceClient, StatusReadsAScriptedLine)
{
    // The first of a repeated member counts, a member of the wrong
    // type keeps its default, and a store or http that is not an
    // object is absent.
    svc::StatusInfo info;
    auto status = [&](svc::ServiceClient &client) { info = client.status(); };
    ASSERT_EQ(scripted("{\"campaigns\":4,\"event\":\"status\","
                       "\"campaigns\":5,\"points\":-1,\"threads\":4294967298,"
                       "\"served\":{\"disk\":3,\"memory\":\"1\",\"disk\":4},"
                       "\"inflight\":2,\"uptime_ms\":\"9\",\"cache_points\":7,"
                       "\"store\":{\"dir\":5,\"blobs\":2,\"corrupt\":1e0},"
                       "\"store\":null,\"http\":[{\"addr\":\"x\"}]}\n",
                       status),
              "");
    EXPECT_EQ(info.campaigns, 4u);
    EXPECT_EQ(info.points, 0u);
    EXPECT_EQ(info.threads, 2u); // truncated to its width
    EXPECT_EQ(info.served[static_cast<std::size_t>(
                  campaign::JobSource::Disk)],
              3u);
    EXPECT_EQ(info.served[static_cast<std::size_t>(
                  campaign::JobSource::Memory)],
              0u);
    EXPECT_EQ(info.inflight, 2u);
    EXPECT_EQ(info.cachePoints, 7u);
    EXPECT_EQ(info.uptimeMs, 0.0);
    EXPECT_TRUE(info.hasStore);
    EXPECT_EQ(info.storeDir, "");
    EXPECT_EQ(info.store.blobs, 2u);
    EXPECT_EQ(info.store.corrupt, 0u);
    EXPECT_FALSE(info.hasHttp);
    EXPECT_EQ(info.httpAddr, "");

    EXPECT_EQ(scripted("{\"event\":\"pong\"}\n", status),
              "unexpected status response");
    EXPECT_EQ(scripted("{\"event\":\"status\"\n", status),
              "malformed response: unterminated object at offset 17");
    EXPECT_EQ(scripted("", status), "connection closed");
    bool pong = false;
    auto ping = [&](svc::ServiceClient &client) { pong = client.ping(); };
    EXPECT_EQ(
        scripted("{\"x\":[],\"event\":\"pong\",\"event\":1}\n", ping),
        "");
    EXPECT_TRUE(pong);
    EXPECT_EQ(scripted("{\"event\":\"pong\"} 1\n", ping), "");
    EXPECT_FALSE(pong);
}

TEST(ServiceServer, PingStatusAndErrorReporting)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_ping_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServerFixture fx(dir);

    svc::ServiceClient client(fx.address());
    EXPECT_TRUE(client.ping());
    svc::StatusInfo info = client.status();
    EXPECT_EQ(info.campaigns, 0u);
    EXPECT_TRUE(info.hasStore);
    EXPECT_EQ(info.store.blobs, 0u);

    // A bad submission is an error event, not a dropped connection —
    // the same socket keeps serving afterwards. Driven over a raw
    // socket: the C++ client validates specs before sending.
    svc::Socket raw =
        svc::connectTo(svc::parseAddress(fx.address()));
    ASSERT_TRUE(raw.sendAll(
        "{\"op\":\"submit\",\"points\":[{\"spec\":"
        "{\"workload\":\"no-such-workload\"}}]}\n"));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
        << line;
    ASSERT_TRUE(raw.sendAll("{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"pong\""), std::string::npos);
    // Unparseable garbage likewise answers with an error event.
    ASSERT_TRUE(raw.sendAll("this is not json\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos);

    fx.stop();
    fs::remove_all(dir);
}

TEST(ServiceServer, OutOfRangeSpecValueIsAnErrorEvent)
{
    // A zero flit size used to reach the mesh's flit division and kill
    // the daemon with SIGFPE; the spec layer now refuses it, so the
    // submitter gets an error event naming the key and the daemon
    // keeps serving.
    ServerFixture fx("");
    svc::Socket raw = svc::connectTo(svc::parseAddress(fx.address()));
    ASSERT_TRUE(raw.sendAll(
        "{\"op\":\"submit\",\"points\":[{\"spec\":"
        "{\"runtime\":\"tdm\",\"mesh.flit_bytes\":\"0\"}}]}\n"));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("mesh.flit_bytes"), std::string::npos) << line;
    ASSERT_TRUE(raw.sendAll("{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"pong\""), std::string::npos)
        << line;
}

TEST(ServiceServer, MalformedMetricSelectionIsAnErrorEvent)
{
    // The point events apply the selection on engine threads, where a
    // parse error used to escape the engine's callback and abort the
    // daemon. Both ways of naming a selection (the request's "metrics"
    // member and a campaign body's metrics directive) are refused
    // with an error event, and the daemon keeps serving.
    ServerFixture fx("");
    svc::Socket raw = svc::connectTo(svc::parseAddress(fx.address()));
    std::string line;
    for (const char *submit : {
             R"({"op":"submit","metrics":"dmu.*,,mesh.*",)"
             R"("points":[{"spec":{"runtime":"tdm"}}]})"
             "\n",
             R"({"op":"submit","campaign":)"
             R"("metrics = dmu.*,,mesh.*\naxis machine.cores = 8\n"})"
             "\n",
         }) {
        ASSERT_TRUE(raw.sendAll(submit));
        ASSERT_TRUE(raw.readLine(line));
        EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
            << line;
        EXPECT_NE(line.find("empty glob"), std::string::npos) << line;
    }
    ASSERT_TRUE(raw.sendAll("{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"pong\""), std::string::npos)
        << line;
}

TEST(ServiceServer, ModelRejectedSpecIsAFailedPoint)
{
    // Values that pass every per-key bound can still reach a model's
    // sim::fatal: a granularity that does not tile the matrix, more
    // cores than the mesh holds. Each such point fails with the
    // message, and the daemon keeps serving.
    ServerFixture fx("");
    svc::Socket raw = svc::connectTo(svc::parseAddress(fx.address()));
    ASSERT_TRUE(raw.sendAll(
        "{\"op\":\"submit\",\"points\":["
        "{\"spec\":{\"workload\":\"cholesky\",\"runtime\":\"tdm\","
        "\"workload.granularity\":\"36\"}},"
        "{\"spec\":{\"runtime\":\"tdm\",\"machine.cores\":\"64\"}}]}\n"));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"accepted\""), std::string::npos)
        << line;
    std::string points;
    unsigned n = 0;
    while (raw.readLine(line)
           && line.find("\"event\":\"point\"") != std::string::npos) {
        EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
        points += line;
        ++n;
    }
    EXPECT_EQ(n, 2u);
    EXPECT_NE(line.find("\"event\":\"done\""), std::string::npos)
        << line;
    EXPECT_NE(points.find("cholesky: tile bytes 36 does not tile"),
              std::string::npos)
        << points;
    EXPECT_NE(points.find("mesh too small for 64 cores"),
              std::string::npos)
        << points;
    ASSERT_TRUE(raw.sendAll("{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"pong\""), std::string::npos)
        << line;
}

TEST(ServiceServer, ConcurrentClientsSimulateEachPointOnce)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_dedup_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServerFixture fx(dir);

    // Four clients, each submitting an overlapping 4-point slice of
    // the same six distinct specs, all in flight together.
    const auto six = distinctSix();
    constexpr unsigned kClients = 4;
    std::vector<campaign::CampaignResult> results(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<SweepPoint> slice;
            for (unsigned i = 0; i < 4; ++i)
                slice.push_back(six[(c + i) % six.size()]);
            svc::ServiceClient client(fx.address());
            results[c] = client.submit(
                grid("overlap-" + std::to_string(c), slice));
        });
    }
    for (std::thread &t : clients)
        t.join();

    std::uint64_t simulated = 0;
    for (const auto &rep : results) {
        ASSERT_EQ(rep.jobs.size(), 4u);
        EXPECT_TRUE(rep.allOk()) << rep.name;
        simulated += rep.simulated;
    }
    // THE dedup invariant: one simulation ever per distinct
    // fingerprint, no matter how the concurrent submissions raced —
    // everything else was served from memory or the in-flight table.
    EXPECT_EQ(simulated, six.size());

    // Identical specs resolved identically for every client.
    for (unsigned c = 1; c < kClients; ++c)
        for (unsigned i = 0; i < 4; ++i)
            for (unsigned j = 0; j < 4; ++j)
                if (results[c].jobs[i].digest
                    == results[0].jobs[j].digest) {
                    EXPECT_EQ(results[c].jobs[i].summary.makespan,
                              results[0].jobs[j].summary.makespan);
                }

    svc::ServiceClient probe(fx.address());
    svc::StatusInfo info = probe.status();
    EXPECT_EQ(info.served[static_cast<std::size_t>(
                  campaign::JobSource::Simulated)],
              six.size());
    EXPECT_EQ(info.store.blobs, six.size());

    fx.stop();
    fs::remove_all(dir);
}

TEST(ServiceServer, RestartServesSweepEntirelyFromDisk)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_restart_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);

    const auto six = distinctSix();
    campaign::CampaignResult first;
    {
        ServerFixture fx(dir);
        svc::ServiceClient client(fx.address());
        first = client.submit(grid("sweep", six));
        ASSERT_TRUE(first.allOk());
        EXPECT_EQ(first.simulated, six.size());
        fx.stop(); // daemon gone; only the store survives
    }

    ServerFixture fx(dir);
    svc::ServiceClient client(fx.address());
    campaign::CampaignResult replay = client.submit(grid("sweep", six));
    ASSERT_TRUE(replay.allOk());

    // Zero simulations: every point came off disk.
    EXPECT_EQ(replay.simulated, 0u);
    EXPECT_EQ(replay.fromDisk, six.size());
    EXPECT_EQ(replay.fromMemory, 0u);

    // And byte-identical metrics: the store's 17-digit round-trip plus
    // the shared jsonNumber formatter make the replayed export
    // indistinguishable from the original.
    for (std::size_t i = 0; i < six.size(); ++i) {
        EXPECT_EQ(replay.jobs[i].digest, first.jobs[i].digest);
        EXPECT_EQ(replay.jobs[i].summary.makespan,
                  first.jobs[i].summary.makespan);
        EXPECT_EQ(metricBytes(replay.jobs[i]), metricBytes(first.jobs[i]))
            << replay.jobs[i].label;
    }

    fx.stop();
    fs::remove_all(dir);
}

// ---- connection lifecycle ------------------------------------------------

TEST(ServiceServer, ReapsFinishedConnectionThreads)
{
    ServerFixture fx("");
    for (int i = 0; i < 200; ++i) {
        svc::ServiceClient client(fx.address());
        ASSERT_TRUE(client.ping());
    }
    // Every accept first joins connections whose handler returned, so
    // the tracked set follows live connections (none now), not the 200
    // served; only the most recent few may still be winding down. A
    // grow-only thread list would hold 200 threads' stacks here.
    EXPECT_LE(fx.server().trackedConnections(), 5u);
    fx.stop();
    EXPECT_EQ(fx.server().trackedConnections(), 0u);
}

TEST(ServiceServer, ShutdownOpRacesConcurrentStopsMidSubmit)
{
    svc::ServerOptions opts;
    opts.engine.threads = 2;
    opts.httpAddr = "tcp:127.0.0.1:0";
    svc::CampaignServer server(svc::parseAddress("tcp:127.0.0.1:0"),
                               opts);
    std::thread serving([&] { server.serve(); });

    // A client mid-submit: accepted, its points still simulating.
    svc::Socket submitter = svc::connectTo(server.address());
    std::string req = R"({"op":"submit","name":"long","points":[)";
    for (const char *cores : {"4", "8", "16", "32"})
        req += std::string(R"({"spec":{"workload":"cholesky",)")
               + R"("workload.granularity":"4096","machine.cores":")"
               + cores + R"("}},)";
    req.back() = ']';
    ASSERT_TRUE(submitter.sendAll(req + "}\n"));
    std::string line;
    ASSERT_TRUE(submitter.readLine(line));
    EXPECT_NE(line.find("\"event\":\"accepted\""), std::string::npos)
        << line;

    // The shutdown op stops the server from a connection thread while
    // four other threads stop it too. stop() only requests the stop,
    // so nobody joins the thread it runs on, and serve() joins every
    // connection exactly once.
    svc::Socket shutdown = svc::connectTo(server.address());
    ASSERT_TRUE(shutdown.sendAll("{\"op\":\"shutdown\"}\n"));
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i)
        stoppers.emplace_back([&] { server.stop(); });
    for (std::thread &t : stoppers)
        t.join();
    serving.join();
    EXPECT_EQ(server.trackedConnections(), 0u);

    // Both clients see their streams end; neither hangs.
    while (shutdown.readLine(line))
        EXPECT_NE(line.find("\"event\":\"bye\""), std::string::npos);
    while (submitter.readLine(line))
        EXPECT_EQ(line.find("\"event\":\"error\""), std::string::npos)
            << line;
}

TEST(ServiceServer, OversizedRequestLineIsRefused)
{
    ServerFixture fx("");
    svc::Socket raw = svc::connectTo(svc::parseAddress(fx.address()));
    // One byte past the cap and no newline: the server answers and
    // closes instead of buffering without bound.
    ASSERT_TRUE(
        raw.sendAll(std::string(svc::Socket::kMaxLineBytes + 1, 'x')));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
        << line.substr(0, 200);
    EXPECT_FALSE(raw.readLine(line));

    // The daemon keeps serving everyone else.
    svc::ServiceClient other(fx.address());
    EXPECT_TRUE(other.ping());
}
