/**
 * @file
 * Dashboard tests: the HTTP request parser (partial reads, hostile
 * input), SSE framing, live-stream backpressure, and the live
 * HTTP+SSE stack mounted on a real campaign server — concurrent
 * dashboard clients during a live sweep, byte-identical metrics
 * through /api/campaign/<id>/points, and the zero-overhead contract
 * (a sweep with no HTTP consumers is byte-identical to a no-HTTP
 * run).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "driver/service/client.hh"
#include "driver/service/dashboard_api.hh"
#include "driver/service/http_server.hh"
#include "driver/service/server.hh"
#include "driver/service/socket.hh"
#include "driver/service/store.hh"

using namespace tdm;
using namespace tdm::driver;
namespace svc = tdm::driver::service;
namespace fs = std::filesystem;

// ---- HTTP parser ---------------------------------------------------------

namespace {

svc::HttpParser::State
feedAll(svc::HttpParser &p, const std::string &bytes)
{
    return p.feed(bytes.data(), bytes.size());
}

} // namespace

TEST(HttpParser, ParsesRequestFedByteByByte)
{
    const std::string req = "GET /api/status HTTP/1.1\r\n"
                            "Host: localhost\r\n"
                            "Accept: */*\r\n"
                            "\r\n";
    svc::HttpParser p;
    for (std::size_t i = 0; i < req.size(); ++i) {
        const auto st = p.feed(&req[i], 1);
        if (i + 1 < req.size()) {
            ASSERT_EQ(st, svc::HttpParser::State::NeedMore)
                << "at byte " << i;
        }
    }
    ASSERT_EQ(p.state(), svc::HttpParser::State::Done);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().path, "/api/status");
    ASSERT_EQ(p.request().headers.size(), 2u);
    EXPECT_EQ(p.request().headers[0].first, "host"); // lowercased
    EXPECT_EQ(p.request().headers[0].second, "localhost");
}

TEST(HttpParser, DecodesPathAndQuery)
{
    svc::HttpParser p;
    ASSERT_EQ(feedAll(p, "GET /a%20b?x=1%2B2&y=a+b&flag HTTP/1.1\r\n"
                         "\r\n"),
              svc::HttpParser::State::Done);
    EXPECT_EQ(p.request().path, "/a b");
    EXPECT_EQ(p.request().target, "/a%20b?x=1%2B2&y=a+b&flag");
    EXPECT_EQ(p.request().queryParam("x"), "1+2");
    EXPECT_EQ(p.request().queryParam("y"), "a b"); // '+' is space here
    EXPECT_EQ(p.request().queryParam("flag"), "");
    EXPECT_EQ(p.request().queryParam("absent", "dflt"), "dflt");
}

TEST(HttpParser, AcceptsBareLfLineEndings)
{
    svc::HttpParser p;
    ASSERT_EQ(feedAll(p, "GET / HTTP/1.0\nHost: x\n\n"),
              svc::HttpParser::State::Done);
    EXPECT_EQ(p.request().path, "/");
}

TEST(HttpParser, RejectsMalformedRequests)
{
    struct Case
    {
        const char *bytes;
        int status;
    };
    const Case cases[] = {
        {"GET /\r\n\r\n", 400},                  // no version
        {"GET / HTTP/1.1 extra\r\n\r\n", 400},   // 4 parts
        {"GE T / HTTP/1.1\r\n\r\n", 400},        // 4 parts again
        {"G\x01T / HTTP/1.1\r\n\r\n", 400},      // non-token method
        {"GET / FTP/1.1\r\n\r\n", 400},          // not HTTP at all
        {"GET / HTTP/2.0\r\n\r\n", 505},         // unsupported version
        {"GET * HTTP/1.1\r\n\r\n", 400},         // not origin-form
        {"GET /%zz HTTP/1.1\r\n\r\n", 400},      // bad percent escape
        {"GET /%2 HTTP/1.1\r\n\r\n", 400},       // truncated escape
        {"GET /a?x=%q1 HTTP/1.1\r\n\r\n", 400},  // bad escape in query
        {"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n", 400}, // name space
        {"GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
        {"GET / HTTP/1.1\r\nA: 1\r\n B: folded\r\n\r\n", 400},
        {"\r\n\r\n", 400},                       // empty request line
    };
    for (const Case &c : cases) {
        svc::HttpParser p;
        EXPECT_EQ(feedAll(p, c.bytes), svc::HttpParser::State::Error)
            << c.bytes;
        EXPECT_EQ(p.status(), c.status) << c.bytes;
    }
}

TEST(HttpParser, RejectsOversizedHead)
{
    svc::HttpParser p;
    std::string huge = "GET / HTTP/1.1\r\n";
    huge += "X-Pad: " + std::string(svc::HttpParser::kMaxRequestBytes,
                                    'a');
    // No terminating blank line needed: the cap trips first.
    EXPECT_EQ(feedAll(p, huge), svc::HttpParser::State::Error);
    EXPECT_EQ(p.status(), 431);
    // Terminal: further bytes don't resurrect it.
    EXPECT_EQ(feedAll(p, "\r\n\r\n"), svc::HttpParser::State::Error);
}

TEST(HttpParser, RejectsRequestBodies)
{
    svc::HttpParser p1;
    EXPECT_EQ(feedAll(p1, "POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                          "\r\nhello"),
              svc::HttpParser::State::Error);
    EXPECT_EQ(p1.status(), 400);

    svc::HttpParser p2;
    EXPECT_EQ(feedAll(p2, "GET / HTTP/1.1\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"),
              svc::HttpParser::State::Error);
    EXPECT_EQ(p2.status(), 400);

    // An explicit zero-length body is fine (curl sends this).
    svc::HttpParser p3;
    EXPECT_EQ(feedAll(p3, "GET / HTTP/1.1\r\nContent-Length: 0\r\n"
                          "\r\n"),
              svc::HttpParser::State::Done);
}

TEST(HttpParser, PercentDecodeEdges)
{
    std::string out;
    EXPECT_TRUE(svc::percentDecode("a%2Fb%41", out, false));
    EXPECT_EQ(out, "a/bA");
    EXPECT_TRUE(svc::percentDecode("a+b", out, false));
    EXPECT_EQ(out, "a+b"); // '+' literal outside query context
    EXPECT_FALSE(svc::percentDecode("%", out, false));
    EXPECT_FALSE(svc::percentDecode("%4", out, false));
    EXPECT_FALSE(svc::percentDecode("%gg", out, false));
    EXPECT_FALSE(svc::percentDecode("%00", out, false)); // NUL ban
}

TEST(HttpResponse, RendersHeadAndBody)
{
    const std::string r =
        svc::renderHttpResponse(200, "application/json", "{\"a\":1}\n");
    EXPECT_EQ(r.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(r.find("Content-Length: 8\r\n"), std::string::npos);
    EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(r.find("\r\n\r\n{\"a\":1}\n"), std::string::npos);

    const std::string h = svc::renderHttpResponse(
        404, "application/json", "{\"a\":1}\n", /*head_only=*/true);
    EXPECT_NE(h.find("Content-Length: 8\r\n"), std::string::npos);
    EXPECT_EQ(h.find("{\"a\":1}"), std::string::npos); // body omitted
}

// ---- SSE framing ---------------------------------------------------------

TEST(Sse, FramesSingleLinePayload)
{
    EXPECT_EQ(svc::sseFrame("point", "{\"id\":1}"),
              "event: point\ndata: {\"id\":1}\n\n");
    // Default event type: no event line at all.
    EXPECT_EQ(svc::sseFrame("", "x"), "data: x\n\n");
}

TEST(Sse, SplitsMultiLinePayloadPerSseGrammar)
{
    EXPECT_EQ(svc::sseFrame("log", "line1\nline2"),
              "event: log\ndata: line1\ndata: line2\n\n");
}

// ---- live stream ---------------------------------------------------------

namespace {

constexpr std::size_t kRing = svc::CampaignRegistry::kStreamEvents;

/** Record event @p n: a "done" line for an unknown campaign, so only
 *  the stream sees it. */
void
record(svc::CampaignRegistry &registry, std::size_t n)
{
    registry.done(0, campaign::CampaignResult{},
                  "{\"n\":" + std::to_string(n) + "}\n");
}

/** The frames record(@p first) .. record(@p last - 1) stream. */
std::vector<std::string>
framesOf(std::size_t first, std::size_t last)
{
    std::vector<std::string> out;
    for (std::size_t n = first; n < last; ++n)
        out.push_back(
            svc::sseFrame("done", "{\"n\":" + std::to_string(n) + "}"));
    return out;
}

/** Every frame @p session can read right now, as bytes. */
std::vector<std::string>
readNow(svc::CampaignRegistry::Session &session)
{
    std::vector<svc::CampaignRegistry::Frame> frames;
    EXPECT_TRUE(session.next(frames, std::chrono::milliseconds(0)));
    std::vector<std::string> out;
    for (const svc::CampaignRegistry::Frame &frame : frames)
        out.push_back(*frame);
    return out;
}

svc::StatusInfo
streamStatus(const svc::CampaignRegistry &registry)
{
    svc::StatusInfo info;
    registry.streamStatus(info);
    return info;
}

} // namespace

TEST(LiveStream, FastSessionSeesEveryEventInOrder)
{
    svc::CampaignRegistry registry;
    {
        svc::CampaignRegistry::Session session(registry);
        EXPECT_EQ(streamStatus(registry).sseSubscribers, 1u);
        // Four ring-fulls, each read before the next is recorded.
        for (std::size_t round = 0; round < 4; ++round) {
            for (std::size_t n = round * kRing; n < (round + 1) * kRing;
                 ++n)
                record(registry, n);
            EXPECT_EQ(readNow(session),
                      framesOf(round * kRing, (round + 1) * kRing));
        }
    }
    const svc::StatusInfo info = streamStatus(registry);
    EXPECT_EQ(info.eventsPublished, 4 * kRing);
    EXPECT_EQ(info.eventsDropped, 0u);
    EXPECT_EQ(info.sseSubscribers, 0u);
}

TEST(LiveStream, SlowSessionKeepsNewestAndCountsLossesBeforeReading)
{
    svc::CampaignRegistry registry;
    {
        svc::CampaignRegistry::Session slow(registry);
        for (std::size_t n = 0; n < 3 * kRing; ++n)
            record(registry, n);
        // Counted as the ring overwrote them, before any read.
        EXPECT_EQ(streamStatus(registry).eventsDropped, 2 * kRing);
        // Freshest-wins: the survivors are the ring's newest events.
        EXPECT_EQ(readNow(slow), framesOf(2 * kRing, 3 * kRing));
        EXPECT_EQ(streamStatus(registry).eventsDropped, 2 * kRing);
    }
    // The departed session's losses stay on the aggregate counter.
    const svc::StatusInfo info = streamStatus(registry);
    EXPECT_EQ(info.eventsDropped, 2 * kRing);
    EXPECT_EQ(info.eventsPublished, 3 * kRing);
}

TEST(LiveStream, SlowSessionDoesNotStarveFastOne)
{
    svc::CampaignRegistry registry;
    svc::CampaignRegistry::Session fast(registry);
    svc::CampaignRegistry::Session slow(registry);
    for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t n = round * kRing; n < (round + 1) * kRing; ++n)
            record(registry, n);
        EXPECT_EQ(readNow(fast),
                  framesOf(round * kRing, (round + 1) * kRing));
    }
    // Every loss is the slow session's: it read none of the 4 rings.
    EXPECT_EQ(streamStatus(registry).eventsDropped, 3 * kRing);
}

TEST(LiveStream, CloseUnblocksWaitingSession)
{
    svc::CampaignRegistry registry;
    svc::CampaignRegistry::Session session(registry);
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        std::vector<svc::CampaignRegistry::Frame> frames;
        EXPECT_FALSE(session.next(frames, std::chrono::seconds(30)));
        EXPECT_TRUE(frames.empty());
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    registry.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
    // A session opened after close() is closed from the start.
    svc::CampaignRegistry::Session late(registry);
    std::vector<svc::CampaignRegistry::Frame> frames;
    EXPECT_FALSE(late.next(frames, std::chrono::seconds(30)));
}

TEST(LiveStream, SessionSeesOnlyEventsRecordedAfterItOpens)
{
    svc::CampaignRegistry registry;
    const std::size_t before = kRing + 10;
    for (std::size_t n = 0; n < before; ++n)
        record(registry, n);
    svc::CampaignRegistry::Session session(registry);
    EXPECT_TRUE(readNow(session).empty());
    for (std::size_t n = before; n < before + 20; ++n)
        record(registry, n);
    EXPECT_EQ(readNow(session), framesOf(before, before + 20));
    const svc::StatusInfo info = streamStatus(registry);
    EXPECT_EQ(info.eventsPublished, before + 20);
    EXPECT_EQ(info.eventsDropped, 0u);
}

// ---- live dashboard ------------------------------------------------------

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

std::vector<SweepPoint>
smallGrid()
{
    return {
        {"fifo8", point("fifo", 8)},
        {"age8", point("age", 8)},
        {"fifo16", point("fifo", 16)},
        {"age16", point("age", 16)},
    };
}

/** A job's metrics rendered exactly as every JSON writer renders
 *  them — the byte-identity probe. */
std::string
metricsFragment(const campaign::JobResult &job)
{
    std::ostringstream os;
    os << "\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : job.summary.metrics().entries()) {
        os << (first ? "" : ",") << "\"" << k << "\":";
        report::jsonNumber(os, v);
        first = false;
    }
    os << "}";
    return os.str();
}

/** In-process daemon with the dashboard enabled. */
class HttpFixture
{
  public:
    explicit HttpFixture(const std::string &store_dir = "")
    {
        svc::ServerOptions opts;
        opts.engine.threads = 2;
        opts.storeDir = store_dir;
        opts.httpAddr = "tcp:127.0.0.1:0";
        server_ = std::make_unique<svc::CampaignServer>(
            svc::parseAddress("tcp:127.0.0.1:0"), opts);
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~HttpFixture() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->stop();
            thread_.join();
        }
    }

    std::string address() const { return server_->address().display(); }
    const svc::Address &httpAddress() const
    {
        return *server_->httpAddress();
    }
    svc::CampaignServer &server() { return *server_; }

  private:
    std::unique_ptr<svc::CampaignServer> server_;
    std::thread thread_;
};

/** One-shot HTTP exchange; returns the full response bytes. */
std::string
httpRequest(const svc::Address &addr, const std::string &raw)
{
    svc::Socket s = svc::connectTo(addr);
    EXPECT_TRUE(s.sendAll(raw));
    std::string resp;
    char buf[4096];
    long n;
    while ((n = s.readSome(buf, sizeof buf)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    return resp;
}

std::string
httpGet(const svc::Address &addr, const std::string &target)
{
    return httpRequest(addr, "GET " + target
                                 + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

/** Read /api/events until a complete "done" frame arrives; flips
 *  @p connected once the stream preamble lands. */
std::string
readSseUntilDone(const svc::Address &addr, std::atomic<bool> &connected)
{
    svc::Socket s = svc::connectTo(addr);
    EXPECT_TRUE(s.sendAll(
        "GET /api/events HTTP/1.1\r\nHost: t\r\n\r\n"));
    std::string resp;
    char buf[4096];
    while (true) {
        const long n = s.readSome(buf, sizeof buf);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
        if (resp.find(": connected") != std::string::npos)
            connected.store(true);
        const std::size_t done = resp.find("event: done");
        if (done != std::string::npos
            && resp.find("\n\n", done) != std::string::npos)
            break;
    }
    return resp;
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0, pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

} // namespace

TEST(Dashboard, ServesStatusAssetsAndErrors)
{
    HttpFixture fx;
    const svc::Address &http = fx.httpAddress();

    const std::string status = httpGet(http, "/api/status");
    EXPECT_NE(status.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(status.find("\"event\":\"status\""), std::string::npos);
    EXPECT_NE(status.find("\"uptime_ms\":"), std::string::npos);
    EXPECT_NE(status.find("\"http\":{"), std::string::npos);

    const std::string page = httpGet(http, "/");
    EXPECT_NE(page.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(page.find("Content-Type: text/html"), std::string::npos);
    EXPECT_NE(page.find("tdm campaign dashboard"), std::string::npos);

    const std::string js = httpGet(http, "/app.js");
    EXPECT_NE(js.find("Content-Type: application/javascript"),
              std::string::npos);

    const std::string missing = httpGet(http, "/nope");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

    const std::string post = httpRequest(
        http, "POST /api/status HTTP/1.1\r\nHost: t\r\n"
              "Content-Length: 0\r\n\r\n");
    EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

    const std::string garbage = httpRequest(http, "not http\r\n\r\n");
    EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);

    // No store configured: the browser endpoints say so, not crash.
    const std::string store = httpGet(http, "/api/store");
    EXPECT_NE(store.find("HTTP/1.1 404"), std::string::npos);
}

TEST(Dashboard, ConcurrentSseClientsSeeLiveSweep)
{
    HttpFixture fx;
    const svc::Address &http = fx.httpAddress();

    std::atomic<bool> connected1{false}, connected2{false};
    std::string capture1, capture2;
    std::thread watcher1(
        [&] { capture1 = readSseUntilDone(http, connected1); });
    std::thread watcher2(
        [&] { capture2 = readSseUntilDone(http, connected2); });
    while (!connected1.load() || !connected2.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    svc::ServiceClient client(fx.address());
    const campaign::CampaignResult result =
        client.submit(grid("live", smallGrid()));
    ASSERT_TRUE(result.allOk());
    watcher1.join();
    watcher2.join();

    for (const std::string *cap : {&capture1, &capture2}) {
        EXPECT_EQ(countOccurrences(*cap, "event: accepted\n"), 1u);
        EXPECT_EQ(countOccurrences(*cap, "event: point\n"), 4u);
        EXPECT_EQ(countOccurrences(*cap, "event: progress\n"), 4u);
        EXPECT_EQ(countOccurrences(*cap, "event: done\n"), 1u);
        // The SSE stream carries the exact bytes the protocol client
        // got — including every 17-significant-digit metric value.
        for (const campaign::JobResult &job : result.jobs)
            EXPECT_NE(cap->find(metricsFragment(job)),
                      std::string::npos)
                << job.label;
    }

    // The registry's replay serves the same bytes after the fact.
    const std::string points = httpGet(http, "/api/campaign/1/points");
    EXPECT_NE(points.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(points.find("\"name\":\"live\""), std::string::npos);
    EXPECT_NE(points.find("\"active\":false"), std::string::npos);
    for (const campaign::JobResult &job : result.jobs) {
        EXPECT_NE(points.find("\"label\":\"" + job.label + "\""),
                  std::string::npos);
        EXPECT_NE(points.find(metricsFragment(job)), std::string::npos)
            << job.label;
    }

    const std::string campaigns = httpGet(http, "/api/campaigns");
    EXPECT_NE(campaigns.find("\"id\":1"), std::string::npos);
    EXPECT_NE(campaigns.find("\"total\":4"), std::string::npos);
    EXPECT_NE(campaigns.find("\"done\":4"), std::string::npos);

    const std::string unknown =
        httpGet(http, "/api/campaign/999/points");
    EXPECT_NE(unknown.find("HTTP/1.1 404"), std::string::npos);
}

TEST(Dashboard, CampaignListBytesForFinishedAndActiveCampaigns)
{
    // /api/campaigns straight off a registry fed by hand: one finished
    // campaign (with a failed point and an escaped name) and one still
    // streaming. The body is pinned byte for byte.
    svc::CampaignRegistry registry;
    auto job = [](campaign::JobSource source, bool ok) {
        campaign::JobResult j;
        j.summary.completed = ok;
        j.source = source;
        j.doneAtMs = 2.0;
        return j;
    };
    const std::string line = "{\"event\":\"point\"}\n";

    campaign::Campaign a;
    a.name = "fin\"ished";
    a.metrics = "dmu.*";
    a.points.resize(3);
    registry.accepted(1, a, line);
    registry.point(1, job(campaign::JobSource::Simulated, true), 2, line);
    registry.point(1, job(campaign::JobSource::Memory, false), 0, line);
    registry.point(1, job(campaign::JobSource::Forked, true), 1, line);
    campaign::CampaignResult ra;
    ra.wallMs = 12.5;
    registry.done(1, ra, line);

    campaign::Campaign b;
    b.name = "active";
    b.points.resize(2);
    registry.accepted(2, b, line);
    registry.point(2, job(campaign::JobSource::Disk, true), 1, line);

    const svc::Dashboard dash(registry, nullptr,
                              [] { return svc::StatusInfo{}; });
    svc::HttpServer http(
        svc::parseAddress("tcp:127.0.0.1:0"),
        [&](const svc::HttpRequest &req, svc::Socket &sock,
            const std::atomic<bool> &stopping) {
            dash.handle(req, sock, stopping);
        });
    const std::string resp = httpGet(http.address(), "/api/campaigns");
    http.stop();
    ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    const std::string body = resp.substr(resp.find("\r\n\r\n") + 4);
    EXPECT_EQ(body,
              "{\"campaigns\":["
              "{\"id\":1,\"name\":\"fin\\\"ished\",\"total\":3,"
              "\"done\":3,\"active\":false,\"failures\":1,"
              "\"served\":{\"simulated\":1,\"memory\":1,\"disk\":0,"
              "\"inflight\":0,\"forked\":1},\"wall_ms\":12.5,"
              "\"metrics_pattern\":\"dmu.*\"},"
              "{\"id\":2,\"name\":\"active\",\"total\":2,"
              "\"done\":1,\"active\":true,\"failures\":0,"
              "\"served\":{\"simulated\":0,\"memory\":0,\"disk\":1,"
              "\"inflight\":0,\"forked\":0},\"wall_ms\":0,"
              "\"metrics_pattern\":\"\"}]}\n");
}

TEST(Dashboard, StoreBrowserServesBlobsAndStats)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_http_store_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    {
        HttpFixture fx(dir);
        svc::ServiceClient client(fx.address());
        const campaign::CampaignResult result =
            client.submit(grid("seed", smallGrid()));
        ASSERT_TRUE(result.allOk());

        const std::string store =
            httpGet(fx.httpAddress(), "/api/store");
        EXPECT_NE(store.find("HTTP/1.1 200 OK"), std::string::npos);
        EXPECT_NE(store.find("\"blobs\":4"), std::string::npos);
        // Every digest the sweep produced is listed and fetchable.
        for (const campaign::JobResult &job : result.jobs) {
            EXPECT_NE(store.find("\"digest\":\"" + job.digest + "\""),
                      std::string::npos);
            const std::string blob = httpGet(
                fx.httpAddress(), "/api/store/" + job.digest);
            EXPECT_NE(blob.find("HTTP/1.1 200 OK"), std::string::npos);
            // The blob carries the FULL metric tree (no selection);
            // every selected metric must appear byte-identically.
            for (const auto &[k, v] : job.summary.metrics().entries()) {
                std::ostringstream frag;
                frag << "\"" << k << "\":";
                report::jsonNumber(frag, v);
                EXPECT_NE(blob.find(frag.str()), std::string::npos)
                    << job.label << " " << k;
            }
            const std::string raw = httpGet(
                fx.httpAddress(),
                "/api/store/" + job.digest + "?raw=1");
            EXPECT_NE(raw.find("Content-Type: text/plain"),
                      std::string::npos);
        }
        const std::string absent = httpGet(
            fx.httpAddress(), "/api/store/0123456789abcdef");
        EXPECT_NE(absent.find("HTTP/1.1 404"), std::string::npos);
        // Status now reports blob count and on-disk bytes.
        const svc::StatusInfo info = fx.server().status();
        EXPECT_EQ(info.store.blobs, 4u);
        EXPECT_GT(info.store.bytes, 0u);
    }
    fs::remove_all(dir);
}

TEST(Dashboard, ZeroSubscriberSweepMatchesNoHttpRun)
{
    // Same sweep on a daemon with the dashboard mounted (but no HTTP
    // client attached) and on one without --http at all: every metric
    // byte must match — the dashboard costs nothing it doesn't use.
    std::vector<std::string> withHttp, without;
    {
        HttpFixture fx;
        svc::ServiceClient client(fx.address());
        const campaign::CampaignResult r =
            client.submit(grid("zero", smallGrid()));
        for (const campaign::JobResult &job : r.jobs)
            withHttp.push_back(job.label + "|" + metricsFragment(job));
    }
    {
        svc::ServerOptions opts;
        opts.engine.threads = 2;
        auto server = std::make_unique<svc::CampaignServer>(
            svc::parseAddress("tcp:127.0.0.1:0"), opts);
        std::thread t([&] { server->serve(); });
        svc::ServiceClient client(server->address().display());
        const campaign::CampaignResult r =
            client.submit(grid("zero", smallGrid()));
        for (const campaign::JobResult &job : r.jobs)
            without.push_back(job.label + "|" + metricsFragment(job));
        server->stop();
        t.join();
    }
    EXPECT_EQ(withHttp, without);
}

// ---- dashboard bodies, byte for byte -------------------------------------

namespace {

/** The hand-filled counters the fixture's status callback returns. */
svc::StatusInfo
fixedStatus()
{
    svc::StatusInfo info;
    info.campaigns = 1;
    info.points = 2;
    info.served = {1, 1, 0, 0, 0};
    info.cachePoints = 2;
    info.threads = 2;
    info.uptimeMs = 0.5;
    info.hasStore = true;
    info.storeDir = "s";
    info.store.blobs = 2;
    info.store.bytes = 300;
    info.store.stores = 2;
    return info;
}

/** An empty directory for a test's store, named by @p tag and the
 *  process id. */
std::string
freshDir(const std::string &tag)
{
    const fs::path dir = fs::temp_directory_path()
                       / (tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir.string();
}

/** A run summary with a few headline twins and an escaped key. */
RunSummary
knownSummary(double timeMs)
{
    RunSummary s;
    s.machine.metrics.set("machine.completed", 1);
    s.machine.metrics.set("machine.time_ms", timeMs);
    s.machine.metrics.set("dmu.accesses", 12);
    s.machine.metrics.set("odd\"key", 2.5);
    return s;
}

/**
 * A Dashboard over hand-fed state on an ephemeral port: a store
 * holding two known blobs, a registry holding finished campaign 1,
 * and fixedStatus() behind /api/status.
 */
class DashboardBytes : public ::testing::Test
{
  protected:
    DashboardBytes()
        : dir_(freshDir("tdm_dash_bytes")), store_(dir_),
          dash_(registry_, &store_, [] { return fixedStatus(); }),
          http_(svc::parseAddress("tcp:127.0.0.1:0"),
                [this](const svc::HttpRequest &req, svc::Socket &sock,
                       const std::atomic<bool> &stopping) {
                    dash_.handle(req, sock, stopping);
                })
    {
        store_.publish("key-a", knownSummary(0.1 + 0.2));
        store_.publish("key-b", knownSummary(4));
        campaign::Campaign c;
        c.name = "one";
        c.points.resize(1);
        const std::string line = "{\"event\":\"point\"}\n";
        registry_.accepted(1, c, line);
        campaign::JobResult job;
        job.summary.completed = true;
        registry_.point(1, job, 0, line);
        registry_.done(1, campaign::CampaignResult{}, line);
    }

    ~DashboardBytes() override
    {
        http_.stop();
        fs::remove_all(dir_);
    }

    /** The full response to GET @p target. */
    std::string get(const std::string &target)
    {
        return httpGet(http_.address(), target);
    }

    /** The body of the response to GET @p target. */
    std::string body(const std::string &target)
    {
        const std::string resp = get(target);
        return resp.substr(resp.find("\r\n\r\n") + 4);
    }

    std::string dir_;
    svc::ResultStore store_;
    svc::CampaignRegistry registry_;
    svc::Dashboard dash_;
    svc::HttpServer http_;
};

/** The response head every JSON reply of @p length bytes carries. */
std::string
jsonHead(const std::string &status, std::size_t length)
{
    return "HTTP/1.1 " + status
         + "\r\nServer: campaign_serve\r\nCache-Control: no-store"
           "\r\nContent-Type: application/json\r\nContent-Length: "
         + std::to_string(length) + "\r\nConnection: close\r\n\r\n";
}

} // namespace

TEST_F(DashboardBytes, StatusBodyIsTheStatusLine)
{
    EXPECT_EQ(body("/api/status"),
              "{\"event\":\"status\",\"campaigns\":1,\"points\":2,"
              "\"served\":{\"simulated\":1,\"memory\":1,\"disk\":0,"
              "\"inflight\":0,\"forked\":0},\"cache_points\":2,"
              "\"inflight\":0,\"threads\":2,\"uptime_ms\":0.5,"
              "\"store\":{\"dir\":\"s\",\"blobs\":2,\"bytes\":300,"
              "\"hits\":0,\"misses\":0,\"stores\":2,\"corrupt\":0},"
              "\"http\":null}\n");
}

TEST_F(DashboardBytes, StoreBodyListsKnownBlobs)
{
    const std::string stats = "{\"store\":{\"dir\":\"" + dir_
                            + "\",\"blobs\":2,\"bytes\":296,"
                              "\"hits\":0,\"misses\":0,\"stores\":2,"
                              "\"corrupt\":0},\"blobs\":[";
    EXPECT_EQ(body("/api/store"),
              stats + "{\"digest\":\"711329f295f22b63\",\"bytes\":139},"
                      "{\"digest\":\"71132af295f22d16\",\"bytes\":157}],"
                      "\"truncated\":false}\n");
    EXPECT_EQ(body("/api/store?limit=1"),
              stats + "{\"digest\":\"711329f295f22b63\",\"bytes\":139}],"
                      "\"truncated\":true}\n");
}

TEST_F(DashboardBytes, StoreBlobBodyIsPinned)
{
    EXPECT_EQ(body("/api/store/" + campaign::digestOfKey("key-a")),
              "{\"digest\":\"71132af295f22d16\",\"key\":\"key-a\","
              "\"completed\":true,\"makespan\":0,"
              "\"time_ms\":0.30000000000000004,\"energy_j\":0,"
              "\"edp\":0,\"avg_watts\":0,\"num_tasks\":0,"
              "\"avg_task_us\":0,\"tasks_executed\":0,"
              "\"dmu_accesses\":12,\"dmu_blocked_ops\":0,\"steals\":0,"
              "\"master_creation_fraction\":0,\"metrics\":{"
              "\"dmu.accesses\":12,\"machine.completed\":1,"
              "\"machine.time_ms\":0.30000000000000004,"
              "\"odd\\\"key\":2.5}}\n");
}

TEST_F(DashboardBytes, ErrorBodiesArePinned)
{
    const std::string notFound = "{\"error\":\"not found\"}\n";
    EXPECT_EQ(get("/nope"), jsonHead("404 Not Found", notFound.size())
                                + notFound);
    const std::string noBlob = "{\"error\":\"no such blob\"}\n";
    EXPECT_EQ(get("/api/store/0123456789abcdef"),
              jsonHead("404 Not Found", noBlob.size()) + noBlob);
    // HEAD gets the head alone.
    EXPECT_EQ(httpRequest(http_.address(),
                          "HEAD /nope HTTP/1.1\r\nHost: t\r\n\r\n"),
              jsonHead("404 Not Found", notFound.size()));
    const std::string method =
        "{\"error\":\"only GET and HEAD are supported\"}\n";
    EXPECT_EQ(httpRequest(http_.address(),
                          "DELETE /api/status HTTP/1.1\r\n\r\n"),
              jsonHead("405 Method Not Allowed", method.size())
                  + method);
    const std::string parse = "{\"error\":\"malformed request line\"}\n";
    EXPECT_EQ(httpRequest(http_.address(), "not http\r\n\r\n"),
              jsonHead("400 Bad Request", parse.size()) + parse);
}

TEST(HttpServerErrors, ThrowingHandlerGets500WithItsMessage)
{
    svc::HttpServer http(svc::parseAddress("tcp:127.0.0.1:0"),
                         [](const svc::HttpRequest &, svc::Socket &,
                            const std::atomic<bool> &) {
                             throw std::runtime_error("boom \"x\"\\");
                         });
    const std::string resp = httpGet(http.address(), "/");
    http.stop();
    const std::string body = "{\"error\":\"boom \\\"x\\\"\\\\\"}\n";
    EXPECT_EQ(resp, jsonHead("500 Internal Server Error", body.size())
                        + body);
}

// ---- dashboard numbers ----------------------------------------------------

TEST_F(DashboardBytes, LimitWithLeadingSpaceIs400)
{
    // '+' in a query decodes to a space: the limit reads " 1".
    EXPECT_NE(get("/api/store?limit=+1").find("HTTP/1.1 400"),
              std::string::npos);
}

TEST_F(DashboardBytes, LimitWithPlusSignIs400)
{
    EXPECT_NE(get("/api/store?limit=%2B1").find("HTTP/1.1 400"),
              std::string::npos);
}

TEST_F(DashboardBytes, NegativeLimitIs400NotEveryBlob)
{
    const std::string resp = get("/api/store?limit=-1");
    EXPECT_NE(resp.find("HTTP/1.1 400"), std::string::npos) << resp;
    EXPECT_EQ(resp.find("\"digest\""), std::string::npos) << resp;
}

TEST_F(DashboardBytes, NonNumericLimitIs400)
{
    for (const char *bad : {"", "abc", "1x", "0x10", "1e3"})
        EXPECT_NE(get(std::string("/api/store?limit=") + bad)
                      .find("HTTP/1.1 400"),
                  std::string::npos)
            << bad;
}

TEST_F(DashboardBytes, OverflowingLimitIs400)
{
    EXPECT_NE(get("/api/store?limit=18446744073709551616")
                  .find("HTTP/1.1 400"),
              std::string::npos);
}

TEST_F(DashboardBytes, MalformedLimitNamesItInItsBody)
{
    EXPECT_EQ(body("/api/store?limit=-1"),
              "{\"error\":\"malformed limit \\\"-1\\\"\"}\n");
}

TEST_F(DashboardBytes, SignedOrSpacedCampaignIdIs404)
{
    EXPECT_NE(get("/api/campaign/1/points").find("HTTP/1.1 200"),
              std::string::npos);
    for (const char *bad :
         {"+1", "%201", "-1", "01x", "18446744073709551617"})
        EXPECT_NE(get(std::string("/api/campaign/") + bad + "/points")
                      .find("HTTP/1.1 404"),
                  std::string::npos)
            << bad;
}

// ---- the C++ client's status ----------------------------------------------

TEST(ServiceClientStatus, ReadsEveryMemberTheServerWrites)
{
    const std::string dir = freshDir("tdm_client_status");
    {
        HttpFixture fx(dir);
        svc::ServiceClient client(fx.address());
        ASSERT_TRUE(client.submit(grid("seed", smallGrid())).allOk());
        ASSERT_NE(httpGet(fx.httpAddress(), "/api/status")
                      .find("HTTP/1.1 200"),
                  std::string::npos);

        const svc::StatusInfo got = client.status();
        const svc::StatusInfo want = fx.server().status();
        EXPECT_EQ(got.campaigns, want.campaigns);
        EXPECT_EQ(got.points, want.points);
        EXPECT_EQ(got.served, want.served);
        EXPECT_EQ(got.cachePoints, want.cachePoints);
        EXPECT_EQ(got.inflight, want.inflight);
        EXPECT_EQ(got.threads, want.threads);
        EXPECT_GT(got.uptimeMs, 0.0);
        EXPECT_EQ(got.hasStore, want.hasStore);
        EXPECT_EQ(got.storeDir, want.storeDir);
        EXPECT_EQ(got.store.blobs, want.store.blobs);
        EXPECT_EQ(got.store.bytes, want.store.bytes);
        EXPECT_EQ(got.store.hits, want.store.hits);
        EXPECT_EQ(got.store.misses, want.store.misses);
        EXPECT_EQ(got.store.stores, want.store.stores);
        EXPECT_EQ(got.store.corrupt, want.store.corrupt);
        EXPECT_EQ(got.hasHttp, want.hasHttp);
        EXPECT_EQ(got.httpAddr, want.httpAddr);
        EXPECT_EQ(got.httpRequests, want.httpRequests);
        EXPECT_EQ(got.sseSubscribers, want.sseSubscribers);
        EXPECT_EQ(got.eventsPublished, want.eventsPublished);
        EXPECT_EQ(got.eventsDropped, want.eventsDropped);
        // Every counter the comparison covers has moved off zero.
        EXPECT_GT(want.store.bytes, 0u);
        EXPECT_EQ(want.httpRequests, 1u);
        EXPECT_GT(want.eventsPublished, 0u);
    }
    fs::remove_all(dir);
}

// ---- HttpServer lifecycle ------------------------------------------------

namespace {

/** A handler that answers 200 `{}` immediately. */
void
okHandler(const svc::HttpRequest &, svc::Socket &sock,
          const std::atomic<bool> &)
{
    sock.sendAll(svc::renderHttpResponse(200, "application/json",
                                         "{}\n"));
}

} // namespace

TEST(HttpServerLifecycle, ReapsFinishedConnectionThreads)
{
    svc::HttpServer server(svc::parseAddress("tcp:127.0.0.1:0"),
                           okHandler);
    for (int i = 0; i < 40; ++i) {
        const std::string resp = httpGet(server.address(), "/");
        ASSERT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
    }
    // Every accept first joins connections whose handler returned, so
    // the tracked set follows live connections (none now), not the 40
    // requests served; only the most recent few may still be winding
    // down. A grow-only thread list would report 40 here.
    EXPECT_LE(server.trackedConnections(), 5u);
    EXPECT_EQ(server.requests(), 40u);
    server.stop();
    EXPECT_EQ(server.trackedConnections(), 0u);
}

TEST(HttpServerLifecycle, ConcurrentStopIsSafe)
{
    svc::HttpServer server(
        svc::parseAddress("tcp:127.0.0.1:0"),
        [](const svc::HttpRequest &, svc::Socket &sock,
           const std::atomic<bool> &stopping) {
            // The SSE shape: hold the connection until shutdown.
            while (!stopping.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            sock.sendAll(svc::renderHttpResponse(
                200, "text/plain", "bye\n"));
        });
    svc::Socket client = svc::connectTo(server.address());
    ASSERT_TRUE(
        client.sendAll("GET /hold HTTP/1.1\r\nHost: t\r\n\r\n"));
    while (server.requests() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The shutdown protocol op and the signal watcher can race into
    // stop(); every caller must block until the one teardown is done,
    // and none may double-join a thread.
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i)
        stoppers.emplace_back([&] { server.stop(); });
    for (std::thread &t : stoppers)
        t.join();
    EXPECT_EQ(server.trackedConnections(), 0u);
}

TEST(HttpServerLifecycle, IdleClientGets408)
{
    svc::HttpServer server(svc::parseAddress("tcp:127.0.0.1:0"),
                           okHandler, /*head_timeout_sec=*/1);
    // Connect, send nothing: the connection must not pin a thread
    // until daemon shutdown.
    svc::Socket s = svc::connectTo(server.address());
    std::string resp;
    char buf[512];
    long n;
    while ((n = s.readSome(buf, sizeof buf)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    EXPECT_NE(resp.find("HTTP/1.1 408"), std::string::npos);
}

TEST(HttpServerLifecycle, TricklingClientGets408)
{
    svc::HttpServer server(svc::parseAddress("tcp:127.0.0.1:0"),
                           okHandler, /*head_timeout_sec=*/1);
    // One header byte every 100 ms keeps each recv() fresh, so only
    // the overall head deadline can cut this client off.
    svc::Socket s = svc::connectTo(server.address());
    std::atomic<bool> stop{false};
    std::thread trickler([&] {
        const std::string head = "GET / HTTP/1.1\r\nHost: t\r\n";
        std::size_t i = 0;
        while (!stop.load() && i < head.size()) {
            if (!s.sendAll(std::string(1, head[i])))
                break; // server closed on us — expected
            ++i;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    });
    std::string resp;
    char buf[512];
    long n;
    while ((n = s.readSome(buf, sizeof buf)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    stop.store(true);
    trickler.join();
    EXPECT_NE(resp.find("HTTP/1.1 408"), std::string::npos);
}

TEST(Dashboard, SseSessionsUnblockOnServerStop)
{
    auto fx = std::make_unique<HttpFixture>();
    std::atomic<bool> connected{false};
    std::string capture;
    std::thread watcher([&] {
        capture = readSseUntilDone(fx->httpAddress(), connected);
    });
    while (!connected.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fx->stop(); // must close the stream, not strand the reader
    watcher.join();
    EXPECT_EQ(capture.find("event: done"), std::string::npos);
    fx.reset();
}
