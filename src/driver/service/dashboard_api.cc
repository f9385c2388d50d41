#include "driver/service/dashboard_api.hh"

#include <algorithm>

#include "driver/report/format.hh"
#include "www_assets.hh"

namespace tdm::driver::service {

using report::JsonEscaped;
using report::JsonReal;

std::string
sseFrame(std::string_view name, std::string_view data)
{
    std::string out;
    out.reserve(data.size() + name.size() + 32);
    if (!name.empty()) {
        out += "event: ";
        out += name;
        out += '\n';
    }
    // One "data:" line per payload line; a trailing newline in the
    // payload contributes an empty data line, preserving the bytes
    // the consumer reassembles.
    std::size_t pos = 0;
    while (true) {
        const std::size_t nl = data.find('\n', pos);
        out += "data: ";
        out += data.substr(pos, nl == std::string_view::npos
                                    ? std::string_view::npos
                                    : nl - pos);
        out += '\n';
        if (nl == std::string_view::npos)
            break;
        pos = nl + 1;
    }
    out += '\n';
    return out;
}

// ---- registry ------------------------------------------------------------

namespace {

/** The record with @p id in @p campaigns, or nullptr. Ids ascend and
 *  lookups target recent campaigns, so the scan runs backwards. */
template <typename Records>
auto
findRecord(Records &campaigns, std::uint64_t id)
    -> decltype(campaigns.data())
{
    for (auto it = campaigns.rbegin(); it != campaigns.rend(); ++it)
        if (it->id == id)
            return &*it;
    return nullptr;
}

/** A protocol line's JSON object: the stream and the points endpoint
 *  carry it without the line terminator. */
std::string_view
eventJson(const std::string &line)
{
    return std::string_view(line).substr(0, line.size() - 1);
}

/** The dashboard-only progress event after @p rec's latest point:
 *  completion fraction, per-source split, and a naive ETA from the
 *  mean per-point pace so far. */
void
writeProgress(report::Text &out, const CampaignRecord &rec,
              double elapsed_ms)
{
    const std::size_t done = rec.points.size();
    const double eta =
        done < rec.total ? elapsed_ms / static_cast<double>(done)
                               * static_cast<double>(rec.total - done)
                         : 0.0;
    out << "{\"id\":" << rec.id << ",\"done\":" << done
        << ",\"total\":" << rec.total << ',';
    writeServed(out, rec.served);
    out << ",\"elapsed_ms\":" << JsonReal{elapsed_ms}
        << ",\"eta_ms\":" << JsonReal{eta} << '}';
}

/** One record of the /api/campaigns body. */
void
writeSummary(report::Text &out, const CampaignRecord &c)
{
    out << "{\"id\":" << c.id << ",\"name\":\"" << JsonEscaped{c.name}
        << "\",\"total\":" << c.total << ",\"done\":" << c.points.size()
        << ",\"active\":" << (c.active ? "true" : "false")
        << ",\"failures\":" << c.failures << ',';
    writeServed(out, c.served);
    out << ",\"wall_ms\":" << JsonReal{c.wallMs}
        << ",\"metrics_pattern\":\"" << JsonEscaped{c.metricsPattern}
        << "\"}";
}

} // namespace

void
CampaignRegistry::accepted(std::uint64_t id, const campaign::Campaign &c,
                           const std::string &line)
{
    std::lock_guard<std::mutex> lock(m_);
    publish("accepted", eventJson(line));
    CampaignRecord rec;
    rec.id = id;
    rec.name = c.name;
    rec.total = c.points.size();
    rec.metricsPattern = c.metrics;
    campaigns_.push_back(std::move(rec));

    // Bound the daemon's memory: evict the oldest *finished* campaign
    // once too many are retained (active ones are never evicted — the
    // done event still needs to land somewhere).
    std::size_t finished = 0;
    for (const CampaignRecord &r : campaigns_)
        if (!r.active)
            ++finished;
    if (finished > kMaxFinished) {
        for (auto it = campaigns_.begin(); it != campaigns_.end(); ++it)
            if (!it->active) {
                campaigns_.erase(it);
                break;
            }
    }
}

void
CampaignRegistry::point(std::uint64_t id, const campaign::JobResult &job,
                        std::size_t index, const std::string &line)
{
    std::lock_guard<std::mutex> lock(m_);
    const std::string_view json = eventJson(line);
    publish("point", json);
    CampaignRecord *rec = findRecord(campaigns_, id);
    if (!rec)
        return;
    if (!job.ok())
        ++rec->failures;
    ++rec->served[static_cast<std::size_t>(job.source)];
    rec->points.emplace_back(index, json);
    report::Text progress;
    writeProgress(progress, *rec, job.doneAtMs);
    publish("progress", progress.str());
}

void
CampaignRegistry::done(std::uint64_t id,
                       const campaign::CampaignResult &result,
                       const std::string &line)
{
    std::lock_guard<std::mutex> lock(m_);
    publish("done", eventJson(line));
    if (CampaignRecord *rec = findRecord(campaigns_, id)) {
        rec->active = false;
        rec->wallMs = result.wallMs;
    }
}

void
CampaignRegistry::writeSummaries(report::Text &out) const
{
    std::lock_guard<std::mutex> lock(m_);
    out << "{\"campaigns\":[";
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
        if (i)
            out << ',';
        writeSummary(out, campaigns_[i]);
    }
    out << "]}\n";
}

bool
CampaignRegistry::writePoints(std::uint64_t id, report::Text &out) const
{
    std::lock_guard<std::mutex> lock(m_);
    const CampaignRecord *rec = findRecord(campaigns_, id);
    if (!rec)
        return false;
    // Completion order is the live view; the export view is point
    // order — serve the latter so a row-by-row diff against the file
    // export lines up.
    std::vector<const std::pair<std::size_t, std::string> *> order;
    order.reserve(rec->points.size());
    for (const auto &p : rec->points)
        order.push_back(&p);
    std::sort(order.begin(), order.end(),
              [](const auto *a, const auto *b) { return *a < *b; });
    out << "{\"id\":" << rec->id << ",\"name\":\""
        << JsonEscaped{rec->name} << "\",\"total\":" << rec->total
        << ",\"active\":" << (rec->active ? "true" : "false")
        << ",\"metrics_pattern\":\"" << JsonEscaped{rec->metricsPattern}
        << "\",\"points\":[";
    for (std::size_t i = 0; i < order.size(); ++i)
        out << (i ? "," : "") << order[i]->second;
    out << "]}\n";
    return true;
}

// ---- live stream ---------------------------------------------------------

void
CampaignRegistry::publish(std::string_view name, std::string_view json)
{
    if (closed_)
        return;
    if (published_ >= kStreamEvents) {
        // The ring is about to overwrite the event kStreamEvents back:
        // every session that has not read it loses it now.
        const std::uint64_t lost = published_ - kStreamEvents;
        for (const Session *s : sessions_)
            if (s->cursor_ <= lost)
                ++dropped_;
    }
    // With no session open nobody can ever read this event: a session
    // starts at the end of the stream.
    ring_[published_ % kStreamEvents] =
        sessions_.empty()
            ? nullptr
            : std::make_shared<const std::string>(sseFrame(name, json));
    ++published_;
    streamCv_.notify_all();
}

void
CampaignRegistry::close()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
    }
    streamCv_.notify_all();
}

void
CampaignRegistry::streamStatus(StatusInfo &info) const
{
    std::lock_guard<std::mutex> lock(m_);
    info.sseSubscribers = sessions_.size();
    info.eventsPublished = published_;
    info.eventsDropped = dropped_;
}

CampaignRegistry::Session::Session(CampaignRegistry &registry)
    : registry_(registry)
{
    std::lock_guard<std::mutex> lock(registry_.m_);
    cursor_ = registry_.published_;
    if (!registry_.closed_)
        registry_.sessions_.push_back(this);
}

CampaignRegistry::Session::~Session()
{
    std::lock_guard<std::mutex> lock(registry_.m_);
    auto &sessions = registry_.sessions_;
    sessions.erase(std::remove(sessions.begin(), sessions.end(), this),
                   sessions.end());
}

bool
CampaignRegistry::Session::next(std::vector<Frame> &out,
                                std::chrono::milliseconds timeout)
{
    out.clear();
    std::unique_lock<std::mutex> lock(registry_.m_);
    const std::uint64_t &end = registry_.published_;
    registry_.streamCv_.wait_for(lock, timeout, [&] {
        return cursor_ < end || registry_.closed_;
    });
    // Skip what the ring overwrote; publish() counted it as dropped.
    cursor_ = std::max(cursor_, end - std::min<std::uint64_t>(
                                          end, kStreamEvents));
    for (; cursor_ < end; ++cursor_)
        out.push_back(registry_.ring_[cursor_ % kStreamEvents]);
    return !out.empty() || !registry_.closed_;
}

// ---- dashboard -----------------------------------------------------------

Dashboard::Dashboard(CampaignRegistry &registry, const ResultStore *store,
                     std::function<StatusInfo()> status)
    : registry_(registry), store_(store), status_(std::move(status))
{
}

namespace {

/** The response head of an SSE stream (no Content-Length — the stream
 *  ends when the connection does). */
constexpr const char *kSseHead = "HTTP/1.1 200 OK\r\n"
                                 "Server: campaign_serve\r\n"
                                 "Content-Type: text/event-stream\r\n"
                                 "Cache-Control: no-store\r\n"
                                 "Connection: close\r\n"
                                 "\r\n";

/**
 * One /api/events session: the stream head, then every event recorded
 * from now on, sent outside the registry lock, until the client goes
 * away, the stream closes, or @p stopping is set. A ": keepalive"
 * comment after ~15 s of silence lets proxies and the client's
 * reconnect logic tell "quiet" from "dead".
 */
void
serveEvents(Socket &sock, CampaignRegistry &registry,
            const std::atomic<bool> &stopping)
{
    CampaignRegistry::Session session(registry);
    // Tell the client it is live before the first real event.
    if (!sock.sendAll(std::string(kSseHead) + ": connected\n\n"))
        return;
    constexpr auto kPollInterval = std::chrono::milliseconds(250);
    constexpr int kKeepaliveIdlePolls = 60; // ~15s of silence
    int idlePolls = 0;
    std::vector<CampaignRegistry::Frame> frames;
    while (!stopping.load() && session.next(frames, kPollInterval)) {
        if (frames.empty()) {
            if (++idlePolls >= kKeepaliveIdlePolls) {
                idlePolls = 0;
                if (!sock.sendAll(": keepalive\n\n"))
                    return;
            }
            continue;
        }
        idlePolls = 0;
        for (const CampaignRegistry::Frame &frame : frames)
            if (!sock.sendAll(*frame))
                return; // client went away
    }
}

const www::Asset *
findAsset(const std::string &path)
{
    const std::string wanted = path == "/" ? "/index.html" : path;
    for (std::size_t i = 0; i < www::kAssetCount; ++i)
        if (wanted == www::kAssets[i].path)
            return &www::kAssets[i];
    return nullptr;
}

/** Append the /api/store body: the store object, then at most
 *  @p limit digests. */
void
writeStoreListing(report::Text &out, const ResultStore &store,
                  std::uint64_t limit)
{
    out << "{\"store\":";
    writeStore(out, store.dir(), store.stats());
    out << ",\"blobs\":[";
    const auto blobs = store.list();
    const std::size_t n = std::min<std::uint64_t>(limit, blobs.size());
    for (std::size_t i = 0; i < n; ++i)
        out << (i ? "," : "") << "{\"digest\":\"" << blobs[i].first
            << "\",\"bytes\":" << blobs[i].second << '}';
    out << "],\"truncated\":" << (n < blobs.size() ? "true" : "false")
        << "}\n";
}

/** Append the /api/store/<digest> body; false (and nothing appended)
 *  when the blob is absent or corrupt. */
bool
writeStoreBlob(report::Text &out, const ResultStore &store,
               const std::string &digest)
{
    std::string key;
    RunSummary summary;
    if (!store.loadByDigest(digest, key, summary))
        return false;
    out << "{\"digest\":\"" << JsonEscaped{digest} << "\",\"key\":\""
        << JsonEscaped{key} << '"';
    writeSummaryMembers(out, summary, sim::MetricSelection());
    out << "}\n";
    return true;
}

} // namespace

void
Dashboard::handle(const HttpRequest &req, Socket &sock,
                  const std::atomic<bool> &stopping) const
{
    const bool head = req.method == "HEAD";
    const auto send = [&](int status, std::string_view type,
                          std::string_view body) {
        sock.sendAll(renderHttpResponse(status, type, body, head));
    };
    const auto sendError = [&](int status, std::string_view message) {
        sock.sendAll(renderHttpError(status, message, head));
    };
    const char *kJson = "application/json";
    report::Text body;

    if (req.method != "GET" && !head)
        return sendError(405, "only GET and HEAD are supported");

    const std::string &path = req.path;

    if (path == "/api/status") {
        // The status op's renderer, verbatim: one source of truth for
        // the counters whether they arrive over the protocol or HTTP.
        writeStatus(body, status_());
        return send(200, kJson, body.str());
    }
    if (path == "/api/campaigns") {
        registry_.writeSummaries(body);
        return send(200, kJson, body.str());
    }
    if (path.rfind("/api/campaign/", 0) == 0) {
        const std::string_view rest = std::string_view(path).substr(14);
        const std::size_t slash = rest.find('/');
        if (slash == std::string_view::npos || slash == 0
            || rest.substr(slash) != "/points")
            return sendError(404, "not found");
        std::uint64_t id = 0;
        if (report::parseUint(rest.substr(0, slash), id)
            && registry_.writePoints(id, body))
            return send(200, kJson, body.str());
        return sendError(404, "unknown campaign id");
    }
    if (path == "/api/events") {
        if (head) {
            sock.sendAll(kSseHead);
            return;
        }
        return serveEvents(sock, registry_, stopping);
    }
    if (path == "/api/store") {
        if (!store_)
            return sendError(404, "no result store configured");
        std::uint64_t limit = 0;
        const std::string limitText = req.queryParam("limit", "1000");
        if (!report::parseUint(limitText, limit))
            return sendError(400, "malformed limit \"" + limitText + "\"");
        writeStoreListing(body, *store_, limit);
        return send(200, kJson, body.str());
    }
    if (path.rfind("/api/store/", 0) == 0) {
        if (!store_)
            return sendError(404, "no result store configured");
        const std::string digest = path.substr(11);
        if (req.queryParam("raw") == "1") {
            std::string bytes;
            if (store_->readRawBlob(digest, bytes))
                return send(200, "text/plain; charset=utf-8", bytes);
        } else if (writeStoreBlob(body, *store_, digest)) {
            return send(200, kJson, body.str());
        }
        return sendError(404, "no such blob");
    }
    if (const www::Asset *asset = findAsset(path))
        return send(200, asset->contentType,
                    std::string_view(asset->data, asset->size));
    sendError(404, "not found");
}

} // namespace tdm::driver::service
