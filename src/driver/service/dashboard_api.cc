#include "driver/service/dashboard_api.hh"

#include <algorithm>

#include "driver/report/format.hh"
#include "driver/service/sse.hh"
#include "www_assets.hh"

namespace tdm::driver::service {

using report::JsonEscaped;
using report::JsonReal;

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

/** A protocol line's JSON object: the bus and the points endpoint
 *  carry it without the line terminator. */
std::string
eventJson(const std::string &line)
{
    return line.substr(0, line.size() - 1);
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
    bus_.publish("accepted", eventJson(line));
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
    std::string json = eventJson(line);
    bus_.publish("point", json);
    CampaignRecord *rec = findRecord(campaigns_, id);
    if (!rec)
        return;
    if (!job.ok())
        ++rec->failures;
    ++rec->served[static_cast<std::size_t>(job.source)];
    rec->points.emplace_back(index, std::move(json));
    report::Text progress;
    writeProgress(progress, *rec, job.doneAtMs);
    bus_.publish("progress", progress.str());
}

void
CampaignRegistry::done(std::uint64_t id,
                       const campaign::CampaignResult &result,
                       const std::string &line)
{
    std::lock_guard<std::mutex> lock(m_);
    bus_.publish("done", eventJson(line));
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

// ---- dashboard -----------------------------------------------------------

Dashboard::Dashboard(const CampaignRegistry &registry, ProgressBus &bus,
                     const ResultStore *store,
                     std::function<StatusInfo()> status)
    : registry_(registry), bus_(bus), store_(store),
      status_(std::move(status))
{
}

namespace {

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
            sock.sendAll(sseResponseHead());
            return;
        }
        serveSseSession(sock, bus_, stopping);
        return;
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
