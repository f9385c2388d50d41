#include "driver/service/dashboard_api.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "driver/report/json_writer.hh"
#include "driver/service/sse.hh"
#include "www_assets.hh"

namespace tdm::driver::service {

using report::JsonEscaped;
using report::jsonEscape;
using report::jsonHeadline;
using report::jsonNumber;
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
std::string
progressJson(const CampaignRecord &rec, double elapsed_ms)
{
    const std::size_t done = rec.points.size();
    const double eta =
        done < rec.total ? elapsed_ms / static_cast<double>(done)
                               * static_cast<double>(rec.total - done)
                         : 0.0;
    std::ostringstream os;
    os << "{\"id\":" << rec.id << ",\"done\":" << done
       << ",\"total\":" << rec.total << ",";
    writeServed(os, rec.served);
    os << ",\"elapsed_ms\":";
    jsonNumber(os, elapsed_ms);
    os << ",\"eta_ms\":";
    jsonNumber(os, eta);
    os << "}";
    return os.str();
}

void
campaignSummaryJson(std::ostream &os, const CampaignRecord &c)
{
    os << "{\"id\":" << c.id << ",\"name\":\"" << jsonEscape(c.name)
       << "\",\"total\":" << c.total << ",\"done\":" << c.points.size()
       << ",\"active\":" << (c.active ? "true" : "false")
       << ",\"failures\":" << c.failures << ",";
    writeServed(os, c.served);
    os << ",\"wall_ms\":";
    jsonNumber(os, c.wallMs);
    os << ",\"metrics_pattern\":\"" << jsonEscape(c.metricsPattern)
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
    bus_.publish("progress", progressJson(*rec, job.doneAtMs));
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

std::string
CampaignRegistry::summariesJson() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::ostringstream os;
    os << "{\"campaigns\":[";
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
        if (i)
            os << ",";
        campaignSummaryJson(os, campaigns_[i]);
    }
    os << "]}\n";
    return os.str();
}

bool
CampaignRegistry::pointsJson(std::uint64_t id, std::string &out) const
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
    std::ostringstream os;
    os << "{\"id\":" << rec->id << ",\"name\":\""
       << jsonEscape(rec->name) << "\",\"total\":" << rec->total
       << ",\"active\":" << (rec->active ? "true" : "false")
       << ",\"metrics_pattern\":\"" << jsonEscape(rec->metricsPattern)
       << "\",\"points\":[";
    for (std::size_t i = 0; i < order.size(); ++i)
        os << (i ? "," : "") << order[i]->second;
    os << "]}\n";
    out = os.str();
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

std::string
Dashboard::statusJson() const
{
    // The status op's renderer, verbatim: one source of truth for the
    // counters whether they arrive over the protocol or over HTTP.
    std::ostringstream os;
    writeStatus(os, status_());
    return os.str();
}

namespace {

std::string
errorJson(const std::string &message)
{
    return "{\"error\":\"" + jsonEscape(message) + "\"}\n";
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

} // namespace

std::string
Dashboard::storeJson(std::size_t limit) const
{
    std::ostringstream os;
    if (!store_) {
        os << "{\"store\":null,\"blobs\":[]}\n";
        return os.str();
    }
    const StoreStats stats = store_->stats();
    const auto blobs = store_->list();
    os << "{\"store\":{\"dir\":\"" << jsonEscape(store_->dir())
       << "\",\"blobs\":" << stats.blobs << ",\"bytes\":" << stats.bytes
       << ",\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
       << ",\"stores\":" << stats.stores
       << ",\"corrupt\":" << stats.corrupt << "},\"blobs\":[";
    const std::size_t n = std::min(limit, blobs.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            os << ",";
        os << "{\"digest\":\"" << blobs[i].first
           << "\",\"bytes\":" << blobs[i].second << "}";
    }
    os << "],\"truncated\":" << (n < blobs.size() ? "true" : "false")
       << "}\n";
    return os.str();
}

bool
Dashboard::storeBlobJson(const std::string &digest,
                         std::string &out) const
{
    if (!store_)
        return false;
    std::string key;
    RunSummary summary;
    if (!store_->loadByDigest(digest, key, summary))
        return false;
    report::Text os;
    os << "{\"digest\":\"" << JsonEscaped{digest} << "\",\"key\":\""
       << JsonEscaped{key} << '"';
    for (const HeadlineField &f : kHeadlineFields) {
        os << ",\"" << f.name << "\":";
        jsonHeadline(os, summary, f);
    }
    os << ",\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : summary.metrics().entries()) {
        os << (first ? "" : ",") << "\"" << JsonEscaped{k} << "\":"
           << JsonReal{v};
        first = false;
    }
    os << "}}\n";
    out = os.str();
    return true;
}

void
Dashboard::handle(const HttpRequest &req, Socket &sock,
                  const std::atomic<bool> &stopping) const
{
    const bool head = req.method == "HEAD";
    const auto send = [&](int status, const std::string &type,
                          const std::string &body) {
        sock.sendAll(renderHttpResponse(status, type, body, head));
    };
    const char *kJson = "application/json";

    if (req.method != "GET" && !head) {
        send(405, kJson, errorJson("only GET and HEAD are supported"));
        return;
    }

    const std::string &path = req.path;

    if (path == "/api/status") {
        send(200, kJson, statusJson());
        return;
    }
    if (path == "/api/campaigns") {
        send(200, kJson, registry_.summariesJson());
        return;
    }
    if (path.rfind("/api/campaign/", 0) == 0) {
        const std::string rest = path.substr(14);
        const std::size_t slash = rest.find('/');
        if (slash != std::string::npos &&
            rest.substr(slash) == "/points" && slash > 0) {
            const std::string idText = rest.substr(0, slash);
            char *end = nullptr;
            const unsigned long long id =
                std::strtoull(idText.c_str(), &end, 10);
            std::string body;
            if (end && *end == '\0' &&
                registry_.pointsJson(id, body)) {
                send(200, kJson, body);
                return;
            }
            send(404, kJson, errorJson("unknown campaign id"));
            return;
        }
        send(404, kJson, errorJson("not found"));
        return;
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
        if (!store_) {
            send(404, kJson, errorJson("no result store configured"));
            return;
        }
        std::size_t limit = 1000;
        const std::string limitText = req.queryParam("limit");
        if (!limitText.empty()) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(limitText.c_str(), &end, 10);
            if (end && *end == '\0')
                limit = static_cast<std::size_t>(v);
        }
        send(200, kJson, storeJson(limit));
        return;
    }
    if (path.rfind("/api/store/", 0) == 0) {
        const std::string digest = path.substr(11);
        if (!store_) {
            send(404, kJson, errorJson("no result store configured"));
            return;
        }
        if (req.queryParam("raw") == "1") {
            std::string bytes;
            if (store_->readRawBlob(digest, bytes)) {
                send(200, "text/plain; charset=utf-8", bytes);
                return;
            }
        } else {
            std::string body;
            if (storeBlobJson(digest, body)) {
                send(200, kJson, body);
                return;
            }
        }
        send(404, kJson, errorJson("no such blob"));
        return;
    }
    if (const www::Asset *asset = findAsset(path)) {
        send(200, asset->contentType,
             std::string(asset->data, asset->size));
        return;
    }
    send(404, kJson, errorJson("not found"));
}

} // namespace tdm::driver::service
