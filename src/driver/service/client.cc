#include "driver/service/client.hh"

#include <stdexcept>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/format.hh"

namespace tdm::driver::service {

using report::JsonEscaped;

namespace {

/** @p v's exact unsigned integer value, read from its literal; @p out
 *  is left alone when @p v is absent or not a plain integer. */
template <typename T>
void
readUint(const JsonValue *v, T &out)
{
    std::uint64_t n = 0;
    if (v && v->isNumber() && report::parseUint(v->text, n))
        out = static_cast<T>(n);
}

} // namespace

ServiceClient::ServiceClient(const std::string &address)
    : sock_(connectTo(parseAddress(address))), address_(address)
{
}

JsonValue
ServiceClient::roundTrip(const std::string &request)
{
    if (!sock_.sendAll(request))
        throw std::runtime_error("campaign service " + address_ +
                                 ": send failed");
    std::string line;
    if (!sock_.readLine(line))
        throw std::runtime_error("campaign service " + address_ +
                                 ": connection closed");
    JsonValue response;
    std::string error;
    if (!parseJson(line, response, error))
        throw std::runtime_error("campaign service " + address_ +
                                 ": malformed response: " + error);
    return response;
}

bool
ServiceClient::ping()
{
    try {
        const JsonValue r = roundTrip("{\"op\":\"ping\"}\n");
        const JsonValue *ev = r.find("event");
        return ev && ev->asString() == "pong";
    } catch (const std::exception &) {
        return false;
    }
}

StatusInfo
ServiceClient::status()
{
    const JsonValue r = roundTrip("{\"op\":\"status\"}\n");
    const JsonValue *ev = r.find("event");
    if (!ev || ev->asString() != "status")
        throw std::runtime_error("campaign service " + address_ +
                                 ": unexpected status response");
    // Every member writeStatus writes.
    StatusInfo info;
    readUint(r.find("campaigns"), info.campaigns);
    readUint(r.find("points"), info.points);
    if (const JsonValue *served = r.find("served"))
        for (std::size_t s = 0; s < campaign::kJobSourceCount; ++s)
            readUint(served->find(campaign::kJobSourceNames[s]),
                     info.served[s]);
    readUint(r.find("cache_points"), info.cachePoints);
    readUint(r.find("inflight"), info.inflight);
    readUint(r.find("threads"), info.threads);
    if (const JsonValue *v = r.find("uptime_ms"))
        info.uptimeMs = v->asNumber();
    if (const JsonValue *store = r.find("store");
        store && store->isObject()) {
        info.hasStore = true;
        if (const JsonValue *v = store->find("dir"))
            info.storeDir = v->asString();
        readUint(store->find("blobs"), info.store.blobs);
        readUint(store->find("bytes"), info.store.bytes);
        readUint(store->find("hits"), info.store.hits);
        readUint(store->find("misses"), info.store.misses);
        readUint(store->find("stores"), info.store.stores);
        readUint(store->find("corrupt"), info.store.corrupt);
    }
    if (const JsonValue *http = r.find("http"); http && http->isObject()) {
        info.hasHttp = true;
        if (const JsonValue *v = http->find("addr"))
            info.httpAddr = v->asString();
        readUint(http->find("requests"), info.httpRequests);
        readUint(http->find("sse_subscribers"), info.sseSubscribers);
        readUint(http->find("events_published"), info.busPublished);
        readUint(http->find("events_dropped"), info.busDropped);
    }
    return info;
}

campaign::CampaignResult
ServiceClient::submit(const campaign::Campaign &c,
                      const campaign::JobCallback &onJob)
{
    // Canonical specs, computed once: they parameterize the request
    // and are grafted back onto the streamed jobs (point events do not
    // carry the spec map — both sides can derive it).
    std::vector<sim::Config> specs;
    specs.reserve(c.points.size());
    for (const SweepPoint &p : c.points)
        specs.push_back(campaign::canonicalConfig(p.exp));

    report::Text req;
    req << "{\"op\":\"submit\",\"name\":\"" << JsonEscaped{c.name}
        << "\",\"metrics\":\"" << JsonEscaped{c.metrics}
        << "\",\"points\":[";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        req << (i ? "," : "") << "{\"label\":\""
            << JsonEscaped{c.points[i].label} << "\",\"spec\":{";
        bool first = true;
        for (const auto &[k, v] : specs[i].entries()) {
            req << (first ? "\"" : ",\"") << JsonEscaped{k} << "\":\""
                << JsonEscaped{v} << '"';
            first = false;
        }
        req << "}}";
    }
    req << "]}\n";

    if (!sock_.sendAll(req.str()))
        throw std::runtime_error("campaign service " + address_ +
                                 ": send failed");

    campaign::CampaignResult result;
    result.name = c.name;
    result.metricsPattern = c.metrics;
    result.jobs.resize(c.points.size());
    std::vector<bool> received(c.points.size(), false);
    std::size_t receivedCount = 0;

    std::string line;
    while (sock_.readLine(line)) {
        if (line.empty())
            continue;
        campaign::JobResult job;
        std::size_t index = 0, total = 0;
        if (decodePointEvent(line, job, index, total)) {
            if (index >= result.jobs.size())
                throw std::runtime_error("campaign service " +
                                         address_ +
                                         ": malformed point event");
            // Move the decoded job and its spec into place; a repeated
            // index takes the spec back from the job it replaces.
            campaign::JobResult &slot = result.jobs[index];
            sim::Config spec = std::move(received[index] ? slot.spec
                                                         : specs[index]);
            if (!received[index]) {
                received[index] = true;
                ++receivedCount;
            }
            slot = std::move(job);
            slot.spec = std::move(spec);
            if (onJob)
                onJob(slot, index, total);
            continue;
        }
        JsonValue event;
        std::string error;
        if (!parseJson(line, event, error))
            throw std::runtime_error("campaign service " + address_ +
                                     ": malformed event: " + error);
        const JsonValue *ev = event.find("event");
        const std::string kind = ev ? ev->asString() : "";
        if (kind == "accepted")
            continue;
        if (kind == "error") {
            const JsonValue *msg = event.find("message");
            throw std::runtime_error(
                "campaign service " + address_ + ": " +
                (msg ? msg->asString() : "unknown error"));
        }
        if (kind == "point")
            throw std::runtime_error("campaign service " + address_ +
                                     ": malformed point event");
        if (kind == "done") {
            for (const campaign::CampaignTotal &n :
                 campaign::kCampaignTotals)
                readUint(event.find(n.name), result.*n.member);
            readUint(event.find("threads"), result.threads);
            if (const JsonValue *v = event.find("wall_ms"))
                result.wallMs = v->asNumber();
            if (receivedCount != result.jobs.size())
                throw std::runtime_error(
                    "campaign service " + address_ + ": done after " +
                    std::to_string(receivedCount) + "/" +
                    std::to_string(result.jobs.size()) + " points");
            return result;
        }
        throw std::runtime_error("campaign service " + address_ +
                                 ": unexpected event \"" + kind +
                                 "\"");
    }
    throw std::runtime_error("campaign service " + address_ +
                             ": connection closed mid-campaign");
}

} // namespace tdm::driver::service
