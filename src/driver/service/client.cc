#include "driver/service/client.hh"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"

namespace tdm::driver::service {

using report::jsonEscape;

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
    StatusInfo info;
    auto u64 = [&](const char *key, std::uint64_t &field) {
        if (const JsonValue *v = r.find(key))
            field = static_cast<std::uint64_t>(v->asNumber());
    };
    u64("campaigns", info.campaigns);
    u64("points", info.points);
    if (const JsonValue *served = r.find("served"))
        for (std::size_t s = 0; s < campaign::kJobSourceCount; ++s)
            if (const JsonValue *v =
                    served->find(campaign::kJobSourceNames[s]))
                info.served[s] = static_cast<std::uint64_t>(v->asNumber());
    if (const JsonValue *v = r.find("cache_points"))
        info.cachePoints = static_cast<std::size_t>(v->asNumber());
    if (const JsonValue *v = r.find("inflight"))
        info.inflight = static_cast<std::size_t>(v->asNumber());
    if (const JsonValue *v = r.find("threads"))
        info.threads = static_cast<unsigned>(v->asNumber());
    if (const JsonValue *store = r.find("store");
        store && store->isObject()) {
        info.hasStore = true;
        if (const JsonValue *v = store->find("dir"))
            info.storeDir = v->asString();
        auto pick = [&](const char *key, std::uint64_t &field) {
            if (const JsonValue *v = store->find(key))
                field = static_cast<std::uint64_t>(v->asNumber());
        };
        if (const JsonValue *v = store->find("blobs"))
            info.storeBlobs = static_cast<std::size_t>(v->asNumber());
        pick("hits", info.storeHits);
        pick("misses", info.storeMisses);
        pick("stores", info.storeStores);
        pick("corrupt", info.storeCorrupt);
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

    std::ostringstream req;
    req << "{\"op\":\"submit\",\"name\":\"" << jsonEscape(c.name)
        << "\",\"metrics\":\"" << jsonEscape(c.metrics)
        << "\",\"points\":[";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        req << (i ? "," : "") << "{\"label\":\""
            << jsonEscape(c.points[i].label) << "\",\"spec\":{";
        bool first = true;
        for (const auto &[k, v] : specs[i].entries()) {
            req << (first ? "" : ",") << "\"" << jsonEscape(k)
                << "\":\"" << jsonEscape(v) << "\"";
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
                if (const JsonValue *v = event.find(n.name);
                    v && v->isNumber())
                    result.*n.member =
                        std::strtoull(v->text.c_str(), nullptr, 10);
            if (const JsonValue *v = event.find("threads"))
                result.threads =
                    static_cast<unsigned>(v->asNumber());
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
