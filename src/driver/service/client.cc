#include "driver/service/client.hh"

#include <stdexcept>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/format.hh"

namespace tdm::driver::service {

ServiceClient::ServiceClient(const std::string &address)
    : sock_(connectTo(parseAddress(address))), address_(address)
{
}

ServiceEvent
ServiceClient::roundTrip(const std::string &request)
{
    if (!sock_.sendAll(request))
        throw std::runtime_error("campaign service " + address_ +
                                 ": send failed");
    std::string line;
    if (!sock_.readLine(line))
        throw std::runtime_error("campaign service " + address_ +
                                 ": connection closed");
    ServiceEvent response;
    std::string error;
    if (!decodeEvent(line, response, error))
        throw std::runtime_error("campaign service " + address_ +
                                 ": malformed response: " + error);
    return response;
}

bool
ServiceClient::ping()
{
    try {
        return roundTrip("{\"op\":\"ping\"}\n").event == "pong";
    } catch (const std::exception &) {
        return false;
    }
}

StatusInfo
ServiceClient::status()
{
    ServiceEvent r = roundTrip("{\"op\":\"status\"}\n");
    if (r.event != "status")
        throw std::runtime_error("campaign service " + address_ +
                                 ": unexpected status response");
    return std::move(r.status);
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
    writeSubmit(req, c, specs);
    if (!sock_.sendAll(req.str()))
        throw std::runtime_error("campaign service " + address_ +
                                 ": send failed");

    std::vector<campaign::JobResult> jobs(c.points.size());
    std::vector<bool> received(c.points.size(), false);
    std::size_t receivedCount = 0;

    std::string line;
    while (sock_.readLine(line)) {
        if (line.empty())
            continue;
        campaign::JobResult job;
        std::size_t index = 0, total = 0;
        if (decodePointEvent(line, job, index, total)) {
            if (index >= jobs.size())
                throw std::runtime_error("campaign service " +
                                         address_ +
                                         ": malformed point event");
            // Move the decoded job and its spec into place; a repeated
            // index takes the spec back from the job it replaces.
            campaign::JobResult &slot = jobs[index];
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
        ServiceEvent event;
        std::string error;
        if (!decodeEvent(line, event, error))
            throw std::runtime_error("campaign service " + address_ +
                                     ": malformed event: " + error);
        if (event.event == "accepted")
            continue;
        if (event.event == "error")
            throw std::runtime_error("campaign service " + address_ +
                                     ": " + event.message);
        if (event.event == "point")
            throw std::runtime_error("campaign service " + address_ +
                                     ": malformed point event");
        if (event.event == "done") {
            if (receivedCount != jobs.size())
                throw std::runtime_error(
                    "campaign service " + address_ + ": done after " +
                    std::to_string(receivedCount) + "/" +
                    std::to_string(jobs.size()) + " points");
            // The done event's totals, threads and wall-clock, around
            // this side's name, selection and jobs.
            campaign::CampaignResult &result = event.done;
            result.name = c.name;
            result.metricsPattern = c.metrics;
            result.jobs = std::move(jobs);
            return std::move(result);
        }
        throw std::runtime_error("campaign service " + address_ +
                                 ": unexpected event \"" + event.event +
                                 "\"");
    }
    throw std::runtime_error("campaign service " + address_ +
                             ": connection closed mid-campaign");
}

} // namespace tdm::driver::service
