/**
 * @file
 * C++ client for the campaign service: turns a local Campaign into a
 * submit request, streams the responses, and reassembles a
 * CampaignResult — so campaign_run --server produces the same reports
 * (JSON/CSV/summary line) whether points ran locally or were served.
 *
 * Points are submitted by full canonical spec (every binding key), so
 * the server reconstructs bit-identical experiments and fingerprints
 * regardless of either side's defaults. The submit line is written and
 * every response read by protocol.hh (writeSubmit, decodePointEvent,
 * decodeEvent), beside the server's own writers and reader.
 */

#ifndef TDM_DRIVER_SERVICE_CLIENT_HH
#define TDM_DRIVER_SERVICE_CLIENT_HH

#include <string>

#include "driver/campaign/engine.hh"
#include "driver/service/protocol.hh"
#include "driver/service/socket.hh"

namespace tdm::driver::service {

/** A connected service client. Not thread-safe (one request at a
 *  time, like the protocol). */
class ServiceClient
{
  public:
    /** Connect to "unix:PATH" / "tcp:HOST:PORT"; throws
     *  std::runtime_error on connect failure. */
    explicit ServiceClient(const std::string &address);

    /**
     * Submit @p c and stream results. Returns the reassembled
     * CampaignResult (jobs in point order; dedup counters from the
     * server's done event). @p onJob, when set, fires per streamed
     * point in arrival order. Throws std::runtime_error on protocol
     * errors or a dropped connection; server-side per-point failures
     * come back inside the jobs, like a local run.
     */
    campaign::CampaignResult
    submit(const campaign::Campaign &c,
           const campaign::JobCallback &onJob = nullptr);

    /** Round-trip a ping; false when the server is unreachable. */
    bool ping();

    /** Server counters. Throws on protocol errors. */
    StatusInfo status();

  private:
    /** Send one line, read one response event. */
    ServiceEvent roundTrip(const std::string &request);

    Socket sock_;
    std::string address_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_CLIENT_HH
