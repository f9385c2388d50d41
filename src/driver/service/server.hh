/**
 * @file
 * The campaign server: many clients, one engine, one store.
 *
 * Every client connection gets its own handler thread, but all
 * submissions run on one shared CampaignEngine, so deduplication is
 * global across clients through the engine's claim table: points hit
 * a finished claim in memory, then the shared on-disk store, and
 * identical points being resolved *right now* for another client are
 * joined in flight instead of re-run. N clients sweeping overlapping
 * grids therefore cost exactly one simulation per distinct
 * canonical-spec fingerprint — the service invariant the stress tests
 * pin.
 *
 * Per-point results stream to the submitting client as the engine
 * resolves them, tagged with where each summary came from
 * (simulated / memory / disk / inflight).
 *
 * With --http every event is also recorded in the CampaignRegistry,
 * whose one live stream feeds the dashboard's SSE sessions. Protocol
 * connections run on the same ConnectionServer as the HTTP
 * dashboard, so both transports share one connection lifecycle.
 * Progress lines go through sim::inform, so the log level decides
 * whether they print.
 */

#ifndef TDM_DRIVER_SERVICE_SERVER_HH
#define TDM_DRIVER_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "driver/campaign/engine.hh"
#include "driver/service/dashboard_api.hh"
#include "driver/service/http_server.hh"
#include "driver/service/protocol.hh"
#include "driver/service/socket.hh"
#include "driver/service/store.hh"

namespace tdm::driver::service {

struct ServerOptions
{
    campaign::EngineOptions engine;
    /** Persistent store directory; empty runs memory-only. */
    std::string storeDir;
    /**
     * HTTP dashboard address ("tcp:127.0.0.1:0", "unix:PATH"); empty
     * disables the dashboard entirely — no HTTP threads, no campaign
     * registry or live stream, no per-event work. Loopback/unix only,
     * like the protocol listener.
     */
    std::string httpAddr;
};

/**
 * The server. Construction binds the listener (and opens the store);
 * serve() accepts and handles clients until a shutdown request or
 * stop(). Thread-safe counters feed the status op.
 */
class CampaignServer
{
  public:
    /** Throws std::runtime_error when the address cannot be bound or
     *  the store cannot be opened. */
    CampaignServer(const Address &addr, ServerOptions opts);
    /** Stops and joins, like the end of serve(); a serve() running on
     *  another thread must have returned. */
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** The bound address (ephemeral tcp ports resolved). */
    const Address &address() const { return conns_.address(); }

    /** Accept loop; returns once stopped, after joining every
     *  protocol and dashboard connection thread. */
    void serve();

    /** Request the stop: unblocks accept(), shuts down live
     *  connections, closes the live stream. Never joins, so it is
     *  callable from any thread, a connection handler included; the
     *  joins happen when serve() returns. */
    void stop();

    /** Protocol connections not yet joined (live plus finished ones
     *  awaiting the next accept); 0 once serve() has returned. */
    std::size_t trackedConnections() const
    {
        return conns_.trackedConnections();
    }

    /** Aggregate counters (for status and the daemon's exit report). */
    StatusInfo status() const;

    /** The dashboard's bound address; nullptr when --http is off. */
    const Address *httpAddress() const
    {
        return http_ ? &http_->address() : nullptr;
    }

  private:
    /** stop(), then join every protocol and dashboard connection
     *  thread: both kinds call status(), which reads the other's
     *  members, so neither may outlive the server. */
    void stopAndJoin();
    void handleClient(Socket &sock, const std::atomic<bool> &stopping);
    void handleSubmit(Socket &sock, const SubmitRequest &req);

    ServerOptions opts_;
    std::unique_ptr<ResultStore> store_; ///< before engine_ (outlives)
    std::unique_ptr<campaign::CampaignEngine> engine_;
    std::chrono::steady_clock::time_point started_;

    // Dashboard plumbing, all null without --http. Declaration order
    // is destruction-safety: http_ (threads calling into the others)
    // is declared after them so it dies first.
    std::unique_ptr<CampaignRegistry> registry_;
    std::unique_ptr<Dashboard> dashboard_;
    std::unique_ptr<HttpServer> http_;

    std::atomic<std::uint64_t> nextId_{1};

    mutable std::mutex statsMutex_;
    /** Submit and per-source point totals; status() fills the rest. */
    StatusInfo served_;

    /** Protocol connections; last, so its threads (which use every
     *  member above) are joined before anything else is destroyed. */
    ConnectionServer conns_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_SERVER_HH
