/**
 * @file
 * The dashboard: campaign registry + HTTP route handlers.
 *
 * The CampaignRegistry is the server-side memory behind the JSON API
 * and the one live stream: every event of every submit the protocol
 * server accepts is recorded here, and the newest kStreamEvents of
 * them stay in a ring that every /api/events session reads through
 * its own cursor. Point events are kept exactly as the submitting
 * client got them, so a browser that arrives mid-sweep (or after it)
 * can render the whole picture, not just the events it happened to
 * catch on the SSE stream, and /api/campaign/<id>/points serves
 * metric values byte-identical to the campaign_run file export.
 *
 * The Dashboard maps HTTP requests onto that registry, the result
 * store (browser), and the embedded front end:
 *
 *     /                       the dashboard page (embedded www/)
 *     /api/status             server counters (the status op's JSON)
 *     /api/campaigns          every known campaign, summarized
 *     /api/campaign/<id>/points   every point event, in point order
 *     /api/events             live SSE stream (accepted/point/
 *                             progress/done)
 *     /api/store              store stats + digest listing
 *     /api/store/<digest>     one decoded blob (?raw=1: exact bytes)
 *
 * Everything is read-only: the dashboard cannot submit, mutate, or
 * shut down anything, which is what makes serving it next to the
 * control protocol safe.
 */

#ifndef TDM_DRIVER_SERVICE_DASHBOARD_API_HH
#define TDM_DRIVER_SERVICE_DASHBOARD_API_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/report/format.hh"
#include "driver/service/http_server.hh"
#include "driver/service/protocol.hh"
#include "driver/service/socket.hh"
#include "driver/service/store.hh"

namespace tdm::driver::service {

/**
 * Frame one SSE message: "event: <name>\n" then one "data:" line per
 * line of @p data (multi-line payloads must be split per the SSE
 * grammar or the browser would mis-frame them), then a blank line.
 * An empty @p name omits the event line ("message" default type).
 */
std::string sseFrame(std::string_view name, std::string_view data);

/** One campaign, as the dashboard remembers it. */
struct CampaignRecord
{
    std::uint64_t id = 0; ///< the protocol's accepted/point/done id
    std::string name;
    std::size_t total = 0; ///< points accepted
    std::string metricsPattern;
    bool active = true; ///< still streaming (no done event yet)
    campaign::SourceCounts served{}; ///< points so far, per source
    std::size_t failures = 0;
    double wallMs = 0.0; ///< set by the done event
    /** (point index, point event JSON) in completion order; the JSON
     *  is the protocol line without its '\n'. */
    std::vector<std::pair<std::size_t, std::string>> points;
};

/**
 * Thread-safe registry of every campaign the server has streamed, and
 * the live event stream. Appended to by protocol-connection threads,
 * read by dashboard threads. Finished campaigns beyond kMaxFinished
 * are evicted oldest first so a long-lived daemon's memory stays
 * bounded; active campaigns are never evicted.
 *
 * Each recording call takes the event's protocol line (as
 * writeAccepted / writePoint / writeDone rendered it for the socket)
 * and appends it to the stream under the event's name; point() also
 * appends the dashboard-only "progress" event. The registry's two
 * bodies, writeSummaries (/api/campaigns) and writePoints
 * (/api/campaign/<id>/points), append to a report::Text like the
 * protocol writers, and share writeServed with the status line.
 *
 * The stream is a ring of the newest kStreamEvents SSE frames, each
 * framed once and shared by every Session that reads it. Recording
 * never waits on a reader: a session that falls more than the ring
 * behind loses its oldest unread events (freshest data wins — this is
 * a live view, not a journal), each counted as dropped when the ring
 * overwrites it. The ring keeps frames only while a session is open.
 */
class CampaignRegistry
{
  public:
    /** Finished campaigns retained for browsing. */
    static constexpr std::size_t kMaxFinished = 128;
    /** Live-stream events retained for sessions that fall behind. */
    static constexpr std::size_t kStreamEvents = 256;

    /** One SSE frame of the stream, shared by every session. */
    using Frame = std::shared_ptr<const std::string>;

    /**
     * A cursor into the stream: one per /api/events session, used
     * from one thread. It starts at the current end, so it sees only
     * events recorded after it opened.
     */
    class Session
    {
      public:
        explicit Session(CampaignRegistry &registry);
        ~Session();
        Session(const Session &) = delete;
        Session &operator=(const Session &) = delete;

        /**
         * Wait up to @p timeout for events at or after the cursor,
         * then replace @p out with every one the ring still holds,
         * oldest first, and move past them. False once the stream is
         * closed and nothing is left to read.
         */
        bool next(std::vector<Frame> &out,
                  std::chrono::milliseconds timeout);

      private:
        friend class CampaignRegistry;
        CampaignRegistry &registry_;
        std::uint64_t cursor_; ///< sequence number of the next event
    };

    void accepted(std::uint64_t id, const campaign::Campaign &c,
                  const std::string &line);
    void point(std::uint64_t id, const campaign::JobResult &job,
               std::size_t index, const std::string &line);
    void done(std::uint64_t id, const campaign::CampaignResult &result,
              const std::string &line);

    /** Append the /api/campaigns body: every record summarized,
     *  id-ascending. Rendered under the lock, so no record (or its
     *  retained point events) is copied. */
    void writeSummaries(report::Text &out) const;

    /** Append the /api/campaign/<id>/points body: the record's point
     *  events in point order. Rendered under the lock from sorted
     *  pointers, so the record is not copied. False (and nothing
     *  appended) when the id is unknown. */
    bool writePoints(std::uint64_t id, report::Text &out) const;

    /** Close the stream: every session's next() returns what is left,
     *  then false; sessions opened later are closed from the start,
     *  and later events are not streamed (shutdown). */
    void close();

    /** Fill @p info's sseSubscribers (open sessions), eventsPublished
     *  and eventsDropped (over every session, past and present). */
    void streamStatus(StatusInfo &info) const;

  private:
    /** Append one event to the stream; m_ must be held. */
    void publish(std::string_view name, std::string_view json);

    mutable std::mutex m_;
    std::vector<CampaignRecord> campaigns_; ///< id-ascending

    std::condition_variable streamCv_; ///< an event or close()
    std::array<Frame, kStreamEvents> ring_; ///< event n at n % size
    std::uint64_t published_ = 0; ///< events streamed so far
    std::uint64_t dropped_ = 0;
    std::vector<Session *> sessions_; ///< open sessions
    bool closed_ = false;
};

/**
 * The HTTP route table. Stateless apart from its references: the
 * registry is owned by the CampaignServer, the store is the server's
 * (may be null), and @p status is a callback into the server so
 * /api/status and the protocol's status op render the exact same
 * counters, through writeStatus. /api/events opens a registry
 * Session, /api/store shares writeStore with the status line, a
 * stored blob's body shares writeSummaryMembers with the point event,
 * and every 4xx is renderHttpError's body.
 */
class Dashboard
{
  public:
    Dashboard(CampaignRegistry &registry, const ResultStore *store,
              std::function<StatusInfo()> status);

    /** HttpServer::Handler entry point. */
    void handle(const HttpRequest &req, Socket &sock,
                const std::atomic<bool> &stopping) const;

  private:
    CampaignRegistry &registry_;
    const ResultStore *store_; ///< may be null (no --store)
    std::function<StatusInfo()> status_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_DASHBOARD_API_HH
