/**
 * @file
 * Dependency-free embedded HTTP/1.1 server for the campaign
 * dashboard.
 *
 * Deliberately small: the dashboard needs GET (and HEAD) on a handful
 * of routes plus one long-lived SSE stream, so this implements exactly
 * that — no bodies, no chunked transfer, no keep-alive (every response
 * carries "Connection: close"; browsers reconnect transparently and
 * the SSE stream holds its one connection open anyway). Like the
 * protocol socket it binds loopback or unix only, and it runs on the
 * same ConnectionServer.
 *
 * Request parsing is incremental (HttpParser::feed) so it can be
 * unit-tested against partial reads, oversized headers, and malformed
 * request lines without a socket in sight. Hostile input degrades to a
 * 4xx/5xx status, never to unbounded buffering: the whole request head
 * is capped at kMaxRequestBytes.
 */

#ifndef TDM_DRIVER_SERVICE_HTTP_SERVER_HH
#define TDM_DRIVER_SERVICE_HTTP_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "driver/service/socket.hh"

namespace tdm::driver::service {

/** One parsed request head (this server accepts no bodies). */
struct HttpRequest
{
    std::string method; ///< as sent (uppercase tokens expected)
    std::string target; ///< raw request target ("/api/x?y=1")
    std::string path;   ///< percent-decoded path ("/api/x")
    /** Decoded query parameters in order of appearance. */
    std::vector<std::pair<std::string, std::string>> query;
    /** Header fields, names lowercased, in order of appearance. */
    std::vector<std::pair<std::string, std::string>> headers;

    /** First header value for @p name (lowercase); nullptr if
     *  absent. */
    const std::string *header(const std::string &name) const;

    /** First query value for @p name, @p dflt when absent. */
    std::string queryParam(const std::string &name,
                           const std::string &dflt = "") const;
};

/**
 * Incremental request-head parser. Feed it bytes as they arrive;
 * Done/Error are terminal. On Error, status()/reason() describe the
 * HTTP error response to send (400 bad request, 431 oversized head,
 * 505 unsupported version).
 */
class HttpParser
{
  public:
    enum class State { NeedMore, Done, Error };

    /** Cap on the request head (request line + headers + CRLFCRLF). */
    static constexpr std::size_t kMaxRequestBytes = 16384;

    State feed(const char *data, std::size_t n);

    State state() const { return state_; }
    const HttpRequest &request() const { return req_; }
    int status() const { return status_; }
    const std::string &reason() const { return reason_; }

  private:
    State fail(int status, const std::string &reason);
    State tryParse();

    std::string buf_;
    HttpRequest req_;
    State state_ = State::NeedMore;
    int status_ = 400;
    std::string reason_;
};

/** Percent-decode @p in ('+' also decodes to space when @p plus_space).
 *  Returns false on a malformed %-escape. */
bool percentDecode(const std::string &in, std::string &out,
                   bool plus_space);

/** Standard reason phrase for @p status ("OK", "Not Found", ...). */
const char *httpStatusReason(int status);

/** Render a complete response head + body ("Connection: close",
 *  Content-Length set; body omitted when @p head_only). */
std::string renderHttpResponse(int status, std::string_view content_type,
                               std::string_view body,
                               bool head_only = false);

/** Render a complete error response: the JSON body
 *  {"error":"<message>"} that every 4xx and 5xx carries. */
std::string renderHttpError(int status, std::string_view message,
                            bool head_only = false);

/**
 * The dashboard's HTTP transport: the shared ConnectionServer running
 * on its own accept thread, with a connection handler that reads and
 * parses one request head under a deadline, answers 4xx/408 itself,
 * and passes a parsed request to the route handler. The route handler
 * must write a complete response; long-lived handlers (SSE) must poll
 * @p stopping to exit on shutdown. The connection closes when the
 * handler returns.
 */
class HttpServer
{
  public:
    using Handler = std::function<void(
        const HttpRequest &req, Socket &sock,
        const std::atomic<bool> &stopping)>;

    /** A client gets this long to deliver its complete request head;
     *  past it the connection is answered 408 and closed (an idle
     *  half-open connection must not pin a thread until shutdown). */
    static constexpr int kHeadReadTimeoutSec = 10;

    /** Bind @p addr and start the accept thread; throws
     *  std::runtime_error when the address cannot be bound.
     *  @p head_timeout_sec overrides the request-head deadline
     *  (tests use a short one; <= 0 falls back to the default). */
    HttpServer(const Address &addr, Handler handler,
               int head_timeout_sec = kHeadReadTimeoutSec);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** The bound address (ephemeral tcp ports resolved). */
    const Address &address() const { return conns_.address(); }

    /** Stop accepting and unblock every live connection; never joins.
     *  Callable from any thread. */
    void requestStop() { conns_.requestStop(); }

    /** requestStop(), then join the accept and connection threads.
     *  Idempotent; callable from any thread but this server's
     *  handlers. */
    void stop();

    /** Requests served (any status). */
    std::uint64_t requests() const { return requests_.load(); }

    /** See ConnectionServer::trackedConnections(). */
    std::size_t trackedConnections() const
    {
        return conns_.trackedConnections();
    }

  private:
    void serveConnection(Socket &sock,
                         const std::atomic<bool> &stopping);

    Handler handler_;
    const int headTimeoutSec_;
    std::atomic<std::uint64_t> requests_{0};
    ConnectionServer conns_;
    std::once_flag stopOnce_;
    std::thread acceptThread_; ///< last: started after conns_ exists
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_HTTP_SERVER_HH
