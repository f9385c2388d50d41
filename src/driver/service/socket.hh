/**
 * @file
 * Local-only stream sockets for the campaign service.
 *
 * Addresses are "unix:PATH" or "tcp:HOST:PORT" with HOST restricted to
 * the loopback interface — the service deliberately cannot listen on a
 * routable address (it executes submitted experiment specs; exposure
 * beyond the machine is an explicit non-goal). "tcp:127.0.0.1:0" binds
 * an ephemeral port, reported by Listener::address() — this is how
 * tests and CI avoid port collisions.
 *
 * Socket wraps a connected fd with line-buffered reads (the protocol
 * is line-delimited) and EINTR/partial-write-safe sends; writes use
 * MSG_NOSIGNAL so a vanished peer surfaces as an error, not SIGPIPE.
 *
 * ConnectionServer is the one accept/connection layer both transports
 * (the line-JSON protocol and the HTTP dashboard) run on: a Listener
 * plus one thread per live connection running a transport handler.
 */

#ifndef TDM_DRIVER_SERVICE_SOCKET_HH
#define TDM_DRIVER_SERVICE_SOCKET_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace tdm::driver::service {

/** A parsed service address. */
struct Address
{
    bool isUnix = false;
    std::string path;        ///< unix socket path
    std::uint16_t port = 0;  ///< tcp port (0 = ephemeral)

    /** Canonical rendering ("unix:/run/x.sock", "tcp:127.0.0.1:7077"). */
    std::string display() const;
};

/** Parse "unix:PATH" / "tcp:HOST:PORT"; throws std::runtime_error on a
 *  malformed or non-loopback address. */
Address parseAddress(const std::string &text);

/** A connected stream socket (move-only RAII fd). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket &&other) noexcept;
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    /** Cap on one line readLine() buffers. The largest in-repo lines
     *  are ServiceClient submits of full canonical specs, ~1.7 KiB per
     *  point: 122,666 bytes for hostbench's 72-point sweep_fork grid,
     *  152,967 for the 90-point fig12. */
    static constexpr std::size_t kMaxLineBytes = 4u << 20;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Write all of @p data; false on any send error. */
    bool sendAll(const std::string &data);

    /** Next '\n'-terminated line (terminator stripped); false on EOF,
     *  on error, or on a line longer than kMaxLineBytes (then
     *  lineTooLong() is true and the stream cannot be resynced). A
     *  final unterminated line is returned as-is. */
    bool readLine(std::string &line);

    /** The last readLine() failed on a line over kMaxLineBytes. */
    bool lineTooLong() const { return tooLong_; }

    /** Raw read of up to @p cap bytes (EINTR-safe). Returns the byte
     *  count, 0 on EOF, -1 on error. Used by the HTTP layer, whose
     *  framing is not line-delimited; do not mix with readLine. */
    long readSome(char *buf, std::size_t cap);

    void close();

  private:
    int fd_ = -1;
    std::string buf_; ///< bytes read past the last returned line
    bool tooLong_ = false;
};

/** A bound, listening socket. */
class Listener
{
  public:
    /** Bind and listen; throws std::runtime_error on failure. A unix
     *  listener removes a stale socket file at its path first, and
     *  unlinks the path on destruction. */
    explicit Listener(const Address &addr);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Accept one connection (blocking); an invalid Socket after
     *  shutdownNow() or on error. */
    Socket accept();

    /** The actual bound address (ephemeral tcp port resolved). */
    const Address &address() const { return addr_; }

    /** Unblock accept() from another thread. */
    void shutdownNow();

  private:
    int fd_ = -1;
    Address addr_;
};

/** Connect to a service; throws std::runtime_error on failure. */
Socket connectTo(const Address &addr);

/**
 * A listener plus one thread per live connection running the
 * transport's handler. Every accept first joins the threads whose
 * handler has returned, so a long-running daemon holds threads (and
 * their stacks) for live connections only.
 *
 * Stopping is split so a handler may stop its own server (the
 * protocol's shutdown op does): requestStop() never joins; the owner
 * calls join() once run() has returned.
 */
class ConnectionServer
{
  public:
    /** Serves one connection; the socket closes when it returns.
     *  Long-lived handlers poll @p stopping. */
    using Handler = std::function<void(
        Socket &sock, const std::atomic<bool> &stopping)>;

    /** Bind @p addr; throws std::runtime_error on failure. */
    ConnectionServer(const Address &addr, Handler handler);
    /** requestStop() and join(); run() must have returned. */
    ~ConnectionServer();

    ConnectionServer(const ConnectionServer &) = delete;
    ConnectionServer &operator=(const ConnectionServer &) = delete;

    /** The bound address (ephemeral tcp ports resolved). */
    const Address &address() const { return listener_.address(); }

    /** Accept loop; returns once stopped or when the listener fails. */
    void run();

    /** Stop accepting and shut down every live connection. Never
     *  joins; idempotent; callable from any thread. */
    void requestStop();

    bool stopping() const { return stopping_.load(); }

    /** Join every connection thread; never from a handler. */
    void join() { reap(true); }

    /** Connections not yet joined (live plus finished ones awaiting
     *  the next accept); 0 after join(). */
    std::size_t trackedConnections() const;

  private:
    /** One live (or finished-but-unjoined) connection. The handler
     *  thread clears @c fd before closing the socket (so requestStop()
     *  never shuts down a kernel-reused descriptor) and raises @c done
     *  as its final act. */
    struct Conn
    {
        int fd = -1; ///< -1 once the handler has closed the socket
        std::atomic<bool> done{false};
        std::thread thr;
    };

    /** Join the finished connections, or with @p all every one. */
    void reap(bool all);
    void serveConnection(Socket sock, Conn &conn);

    Handler handler_;
    Listener listener_;
    std::atomic<bool> stopping_{false};

    mutable std::mutex connMutex_;
    std::list<std::unique_ptr<Conn>> conns_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_SOCKET_HH
