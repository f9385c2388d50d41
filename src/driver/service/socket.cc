#include "driver/service/socket.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace tdm::driver::service {

namespace {

[[noreturn]] void
sockError(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** sockaddr_un for @p path; rejects paths that do not fit. */
sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof sa.sun_path)
        throw std::runtime_error("unix socket path too long: " + path);
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

sockaddr_in
tcpAddr(std::uint16_t port)
{
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(port);
    return sa;
}

} // namespace

std::string
Address::display() const
{
    if (isUnix)
        return "unix:" + path;
    return "tcp:127.0.0.1:" + std::to_string(port);
}

Address
parseAddress(const std::string &text)
{
    Address addr;
    if (text.rfind("unix:", 0) == 0) {
        addr.isUnix = true;
        addr.path = text.substr(5);
        if (addr.path.empty())
            throw std::runtime_error(
                "empty unix socket path in '" + text + "'");
        return addr;
    }
    if (text.rfind("tcp:", 0) == 0) {
        const std::string rest = text.substr(4);
        const auto colon = rest.rfind(':');
        if (colon == std::string::npos)
            throw std::runtime_error(
                "expected tcp:HOST:PORT in '" + text + "'");
        const std::string host = rest.substr(0, colon);
        const std::string portText = rest.substr(colon + 1);
        if (host != "127.0.0.1" && host != "localhost")
            throw std::runtime_error(
                "service sockets are loopback-only (got host '" +
                host + "'); use 127.0.0.1, localhost, or unix:PATH");
        char *end = nullptr;
        errno = 0;
        const unsigned long port =
            std::strtoul(portText.c_str(), &end, 10);
        if (errno != 0 || end == portText.c_str() || *end ||
            port > 65535)
            throw std::runtime_error("bad port in '" + text + "'");
        addr.port = static_cast<std::uint16_t>(port);
        return addr;
    }
    throw std::runtime_error(
        "address must be unix:PATH or tcp:HOST:PORT (got '" + text +
        "')");
}

Socket::~Socket() { close(); }

Socket::Socket(Socket &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)),
      tooLong_(std::exchange(other.tooLong_, false))
{
}

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buf_ = std::move(other.buf_);
        tooLong_ = std::exchange(other.tooLong_, false);
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

bool
Socket::sendAll(const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Socket::readLine(std::string &line)
{
    std::size_t scanned = 0; // prefix of buf_ known to hold no '\n'
    while (true) {
        const auto nl = buf_.find('\n', scanned);
        if (std::min(nl, buf_.size()) > kMaxLineBytes) {
            tooLong_ = true;
            return false;
        }
        if (nl != std::string::npos) {
            line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        scanned = buf_.size();
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0) {
            // EOF: hand back a final unterminated line if present.
            if (buf_.empty())
                return false;
            line = std::move(buf_);
            buf_.clear();
            return true;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

long
Socket::readSome(char *buf, std::size_t cap)
{
    while (true) {
        const ssize_t n = ::recv(fd_, buf, cap, 0);
        if (n >= 0)
            return static_cast<long>(n);
        if (errno == EINTR)
            continue;
        return -1;
    }
}

Listener::Listener(const Address &addr) : addr_(addr)
{
    if (addr_.isUnix) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            sockError("socket(unix)");
        // A previous daemon instance may have left its socket file; a
        // stale one makes bind fail with EADDRINUSE.
        ::unlink(addr_.path.c_str());
        const sockaddr_un sa = unixAddr(addr_.path);
        if (::bind(fd_, reinterpret_cast<const sockaddr *>(&sa),
                   sizeof sa) < 0) {
            ::close(fd_);
            fd_ = -1;
            sockError("bind(" + addr_.display() + ")");
        }
    } else {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            sockError("socket(tcp)");
        const int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        const sockaddr_in sa = tcpAddr(addr_.port);
        if (::bind(fd_, reinterpret_cast<const sockaddr *>(&sa),
                   sizeof sa) < 0) {
            ::close(fd_);
            fd_ = -1;
            sockError("bind(" + addr_.display() + ")");
        }
        if (addr_.port == 0) {
            sockaddr_in bound{};
            socklen_t len = sizeof bound;
            if (::getsockname(
                    fd_, reinterpret_cast<sockaddr *>(&bound), &len) <
                0) {
                ::close(fd_);
                fd_ = -1;
                sockError("getsockname");
            }
            addr_.port = ntohs(bound.sin_port);
        }
    }
    if (::listen(fd_, 64) < 0) {
        ::close(fd_);
        fd_ = -1;
        sockError("listen(" + addr_.display() + ")");
    }
}

Listener::~Listener()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (addr_.isUnix)
        ::unlink(addr_.path.c_str());
}

Socket
Listener::accept()
{
    while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0)
            return Socket(fd);
        if (errno == EINTR)
            continue;
        return Socket();
    }
}

void
Listener::shutdownNow()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Socket
connectTo(const Address &addr)
{
    if (addr.isUnix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            sockError("socket(unix)");
        const sockaddr_un sa = unixAddr(addr.path);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&sa),
                      sizeof sa) < 0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            sockError("connect(" + addr.display() + ")");
        }
        return Socket(fd);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        sockError("socket(tcp)");
    const sockaddr_in sa = tcpAddr(addr.port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&sa),
                  sizeof sa) < 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        sockError("connect(" + addr.display() + ")");
    }
    return Socket(fd);
}

ConnectionServer::ConnectionServer(const Address &addr, Handler handler)
    : handler_(std::move(handler)), listener_(addr)
{
}

ConnectionServer::~ConnectionServer()
{
    requestStop();
    join();
}

void
ConnectionServer::requestStop()
{
    stopping_.store(true);
    listener_.shutdownNow();
    std::lock_guard<std::mutex> lock(connMutex_);
    for (const auto &c : conns_)
        if (c->fd >= 0)
            ::shutdown(c->fd, SHUT_RDWR);
}

std::size_t
ConnectionServer::trackedConnections() const
{
    std::lock_guard<std::mutex> lock(connMutex_);
    return conns_.size();
}

void
ConnectionServer::reap(bool all)
{
    std::list<std::unique_ptr<Conn>> gone;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto it = conns_.begin(); it != conns_.end();)
            if (all || (*it)->done.load())
                gone.splice(gone.end(), conns_, it++);
            else
                ++it;
    }
    for (const auto &c : gone)
        if (c->thr.joinable())
            c->thr.join();
}

void
ConnectionServer::run()
{
    while (!stopping_.load()) {
        Socket sock = listener_.accept();
        if (!sock.valid())
            break; // stopped, or the listener failed
        reap(false);
        // Registered under the lock requestStop() shuts connections
        // down under, so a connection accepted concurrently with a
        // stop is either refused here or shut down there.
        std::lock_guard<std::mutex> lock(connMutex_);
        if (stopping_.load())
            break;
        conns_.push_back(std::make_unique<Conn>());
        Conn &conn = *conns_.back();
        conn.fd = sock.fd();
        conn.thr =
            std::thread([this, &conn, s = std::move(sock)]() mutable {
                serveConnection(std::move(s), conn);
            });
    }
}

void
ConnectionServer::serveConnection(Socket sock, Conn &conn)
{
    handler_(sock, stopping_);
    // Drop the fd from requestStop()'s shutdown set *before* closing:
    // once closed, the number can be reused by an unrelated
    // descriptor.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conn.fd = -1;
    }
    sock.close();
    conn.done.store(true); // last: the reaper may join immediately
}

} // namespace tdm::driver::service
