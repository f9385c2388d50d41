#include "driver/service/http_server.hh"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <utility>

#include <sys/socket.h>
#include <sys/time.h>

#include "driver/report/format.hh"
#include "sim/logging.hh"

namespace tdm::driver::service {

namespace {

/** RFC 7230 token characters (method and header-name charset). */
bool
isTokenChar(char c)
{
    if (std::isalnum(static_cast<unsigned char>(c)))
        return true;
    switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'':
    case '*': case '+': case '-': case '.': case '^': case '_':
    case '`': case '|': case '~':
        return true;
    default:
        return false;
    }
}

bool
isToken(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!isTokenChar(c))
            return false;
    return true;
}

int
hexVal(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

std::string
trimOws(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    for (const auto &[k, v] : headers)
        if (k == name)
            return &v;
    return nullptr;
}

std::string
HttpRequest::queryParam(const std::string &name,
                        const std::string &dflt) const
{
    for (const auto &[k, v] : query)
        if (k == name)
            return v;
    return dflt;
}

bool
percentDecode(const std::string &in, std::string &out, bool plus_space)
{
    out.clear();
    out.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        if (c == '%') {
            if (i + 2 >= in.size())
                return false;
            const int hi = hexVal(in[i + 1]);
            const int lo = hexVal(in[i + 2]);
            if (hi < 0 || lo < 0)
                return false;
            const char decoded = static_cast<char>((hi << 4) | lo);
            if (decoded == '\0')
                return false; // no embedded NULs, ever
            out += decoded;
            i += 2;
        } else if (c == '+' && plus_space) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return true;
}

HttpParser::State
HttpParser::fail(int status, const std::string &reason)
{
    state_ = State::Error;
    status_ = status;
    reason_ = reason;
    return state_;
}

HttpParser::State
HttpParser::feed(const char *data, std::size_t n)
{
    if (state_ != State::NeedMore)
        return state_; // Done/Error are terminal
    buf_.append(data, n);
    return tryParse();
}

HttpParser::State
HttpParser::tryParse()
{
    // The head ends at the first blank line. Accept bare-LF line
    // endings too (curl and browsers send CRLF; test harnesses often
    // don't bother).
    std::size_t headEnd = buf_.find("\r\n\r\n");
    std::size_t sepLen = 4;
    {
        const std::size_t lfEnd = buf_.find("\n\n");
        if (lfEnd != std::string::npos
            && (headEnd == std::string::npos || lfEnd < headEnd)) {
            headEnd = lfEnd;
            sepLen = 2;
        }
    }
    if (headEnd == std::string::npos) {
        if (buf_.size() > kMaxRequestBytes)
            return fail(431, "request head exceeds "
                             + std::to_string(kMaxRequestBytes)
                             + " bytes");
        return State::NeedMore;
    }
    if (headEnd + sepLen > kMaxRequestBytes)
        return fail(431, "request head exceeds "
                         + std::to_string(kMaxRequestBytes) + " bytes");

    const std::string head = buf_.substr(0, headEnd);

    // Split into lines (tolerating CRLF or LF).
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= head.size()) {
        std::size_t nl = head.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(head.substr(pos));
            break;
        }
        std::string line = head.substr(pos, nl - pos);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        lines.push_back(std::move(line));
        pos = nl + 1;
    }
    if (lines.empty() || lines[0].empty())
        return fail(400, "empty request line");

    // Request line: METHOD SP target SP HTTP/x.y — exactly three
    // space-separated parts.
    const std::string &rl = lines[0];
    const std::size_t sp1 = rl.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : rl.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos
        || rl.find(' ', sp2 + 1) != std::string::npos)
        return fail(400, "malformed request line");
    req_.method = rl.substr(0, sp1);
    req_.target = rl.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = rl.substr(sp2 + 1);
    if (!isToken(req_.method))
        return fail(400, "malformed method token");
    if (version.rfind("HTTP/", 0) != 0)
        return fail(400, "malformed HTTP version");
    if (version != "HTTP/1.1" && version != "HTTP/1.0")
        return fail(505, "unsupported version " + version);
    if (req_.target.empty() || req_.target[0] != '/')
        return fail(400, "request target must be origin-form");

    // Decode path and query.
    const std::size_t q = req_.target.find('?');
    const std::string rawPath = req_.target.substr(0, q);
    if (!percentDecode(rawPath, req_.path, false))
        return fail(400, "malformed percent-encoding in path");
    if (q != std::string::npos) {
        const std::string rawQuery = req_.target.substr(q + 1);
        std::size_t i = 0;
        while (i <= rawQuery.size()) {
            std::size_t amp = rawQuery.find('&', i);
            if (amp == std::string::npos)
                amp = rawQuery.size();
            const std::string pair = rawQuery.substr(i, amp - i);
            if (!pair.empty()) {
                const std::size_t eq = pair.find('=');
                std::string k, v;
                const std::string rawK =
                    eq == std::string::npos ? pair : pair.substr(0, eq);
                const std::string rawV =
                    eq == std::string::npos ? "" : pair.substr(eq + 1);
                if (!percentDecode(rawK, k, true)
                    || !percentDecode(rawV, v, true))
                    return fail(400,
                                "malformed percent-encoding in query");
                req_.query.emplace_back(std::move(k), std::move(v));
            }
            i = amp + 1;
        }
    }

    // Header fields.
    for (std::size_t ln = 1; ln < lines.size(); ++ln) {
        const std::string &line = lines[ln];
        if (line.empty())
            continue;
        if (line[0] == ' ' || line[0] == '\t')
            return fail(400, "obsolete header folding");
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            return fail(400, "header field without ':'");
        std::string name = line.substr(0, colon);
        if (!isToken(name))
            return fail(400, "malformed header name");
        req_.headers.emplace_back(lower(std::move(name)),
                                  trimOws(line.substr(colon + 1)));
    }

    // This server accepts no request bodies: a request advertising one
    // is refused outright rather than half-read.
    if (const std::string *te = req_.header("transfer-encoding");
        te && !te->empty())
        return fail(400, "request bodies are not supported");
    if (const std::string *cl = req_.header("content-length");
        cl && *cl != "0")
        return fail(400, "request bodies are not supported");

    buf_.clear(); // any pipelined surplus is discarded (we close)
    state_ = State::Done;
    return state_;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
    }
}

std::string
renderHttpResponse(int status, std::string_view content_type,
                   std::string_view body, bool head_only)
{
    std::string out;
    out.reserve(body.size() + 256);
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += httpStatusReason(status);
    out += "\r\nServer: campaign_serve\r\nCache-Control: no-store"
           "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    if (!head_only)
        out += body;
    return out;
}

std::string
renderHttpError(int status, std::string_view message, bool head_only)
{
    report::Text body;
    body << "{\"error\":\"" << report::JsonEscaped{message} << "\"}\n";
    return renderHttpResponse(status, "application/json", body.str(),
                              head_only);
}

HttpServer::HttpServer(const Address &addr, Handler handler,
                       int head_timeout_sec)
    : handler_(std::move(handler)),
      headTimeoutSec_(head_timeout_sec > 0 ? head_timeout_sec
                                           : kHeadReadTimeoutSec),
      conns_(addr,
             [this](Socket &sock, const std::atomic<bool> &stopping) {
                 serveConnection(sock, stopping);
             }),
      acceptThread_([this] { conns_.run(); })
{
}

HttpServer::~HttpServer() { stop(); }

void
HttpServer::stop()
{
    // The shutdown protocol op and the signal watcher may both land
    // here concurrently; call_once runs the teardown exactly once and
    // blocks every other caller until the joins have finished.
    std::call_once(stopOnce_, [this] {
        conns_.requestStop();
        acceptThread_.join();
        conns_.join();
    });
}

void
HttpServer::serveConnection(Socket &sock,
                            const std::atomic<bool> &stopping)
{
    // Bound how long an idle or trickling client may hold this thread
    // before its request head is complete: each recv gets a receive
    // timeout, and the head as a whole gets one deadline.
    {
        struct timeval tv{};
        tv.tv_sec = headTimeoutSec_;
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof tv);
    }
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::seconds(headTimeoutSec_);

    HttpParser parser;
    char chunk[4096];
    bool timedOut = false;
    while (parser.state() == HttpParser::State::NeedMore
           && !stopping.load()) {
        const long n = sock.readSome(chunk, sizeof chunk);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            timedOut = true;
            break;
        }
        if (n <= 0)
            break; // peer vanished before a full request head
        parser.feed(chunk, static_cast<std::size_t>(n));
        if (parser.state() == HttpParser::State::NeedMore
            && std::chrono::steady_clock::now() >= deadline) {
            timedOut = true;
            break;
        }
    }

    if (parser.state() == HttpParser::State::Done) {
        // Handlers may be long-lived (SSE); the head-read timeout
        // must not bleed into them.
        struct timeval tv{};
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof tv);
        requests_.fetch_add(1);
        try {
            handler_(parser.request(), sock, stopping);
        } catch (const std::exception &e) {
            // A handler that threw has not written a response (the
            // dashboard renders into a buffer first).
            sock.sendAll(renderHttpError(500, e.what()));
        }
    } else if (timedOut) {
        sock.sendAll(renderHttpError(
            408, "request head not received within "
                     + std::to_string(headTimeoutSec_) + "s"));
    } else if (parser.state() == HttpParser::State::Error) {
        sock.sendAll(renderHttpError(parser.status(), parser.reason()));
    }
}

} // namespace tdm::driver::service
