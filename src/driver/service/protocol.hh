/**
 * @file
 * The campaign service wire protocol: line-delimited JSON.
 *
 * Every request and every response is one JSON object on one line
 * (terminated by '\n'); a connection carries any number of requests in
 * sequence. Requests:
 *
 *     {"op":"ping"}
 *     {"op":"status"}
 *     {"op":"shutdown"}
 *     {"op":"submit", "name":"sweep", "metrics":"dmu.*",
 *      "set":{"runtime":"tdm"},
 *      "campaign":"axis machine.cores = 16, 32\n"}
 *     {"op":"submit", "name":"sweep",
 *      "points":[{"label":"a","spec":{"machine.cores":"16"}}, ...]}
 *
 * A submit carries either a *.campaign file body ("campaign", parsed
 * by the same parser the CLI uses) or an explicit point list; "set"
 * entries are fixed spec overrides applied to every point, "metrics"
 * selects the exported metric subtree (same globs as --metrics).
 *
 * Submit responses stream as the engine resolves points:
 *
 *     {"event":"accepted","id":1,"name":"sweep","points":4}
 *     {"event":"point","id":1,"index":0,"total":4,"label":...,
 *      "digest":...,"source":"simulated|memory|disk|inflight|forked",
 *      "cache_hit":...,"ok":...,"error":...,"wall_ms":...,
 *      <headline fields>, "metrics":{...},"sum":...}  (one per point)
 *     {"event":"done","id":1,"points":4,"cache_hits":...,
 *      "simulated":...,"from_memory":...,"from_disk":...,
 *      "from_inflight":...,"from_forked":...,"warmups_shared":...,
 *      "failures":...,...}
 *
 * plus {"event":"pong"}, {"event":"status",...}, {"event":"bye"} and
 * {"event":"error","message":...} for the other ops. A point event's
 * "sum" is the FNV-1a digest of every byte before it, so a damaged
 * line is rejected instead of decoding to a wrong number.
 *
 * One writer per event builds its line: writePong, writeBye,
 * writeError, writeAccepted, writePoint, writeDone and writeStatus
 * each append the whole line ('\n' included) to a report::Text, the
 * formatter every export uses, so a metric value has the same bytes
 * over the wire and in the file export; this is what makes the restart
 * replay byte-identical. The dashboard's bodies reuse the shared parts:
 * writeServed, writeStore (the status op's "store" object and
 * /api/store's) and writeSummaryMembers (a point event's headline
 * fields and metrics, and a stored blob's).
 *
 * Each line's reader lives beside its writer: parseRequest reads a
 * request (writeSubmit writes a submit), decodePointEvent a point
 * event and decodeEvent every other event the client reads. Each reads
 * its line in one pass through the one JsonCursor, straight into its
 * typed result, with no tree: a string is a view (decoded into a
 * buffer only when it holds escapes), a number its literal (read with
 * std::from_chars, through report::parseReal); of a repeated member
 * the first counts, and unknown members are checked and skipped under
 * a 64-level nesting cap.
 */

#ifndef TDM_DRIVER_SERVICE_PROTOCOL_HH
#define TDM_DRIVER_SERVICE_PROTOCOL_HH

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/report/format.hh"
#include "driver/service/store.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"

namespace tdm::driver::service {

// ---- JSON reader ---------------------------------------------------------

/** The deepest nesting a document may have (its root is depth 0). */
inline constexpr int kMaxJsonDepth = 64;

/**
 * The lexer: object()/array() hand each member or item to a callback
 * that reads it, and every reader skips the whitespace before its
 * value. The first failure's message, with its offset, is kept.
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view s) : s_(s) {}

    /** The next byte after whitespace ('\0' at the end). */
    char peek()
    {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    /** Only whitespace is left. */
    bool atEnd()
    {
        peek();
        return pos_ == s_.size();
    }

    /** A number starts here (it may still be malformed). */
    bool atNumber()
    {
        const char c = peek();
        return c == '-' || (c >= '0' && c <= '9');
    }

    /** Record @p msg at the current offset (the first failure wins);
     *  always false. */
    bool fail(const std::string &msg)
    {
        if (error_.empty())
            error_ = msg + " at offset " + std::to_string(pos_);
        return false;
    }

    /** The first failure's message ("" when none was recorded). */
    const std::string &error() const { return error_; }

    /** The literal @p w (true, false or null). */
    bool word(std::string_view w)
    {
        if (s_.substr(pos_, w.size()) != w)
            return fail("expected '" + std::string(w) + "'");
        pos_ += w.size();
        return true;
    }

    /** A string: @p out views the document, or @p scratch (which then
     *  holds the decoded text) when the string has escapes. */
    bool string(std::string_view &out, std::string &scratch)
    {
        if (peek() != '"')
            return fail("expected string");
        const std::size_t start = ++pos_;
        bool escaped = false; // decoding into scratch from the first '\\'
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                out = escaped ? std::string_view(scratch)
                              : s_.substr(start, pos_ - start);
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                if (escaped)
                    scratch += c;
                ++pos_;
                continue;
            }
            if (!escaped)
                scratch.assign(s_.substr(start, pos_ - start));
            escaped = true;
            if (++pos_ >= s_.size())
                return fail("truncated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': scratch += '"'; break;
            case '\\': scratch += '\\'; break;
            case '/': scratch += '/'; break;
            case 'b': scratch += '\b'; break;
            case 'f': scratch += '\f'; break;
            case 'n': scratch += '\n'; break;
            case 'r': scratch += '\r'; break;
            case 't': scratch += '\t'; break;
            case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    if (s_.substr(pos_, 2) != "\\u")
                        return fail("unpaired surrogate");
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(scratch, cp);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** A string, decoded into @p out. */
    bool string(std::string &out)
    {
        std::string_view v;
        if (!string(v, out))
            return false;
        if (v.data() != out.data())
            out.assign(v);
        return true;
    }

    /** A number's literal, checked against the JSON grammar. */
    bool number(std::string_view &literal)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t before = pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
            return pos_ > before;
        };
        const std::size_t intStart = pos_;
        if (!digits())
            return fail("malformed number");
        // JSON forbids leading zeros: "0" is fine, "01" is not.
        if (s_[intStart] == '0' && pos_ - intStart > 1)
            return fail("malformed number");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("malformed number");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("malformed number");
        }
        literal = s_.substr(start, pos_ - start);
        return true;
    }

    /** A number, as a double. */
    bool real(double &out)
    {
        std::string_view literal;
        return atNumber() && number(literal)
            && report::parseReal(literal, out);
    }

    /** A plain unsigned integer literal no larger than @p max (read
     *  from the literal, so 64-bit values stay exact). */
    bool exactUint(std::uint64_t max, std::uint64_t &out)
    {
        std::string_view literal;
        return atNumber() && number(literal)
            && report::parseUint(literal, out) && out <= max;
    }

    /** An object: @p member(key) reads each member's value (every
     *  reader skips the whitespace before its value). */
    template <typename F>
    bool object(F &&member)
    {
        if (peek() != '{')
            return fail("expected '{'");
        ++pos_;
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        std::string scratch;
        for (bool more = true; more;) {
            std::string_view key;
            if (!string(key, scratch))
                return false;
            if (peek() != ':')
                return fail("expected ':'");
            ++pos_;
            if (!member(key) || !separator('}', "object", more))
                return false;
        }
        return true;
    }

    /** An array, at its '[': @p item() reads each item. */
    template <typename F>
    bool array(F &&item)
    {
        ++pos_;
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (bool more = true; more;)
            if (!item() || !separator(']', "array", more))
                return false;
        return true;
    }

  private:
    /** After a member or item: ',' (@p more) or @p close. */
    bool separator(char close, const char *what, bool &more)
    {
        const char c = peek();
        if (pos_ == s_.size())
            return fail(std::string("unterminated ") + what);
        if (c != ',' && c != close)
            return fail(std::string("expected ',' or '") + close + "'");
        ++pos_;
        more = c == ',';
        return true;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool hex4(unsigned &out)
    {
        if (pos_ + 4 > s_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::string error_;
};

/** Check one value at nesting @p depth and drop it. */
inline bool
skipValue(JsonCursor &c, int depth)
{
    if (depth > kMaxJsonDepth)
        return c.fail("nesting too deep");
    if (c.atEnd())
        return c.fail("unexpected end of input");
    switch (c.peek()) {
    case 'n': return c.word("null");
    case 't': return c.word("true");
    case 'f': return c.word("false");
    case '"': {
        std::string text;
        return c.string(text);
    }
    case '[': return c.array([&] { return skipValue(c, depth + 1); });
    case '{':
        return c.object(
            [&](std::string_view) { return skipValue(c, depth + 1); });
    default: {
        std::string_view literal;
        return c.number(literal);
    }
    }
}

/**
 * The object at nesting @p depth, whose members are named name(0) to
 * name(N - 1): read(m) reads the first member named name(m) and marks
 * it in @p seen. Any other member, and a value that is no object, is
 * checked and skipped.
 */
template <std::size_t N, typename Name, typename Read>
bool
readMembers(JsonCursor &c, int depth, std::bitset<N> &seen, Name &&name,
            Read &&read)
{
    if (c.peek() != '{')
        return skipValue(c, depth);
    return c.object([&](std::string_view key) {
        std::size_t m = 0;
        while (m < N && key != name(m))
            ++m;
        if (m == N || seen[m])
            return skipValue(c, depth + 1);
        seen[m] = true;
        return read(m);
    });
}

// ---- requests ------------------------------------------------------------

enum class RequestOp { Ping, Status, Shutdown, Submit };

/** A parsed submit request (see the file header for the shape). */
struct SubmitRequest
{
    std::string name;         ///< campaign name ("submitted" default)
    std::string campaignText; ///< *.campaign body; or:
    struct Point
    {
        std::string label; ///< optional; "p<index>" when empty
        std::vector<std::pair<std::string, std::string>> spec;
    };
    std::vector<Point> points;
    /** Fixed overrides applied to every point (after its own spec). */
    std::vector<std::pair<std::string, std::string>> set;
    std::string metrics; ///< metric-selection globs ("" = everything)
};

struct Request
{
    RequestOp op = RequestOp::Ping;
    SubmitRequest submit; ///< meaningful when op == Submit
};

/**
 * Parse one request line. Returns false (with a message suitable for
 * an error event) on malformed JSON, an unknown op, or a structurally
 * invalid submit; a ping, status or shutdown ignores its other members.
 * Spec *values* are not validated here — that happens in
 * buildCampaign, where spec::SpecError carries the context.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** The submit line of @p c, whose point i goes by its canonical spec
 *  @p specs[i] (every binding key, so the server rebuilds the same
 *  experiment whatever either side's defaults). */
void writeSubmit(report::Text &out, const campaign::Campaign &c,
                 const std::vector<sim::Config> &specs);

/**
 * Expand @p req into a runnable campaign: parse the campaign body (or
 * assemble the point list), apply the "set" overrides, and bind the
 * metric selection. Throws spec::SpecError on unknown keys, bad
 * values, or a malformed campaign body.
 */
campaign::Campaign buildCampaign(const SubmitRequest &req);

// ---- responses -----------------------------------------------------------

void writePong(report::Text &out);
void writeBye(report::Text &out);
void writeError(report::Text &out, std::string_view message);
void writeAccepted(report::Text &out, std::uint64_t id,
                   std::string_view name, std::size_t points);

/** One streamed per-point result; @p selection picks the exported
 *  metrics exactly like the file writers. */
void writePoint(report::Text &out, std::uint64_t id,
                const campaign::JobResult &job, std::size_t index,
                std::size_t total, const sim::MetricSelection &selection);

/** The members a point event and a store blob's dashboard body share:
 *  ,"<headline>":v for every headline field, then ,"metrics":{...}
 *  with the metrics @p selection picks. */
void writeSummaryMembers(report::Text &out, const RunSummary &s,
                         const sim::MetricSelection &selection);

void writeDone(report::Text &out, std::uint64_t id,
               const campaign::CampaignResult &result);

/** Server counters for the status op. */
struct StatusInfo
{
    std::uint64_t campaigns = 0; ///< submits served
    std::uint64_t points = 0;    ///< points streamed
    campaign::SourceCounts served{}; ///< points streamed, per source
    std::size_t cachePoints = 0; ///< CampaignEngine::cachedCount()
    std::size_t inflight = 0;    ///< points simulating right now
    unsigned threads = 0;
    double uptimeMs = 0.0; ///< since the server was constructed
    bool hasStore = false; ///< a result store is open (--store)
    std::string storeDir;
    StoreStats store; ///< ResultStore::stats()
    bool hasHttp = false; ///< dashboard enabled (--http)
    std::string httpAddr;
    std::uint64_t httpRequests = 0;
    std::size_t sseSubscribers = 0;   ///< live /api/events sessions
    std::uint64_t eventsPublished = 0; ///< events on the live stream
    std::uint64_t eventsDropped = 0;   ///< events shed by slow streams
};

void writeStatus(report::Text &out, const StatusInfo &info);

/** The "served":{"simulated":N,"memory":N,...} member (no leading
 *  comma) that the status op and the dashboard's campaign records
 *  share. */
void writeServed(report::Text &out, const campaign::SourceCounts &served);

/** The store object {"dir":...,"blobs":N,...,"corrupt":N} that the
 *  status op and /api/store share. */
void writeStore(report::Text &out, std::string_view dir,
                const StoreStats &stats);

// ---- client-side event decoding ------------------------------------------

/**
 * Decode one "point" event @p line (as writePoint wrote it, without the
 * newline) back into a JobResult: the inverse of writePoint, minus the
 * spec map, which a point event does not carry. Metrics land in
 * job.summary.machine.metrics. One pass over the line; the first of a
 * repeated member counts, while a repeated metric key keeps its last
 * value. Returns false (leaving the outputs unspecified) on a
 * malformed event or a line whose sum does not match its bytes.
 */
bool decodePointEvent(std::string_view line, campaign::JobResult &job,
                      std::size_t &index, std::size_t &total);

/** Any other event, as the client reads it. A member of the wrong type
 *  keeps its default, as does a count that is no plain unsigned integer. */
struct ServiceEvent
{
    std::string event; ///< "" when absent or not a string
    std::string message = "unknown error"; ///< an error's ("" if no string)
    campaign::CampaignResult done; ///< totals, threads and wall_ms
    StatusInfo status;             ///< every member writeStatus writes
};

/** Decode one event @p line that is not a point event, in one pass.
 *  Returns false, with the parse error in @p error, on malformed JSON. */
bool decodeEvent(std::string_view line, ServiceEvent &out,
                 std::string &error);

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_PROTOCOL_HH
