#include "driver/service/protocol.hh"

#include <bitset>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/spec.hh"

namespace tdm::driver::service {

// ---- JSON reader ---------------------------------------------------------

namespace {

using report::JsonEscaped;
using report::JsonReal;

constexpr int kMaxDepth = 64;

/**
 * The one JSON lexer: a cursor over an in-memory document. A string
 * reads as a view (into the document, or into a scratch buffer when it
 * holds escapes), a number as its literal, and object()/array() hand
 * each member or item to a callback that reads it. parseJson builds a
 * JsonValue tree on it; decodePointEvent streams a point event through
 * it without building one.
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
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                out = s_.substr(start, pos_++ - start);
                return true;
            }
            if (c == '\\') {
                scratch.assign(s_.substr(start, pos_ - start));
                if (!escapedRest(scratch))
                    return false;
                out = scratch;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            ++pos_;
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

    /** The rest of a string that has an escape at pos_, decoded onto
     *  @p out, through its closing quote. */
    bool escapedRest(std::string &out)
    {
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                return fail("truncated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
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
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::string error_;
};

/** One value at nesting @p depth, as a tree. */
bool
readValue(JsonCursor &c, JsonValue &out, int depth)
{
    if (depth > kMaxDepth)
        return c.fail("nesting too deep");
    if (c.atEnd())
        return c.fail("unexpected end of input");
    switch (c.peek()) {
    case 'n':
        out.kind = JsonValue::Kind::Null;
        return c.word("null");
    case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return c.word("true");
    case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return c.word("false");
    case '"':
        out.kind = JsonValue::Kind::String;
        return c.string(out.text);
    case '[':
        out.kind = JsonValue::Kind::Array;
        return c.array([&] {
            return readValue(c, out.items.emplace_back(), depth + 1);
        });
    case '{':
        out.kind = JsonValue::Kind::Object;
        return c.object([&](std::string_view key) {
            return readValue(
                c, out.members.emplace_back(key, JsonValue{}).second,
                depth + 1);
        });
    default: {
        out.kind = JsonValue::Kind::Number;
        std::string_view literal;
        if (!c.number(literal))
            return false;
        out.text = literal;
        return report::parseReal(literal, out.number);
    }
    }
}

/** Check one value at nesting @p depth and drop it. */
bool
skipValue(JsonCursor &c, int depth)
{
    JsonValue ignored;
    return readValue(c, ignored, depth);
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::asString(const std::string &dflt) const
{
    return kind == Kind::String ? text : dflt;
}

double
JsonValue::asNumber(double dflt) const
{
    return kind == Kind::Number ? number : dflt;
}

bool
JsonValue::asBool(bool dflt) const
{
    return kind == Kind::Bool ? boolean : dflt;
}

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    JsonCursor c(text);
    if (!readValue(c, out, 0)) {
        error = c.error().empty() ? "malformed JSON" : c.error();
        return false;
    }
    if (!c.atEnd()) {
        error = "trailing characters after JSON value";
        return false;
    }
    return true;
}

// ---- requests ------------------------------------------------------------

namespace {

/** Render a scalar JSON value as a spec value string (specs are
 *  stringly typed: numbers and bools pass through as written). */
bool
specValue(const JsonValue &v, std::string &out)
{
    switch (v.kind) {
    case JsonValue::Kind::String: out = v.text; return true;
    case JsonValue::Kind::Number: out = v.text; return true;
    case JsonValue::Kind::Bool:
        out = v.boolean ? "true" : "false";
        return true;
    default: return false;
    }
}

bool
specEntries(const JsonValue &obj,
            std::vector<std::pair<std::string, std::string>> &out,
            const char *what, std::string &error)
{
    if (!obj.isObject()) {
        error = std::string(what) + " must be an object";
        return false;
    }
    for (const auto &[k, v] : obj.members) {
        std::string value;
        if (!specValue(v, value)) {
            error = std::string(what) + "." + k +
                    " must be a string, number, or bool";
            return false;
        }
        out.emplace_back(k, value);
    }
    return true;
}

} // namespace

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    JsonValue root;
    if (!parseJson(line, root, error))
        return false;
    if (!root.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    const JsonValue *op = root.find("op");
    if (!op || !op->isString()) {
        error = "missing \"op\"";
        return false;
    }
    out = Request{};
    if (op->text == "ping") {
        out.op = RequestOp::Ping;
        return true;
    }
    if (op->text == "status") {
        out.op = RequestOp::Status;
        return true;
    }
    if (op->text == "shutdown") {
        out.op = RequestOp::Shutdown;
        return true;
    }
    if (op->text != "submit") {
        error = "unknown op \"" + op->text + "\"";
        return false;
    }

    out.op = RequestOp::Submit;
    SubmitRequest &req = out.submit;
    if (const JsonValue *name = root.find("name"))
        req.name = name->asString();
    if (const JsonValue *metrics = root.find("metrics")) {
        req.metrics = metrics->asString();
        // Refuse a malformed selection here, before the campaign runs:
        // the point events apply it on engine threads.
        try {
            const sim::MetricSelection validated(req.metrics);
        } catch (const sim::MetricError &e) {
            error = e.what();
            return false;
        }
    }
    if (const JsonValue *set = root.find("set"))
        if (!specEntries(*set, req.set, "set", error))
            return false;

    const JsonValue *campaign = root.find("campaign");
    const JsonValue *points = root.find("points");
    if ((campaign != nullptr) == (points != nullptr)) {
        error = "submit needs exactly one of \"campaign\" or "
                "\"points\"";
        return false;
    }
    if (campaign) {
        if (!campaign->isString()) {
            error = "\"campaign\" must be a string";
            return false;
        }
        req.campaignText = campaign->text;
        return true;
    }
    if (!points->isArray() || points->items.empty()) {
        error = "\"points\" must be a non-empty array";
        return false;
    }
    for (const JsonValue &p : points->items) {
        if (!p.isObject()) {
            error = "each point must be an object";
            return false;
        }
        SubmitRequest::Point point;
        if (const JsonValue *label = p.find("label"))
            point.label = label->asString();
        const JsonValue *spec = p.find("spec");
        if (!spec) {
            error = "each point needs a \"spec\" object";
            return false;
        }
        if (!specEntries(*spec, point.spec, "spec", error))
            return false;
        req.points.push_back(std::move(point));
    }
    return true;
}

campaign::Campaign
buildCampaign(const SubmitRequest &req)
{
    campaign::Campaign c;
    if (!req.campaignText.empty()) {
        std::istringstream in(req.campaignText);
        std::string origin = "submit:";
        origin += req.name.empty() ? "campaign" : req.name;
        c = spec::parseCampaignFile(in, origin).toCampaign();
        if (!req.name.empty())
            c.name = req.name;
    } else {
        c.name = req.name.empty() ? "submitted" : req.name;
        for (std::size_t i = 0; i < req.points.size(); ++i) {
            const SubmitRequest::Point &p = req.points[i];
            sim::Config cfg;
            for (const auto &[k, v] : p.spec)
                cfg.set(k, v);
            SweepPoint point;
            if (p.label.empty()) {
                point.label = "p";
                point.label += std::to_string(i);
            } else {
                point.label = p.label;
            }
            point.exp = spec::apply(cfg);
            c.points.push_back(std::move(point));
        }
    }
    for (SweepPoint &point : c.points)
        for (const auto &[k, v] : req.set)
            spec::applyKey(point.exp, k, v);
    if (!req.metrics.empty())
        c.metrics = req.metrics;
    return c;
}

// ---- responses -----------------------------------------------------------

void
writePong(report::Text &out)
{
    out << "{\"event\":\"pong\"}\n";
}

void
writeBye(report::Text &out)
{
    out << "{\"event\":\"bye\"}\n";
}

void
writeError(report::Text &out, std::string_view message)
{
    out << "{\"event\":\"error\",\"message\":\"" << JsonEscaped{message}
        << "\"}\n";
}

void
writeAccepted(report::Text &out, std::uint64_t id, std::string_view name,
              std::size_t points)
{
    out << "{\"event\":\"accepted\",\"id\":" << id << ",\"name\":\""
        << JsonEscaped{name} << "\",\"points\":" << points << "}\n";
}

namespace {

/** Length of the ,"sum":"<16 hex>"} tail that closes a point event. */
constexpr std::size_t kSumTail = sizeof(",\"sum\":\"\"}") - 1 + 16;

} // namespace

void
writeSummaryMembers(report::Text &out, const RunSummary &s,
                    const sim::MetricSelection &selection)
{
    for (const HeadlineField &f : kHeadlineFields) {
        out << ",\"" << f.name << "\":";
        report::jsonHeadline(out, s, f);
    }
    out << ",\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : s.metrics().entries()) {
        if (!selection.matches(k))
            continue;
        out << (first ? "\"" : ",\"") << JsonEscaped{k}
            << "\":" << JsonReal{v};
        first = false;
    }
    out << '}';
}

void
writePoint(report::Text &out, std::uint64_t id,
           const campaign::JobResult &job, std::size_t index,
           std::size_t total, const sim::MetricSelection &selection)
{
    const std::size_t start = out.size();
    out << "{\"event\":\"point\",\"id\":" << id
        << ",\"index\":" << index << ",\"total\":" << total
        << ",\"label\":\"" << JsonEscaped{job.label} << "\",\"digest\":\""
        << JsonEscaped{job.digest} << "\",\"source\":\""
        << campaign::jobSourceName(job.source) << "\",\"cache_hit\":"
        << (job.cacheHit() ? "true" : "false")
        << ",\"ok\":" << (job.ok() ? "true" : "false")
        << ",\"error\":\"" << JsonEscaped{job.error}
        << "\",\"wall_ms\":" << JsonReal{job.wallMs}
        << ",\"done_at_ms\":" << JsonReal{job.doneAtMs};
    writeSummaryMembers(out, job.summary, selection);
    const std::string sum =
        campaign::digestOfKey(std::string_view(out.str()).substr(start));
    out << ",\"sum\":\"" << sum << "\"}\n";
}

void
writeDone(report::Text &out, std::uint64_t id,
          const campaign::CampaignResult &result)
{
    out << "{\"event\":\"done\",\"id\":" << id << ",\"name\":\""
        << JsonEscaped{result.name} << "\",\"points\":" << result.jobs.size();
    for (const campaign::CampaignTotal &n : campaign::kCampaignTotals)
        out << ",\"" << n.name << "\":" << result.*n.member;
    out << ",\"failures\":" << result.failures()
        << ",\"threads\":" << result.threads
        << ",\"wall_ms\":" << JsonReal{result.wallMs} << "}\n";
}

void
writeStore(report::Text &out, std::string_view dir, const StoreStats &stats)
{
    out << "{\"dir\":\"" << JsonEscaped{dir} << "\",\"blobs\":" << stats.blobs
        << ",\"bytes\":" << stats.bytes << ",\"hits\":" << stats.hits
        << ",\"misses\":" << stats.misses << ",\"stores\":" << stats.stores
        << ",\"corrupt\":" << stats.corrupt << '}';
}

void
writeStatus(report::Text &out, const StatusInfo &info)
{
    out << "{\"event\":\"status\",\"campaigns\":" << info.campaigns
        << ",\"points\":" << info.points << ',';
    writeServed(out, info.served);
    out << ",\"cache_points\":" << info.cachePoints
        << ",\"inflight\":" << info.inflight
        << ",\"threads\":" << info.threads
        << ",\"uptime_ms\":" << JsonReal{info.uptimeMs} << ",\"store\":";
    if (info.hasStore)
        writeStore(out, info.storeDir, info.store);
    else
        out << "null";
    out << ",\"http\":";
    if (info.hasHttp)
        out << "{\"addr\":\"" << JsonEscaped{info.httpAddr}
            << "\",\"requests\":" << info.httpRequests
            << ",\"sse_subscribers\":" << info.sseSubscribers
            << ",\"events_published\":" << info.busPublished
            << ",\"events_dropped\":" << info.busDropped << '}';
    else
        out << "null";
    out << "}\n";
}

void
writeServed(report::Text &out, const campaign::SourceCounts &served)
{
    out << "\"served\":{";
    for (std::size_t s = 0; s < campaign::kJobSourceCount; ++s)
        out << (s ? ",\"" : "\"") << campaign::kJobSourceNames[s]
            << "\":" << served[s];
    out << '}';
}

// ---- client-side event decoding ------------------------------------------

namespace {

/** The members decodePointEvent reads besides the headline fields,
 *  which follow them in its member numbering. Those before Event may
 *  be absent. */
enum PointMember : std::size_t {
    Digest, Error, WallMs, DoneAtMs,
    Event, Index, Total, Label, Source, Metrics,
    kPointMembers
};
constexpr std::string_view kPointMemberNames[kPointMembers] = {
    "digest", "error", "wall_ms", "done_at_ms", "event",
    "index",  "total", "label",   "source",     "metrics",
};

/** Headline field @p f of @p s, typed: a flag as true/false, a count
 *  as an exact unsigned integer, a real as any number. */
bool
readHeadline(JsonCursor &c, RunSummary &s, const HeadlineField &f)
{
    return std::visit(
        [&](auto member) {
            using T = std::remove_reference_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<T, bool>) {
                const char first = c.peek();
                s.*member = first == 't';
                return (first == 't' || first == 'f')
                    && c.word(s.*member ? "true" : "false");
            } else if constexpr (std::is_floating_point_v<T>) {
                return c.real(s.*member);
            } else {
                std::uint64_t n = 0;
                if (!c.exactUint(std::numeric_limits<T>::max(), n))
                    return false;
                s.*member = static_cast<T>(n);
                return true;
            }
        },
        f.member);
}

} // namespace

bool
decodePointEvent(std::string_view line, campaign::JobResult &job,
                 std::size_t &index, std::size_t &total)
{
    // The sum covers every byte before it, so any damage to the line
    // is caught here instead of decoding to a different number.
    if (line.size() < kSumTail)
        return false;
    const std::size_t bodyLen = line.size() - kSumTail;
    const std::string_view body = line.substr(0, bodyLen);
    if (line.substr(bodyLen)
        != ",\"sum\":\"" + campaign::digestOfKey(body) + "\"}")
        return false;

    // One pass, no tree. Of a repeated member the first counts (as
    // JsonValue::find has it); later ones need only be valid JSON.
    // Metric keys arrive sorted, so each lands at the tree's end.
    job = campaign::JobResult{};
    RunSummary &s = job.summary;
    std::uint64_t idx = 0, tot = 0;
    std::bitset<kPointMembers + std::size(kHeadlineFields)> seen;
    std::string scratch;
    JsonCursor c(line);
    auto member = [&](std::string_view key) {
        std::size_t m = 0;
        while (m < kPointMembers && key != kPointMemberNames[m])
            ++m;
        if (m == kPointMembers)
            while (m < seen.size()
                   && key != kHeadlineFields[m - kPointMembers].name)
                ++m;
        if (m == seen.size() || seen[m])
            return skipValue(c, 1);
        seen[m] = true;
        std::string_view text;
        switch (m) {
        case Digest: // digest and error read "" unless a string
            return c.peek() == '"' ? c.string(job.digest) : skipValue(c, 1);
        case Error:
            return c.peek() == '"' ? c.string(job.error) : skipValue(c, 1);
        case WallMs: // wall_ms and done_at_ms read 0 unless a number
            return c.atNumber() ? c.real(job.wallMs) : skipValue(c, 1);
        case DoneAtMs:
            return c.atNumber() ? c.real(job.doneAtMs) : skipValue(c, 1);
        case Event: return c.string(text, scratch) && text == "point";
        case Index: return c.exactUint(SIZE_MAX, idx);
        case Total: return c.exactUint(SIZE_MAX, tot);
        case Label: return c.string(job.label);
        case Source:
            return c.string(text, scratch)
                && campaign::jobSourceFromName(text, job.source);
        case Metrics:
            return c.object([&](std::string_view k) {
                double v = 0.0;
                if (!c.real(v))
                    return false;
                s.machine.metrics.append(k, v);
                return true;
            });
        default:
            return readHeadline(c, s, kHeadlineFields[m - kPointMembers]);
        }
    };
    if (!c.object(member) || !c.atEnd())
        return false;
    for (std::size_t m = Event; m < seen.size(); ++m)
        if (!seen[m])
            return false;
    index = static_cast<std::size_t>(idx);
    total = static_cast<std::size_t>(tot);
    return true;
}

} // namespace tdm::driver::service
