#include "driver/service/protocol.hh"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/spec.hh"

namespace tdm::driver::service {

// ---- JSON reader ---------------------------------------------------------

namespace {

using report::JsonEscaped;
using report::jsonEscape;
using report::jsonNumber;
using report::JsonReal;

/** Recursive-descent reader over one in-memory document. */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    bool parse(JsonValue &out, std::string &error)
    {
        skipWs();
        if (!value(out, 0)) {
            error = error_.empty() ? "malformed JSON" : error_;
            return false;
        }
        skipWs();
        if (pos_ != s_.size()) {
            error = "trailing characters after JSON value";
            return false;
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool fail(const std::string &msg)
    {
        if (error_.empty())
            error_ = msg + " at offset " + std::to_string(pos_);
        return false;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word, std::size_t len)
    {
        if (s_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
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

    bool string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
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
                    if (s_.compare(pos_, 2, "\\u") != 0)
                        return fail("unpaired surrogate");
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (lo - 0xdc00);
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

    bool number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t before = pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' &&
                   s_[pos_] <= '9')
                ++pos_;
            return pos_ > before;
        };
        const std::size_t int_start = pos_;
        if (!digits())
            return fail("malformed number");
        // JSON forbids leading zeros: "0" is fine, "01" is not.
        if (s_[int_start] == '0' && pos_ - int_start > 1)
            return fail("malformed number");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("malformed number");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("malformed number");
        }
        out.kind = JsonValue::Kind::Number;
        out.text = s_.substr(start, pos_ - start);
        out.number = std::strtod(out.text.c_str(), nullptr);
        return true;
    }

    bool value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        switch (s_[pos_]) {
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        case '[': {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue item;
                skipWs();
                if (!value(item, depth + 1))
                    return false;
                out.items.push_back(std::move(item));
                skipWs();
                if (pos_ >= s_.size())
                    return fail("unterminated array");
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '{': {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                skipWs();
                JsonValue member;
                if (!value(member, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                skipWs();
                if (pos_ >= s_.size())
                    return fail("unterminated object");
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        default:
            return number(out);
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    std::string error_;
};

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
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    return JsonReader(text).parse(out, error);
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
writePong(std::ostream &os)
{
    os << "{\"event\":\"pong\"}\n";
}

void
writeBye(std::ostream &os)
{
    os << "{\"event\":\"bye\"}\n";
}

void
writeError(std::ostream &os, const std::string &message)
{
    os << "{\"event\":\"error\",\"message\":\"" << jsonEscape(message)
       << "\"}\n";
}

void
writeAccepted(std::ostream &os, std::uint64_t id,
              const std::string &name, std::size_t points)
{
    os << "{\"event\":\"accepted\",\"id\":" << id << ",\"name\":\""
       << jsonEscape(name) << "\",\"points\":" << points << "}\n";
}

namespace {

/** Length of the ,"sum":"<16 hex>"} tail that closes a point event. */
constexpr std::size_t kSumTail = sizeof(",\"sum\":\"\"}") - 1 + 16;

} // namespace

void
writePoint(std::ostream &dest, std::uint64_t id,
           const campaign::JobResult &job, std::size_t index,
           std::size_t total, const sim::MetricSelection &selection)
{
    const RunSummary &s = job.summary;
    report::Text os;
    os << "{\"event\":\"point\",\"id\":" << id
       << ",\"index\":" << index << ",\"total\":" << total
       << ",\"label\":\"" << JsonEscaped{job.label} << "\",\"digest\":\""
       << JsonEscaped{job.digest} << "\",\"source\":\""
       << campaign::jobSourceName(job.source) << "\",\"cache_hit\":"
       << (job.cacheHit() ? "true" : "false")
       << ",\"ok\":" << (job.ok() ? "true" : "false")
       << ",\"error\":\"" << JsonEscaped{job.error}
       << "\",\"wall_ms\":" << JsonReal{job.wallMs}
       << ",\"done_at_ms\":" << JsonReal{job.doneAtMs};
    for (const HeadlineField &f : kHeadlineFields) {
        os << ",\"" << f.name << "\":";
        report::jsonHeadline(os, s, f);
    }
    os << ",\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : s.metrics().entries()) {
        if (!selection.matches(k))
            continue;
        os << (first ? "" : ",") << "\"" << JsonEscaped{k}
           << "\":" << JsonReal{v};
        first = false;
    }
    os << "}";
    const std::string sum = campaign::digestOfKey(os.str());
    os << ",\"sum\":\"" << sum << "\"}\n";
    os.flushTo(dest);
}

void
writeDone(std::ostream &os, std::uint64_t id,
          const campaign::CampaignResult &result)
{
    os << "{\"event\":\"done\",\"id\":" << id << ",\"name\":\""
       << jsonEscape(result.name)
       << "\",\"points\":" << result.jobs.size();
    for (const campaign::CampaignTotal &n : campaign::kCampaignTotals)
        os << ",\"" << n.name << "\":" << result.*n.member;
    os << ",\"failures\":" << result.failures()
       << ",\"threads\":" << result.threads << ",\"wall_ms\":";
    jsonNumber(os, result.wallMs);
    os << "}\n";
}

void
writeStatus(std::ostream &os, const StatusInfo &info)
{
    os << "{\"event\":\"status\",\"campaigns\":" << info.campaigns
       << ",\"points\":" << info.points << ",";
    writeServed(os, info.served);
    os << ",\"cache_points\":" << info.cachePoints
       << ",\"inflight\":" << info.inflight
       << ",\"threads\":" << info.threads << ",\"uptime_ms\":";
    jsonNumber(os, info.uptimeMs);
    os << ",\"store\":";
    if (info.hasStore) {
        os << "{\"dir\":\"" << jsonEscape(info.storeDir)
           << "\",\"blobs\":" << info.storeBlobs
           << ",\"bytes\":" << info.storeBytes
           << ",\"hits\":" << info.storeHits
           << ",\"misses\":" << info.storeMisses
           << ",\"stores\":" << info.storeStores
           << ",\"corrupt\":" << info.storeCorrupt << "}";
    } else {
        os << "null";
    }
    os << ",\"http\":";
    if (info.hasHttp) {
        os << "{\"addr\":\"" << jsonEscape(info.httpAddr)
           << "\",\"requests\":" << info.httpRequests
           << ",\"sse_subscribers\":" << info.sseSubscribers
           << ",\"events_published\":" << info.busPublished
           << ",\"events_dropped\":" << info.busDropped << "}";
    } else {
        os << "null";
    }
    os << "}\n";
}

void
writeServed(std::ostream &os, const campaign::SourceCounts &served)
{
    os << "\"served\":{";
    for (std::size_t s = 0; s < campaign::kJobSourceCount; ++s)
        os << (s ? ",\"" : "\"") << campaign::kJobSourceNames[s]
           << "\":" << served[s];
    os << "}";
}

// ---- client-side event decoding ------------------------------------------

namespace {

/** @p v as a plain unsigned integer literal no larger than @p max
 *  (decoded from the raw text, so 64-bit values stay exact). */
bool
exactUint(const JsonValue *v, std::uint64_t max, std::uint64_t &out)
{
    if (!v || !v->isNumber() || v->text.empty() ||
        v->text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long n = std::strtoull(v->text.c_str(), nullptr, 10);
    if (errno != 0 || n > max)
        return false;
    out = n;
    return true;
}

} // namespace

bool
decodePointEvent(const std::string &line, campaign::JobResult &job,
                 std::size_t &index, std::size_t &total)
{
    // The sum covers every byte before it, so any damage to the line
    // is caught here instead of decoding to a different number.
    if (line.size() < kSumTail)
        return false;
    const std::size_t bodyLen = line.size() - kSumTail;
    const std::string_view body(line.data(), bodyLen);
    if (line.compare(bodyLen, std::string::npos,
                     ",\"sum\":\"" + campaign::digestOfKey(body) + "\"}")
        != 0)
        return false;

    JsonValue event;
    std::string error;
    if (!parseJson(line, event, error))
        return false;
    const JsonValue *ev = event.find("event");
    if (!ev || ev->asString() != "point")
        return false;
    const JsonValue *label = event.find("label");
    const JsonValue *source = event.find("source");
    const JsonValue *metrics = event.find("metrics");
    std::uint64_t idx = 0, tot = 0;
    if (!exactUint(event.find("index"), SIZE_MAX, idx) ||
        !exactUint(event.find("total"), SIZE_MAX, tot) || !label ||
        !label->isString() || !source || !source->isString() ||
        !metrics || !metrics->isObject())
        return false;

    job = campaign::JobResult{};
    index = static_cast<std::size_t>(idx);
    total = static_cast<std::size_t>(tot);
    job.label = label->text;
    if (!campaign::jobSourceFromName(source->text, job.source))
        return false;

    if (const JsonValue *v = event.find("digest"))
        job.digest = v->asString();
    if (const JsonValue *v = event.find("error"))
        job.error = v->asString();
    if (const JsonValue *v = event.find("wall_ms"))
        job.wallMs = v->asNumber();
    if (const JsonValue *v = event.find("done_at_ms"))
        job.doneAtMs = v->asNumber();

    // Headline members travel typed, so 64-bit tick counts survive
    // even past double precision.
    RunSummary &s = job.summary;
    for (const HeadlineField &f : kHeadlineFields) {
        const JsonValue *v = event.find(f.name);
        const bool decoded = std::visit(
            [&](auto member) {
                using T = std::remove_reference_t<decltype(s.*member)>;
                if constexpr (std::is_same_v<T, bool>) {
                    if (!v || v->kind != JsonValue::Kind::Bool)
                        return false;
                    s.*member = v->boolean;
                } else if constexpr (std::is_floating_point_v<T>) {
                    if (!v || !v->isNumber())
                        return false;
                    s.*member = v->number;
                } else {
                    std::uint64_t n = 0;
                    if (!exactUint(v, std::numeric_limits<T>::max(), n))
                        return false;
                    s.*member = static_cast<T>(n);
                }
                return true;
            },
            f.member);
        if (!decoded)
            return false;
    }

    for (const auto &[k, v] : metrics->members) {
        if (!v.isNumber())
            return false;
        s.machine.metrics.set(k, v.number);
    }
    return true;
}

} // namespace tdm::driver::service
