#include "driver/service/protocol.hh"

#include <algorithm>
#include <bitset>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/spec.hh"

namespace tdm::driver::service {

namespace {

using report::JsonEscaped;
using report::JsonReal;

/** The whole line @p c, through readMembers at its root; false, with
 *  the parse error in @p error, unless it is one well-formed value. */
template <std::size_t N, typename Name, typename Read>
bool
readLine(JsonCursor &c, std::bitset<N> &seen, Name &&name, Read &&read,
         std::string &error)
{
    if (!readMembers(c, 0, seen, name, read))
        error = c.error();
    else if (!c.atEnd())
        error = "trailing characters after JSON value";
    else
        return true;
    return false;
}

// Each readOr reads the value at nesting `depth` into `out` when it has
// out's type; any other value is checked and skipped, and out is left
// as it was.

bool
readOr(JsonCursor &c, int depth, std::string &out)
{
    return c.peek() == '"' ? c.string(out) : skipValue(c, depth);
}

bool
readOr(JsonCursor &c, int depth, double &out)
{
    return c.atNumber() ? c.real(out) : skipValue(c, depth);
}

/** A count is read from a plain unsigned integer literal only, into
 *  each of @p out, cut to its width. */
template <std::unsigned_integral... T>
bool
readOr(JsonCursor &c, int depth, T &...out)
{
    if (!c.atNumber())
        return skipValue(c, depth);
    std::string_view literal;
    std::uint64_t n = 0;
    if (!c.number(literal))
        return false;
    if (report::parseUint(literal, n))
        ((out = static_cast<T>(n)), ...);
    return true;
}

/** The object at nesting @p depth through readMembers, the member
 *  named names[i] read into the i-th of @p slots by readOr. */
template <typename Name, std::size_t N, typename... T>
bool
readSlots(JsonCursor &c, int depth, const Name (&names)[N],
          std::tuple<T &...> slots)
{
    static_assert(sizeof...(T) == N);
    std::bitset<N> seen;
    auto name = [&](std::size_t m) { return std::string_view(names[m]); };
    return readMembers(c, depth, seen, name, [&](std::size_t m) {
        bool read = false;
        std::apply(
            [&](auto &...slot) {
                std::size_t i = 0;
                ((i++ == m && (read = readOr(c, depth + 1, slot))), ...);
            },
            slots);
        return read;
    });
}

// ---- requests ------------------------------------------------------------

/** The op names, indexed by RequestOp. */
constexpr std::string_view kOpNames[] = {"ping", "status", "shutdown",
                                         "submit"};

/** The spec object at nesting @p depth, appended to @p out: strings,
 *  and numbers and bools as written (specs are stringly typed). Its
 *  first fault, named after @p what, goes to an empty @p fault. */
bool
specEntries(JsonCursor &c, int depth,
            std::vector<std::pair<std::string, std::string>> &out,
            const std::string &what, std::string &fault)
{
    if (c.peek() != '{') {
        if (fault.empty())
            fault = what + " must be an object";
        return skipValue(c, depth);
    }
    return c.object([&](std::string_view key) {
        std::string &value = out.emplace_back(key, "").second;
        std::string_view literal;
        switch (c.peek()) {
        case '"': return c.string(value);
        case 't': return c.word(value = "true");
        case 'f': return c.word(value = "false");
        }
        if (c.atNumber()) {
            if (!c.number(literal))
                return false;
            value = literal;
            return true;
        }
        if (fault.empty())
            fault = what + "." + std::string(key)
                    + " must be a string, number, or bool";
        return skipValue(c, depth + 1);
    });
}

/** The "points" array at nesting 1, appended to @p out; its fault, or
 *  its first faulty point's, goes to @p fault. */
bool
readPoints(JsonCursor &c, std::vector<SubmitRequest::Point> &out,
           std::string &fault)
{
    auto point = [&] {
        SubmitRequest::Point &p = out.emplace_back();
        if (c.peek() != '{' && fault.empty())
            fault = "each point must be an object";
        std::bitset<2> seen;
        std::string specFault;
        const bool read = readMembers(
            c, 2, seen, [](std::size_t m) { return m ? "spec" : "label"; },
            [&](std::size_t m) {
                return m == 0 ? readOr(c, 3, p.label)
                              : specEntries(c, 3, p.spec, "spec", specFault);
            });
        if (fault.empty())
            fault = seen[1] ? specFault : "each point needs a \"spec\" object";
        return read;
    };
    const bool read = c.peek() == '[' ? c.array(point) : skipValue(c, 1);
    if (out.empty())
        fault = "\"points\" must be a non-empty array";
    return read;
}

} // namespace

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    enum Member : std::size_t {
        Op, Name, Metrics, Set, Campaign, Points, kMembers
    };
    static constexpr std::string_view kNames[kMembers] = {
        "op", "name", "metrics", "set", "campaign", "points"};

    // One pass reads the line into out.submit and notes each fault;
    // once the whole line is known to be well formed, the first fault
    // in order of precedence is the one reported.
    out = Request{};
    SubmitRequest &req = out.submit;
    std::bitset<kMembers> seen;
    std::string op, setFault, pointsFault;
    bool opIsString = false, campaignIsString = false;
    JsonCursor c(line);
    const bool isObject = c.peek() == '{';
    auto name = [](std::size_t m) { return kNames[m]; };
    auto member = [&](std::size_t m) {
        switch (m) {
        case Op:
            opIsString = c.peek() == '"';
            return readOr(c, 1, op);
        case Name: return readOr(c, 1, req.name);
        case Metrics: return readOr(c, 1, req.metrics);
        case Set: return specEntries(c, 1, req.set, "set", setFault);
        case Campaign:
            campaignIsString = c.peek() == '"';
            return readOr(c, 1, req.campaignText);
        default: return readPoints(c, req.points, pointsFault);
        }
    };
    if (!readLine(c, seen, name, member, error))
        return false;
    if (!isObject) {
        error = "request must be a JSON object";
        return false;
    }
    const auto named = std::find(std::begin(kOpNames), std::end(kOpNames), op);
    if (!opIsString || named == std::end(kOpNames)) {
        error = opIsString ? "unknown op \"" + op + "\"" : "missing \"op\"";
        return false;
    }
    out.op = static_cast<RequestOp>(named - std::begin(kOpNames));
    if (out.op != RequestOp::Submit) {
        req = SubmitRequest{}; // the other ops take no members
        return true;
    }
    try {
        // Refused here, before the campaign runs: the point events
        // apply the selection on engine threads.
        const sim::MetricSelection validated(req.metrics);
    } catch (const sim::MetricError &e) {
        error = e.what();
        return false;
    }
    if (!setFault.empty())
        error = setFault;
    else if (seen[Campaign] == seen[Points])
        error = "submit needs exactly one of \"campaign\" or \"points\"";
    else if (seen[Campaign] && !campaignIsString)
        error = "\"campaign\" must be a string";
    else if (!pointsFault.empty())
        error = pointsFault;
    else
        return true;
    return false;
}

void
writeSubmit(report::Text &out, const campaign::Campaign &c,
            const std::vector<sim::Config> &specs)
{
    out << "{\"op\":\"submit\",\"name\":\"" << JsonEscaped{c.name}
        << "\",\"metrics\":\"" << JsonEscaped{c.metrics}
        << "\",\"points\":[";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        out << (i ? "," : "") << "{\"label\":\""
            << JsonEscaped{c.points[i].label} << "\",\"spec\":{";
        bool first = true;
        for (const auto &[k, v] : specs[i].entries()) {
            out << (first ? "\"" : ",\"") << JsonEscaped{k} << "\":\""
                << JsonEscaped{v} << '"';
            first = false;
        }
        out << "}}";
    }
    out << "]}\n";
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
            << ",\"events_published\":" << info.eventsPublished
            << ",\"events_dropped\":" << info.eventsDropped << '}';
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

    // Metric keys arrive sorted, so each lands at the tree's end.
    job = campaign::JobResult{};
    RunSummary &s = job.summary;
    std::uint64_t idx = 0, tot = 0;
    std::bitset<kPointMembers + std::size(kHeadlineFields)> seen;
    std::string scratch;
    JsonCursor c(line);
    auto name = [](std::size_t m) -> std::string_view {
        return m < kPointMembers ? kPointMemberNames[m]
                                 : kHeadlineFields[m - kPointMembers].name;
    };
    auto member = [&](std::size_t m) {
        std::string_view text;
        switch (m) {
        case Digest: return readOr(c, 1, job.digest);
        case Error: return readOr(c, 1, job.error);
        case WallMs: return readOr(c, 1, job.wallMs);
        case DoneAtMs: return readOr(c, 1, job.doneAtMs);
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
    if (!readMembers(c, 0, seen, name, member) || !c.atEnd())
        return false;
    for (std::size_t m = Event; m < seen.size(); ++m)
        if (!seen[m])
            return false;
    index = static_cast<std::size_t>(idx);
    total = static_cast<std::size_t>(tot);
    return true;
}

bool
decodeEvent(std::string_view line, ServiceEvent &out, std::string &error)
{
    // The members the client reads of any event; the done totals
    // follow them in the member numbering.
    enum Member : std::size_t {
        Event, Message, Campaigns, Points, Served, CachePoints, Inflight,
        Threads, UptimeMs, Store, Http, WallMs, kMembers
    };
    static constexpr std::string_view kNames[kMembers] = {
        "event", "message", "campaigns", "points", "served",
        "cache_points", "inflight", "threads", "uptime_ms", "store",
        "http", "wall_ms"};
    static constexpr std::string_view kStoreNames[] = {
        "dir", "blobs", "bytes", "hits", "misses", "stores", "corrupt"};
    static constexpr std::string_view kHttpNames[] = {
        "addr", "requests", "sse_subscribers", "events_published",
        "events_dropped"};

    out = ServiceEvent{};
    StatusInfo &s = out.status;
    JsonCursor c(line);
    auto name = [](std::size_t m) -> std::string_view {
        return m < kMembers ? kNames[m]
                            : campaign::kCampaignTotals[m - kMembers].name;
    };
    // The served object: one count per source, in kJobSourceNames order.
    auto served = [&](auto &...n) {
        return readSlots(c, 1, campaign::kJobSourceNames, std::tie(n...));
    };
    auto member = [&](std::size_t m) {
        switch (m) {
        case Event: return readOr(c, 1, out.event);
        case Message:
            out.message.clear(); // a message that is no string reads ""
            return readOr(c, 1, out.message);
        case Campaigns: return readOr(c, 1, s.campaigns);
        case Points: return readOr(c, 1, s.points);
        case Served: return std::apply(served, s.served);
        case CachePoints: return readOr(c, 1, s.cachePoints);
        case Inflight: return readOr(c, 1, s.inflight);
        case Threads: return readOr(c, 1, s.threads, out.done.threads);
        case UptimeMs: return readOr(c, 1, s.uptimeMs);
        case Store:
            s.hasStore = c.peek() == '{';
            return readSlots(c, 1, kStoreNames,
                             std::tie(s.storeDir, s.store.blobs,
                                      s.store.bytes, s.store.hits,
                                      s.store.misses, s.store.stores,
                                      s.store.corrupt));
        case Http:
            s.hasHttp = c.peek() == '{';
            return readSlots(c, 1, kHttpNames,
                             std::tie(s.httpAddr, s.httpRequests,
                                      s.sseSubscribers, s.eventsPublished,
                                      s.eventsDropped));
        case WallMs: return readOr(c, 1, out.done.wallMs);
        default:
            return readOr(
                c, 1, out.done.*campaign::kCampaignTotals[m - kMembers].member);
        }
    };
    std::bitset<kMembers + std::size(campaign::kCampaignTotals)> seen;
    return readLine(c, seen, name, member, error);
}

} // namespace tdm::driver::service
