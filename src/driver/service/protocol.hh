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
 * This header also hosts the JSON reader the server and the C++ client
 * share (the repo otherwise only writes JSON). One lexer reads every
 * line: a cursor that returns a string as a view (decoded into a
 * buffer only when it holds escapes), a number as its literal (read
 * with std::from_chars, through report::parseReal), and a literal or
 * a skipped value. parseJson builds a JsonValue tree on it for requests
 * and control events; decodePointEvent streams a point event through
 * it in one pass, with no tree, so one grammar serves both.
 */

#ifndef TDM_DRIVER_SERVICE_PROTOCOL_HH
#define TDM_DRIVER_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/report/format.hh"
#include "driver/service/store.hh"
#include "sim/metrics.hh"

namespace tdm::driver::service {

// ---- JSON reader ---------------------------------------------------------

/** One parsed JSON value, as a tree (parseJson builds it). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload (decoded); for numbers, the raw literal text. */
    std::string text;
    std::vector<JsonValue> items; ///< array elements
    /** Object members in input order (duplicates kept; find() returns
     *  the first). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** String payload, or @p dflt when not a string. */
    std::string asString(const std::string &dflt = "") const;
    /** Numeric payload, or @p dflt when not a number. */
    double asNumber(double dflt = 0.0) const;
    /** Boolean payload, or @p dflt when not a bool. */
    bool asBool(bool dflt = false) const;
};

/**
 * Parse exactly one JSON document from @p text (surrounding whitespace
 * allowed, trailing garbage rejected). On failure returns false and
 * describes the problem in @p error. Handles the full scalar grammar
 * including \uXXXX escapes (with surrogate pairs); depth is capped so
 * hostile input cannot blow the stack.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

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
 * invalid submit. Spec *values* are not validated here — that happens
 * in buildCampaign, where spec::SpecError carries the context.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

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
    std::size_t sseSubscribers = 0;  ///< live /api/events sessions
    std::uint64_t busPublished = 0;  ///< events fanned to the bus
    std::uint64_t busDropped = 0;    ///< events shed by slow streams
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
 * job.summary.machine.metrics. One pass over the line, no JsonValue
 * tree; as with JsonValue::find, the first of a repeated member counts,
 * while a repeated metric key keeps its last value. Returns false
 * (leaving the outputs unspecified) on a malformed event or a line
 * whose sum does not match its bytes.
 */
bool decodePointEvent(std::string_view line, campaign::JobResult &job,
                      std::size_t &index, std::size_t &total);

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_PROTOCOL_HH
