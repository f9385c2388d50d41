#include "driver/report/trace_writer.hh"

#include "dmu/dmu.hh"
#include "driver/report/format.hh"
#include "sim/types.hh"

namespace tdm::driver::report {

namespace {

/** Sentinel `a` value of scheduling spans that came back empty. */
constexpr std::uint32_t noTask = UINT32_MAX;

/** Buffered bytes that trigger a write to the stream. */
constexpr std::size_t kFlushBytes = 1 << 16;

/** Ticks -> microseconds with sub-cycle resolution preserved
 *  (2 GHz: one tick is 0.0005 us). */
FixedReal
usOf(sim::Tick t)
{
    return {sim::ticksToUs(t), 4};
}

std::uint64_t
counterValue(const sim::TraceRecord &r)
{
    return (static_cast<std::uint64_t>(r.b) << 32) | r.a;
}

void
writeArgs(Text &os, const sim::TraceRecord &r, const TraceMeta &meta)
{
    using TP = sim::TracePoint;
    switch (static_cast<TP>(r.point)) {
    case TP::TaskCreate:
    case TP::TaskFinish:
    case TP::TaskRetire:
        os << "{\"task\":" << r.a << "}";
        break;
    case TP::TaskReady:
        os << "{\"task\":" << r.a << ",\"successors\":" << r.b << "}";
        break;
    case TP::TaskExec:
        os << "{\"task\":" << r.a << ",\"kernel\":" << r.b;
        if (meta.graph && r.a < meta.graph->numTasks())
            os << ",\"deps\":" << meta.graph->task(r.a).deps.size();
        os << "}";
        break;
    case TP::SchedPop:
    case TP::SchedSteal:
    case TP::SchedGetReady:
        if (r.a == noTask)
            os << "{\"empty\":true}";
        else
            os << "{\"task\":" << r.a << "}";
        break;
    case TP::DmuBlocked:
        os << "{\"task\":" << r.a << ",\"reason\":\""
           << dmu::toString(static_cast<dmu::BlockReason>(r.b))
           << "\"}";
        break;
    case TP::NocRoundTrip:
        os << "{\"latency_cycles\":" << r.a << ",\"hops\":" << r.b
           << "}";
        break;
    case TP::MemRegionMiss:
        os << "{\"l1_misses\":" << r.a << ",\"l2_misses\":" << r.b
           << "}";
        break;
    default:
        os << "{}";
        break;
    }
}

} // namespace

void
writeChromeTrace(std::ostream &dest, const sim::TraceBuffer &buf,
                 const TraceMeta &meta)
{
    Text os;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Metadata: the run is one process; each core is a thread track
    // (tid = core + 1, so tid 0 stays free for process-scoped rows).
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\""
       << JsonEscaped{meta.processName} << "\"}}";
    for (unsigned c = 0; c < meta.numCores; ++c) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":"
           << (c + 1) << ",\"args\":{\"name\":\"core " << c
           << (c == 0 ? " (master)" : "") << "\"}}";
        sep();
        os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":"
           << (c + 1) << ",\"args\":{\"sort_index\":" << c << "}}";
    }

    buf.forEach([&](const sim::TraceRecord &r) {
        const sim::TracePointInfo &info =
            sim::tracePointInfo(static_cast<sim::TracePoint>(r.point));
        sep();
        os << "{\"name\":\"" << info.name << "\",\"cat\":\""
           << sim::traceCatName(info.cat) << "\",\"pid\":1";
        switch (info.kind) {
        case sim::TraceKind::Span:
            os << ",\"tid\":" << (r.core + 1) << ",\"ph\":\"X\",\"ts\":"
               << usOf(r.tick) << ",\"dur\":" << usOf(r.dur)
               << ",\"args\":";
            writeArgs(os, r, meta);
            break;
        case sim::TraceKind::Instant:
            if (r.core == sim::traceNoCore)
                os << ",\"tid\":0,\"ph\":\"i\",\"s\":\"p\"";
            else
                os << ",\"tid\":" << (r.core + 1)
                   << ",\"ph\":\"i\",\"s\":\"t\"";
            os << ",\"ts\":" << usOf(r.tick) << ",\"args\":";
            writeArgs(os, r, meta);
            break;
        case sim::TraceKind::Counter:
            os << ",\"tid\":0,\"ph\":\"C\",\"ts\":" << usOf(r.tick)
               << ",\"args\":{\"value\":" << counterValue(r) << "}";
            break;
        }
        os << "}";
        if (os.size() >= kFlushBytes)
            os.flushTo(dest);
    });

    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"clock_ghz\":2,\"records\":"
       << buf.size() << ",\"dropped\":" << buf.dropped() << "}}\n";
    os.flushTo(dest);
}

void
writeTraceEventReference(std::ostream &os)
{
    os << "| event | category | kind | description |\n";
    os << "|---|---|---|---|\n";
    const auto n = static_cast<std::size_t>(sim::TracePoint::NumPoints);
    for (std::size_t i = 0; i < n; ++i) {
        const sim::TracePointInfo &info =
            sim::tracePointInfo(static_cast<sim::TracePoint>(i));
        const char *kind = info.kind == sim::TraceKind::Span ? "span"
                           : info.kind == sim::TraceKind::Instant
                               ? "instant"
                               : "counter";
        os << "| `" << info.name << "` | "
           << sim::traceCatName(info.cat) << " | " << kind << " | "
           << info.doc << " |\n";
    }
}

} // namespace tdm::driver::report
