/**
 * @file
 * Per-layer host cost from replaying a traced run's operation streams.
 *
 * The traced run records, in call order, every point where the
 * machine hands work to an inner layer:
 *
 *  - sched spans carrying a task id end exactly where the machine calls
 *    startExec, i.e. MemoryModel::taskAccessTime (memory model);
 *  - TaskReady instants are ReadyPool::push calls and SchedPop spans
 *    are ReadyPool::pop calls (software ready pool);
 *  - NocRoundTrip instants are Mesh::roundTrip calls, one per DMU op
 *    that did not block, recorded right after the op itself; DmuBlocked
 *    instants are the blocked attempts; TaskExec spans are recorded just
 *    before finish_task (DMU and NoC);
 *  - all core-track spans give the shape of the event timeline (event
 *    kernel).
 *
 * Each stream is decoded into a flat operation list once, checked
 * against the run's own counters, and then replayed on a fresh
 * instance of the layer inside one timed loop, so the time covers the
 * layer's functions and nothing of the decoding.
 */

#include <algorithm>
#include <optional>
#include <span>

#include "bench.hh"
#include "core/runtime_model.hh"
#include "dmu/dmu.hh"
#include "mem/memory_model.hh"
#include "noc/mesh.hh"
#include "runtime/ready_pool.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace hostbench {

const char *const kReplayCategories = "task,sched,dmu,noc";

namespace {

namespace sim = tdm::sim;
namespace rt = tdm::rt;
namespace core = tdm::core;
using sim::TracePoint;
using sim::TraceRecord;

constexpr std::uint32_t kNoTask = UINT32_MAX;

/** Keeps a replay's results observable so the loop is not elided. */
volatile std::uint64_t gSink = 0;

/** Close the timed replay loop of @p layer begun at @p t0: keep its
 *  interval for the trace and return its length in ns. */
double
endLoop(LayerReplay &out, const char *layer, Clock::time_point t0)
{
    const Clock::time_point t1 = Clock::now();
    out.timed.push_back({layer, t0, t1});
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

TracePoint
pointOf(const TraceRecord &r)
{
    return static_cast<TracePoint>(r.point);
}

bool
isSched(TracePoint p)
{
    return p == TracePoint::SchedPop || p == TracePoint::SchedSteal
        || p == TracePoint::SchedGetReady;
}

/** Relative deviation of replayed counters from traced ones. */
double
deviation(std::initializer_list<std::pair<double, double>> pairs,
          double extra_mismatches = 0.0)
{
    double diff = extra_mismatches, base = 0.0;
    for (const auto &[replayed, traced] : pairs) {
        diff += std::abs(replayed - traced);
        base += traced;
    }
    return diff / std::max(1.0, base);
}

// ---- memory model ------------------------------------------------------

struct MemTask
{
    sim::CoreId core;
    std::uint32_t first, count;
};

void
replayMem(const tdm::driver::Experiment &exp, const rt::TaskGraph &g,
          const std::vector<TraceRecord> &recs, const sim::MetricSet &m,
          LayerReplay &out)
{
    if (!exp.config.enableMemModel)
        return;
    std::vector<MemTask> tasks;
    std::vector<tdm::mem::MemAccess> acc;
    for (const TraceRecord &r : recs) {
        if (!isSched(pointOf(r)) || r.a == kNoTask
            || r.a >= g.numTasks())
            continue;
        const rt::Task &t = g.task(r.a);
        const auto first = static_cast<std::uint32_t>(acc.size());
        for (const rt::DepSpec &d : t.deps)
            acc.push_back({d.region, g.region(d.region).bytes,
                           d.writes()});
        tasks.push_back({r.core, first,
                         static_cast<std::uint32_t>(t.deps.size())});
    }

    tdm::mem::MemoryModel mm(exp.config.mem, exp.config.numCores);
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const MemTask &t : tasks)
        sink += mm.taskAccessTime(
            t.core, std::span(acc.data() + t.first, t.count));
    out.memNs = endLoop(out, "mem.replay", t0);
    gSink = sink;

    out.memCalls = tasks.size();
    out.memL1Hits = mm.l1Hits();
    out.memL1Misses = mm.l1Misses();
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.memDev = deviation({{d(mm.l1Hits()), m.get("mem.l1_hits")},
                            {d(mm.l1Misses()), m.get("mem.l1_misses")},
                            {d(mm.l2Hits()), m.get("mem.l2_hits")},
                            {d(mm.l2Misses()), m.get("mem.l2_misses")}});
}

// ---- event kernel ------------------------------------------------------

/**
 * One event chain per core track: each fired event schedules the end
 * of the core's next traced span, so the pending set holds one event
 * per active core — the shape the machine's own queue has.
 */
class ChainReplay
{
  public:
    explicit ChainReplay(std::vector<std::vector<sim::Tick>> ends)
        : ends_(std::move(ends)), cur_(ends_.size(), 0)
    {}

    std::uint64_t
    run()
    {
        for (std::uint32_t c = 0; c < ends_.size(); ++c)
            if (!ends_[c].empty())
                eq_.post<&ChainReplay::fire>(ends_[c][0], this, c);
        eq_.run();
        return eq_.executed();
    }

    void
    fire(std::uint32_t core)
    {
        const std::vector<sim::Tick> &e = ends_[core];
        std::size_t &i = cur_[core];
        if (++i < e.size())
            eq_.post<&ChainReplay::fire>(std::max(e[i], eq_.now()), this,
                                         core);
    }

  private:
    sim::EventQueue eq_;
    std::vector<std::vector<sim::Tick>> ends_;
    std::vector<std::size_t> cur_;
};

void
replayEventQueue(const tdm::driver::Experiment &exp,
                 const std::vector<TraceRecord> &recs, LayerReplay &out)
{
    std::vector<std::vector<std::pair<sim::Tick, sim::Tick>>> spans(
        exp.config.numCores);
    for (const TraceRecord &r : recs) {
        const TracePoint p = pointOf(r);
        const bool coreSpan = isSched(p) || p == TracePoint::TaskCreate
                           || p == TracePoint::TaskExec
                           || p == TracePoint::TaskFinish;
        if (coreSpan && r.core < spans.size())
            spans[r.core].emplace_back(r.tick, r.tick + r.dur);
    }
    std::vector<std::vector<sim::Tick>> ends(spans.size());
    for (std::size_t c = 0; c < spans.size(); ++c) {
        std::stable_sort(spans[c].begin(), spans[c].end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &s : spans[c])
            ends[c].push_back(s.second);
    }
    ChainReplay chains(std::move(ends));
    const Clock::time_point t0 = Clock::now();
    out.eqEvents = chains.run();
    out.eqNs = endLoop(out, "sim.eventq.replay", t0);
}

// ---- DMU + software ready pool ----------------------------------------

enum class DmuKind : std::uint8_t { Create, AddDep, Commit, Finish, GetReady };

struct DmuOp
{
    DmuKind kind = DmuKind::GetReady;
    bool output = false;
    std::uint64_t desc = 0, addr = 0, size = 0;
};

struct PoolOp
{
    bool push = false;
    sim::CoreId core = 0;
    rt::ReadyTask task{};
};

/** Apply one op; blocked / commit-ready / get_ready payload out. */
struct DmuOutcome
{
    bool blocked = false;
    bool ready = false;
    std::optional<tdm::dmu::ReadyTaskInfo> info;
};

DmuOutcome
applyDmu(tdm::dmu::Dmu &d, const DmuOp &op)
{
    DmuOutcome o;
    switch (op.kind) {
      case DmuKind::Create:
        o.blocked = d.createTask(op.desc).blocked;
        break;
      case DmuKind::AddDep:
        o.blocked =
            d.addDependence(op.desc, op.addr, op.size, op.output).blocked;
        break;
      case DmuKind::Commit:
        o.ready = !d.commitTask(op.desc).readyDescAddrs.empty();
        break;
      case DmuKind::Finish:
        d.finishTask(op.desc);
        break;
      case DmuKind::GetReady: {
        unsigned acc = 0;
        o.info = d.getReadyTask(acc);
        break;
      }
    }
    return o;
}

/**
 * Decode the DMU op stream (and, for pooled runtimes, the ready-pool
 * stream) of one traced run by driving a decode-side Dmu and ReadyPool
 * through the records, then time both replays on fresh instances.
 */
void
replayDmuAndPool(const tdm::driver::Experiment &exp,
                 const rt::TaskGraph &g,
                 const std::vector<TraceRecord> &recs,
                 const sim::MetricSet &m, LayerReplay &out)
{
    const core::RuntimeTraits &traits = core::traitsOf(exp.runtime);
    const bool dmuRt = traits.dep == core::DepMode::Hardware;
    const bool pooled = traits.sched == core::SchedMode::SoftwarePool;
    const bool swDeps = !dmuRt;
    const rt::TaskId n = g.numTasks();
    if (n == 0)
        return;
    const std::uint64_t descBase = g.task(0).descAddr;
    auto taskOf = [&](std::uint64_t desc) {
        return static_cast<rt::TaskId>((desc - descBase)
                                       / rt::TaskGraph::descStride);
    };

    // Lookahead for the Task Superscalar master (see the None state
    // below): the record index of each task's TaskCreate span, and the
    // running count of master-core round trips.
    std::vector<std::size_t> createRec(n, recs.size());
    std::vector<std::uint32_t> masterTrips(recs.size() + 1, 0);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const TraceRecord &r = recs[i];
        if (pointOf(r) == TracePoint::TaskCreate && r.a < n)
            createRec[r.a] = i;
        masterTrips[i + 1] =
            masterTrips[i]
            + (pointOf(r) == TracePoint::NocRoundTrip && r.core == 0);
    }

    tdm::dmu::Dmu dd(exp.config.dmu);
    std::optional<rt::ReadyPool> pool;
    if (pooled)
        pool.emplace(rt::makeScheduler(exp.config.scheduler,
                                       exp.config.numCores,
                                       exp.config.succThreshold));
    std::vector<DmuOp> dmuOps;
    std::vector<PoolOp> poolOps;
    std::uint64_t dmuMismatch = 0, poolMismatch = 0;

    enum class St : std::uint8_t { None, FinishPending, GetReadyLoop,
                                   CommitFetch };
    std::vector<St> st(exp.config.numCores, St::None);
    std::vector<sim::CoreId> hintOf(n, sim::invalidCore);
    rt::TaskId cursor = 0; // next task the master creates
    std::size_t stage = 0; // 0 create, 1..deps add_dependence, then commit

    auto creationOp = [&]() {
        const rt::Task &t = g.task(cursor);
        DmuOp op;
        op.desc = t.descAddr;
        if (stage == 0) {
            op.kind = DmuKind::Create;
        } else if (stage <= t.deps.size()) {
            const rt::DepSpec &dep = t.deps[stage - 1];
            const rt::DataRegion &reg = g.region(dep.region);
            op.kind = DmuKind::AddDep;
            op.addr = reg.baseAddr;
            op.size = reg.bytes;
            op.output = dep.writes();
        } else {
            op.kind = DmuKind::Commit;
        }
        return op;
    };
    // Issue the master's next creation op; advance unless it blocked.
    auto issueCreation = [&]() {
        const DmuOp op = creationOp();
        dmuOps.push_back(op);
        const DmuOutcome o = applyDmu(dd, op);
        if (!o.blocked) {
            if (op.kind == DmuKind::Commit) {
                ++cursor;
                stage = 0;
            } else {
                ++stage;
            }
        }
        return std::pair(op, o);
    };
    auto getReady = [&](sim::CoreId hint) {
        DmuOp op;
        dmuOps.push_back(op);
        const DmuOutcome o = applyDmu(dd, op);
        if (o.info)
            hintOf[taskOf(o.info->descAddr)] = hint;
        return o.info.has_value();
    };

    // Software-runtime readiness context: the producing finish segment.
    bool swFromFinish = false;
    sim::CoreId swCore = 0;
    sim::Tick swStart = 0;

    for (std::size_t i = 0; i < recs.size(); ++i) {
        const TraceRecord &r = recs[i];
        const sim::CoreId c = r.core;
        switch (pointOf(r)) {
          case TracePoint::TaskExec:
            if (dmuRt && r.a < n && c < st.size()) {
                DmuOp op;
                op.kind = DmuKind::Finish;
                op.desc = g.task(r.a).descAddr;
                dmuOps.push_back(op);
                applyDmu(dd, op);
                st[c] = St::FinishPending;
            }
            break;
          case TracePoint::TaskFinish:
            swFromFinish = true;
            swCore = c;
            swStart = r.tick;
            break;
          case TracePoint::TaskCreate:
            swFromFinish = false;
            break;
          case TracePoint::DmuBlocked:
            if (dmuRt && cursor < n && !issueCreation().second.blocked)
                ++dmuMismatch;
            break;
          case TracePoint::NocRoundTrip: {
            if (!dmuRt || c >= st.size()) {
                ++dmuMismatch;
                break;
            }
            switch (st[c]) {
              case St::FinishPending:
                st[c] = pooled ? St::GetReadyLoop : St::None;
                break;
              case St::GetReadyLoop:
                if (!getReady(c))
                    st[c] = St::None;
                break;
              case St::CommitFetch:
                getReady(sim::invalidCore);
                st[c] = St::None;
                break;
              case St::None: {
                // A master round trip outside a finish is a creation op
                // under TDM. Under Task Superscalar it may also be a
                // get_ready dispatch (throttle, region end): it is a
                // creation op exactly when the master's round trips up
                // to the task's TaskCreate record number its ops.
                bool create = c == 0 && cursor < n;
                if (create && !pooled && stage == 0) {
                    const std::size_t end = createRec[cursor];
                    create = end < recs.size()
                          && masterTrips[end] - masterTrips[i]
                                 == g.task(cursor).deps.size() + 2;
                }
                if (create) {
                    const auto [op, o] = issueCreation();
                    if (o.blocked)
                        ++dmuMismatch;
                    if (op.kind == DmuKind::Commit && o.ready && pooled)
                        st[c] = St::CommitFetch;
                } else if (!pooled) {
                    getReady(c);
                } else {
                    ++dmuMismatch;
                }
                break;
              }
            }
            break;
          }
          case TracePoint::TaskReady: {
            if (!pooled || r.a >= n)
                break;
            PoolOp op;
            op.push = true;
            op.task.id = r.a;
            op.task.numSuccessors = r.b;
            op.task.creationSeq = r.a;
            op.task.readyTime = r.tick;
            if (swDeps) {
                op.task.producerHint =
                    swFromFinish ? swCore : sim::invalidCore;
                if (swFromFinish)
                    op.task.readyTime = swStart;
            } else {
                op.task.producerHint = hintOf[r.a];
            }
            pool->push(op.task);
            poolOps.push_back(op);
            break;
          }
          case TracePoint::SchedPop: {
            if (!pooled)
                break;
            PoolOp op;
            op.core = c;
            const auto got = pool->pop(c);
            if ((got ? got->id : kNoTask) != r.a)
                ++poolMismatch;
            poolOps.push_back(op);
            break;
          }
          default:
            break;
        }
    }

    if (dmuRt) {
        sim::MetricRegistry reg;
        dd.regMetrics(reg.context("dmu"));
        out.dmuDev = deviation(
            {{reg.value("dmu.ops"), m.get("dmu.ops")},
             {reg.value("dmu.blocked"), m.get("dmu.blocked")},
             {reg.value("dmu.accesses"), m.get("dmu.accesses")},
             {reg.value("dmu.tat.hits"), m.get("dmu.tat.hits")},
             {reg.value("dmu.dat.hits"), m.get("dmu.dat.hits")}},
            static_cast<double>(dmuMismatch));

        tdm::dmu::Dmu fresh(exp.config.dmu);
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const DmuOp &op : dmuOps) {
            const DmuOutcome o = applyDmu(fresh, op);
            sink += o.blocked + o.ready + o.info.has_value();
        }
        out.dmuNs = endLoop(out, "dmu.replay", t0);
        gSink = sink;
        out.dmuOps = dmuOps.size();
        out.dmuBlocked = fresh.blockedOps();
    }

    if (pooled) {
        const rt::ReadyPool &dp = *pool;
        out.poolDev = deviation(
            {{static_cast<double>(dp.pushes()),
              m.get("runtime.pool.pushes")},
             {static_cast<double>(dp.pops()), m.get("runtime.pool.pops")}},
            static_cast<double>(poolMismatch));

        rt::ReadyPool fresh(rt::makeScheduler(exp.config.scheduler,
                                              exp.config.numCores,
                                              exp.config.succThreshold));
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const PoolOp &op : poolOps) {
            if (op.push) {
                fresh.push(op.task);
            } else if (auto t = fresh.pop(op.core)) {
                sink += t->id;
            }
        }
        out.poolNs = endLoop(out, "runtime.pool.replay", t0);
        gSink = sink;
        out.poolOps = poolOps.size();
    }
}

// ---- NoC ---------------------------------------------------------------

void
replayNoc(const tdm::driver::Experiment &exp,
          const std::vector<TraceRecord> &recs, const sim::MetricSet &m,
          LayerReplay &out)
{
    tdm::noc::Mesh mesh(exp.config.mesh);
    std::vector<tdm::noc::NodeId> from;
    for (const TraceRecord &r : recs)
        if (pointOf(r) == TracePoint::NocRoundTrip)
            from.push_back(mesh.nodeOfCore(r.core));
    if (from.empty())
        return;
    const tdm::noc::NodeId dmuNode = mesh.centerNode();
    const unsigned bytes = exp.config.dmuMsgBytes;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const tdm::noc::NodeId f : from)
        sink += mesh.roundTrip(f, dmuNode, bytes).hops;
    out.nocNs = endLoop(out, "noc.replay", t0);
    gSink = sink;
    out.nocMessages = mesh.messages();
    out.nocFlitHops = mesh.flitHops();
    out.nocDev = deviation(
        {{static_cast<double>(mesh.messages()), m.get("mesh.messages")},
         {static_cast<double>(mesh.flitHops()), m.get("mesh.flit_hops")}});
}

} // namespace

LayerReplay
replayLayers(const tdm::driver::Experiment &exp, const rt::TaskGraph &graph,
             const sim::TraceBuffer &trace, const sim::MetricSet &traced)
{
    std::vector<TraceRecord> recs;
    recs.reserve(trace.size());
    trace.forEach([&](const TraceRecord &r) { recs.push_back(r); });

    LayerReplay out;
    replayMem(exp, graph, recs, traced, out);
    replayEventQueue(exp, recs, out);
    replayDmuAndPool(exp, graph, recs, traced, out);
    replayNoc(exp, recs, traced, out);
    if (trace.dropped() != 0) {
        // A truncated stream cannot reproduce the run's counters.
        out.memDev = out.dmuDev = out.nocDev = out.poolDev = 1.0;
    }
    return out;
}

} // namespace hostbench
