#include "core/machine.hh"

#include <algorithm>

#include "dmu/geometry.hh"
#include "sim/assert.hh"
#include "sim/logging.hh"

namespace tdm::core {

namespace {

const rt::TaskGraph &
requireGraph(const std::shared_ptr<const rt::TaskGraph> &g)
{
    if (!g)
        sim::fatal("machine needs a non-null task graph");
    return *g;
}

} // namespace

Machine::Machine(const cpu::MachineConfig &cfg, const rt::TaskGraph &graph,
                 RuntimeType runtime)
    : Machine(cfg,
              std::shared_ptr<const rt::TaskGraph>(
                  std::shared_ptr<const rt::TaskGraph>{}, &graph),
              runtime)
{
}

Machine::Machine(const cpu::MachineConfig &cfg,
                 std::shared_ptr<const rt::TaskGraph> graph,
                 RuntimeType runtime)
    : cfg_(cfg), graphHold_(std::move(graph)),
      graph_(requireGraph(graphHold_)), traits_(traitsOf(runtime)),
      phases_(cfg_.numCores), mesh_(cfg_.mesh), cores_(cfg_.numCores),
      idleNext_(cfg_.numCores, sim::invalidCore),
      idlePrev_(cfg_.numCores, sim::invalidCore), acct_(cfg_.power)
{
    tbuf_.configure(cfg_.trace);
    if (cfg_.numCores < 2)
        sim::fatal("machine needs at least 2 cores (master + worker)");
    if (cfg_.numCores + 1 > mesh_.numNodes())
        sim::fatal("mesh too small for ", cfg_.numCores, " cores + DMU");

    if (cfg_.enableMemModel)
        mem_ = std::make_unique<mem::MemoryModel>(
            cfg_.mem, cfg_.numCores, graph_.regions().size());

    if (traits_.dep == DepMode::Software) {
        tracker_.emplace(graph_);
    } else {
        dmu_.emplace(cfg_.dmu);
    }

    switch (traits_.sched) {
      case SchedMode::SoftwarePool:
        pool_.emplace(rt::makeScheduler(cfg_.scheduler, cfg_.numCores,
                                        cfg_.succThreshold));
        break;
      case SchedMode::HardwareQueues:
        hwq_.emplace(cfg_.numCores, cfg_.carbon.queueEntriesPerCore);
        break;
      case SchedMode::HardwareFifo:
        break; // DMU Ready Queue is the scheduler
    }

    // Descriptor addresses are an affine function of the task id
    // (TaskGraph::createTask bump-allocates them); verify once so
    // taskOfDesc can be pure arithmetic on the hot path.
    if (!graph_.tasks().empty()) {
        descBase_ = graph_.task(0).descAddr;
        for (const rt::Task &t : graph_.tasks()) {
            if (t.descAddr != descBase_ + static_cast<std::uint64_t>(t.id)
                                              * rt::TaskGraph::descStride)
                sim::panic("task graph descriptor layout is not affine "
                           "(task ", t.id, ")");
        }
    }

    registerMetrics();
}

void
Machine::registerMetrics()
{
    sim::MetricContext m = metrics_.context("machine");
    m.counter("tasks_executed", &tasksExecuted_, "task bodies retired");
    m.counter("master_create_ticks", &masterCreateTicks_,
              "master ticks spent in task-creation segments");
    m.distribution("task_cycles", &taskCycles_,
                   "task body duration (compute + memory stall)");
    m.gauge("completed", [this] { return finished_ ? 1.0 : 0.0; },
            "run reached the end of the task graph");
    m.gauge("makespan_ticks",
            [this] {
                return static_cast<double>(finished_ ? makespan_
                                                     : eq_.now());
            },
            "end-to-end run length in ticks");
    m.formulaFn("time_ms",
                [this] {
                    return sim::ticksToSeconds(finished_ ? makespan_
                                                         : eq_.now())
                           * 1e3;
                },
                "end-to-end run length in milliseconds");
    m.formulaFn("master_creation_fraction",
                [this] {
                    const sim::Tick total =
                        finished_ ? makespan_ : eq_.now();
                    return total ? static_cast<double>(masterCreateTicks_)
                                       / static_cast<double>(total)
                                 : 0.0;
                },
                "fraction of the run the master spent creating tasks");

    phases_.regMetrics(metrics_.context("cpu"));
    mesh_.regMetrics(metrics_.context("mesh"));
    if (mem_)
        mem_->regMetrics(metrics_.context("mem"));
    if (dmu_)
        dmu_->regMetrics(metrics_.context("dmu"));
    if (tracker_)
        tracker_->regMetrics(metrics_.context("runtime.tracker"));
    if (pool_)
        pool_->regMetrics(metrics_.context("runtime.pool"));
    if (hwq_)
        hwq_->regMetrics(metrics_.context("runtime.hwq"));

    acct_.regMetrics(metrics_.context(pwr::EnergyAccountant::scope));
}

void
Machine::noteFirstExec()
{
    sawFirstExec_ = true;
    warmupEndTick_ = eq_.now();
    snapWarmupEnd_ = metrics_.snapshot();
    if (pendingRoiEnd_) {
        pendingRoiEnd_ = false;
        noteRoiEnd();
    }
}

void
Machine::noteRoiEnd()
{
    if (roiEnded_)
        return;
    if (!sawFirstExec_) {
        // A tiny graph can finish creating before any body starts;
        // defer so the ROI boundary never precedes the warmup one.
        pendingRoiEnd_ = true;
        return;
    }
    roiEnded_ = true;
    roiEndTick_ = eq_.now();
    snapRoiEnd_ = metrics_.snapshot();
}

Machine::~Machine() = default;

rt::TaskId
Machine::taskOfDesc(std::uint64_t desc_addr) const
{
    const std::uint64_t off = desc_addr - descBase_;
    const std::uint64_t idx = off / rt::TaskGraph::descStride;
    if (desc_addr < descBase_ || off % rt::TaskGraph::descStride != 0
        || idx >= graph_.numTasks())
        sim::panic("unknown task descriptor 0x", std::hex, desc_addr);
    return static_cast<rt::TaskId>(idx);
}

const std::vector<mem::MemAccess> &
Machine::footprintOf(rt::TaskId id)
{
    footprintScratch_.clear();
    const rt::Task &t = graph_.task(id);
    footprintScratch_.reserve(t.deps.size());
    for (const rt::DepSpec &d : t.deps) {
        footprintScratch_.push_back(
            mem::MemAccess{d.region, graph_.region(d.region).bytes,
                           d.writes()});
    }
    return footprintScratch_;
}

std::uint32_t
Machine::swSuccCount(rt::TaskId id) const
{
    return tracker_ ? tracker_->succCount(id) : 0;
}

sim::Tick
Machine::dmuOpDone(sim::CoreId core, unsigned accesses)
{
    if (tbuf_.on(sim::TraceCat::Dmu)) {
        const sim::Tick t = eq_.now();
        using TP = sim::TracePoint;
        tbuf_.counter(TP::DmuTasksInFlight, t, dmu_->tasksInFlight());
        tbuf_.counter(TP::DmuDepsInFlight, t, dmu_->depsInFlight());
        tbuf_.counter(TP::DmuReadyQueue, t, dmu_->readyCount());
        tbuf_.counter(TP::DmuTatLive, t, dmu_->tat().liveEntries());
        tbuf_.counter(TP::DmuDatLive, t, dmu_->dat().liveEntries());
        tbuf_.counter(TP::DmuSlaUsed, t, dmu_->sla().entriesInUse());
        tbuf_.counter(TP::DmuDlaUsed, t, dmu_->dla().entriesInUse());
        tbuf_.counter(TP::DmuRlaUsed, t, dmu_->rla().entriesInUse());
    }
    noc::NodeId from = mesh_.nodeOfCore(core);
    noc::NodeId dmu_node = mesh_.centerNode();
    noc::Mesh::RoundTrip rt =
        mesh_.roundTrip(from, dmu_node, cfg_.dmuMsgBytes);
    if (tbuf_.on(sim::TraceCat::Noc)) {
        tbuf_.instant(sim::TracePoint::NocRoundTrip,
                      static_cast<std::uint16_t>(core), eq_.now(),
                      static_cast<std::uint32_t>(rt.request
                                                 + rt.response),
                      rt.hops);
    }
    sim::Tick proc = static_cast<sim::Tick>(accesses)
                   * cfg_.dmu.accessCycles;
    sim::Tick done = dmuPipe_.acquire(eq_.now() + rt.request, proc);
    return done + rt.response + cfg_.tdmCosts.issueCycles;
}

void
Machine::parkOnDmu(const DmuRetry &retry, dmu::BlockReason reason)
{
    if (tbuf_.on(sim::TraceCat::Dmu)) {
        tbuf_.instant(sim::TracePoint::DmuBlocked, masterCore, eq_.now(),
                      retry.id, static_cast<std::uint32_t>(reason));
    }
    dmuWaiters_.push_back(retry);
}

void
Machine::traceWake(sim::CoreId core, sim::Tick idle_since)
{
    --idleCount_;
    if (tbuf_.on(sim::TraceCat::Core)) {
        tbuf_.span(sim::TracePoint::CoreIdle,
                   static_cast<std::uint16_t>(core), idle_since,
                   eq_.now());
        tbuf_.counter(sim::TracePoint::IdleCores, eq_.now(),
                      idleCount_);
    }
}

// ---------------------------------------------------------------------
// Master: regions and task creation
// ---------------------------------------------------------------------

void
Machine::masterAdvanceRegion()
{
    if (curRegion_ >= graph_.parallelRegions().size()) {
        finished_ = true;
        makespan_ = eq_.now();
        return;
    }
    const rt::ParallelRegion &region =
        graph_.parallelRegions()[curRegion_];
    regionDone_ = false;
    executedInRegion_ = 0;
    createdInRegion_ = 0;
    if (tracker_)
        tracker_->resetRegion();
    if (dmu_ && dmu_->tasksInFlight() != 0)
        sim::panic("DMU not empty at a global synchronization point");

    sim::Tick prologue = region.prologueCycles;
    eq_.postIn<&Machine::onPrologueDone>(prologue, this, prologue);
}

void
Machine::onPrologueDone(sim::Tick prologue)
{
    phases_.add(masterCore, cpu::Phase::Exec, prologue);
    const rt::ParallelRegion &r = graph_.parallelRegions()[curRegion_];
    if (r.numTasks == 0) {
        ++curRegion_;
        masterAdvanceRegion();
    } else {
        masterCreating_ = true;
        masterCreateNext();
    }
}

void
Machine::masterCreateNext()
{
    const rt::ParallelRegion &region =
        graph_.parallelRegions()[curRegion_];
    if (createdInRegion_ == region.numTasks) {
        masterDoneCreating();
        return;
    }
    // Creation throttle: with too many tasks in flight the master
    // behaves as a worker for one task, then reconsiders.
    unsigned inflight = tracker_ ? tracker_->inFlight()
                                 : dmu_->tasksInFlight();
    if (inflight >= cfg_.throttleTasks) {
        tryDispatch(masterCore);
        return;
    }
    rt::TaskId id = region.firstTask + createdInRegion_;
    ++createdInRegion_;
    ++createdTotal_;
    if (traits_.dep == DepMode::Software)
        masterCreateSw(id);
    else
        masterCreateTdm(id);
}

void
Machine::masterCreateSw(rt::TaskId id)
{
    sim::Tick seg_start = eq_.now();
    rt::TrackerCreateWork work = tracker_->create(id);
    const rt::SwCosts &c = cfg_.swCosts;
    double f = graph_.swDepCostFactor;

    // Descriptor allocation and region-map lookups happen outside the
    // runtime lock; edge insertion and pool publication inside it.
    sim::Tick unlocked = c.taskAllocCycles
        + static_cast<sim::Tick>(
              (static_cast<double>(work.depLookups) * c.depLookupCycles
               + static_cast<double>(work.fragmentSplits)
                     * c.fragmentSplitCycles) * f);
    sim::Tick locked = static_cast<sim::Tick>(
        (static_cast<double>(work.edgeInserts) * c.edgeInsertCycles
         + static_cast<double>(work.readerScans) * c.readerScanCycles)
        * f);
    bool ready_now = work.readyNow;
    if (ready_now && pool_) {
        locked += c.poolPushCycles + pool_->policy().pushExtraCycles();
    }
    sim::Tick completion = lock_.acquire(seg_start + unlocked, locked);
    eq_.post<&Machine::onSwCreateDone>(completion, this, id, ready_now,
                                       seg_start, completion);
}

void
Machine::onSwCreateDone(rt::TaskId id, bool ready_now,
                        sim::Tick seg_start, sim::Tick completion)
{
    closeCreateSegment(id, seg_start, completion);
    if (ready_now) {
        deliverReady(rt::ReadyTask{id, swSuccCount(id), sim::invalidCore,
                                   id, completion});
    }
    masterCreateNext();
}

void
Machine::closeCreateSegment(rt::TaskId id, sim::Tick seg_start,
                            sim::Tick end)
{
    phases_.add(masterCore, cpu::Phase::Deps, end - seg_start);
    masterCreateTicks_ += end - seg_start;
    if (tbuf_.on(sim::TraceCat::Task)) {
        tbuf_.span(sim::TracePoint::TaskCreate, masterCore, seg_start,
                   end, id);
    }
}

void
Machine::masterCreateTdm(rt::TaskId id)
{
    sim::Tick seg_start = eq_.now();
    eq_.postIn<&Machine::masterIssueCreateOp>(cfg_.tdmCosts.taskAllocCycles,
                                              this, id, seg_start);
}

void
Machine::masterIssueCreateOp(rt::TaskId id, sim::Tick seg_start)
{
    const rt::Task &t = graph_.task(id);
    dmu::DmuResult res = dmu_->createTask(t.descAddr);
    if (res.blocked) {
        parkOnDmu(DmuRetry{true, id, 0, seg_start}, res.reason);
        return;
    }
    sim::Tick done = dmuOpDone(masterCore, res.accesses);
    eq_.post<&Machine::masterIssueDepOp>(done, this, id, std::size_t{0},
                                         seg_start);
}

void
Machine::masterIssueDepOp(rt::TaskId id, std::size_t dep_idx,
                          sim::Tick seg_start)
{
    const rt::Task &t = graph_.task(id);
    if (dep_idx == t.deps.size()) {
        masterIssueCommitOp(id, seg_start);
        return;
    }
    const rt::DepSpec &d = t.deps[dep_idx];
    const rt::DataRegion &region = graph_.region(d.region);
    dmu::DmuResult res = dmu_->addDependence(t.descAddr, region.baseAddr,
                                             region.bytes, d.writes());
    if (res.blocked) {
        parkOnDmu(DmuRetry{false, id, dep_idx, seg_start}, res.reason);
        return;
    }
    sim::Tick done = dmuOpDone(masterCore, res.accesses);
    eq_.post<&Machine::masterIssueDepOp>(done, this, id, dep_idx + 1,
                                         seg_start);
}

void
Machine::masterIssueCommitOp(rt::TaskId id, sim::Tick seg_start)
{
    const rt::Task &t = graph_.task(id);
    dmu::DmuResult res = dmu_->commitTask(t.descAddr);
    sim::Tick done = dmuOpDone(masterCore, res.accesses);
    bool ready_now = !res.readyDescAddrs.empty();

    if (ready_now && traits_.sched == SchedMode::SoftwarePool) {
        // The task entered the hardware Ready Queue at commit; the
        // master immediately requests it with get_ready_task and moves
        // it into the software pool (Section III-C3). The FIFO may
        // hand back a different ready task queued by a concurrent
        // finish — either way one entry moves to the pool.
        unsigned acc = 0;
        auto info = dmu_->getReadyTask(acc);
        if (!info)
            sim::panic("ready task vanished from the Ready Queue");
        sim::Tick fetched = dmuOpDone(masterCore, acc);
        rt::TaskId got = taskOfDesc(info->descAddr);
        std::uint32_t nsucc = info->numSuccessors;
        sim::Tick hold = cfg_.tdmCosts.poolPushCycles
                       + pool_->policy().pushExtraCycles();
        sim::Tick completion = lock_.acquire(fetched, hold);
        eq_.post<&Machine::onCommitReadyFetched>(completion, this, id,
                                                 got, nsucc, seg_start,
                                                 completion);
    } else {
        eq_.post<&Machine::onCommitDone>(done, this, id, seg_start, done,
                                         ready_now);
    }
}

void
Machine::onCommitReadyFetched(rt::TaskId created, rt::TaskId got,
                              std::uint32_t nsucc, sim::Tick seg_start,
                              sim::Tick completion)
{
    closeCreateSegment(created, seg_start, completion);
    deliverReady(rt::ReadyTask{got, nsucc, sim::invalidCore, got,
                               completion});
    masterCreateNext();
}

void
Machine::onCommitDone(rt::TaskId id, sim::Tick seg_start, sim::Tick done,
                      bool ready_now)
{
    closeCreateSegment(id, seg_start, done);
    if (ready_now && traits_.sched == SchedMode::HardwareFifo)
        wakeOneIdle();
    masterCreateNext();
}

void
Machine::masterDoneCreating()
{
    masterCreating_ = false;
    if (createdTotal_ == graph_.numTasks())
        noteRoiEnd();
    tryDispatch(masterCore);
}

// ---------------------------------------------------------------------
// Workers: dispatch, execute, finish
// ---------------------------------------------------------------------

void
Machine::dispatchEntry(sim::CoreId core)
{
    if (core == masterCore && masterCreating_)
        masterCreateNext();
    else
        tryDispatch(core);
}

void
Machine::tryDispatch(sim::CoreId core)
{
    if (finished_)
        return;
    sim::Tick seg_start = eq_.now();

    switch (traits_.sched) {
      case SchedMode::SoftwarePool: {
        const sim::Tick pop_cost =
            (traits_.dep == DepMode::Software
                 ? cfg_.swCosts.poolPopCycles
                 : cfg_.tdmCosts.poolPopCycles)
            + pool_->policy().popExtraCycles();
        sim::Tick completion = lock_.acquire(seg_start, pop_cost);
        eq_.post<&Machine::onPoolPopDone>(completion, this, core,
                                          seg_start, completion);
        break;
      }
      case SchedMode::HardwareQueues: {
        sim::Tick cost = cfg_.carbon.localOpCycles;
        eq_.postIn<&Machine::onCarbonLocalPop>(cost, this, core, cost);
        break;
      }
      case SchedMode::HardwareFifo: {
        unsigned acc = 0;
        auto info = dmu_->getReadyTask(acc);
        sim::Tick done = dmuOpDone(core, acc);
        eq_.post<&Machine::onFifoDispatch>(done, this, core, seg_start,
                                           done, info);
        break;
      }
    }
}

void
Machine::onPoolPopDone(sim::CoreId core, sim::Tick seg_start,
                       sim::Tick completion)
{
    auto t = pool_->pop(core);
    phases_.add(core, cpu::Phase::Sched, completion - seg_start);
    if (tbuf_.on(sim::TraceCat::Sched)) {
        tbuf_.span(sim::TracePoint::SchedPop,
                   static_cast<std::uint16_t>(core), seg_start,
                   completion, t ? t->id : UINT32_MAX);
        tbuf_.counter(sim::TracePoint::PoolDepth, completion,
                      pool_->size());
    }
    if (t) {
        startExec(core, *t);
    } else {
        advanceOrPark(core);
    }
}

void
Machine::onCarbonLocalPop(sim::CoreId core, sim::Tick cost)
{
    auto t = hwq_->popLocal(core);
    if (t) {
        phases_.add(core, cpu::Phase::Sched, cost);
        if (tbuf_.on(sim::TraceCat::Sched)) {
            tbuf_.span(sim::TracePoint::SchedPop,
                       static_cast<std::uint16_t>(core),
                       eq_.now() - cost, eq_.now(), t->id);
        }
        startExec(core, *t);
        return;
    }
    sim::Tick steal_done = cost + cfg_.carbon.stealCycles;
    eq_.postIn<&Machine::onCarbonSteal>(cfg_.carbon.stealCycles, this,
                                        core, steal_done);
}

void
Machine::onCarbonSteal(sim::CoreId core, sim::Tick steal_done)
{
    auto s = hwq_->steal(core);
    phases_.add(core, cpu::Phase::Sched, steal_done);
    if (tbuf_.on(sim::TraceCat::Sched)) {
        tbuf_.span(sim::TracePoint::SchedSteal,
                   static_cast<std::uint16_t>(core),
                   eq_.now() - steal_done, eq_.now(),
                   s ? s->id : UINT32_MAX);
    }
    if (s) {
        startExec(core, *s);
    } else {
        advanceOrPark(core);
    }
}

void
Machine::onFifoDispatch(sim::CoreId core, sim::Tick seg_start,
                        sim::Tick done,
                        std::optional<dmu::ReadyTaskInfo> info)
{
    phases_.add(core, cpu::Phase::Sched, done - seg_start);
    if (tbuf_.on(sim::TraceCat::Sched)) {
        tbuf_.span(sim::TracePoint::SchedGetReady,
                   static_cast<std::uint16_t>(core), seg_start, done,
                   info ? taskOfDesc(info->descAddr) : UINT32_MAX);
    }
    if (info) {
        rt::TaskId id = taskOfDesc(info->descAddr);
        startExec(core, rt::ReadyTask{id, info->numSuccessors,
                                      sim::invalidCore, id, done});
    } else {
        advanceOrPark(core);
    }
}

void
Machine::advanceOrPark(sim::CoreId core)
{
    if (core == masterCore && !masterCreating_ && regionDone_)
        advanceToNextRegion();
    else
        goIdle(core);
}

void
Machine::startExec(sim::CoreId core, const rt::ReadyTask &task)
{
    const rt::Task &t = graph_.task(task.id);
    sim::Tick stall = 0;
    if (mem_) {
        const auto &fp = footprintOf(task.id);
        if (tbuf_.on(sim::TraceCat::Mem)) {
            const std::uint64_t l1_before = mem_->l1Misses();
            const std::uint64_t l2_before = mem_->l2Misses();
            stall = mem_->taskAccessTime(core, fp);
            const std::uint64_t l1d = mem_->l1Misses() - l1_before;
            const std::uint64_t l2d = mem_->l2Misses() - l2_before;
            if (l1d || l2d) {
                tbuf_.instant(sim::TracePoint::MemRegionMiss,
                              static_cast<std::uint16_t>(core),
                              eq_.now(),
                              static_cast<std::uint32_t>(l1d),
                              static_cast<std::uint32_t>(l2d));
            }
        } else {
            stall = mem_->taskAccessTime(core, fp);
        }
    }
    sim::Tick dur = t.computeCycles + stall;
    if (!sawFirstExec_)
        noteFirstExec();
    eq_.postIn<&Machine::onExecDone>(dur, this, core, task.id, dur);
}

void
Machine::onExecDone(sim::CoreId core, rt::TaskId id, sim::Tick dur)
{
    phases_.add(core, cpu::Phase::Exec, dur);
    taskCycles_.sample(static_cast<double>(dur));
    if (tbuf_.on(sim::TraceCat::Task)) {
        tbuf_.span(sim::TracePoint::TaskExec,
                   static_cast<std::uint16_t>(core), eq_.now() - dur,
                   eq_.now(), id, graph_.task(id).kernel);
    }
    if (traits_.dep == DepMode::Software)
        finishSw(core, id);
    else
        finishDmu(core, id);
}

void
Machine::closeFinishSegment(sim::CoreId core, rt::TaskId id,
                            sim::Tick seg_start, sim::Tick end)
{
    phases_.add(core, cpu::Phase::Deps, end - seg_start);
    if (tbuf_.on(sim::TraceCat::Task)) {
        tbuf_.span(sim::TracePoint::TaskFinish,
                   static_cast<std::uint16_t>(core), seg_start, end, id);
        tbuf_.instant(sim::TracePoint::TaskRetire,
                      static_cast<std::uint16_t>(core), end, id);
    }
}

void
Machine::finishSw(sim::CoreId core, rt::TaskId id)
{
    sim::Tick seg_start = eq_.now();
    rt::TrackerFinishWork work = tracker_->finish(id);
    const rt::SwCosts &c = cfg_.swCosts;

    std::vector<rt::ReadyTask> ready;
    ready.reserve(work.newlyReady.size());
    for (rt::TaskId r : work.newlyReady) {
        ready.push_back(
            rt::ReadyTask{r, swSuccCount(r), core, r, seg_start});
    }

    sim::Tick unlocked = c.finishBaseCycles;
    sim::Tick locked =
        static_cast<sim::Tick>(work.succVisits) * c.perSuccessorCycles
        + static_cast<sim::Tick>(work.depVisits) * c.perDepCleanupCycles;
    sim::Tick push_cost = 0;
    if (traits_.sched == SchedMode::SoftwarePool) {
        push_cost = static_cast<sim::Tick>(ready.size())
                  * (c.poolPushCycles + pool_->policy().pushExtraCycles());
        locked += push_cost;
    }
    sim::Tick completion = lock_.acquire(seg_start + unlocked, locked);

    if (traits_.sched == SchedMode::HardwareQueues) {
        // Carbon publishes ready tasks to the local hardware queue
        // after the (software) dependence bookkeeping.
        completion += static_cast<sim::Tick>(ready.size())
                    * cfg_.carbon.localOpCycles;
    }
    eq_.post<&Machine::onSwFinishDone>(completion, this, core, id,
                                       seg_start, completion,
                                       std::move(ready));
}

void
Machine::onSwFinishDone(sim::CoreId core, rt::TaskId id,
                        sim::Tick seg_start, sim::Tick completion,
                        const std::vector<rt::ReadyTask> &ready)
{
    closeFinishSegment(core, id, seg_start, completion);
    for (const rt::ReadyTask &r : ready)
        deliverReady(r);
    onTaskExecuted();
    dispatchEntry(core);
}

void
Machine::finishDmu(sim::CoreId core, rt::TaskId id)
{
    sim::Tick seg_start = eq_.now();
    const rt::Task &t = graph_.task(id);
    dmu::DmuResult res = dmu_->finishTask(t.descAddr);
    flushDmuWaiters();
    sim::Tick done = dmuOpDone(core, res.accesses);
    std::size_t n_ready = res.readyDescAddrs.size();
    eq_.post<&Machine::onDmuFinishDone>(done, this, core, id, seg_start,
                                        done, n_ready);
}

void
Machine::onDmuFinishDone(sim::CoreId core, rt::TaskId id,
                         sim::Tick seg_start, sim::Tick done,
                         std::size_t n_ready)
{
    closeFinishSegment(core, id, seg_start, done);
    onTaskExecuted();
    if (traits_.sched == SchedMode::SoftwarePool) {
        getReadyLoop(core, done);
    } else {
        // Task Superscalar: tasks stay in the hardware Ready
        // Queue; wake an idle core per newly ready task.
        for (std::size_t i = 0; i < n_ready; ++i)
            wakeOneIdle();
        dispatchEntry(core);
    }
}

void
Machine::getReadyLoop(sim::CoreId core, sim::Tick seg_start)
{
    unsigned acc = 0;
    auto info = dmu_->getReadyTask(acc);
    sim::Tick done = dmuOpDone(core, acc);
    if (info) {
        rt::TaskId id = taskOfDesc(info->descAddr);
        sim::Tick hold = cfg_.tdmCosts.poolPushCycles
                       + pool_->policy().pushExtraCycles();
        sim::Tick completion = lock_.acquire(done, hold);
        std::uint32_t nsucc = info->numSuccessors;
        eq_.post<&Machine::onGetReadyPush>(completion, this, core,
                                           seg_start, id, nsucc,
                                           completion);
    } else {
        eq_.post<&Machine::onGetReadyEmpty>(done, this, core, seg_start,
                                            done);
    }
}

void
Machine::onGetReadyPush(sim::CoreId core, sim::Tick seg_start,
                        rt::TaskId id, std::uint32_t nsucc,
                        sim::Tick completion)
{
    deliverReady(rt::ReadyTask{id, nsucc, core, id, completion});
    getReadyLoop(core, seg_start);
}

void
Machine::onGetReadyEmpty(sim::CoreId core, sim::Tick seg_start,
                         sim::Tick done)
{
    phases_.add(core, cpu::Phase::Sched, done - seg_start);
    if (tbuf_.on(sim::TraceCat::Sched)) {
        tbuf_.span(sim::TracePoint::SchedGetReady,
                   static_cast<std::uint16_t>(core), seg_start, done,
                   UINT32_MAX);
    }
    dispatchEntry(core);
}

void
Machine::onStart()
{
    // Workers start parked; the first ready-task deliveries wake them.
    for (sim::CoreId c = 1; c < cfg_.numCores; ++c)
        goIdle(c);
    masterAdvanceRegion();
}

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

void
Machine::deliverReady(const rt::ReadyTask &task)
{
    if (tbuf_.on(sim::TraceCat::Task)) {
        tbuf_.instant(sim::TracePoint::TaskReady, sim::traceNoCore,
                      eq_.now(), task.id, task.numSuccessors);
    }
    switch (traits_.sched) {
      case SchedMode::SoftwarePool:
        pool_->push(task);
        if (tbuf_.on(sim::TraceCat::Sched)) {
            tbuf_.counter(sim::TracePoint::PoolDepth, eq_.now(),
                          pool_->size());
        }
        break;
      case SchedMode::HardwareQueues: {
        // Successor tasks enqueue locally; creation-ready tasks are
        // distributed round-robin by Carbon's Global Task Unit.
        sim::CoreId to = task.producerHint != sim::invalidCore
                             ? task.producerHint
                             : static_cast<sim::CoreId>(
                                   carbonRr_++ % cfg_.numCores);
        if (!hwq_->pushWithSpill(to, task))
            sim::fatal("Carbon hardware queues overflowed (increase "
                       "queueEntriesPerCore)");
        break;
      }
      case SchedMode::HardwareFifo:
        break; // already in the DMU Ready Queue
    }
    wakeOneIdle();
}

void
Machine::idlePushBack(sim::CoreId core)
{
    idleNext_[core] = sim::invalidCore;
    idlePrev_[core] = idleTail_;
    if (idleTail_ != sim::invalidCore)
        idleNext_[idleTail_] = core;
    else
        idleHead_ = core;
    idleTail_ = core;
}

void
Machine::idleUnlink(sim::CoreId core)
{
    SIM_ASSERT(cores_[core].idle, "unlinking running core ", core);
    const sim::CoreId prev = idlePrev_[core];
    const sim::CoreId next = idleNext_[core];
    if (prev != sim::invalidCore)
        idleNext_[prev] = next;
    else
        idleHead_ = next;
    if (next != sim::invalidCore)
        idlePrev_[next] = prev;
    else
        idleTail_ = prev;
}

void
Machine::wakeOneIdle()
{
    if (finished_ || idleHead_ == sim::invalidCore)
        return;
    sim::CoreId core = idleHead_;
    idleUnlink(core);
    wakeCore(core);
}

void
Machine::wakeCore(sim::CoreId core)
{
    cpu::CoreState &cs = cores_[core];
    if (!cs.idle)
        return;
    const sim::Tick idle_since = cs.idleSince;
    phases_.add(core, cpu::Phase::Idle, cs.wakeAt(eq_.now()));
    traceWake(core, idle_since);
    eq_.postIn<&Machine::dispatchEntry>(0, this, core);
}

void
Machine::wakeSpecific(sim::CoreId core)
{
    if (!cores_[core].idle)
        return;
    idleUnlink(core);
    wakeCore(core);
}

void
Machine::goIdle(sim::CoreId core)
{
    if (finished_)
        return;
    cores_[core].parkAt(eq_.now());
    idlePushBack(core);
    ++idleCount_;
    if (tbuf_.on(sim::TraceCat::Core)) {
        tbuf_.counter(sim::TracePoint::IdleCores, eq_.now(),
                      idleCount_);
    }
}

void
Machine::onTaskExecuted()
{
    ++tasksExecuted_;
    ++executedInRegion_;
    const rt::ParallelRegion &region =
        graph_.parallelRegions()[curRegion_];
    if (executedInRegion_ == region.numTasks) {
        regionDone_ = true;
        if (cores_[masterCore].idle) {
            // Remove the master from the idle list and resume it.
            idleUnlink(masterCore);
            const sim::Tick idle_since = cores_[masterCore].idleSince;
            phases_.add(masterCore, cpu::Phase::Idle,
                        cores_[masterCore].wakeAt(eq_.now()));
            traceWake(masterCore, idle_since);
            eq_.postIn<&Machine::advanceToNextRegion>(0, this);
        }
    } else if (masterCreating_ && cores_[masterCore].idle) {
        // The master parked on the creation throttle; a finish may
        // have dropped the in-flight count below the limit.
        wakeSpecific(masterCore);
    }
}

void
Machine::advanceToNextRegion()
{
    ++curRegion_;
    masterAdvanceRegion();
}

void
Machine::flushDmuWaiters()
{
    if (dmuWaiters_.empty())
        return;
    std::vector<DmuRetry> &waiters = dmuWaiterScratch_;
    waiters.swap(dmuWaiters_);
    for (const DmuRetry &w : waiters) {
        if (w.isCreate) {
            eq_.postIn<&Machine::masterIssueCreateOp>(0, this, w.id,
                                                      w.segStart);
        } else {
            eq_.postIn<&Machine::masterIssueDepOp>(0, this, w.id,
                                                   w.depIdx, w.segStart);
        }
    }
    waiters.clear();
}

void
Machine::dumpStats(std::ostream &os)
{
    metrics_.dump(os);
}

// ---------------------------------------------------------------------
// Run + results
// ---------------------------------------------------------------------

MachineResult
Machine::run()
{
    if (started_)
        sim::panic("a machine runs once");
    started_ = true;
    snapRunStart_ = metrics_.snapshot();
    eq_.post<&Machine::onStart>(0, this);
    eq_.run(cfg_.maxTicks);
    return finalize();
}

MachineResult
Machine::finalize()
{
    MachineResult res;
    if (!finished_) {
        if (!eq_.empty()) {
            sim::warn("machine hit the tick watchdog before completion");
        } else if (!dmuWaiters_.empty()) {
            sim::warn("machine deadlocked after executing ",
                      tasksExecuted_, " of ", graph_.numTasks(),
                      " tasks: the master is blocked on DMU capacity");
        } else {
            sim::warn("machine deadlocked after executing ",
                      tasksExecuted_, " of ", graph_.numTasks(),
                      " tasks: no events pending");
        }
        res.metrics = metrics_.values();
        return res;
    }
    if (tasksExecuted_ != graph_.numTasks())
        sim::panic("executed ", tasksExecuted_, " of ",
                   graph_.numTasks(), " tasks");

    // Cores still parked at the end idle until the makespan.
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        cpu::CoreState &cs = cores_[c];
        if (cs.idle) {
            if (tbuf_.on(sim::TraceCat::Core)) {
                tbuf_.span(sim::TracePoint::CoreIdle,
                           static_cast<std::uint16_t>(c), cs.idleSince,
                           makespan_);
            }
            phases_.add(c, cpu::Phase::Idle, cs.wakeAt(makespan_));
        }
    }

    // ---- Energy (read by the power.* metrics) ----
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        const cpu::PhaseBreakdown &b = phases_.core(c);
        sim::Tick busy = std::min<sim::Tick>(b.busy(), makespan_);
        acct_.addCoreTime(busy, makespan_ - busy);
    }
    if (mem_) {
        acct_.addCacheLines(mem_->l1LineAccesses(),
                            mem_->l2LineAccesses(),
                            mem_->dramLineAccesses());
    }
    if (dmu_) {
        pwr::CactiModel cacti(22);
        auto specs = dmu::sramSpecs(cfg_.dmu);
        const dmu::DmuAccessCounts &n = dmu_->accessCounts();
        double pj = 0.0;
        for (std::size_t i = 0; i < specs.size(); ++i)
            pj += cacti.estimate(specs[i]).readEnergyPj
                * static_cast<double>(n[static_cast<dmu::Sram>(i)]);
        if (traits_.type == RuntimeType::TaskSuperscalar) {
            // CAM-heavy lookups of the original pipeline.
            pj *= 3.0;
            acct_.setAcceleratorLeakageMw(
                hw::tssStorageKB(cfg_.tss)
                * pwr::CactiModel::leakageMwPerKB);
        } else {
            acct_.setAcceleratorLeakageMw(dmu::totalLeakageMw(cfg_.dmu));
        }
        acct_.addAcceleratorPj(pj);
    }
    if (hwq_) {
        acct_.setAcceleratorLeakageMw(
            hw::carbonStorageKB(cfg_.carbon, cfg_.numCores)
            * pwr::CactiModel::leakageMwPerKB);
        acct_.addAcceleratorPj(
            2.0 * static_cast<double>(hwq_->pushes() + hwq_->localPops()
                                      + hwq_->steals()));
    }
    acct_.close(makespan_);

    // ---- Metric tree + phase windows ----
    // Degenerate graphs may never trigger a boundary; close them at
    // the end so the three windows always tile [0, makespan].
    const sim::MetricSnapshot snapEnd = metrics_.snapshot();
    const sim::Tick warmupEnd = sawFirstExec_ ? warmupEndTick_ : makespan_;
    const sim::Tick roiEnd = roiEnded_ ? roiEndTick_ : makespan_;
    const sim::MetricSnapshot &snapWarmup =
        sawFirstExec_ ? snapWarmupEnd_ : snapEnd;
    const sim::MetricSnapshot &snapRoi = roiEnded_ ? snapRoiEnd_ : snapEnd;

    res.metrics = metrics_.values();
    auto addWindow = [&](const char *name,
                         const sim::MetricSnapshot &from,
                         const sim::MetricSnapshot &to, sim::Tick t0,
                         sim::Tick t1) {
        const std::string prefix = std::string("window.") + name + ".";
        res.metrics.set(prefix + "ticks",
                        static_cast<double>(t1 - t0));
        const sim::MetricSet w = metrics_.window(from, to);
        for (const auto &[k, v] : w.entries())
            res.metrics.set(prefix + k, v);
    };
    addWindow("warmup", snapRunStart_, snapWarmup, 0, warmupEnd);
    addWindow("roi", snapWarmup, snapRoi, warmupEnd, roiEnd);
    addWindow("drain", snapRoi, snapEnd, roiEnd, makespan_);
    return res;
}

} // namespace tdm::core
