/**
 * @file
 * The full-machine model: 32 cores running a task-based runtime over a
 * workload TaskGraph, with one of four runtime systems (Software, TDM,
 * Carbon, Task Superscalar).
 *
 * The model is a deterministic discrete-event simulation at the
 * granularity of runtime operations and task bodies:
 *
 *  - The master thread (core 0) executes each parallel region's
 *    sequential prologue, then creates the region's tasks in program
 *    order. Creation costs follow the runtime model: software
 *    dependence matching under the runtime lock, or descriptor
 *    allocation plus TDM ISA operations (NoC round trip + serialized
 *    DMU processing, with blocking on full structures).
 *  - Worker threads loop: scheduling phase (pool pop under the lock /
 *    hardware queue pop / DMU get_ready_task), execution phase (compute
 *    cycles + memory-hierarchy stall for the task's dependence
 *    footprint), and finalization (software tracker wake-ups or
 *    finish_task + get_ready_task drain).
 *  - Per-core time is attributed to DEPS / SCHED / EXEC / IDLE exactly
 *    as Figure 2 defines them.
 *
 * A machine runs once: run() drives the event loop to its end and
 * finalize() closes the run, charges the energy model from its
 * activity counts (McPAT-style, after the fact) and builds the metric
 * tree. No event reads the power model, so a completed tree can be
 * re-priced under another power configuration without a machine
 * (pwr::EnergyAccountant::reprice, used by driver::ForkGroupRunner).
 */

#ifndef TDM_CORE_MACHINE_HH
#define TDM_CORE_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime_model.hh"
#include "cpu/core.hh"
#include "cpu/machine_config.hh"
#include "cpu/phase_stats.hh"
#include "dmu/dmu.hh"
#include "hwbaselines/hw_task_queue.hh"
#include "mem/memory_model.hh"
#include "noc/mesh.hh"
#include "power/energy_accountant.hh"
#include "runtime/ready_pool.hh"
#include "runtime/software_tracker.hh"
#include "runtime/task_graph.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace tdm::core {

/** Result of one machine run. */
struct MachineResult
{
    /**
     * The full flattened metric tree of the run: every registered
     * component metric by dotted key, plus per-phase-window deltas
     * under "window.{warmup,roi,drain}.*" (completed runs only). It is
     * the only copy of the run's numbers; "machine.completed" is 0
     * when the run deadlocked or hit the watchdog.
     */
    sim::MetricSet metrics;
};

/**
 * One simulated machine bound to one task graph and runtime model.
 */
class Machine
{
  public:
    /**
     * Bind to a shared, immutable task graph. The machine only ever
     * reads the graph, so one graph instance can back any number of
     * concurrently running machines (the campaign engine builds each
     * distinct workload graph once and shares it across its worker
     * threads).
     */
    Machine(const cpu::MachineConfig &cfg,
            std::shared_ptr<const rt::TaskGraph> graph,
            RuntimeType runtime);

    /**
     * Borrow @p graph without sharing ownership; the caller keeps it
     * alive for the machine's lifetime (the natural form for tests and
     * examples with a stack-owned graph).
     */
    Machine(const cpu::MachineConfig &cfg, const rt::TaskGraph &graph,
            RuntimeType runtime);

    ~Machine();

    /** Run to completion and summarize. A machine runs once. */
    MachineResult run();

    const cpu::PhaseStats &phases() const { return phases_; }
    const dmu::Dmu *dmuUnit() const { return dmu_ ? &*dmu_ : nullptr; }

    /**
     * The run's time-resolved trace (armed through
     * MachineConfig::trace; empty when trace.categories is 0).
     */
    const sim::TraceBuffer &traceBuffer() const { return tbuf_; }

    /** Move the trace out (it can hold many MB; callers that outlive
     *  the machine take it instead of copying). */
    sim::TraceBuffer takeTraceBuffer() { return std::move(tbuf_); }

    /** The machine's metric registry: every component metric,
     *  addressable by dotted key path ("dmu.tat.hits"). */
    const sim::MetricRegistry &metrics() const { return metrics_; }

  private:
    /** A master-side DMU ISA operation parked on a full structure. */
    struct DmuRetry
    {
        bool isCreate;        ///< retry create_task vs add_dependence
        rt::TaskId id;
        std::size_t depIdx;   ///< dependence index (add_dependence)
        sim::Tick segStart;
    };

    // ---- master side ----
    void masterAdvanceRegion();
    void masterCreateNext();
    void masterCreateSw(rt::TaskId id);
    void masterCreateTdm(rt::TaskId id);
    void masterIssueCreateOp(rt::TaskId id, sim::Tick seg_start);
    void masterIssueDepOp(rt::TaskId id, std::size_t dep_idx,
                          sim::Tick seg_start);
    void masterIssueCommitOp(rt::TaskId id, sim::Tick seg_start);
    /** Charge the master's creation segment [@p seg_start, @p end] of
     *  task @p id (Deps phase, creation ticks, TaskCreate span). */
    void closeCreateSegment(rt::TaskId id, sim::Tick seg_start,
                            sim::Tick end);
    void masterDoneCreating();

    // ---- worker side ----
    /** Entry point after a wake-up: creation throttle aware. */
    void dispatchEntry(sim::CoreId core);
    void tryDispatch(sim::CoreId core);
    /** No task was found: the master leaves a completed region,
     *  any other core parks. */
    void advanceOrPark(sim::CoreId core);
    void startExec(sim::CoreId core, const rt::ReadyTask &task);
    void finishSw(sim::CoreId core, rt::TaskId id);
    void finishDmu(sim::CoreId core, rt::TaskId id);
    /** Charge @p core's finish segment [@p seg_start, @p end] of task
     *  @p id (Deps phase, TaskFinish span, TaskRetire instant). */
    void closeFinishSegment(sim::CoreId core, rt::TaskId id,
                            sim::Tick seg_start, sim::Tick end);
    void getReadyLoop(sim::CoreId core, sim::Tick seg_start);

    // ---- typed event continuations (fired by pooled BoundEvents) ---
    /** Initial event: park the workers, enter the first region. */
    void onStart();
    /** Master finished a region's sequential prologue. */
    void onPrologueDone(sim::Tick prologue);
    /** Software-runtime task creation segment retired. */
    void onSwCreateDone(rt::TaskId id, bool ready_now,
                        sim::Tick seg_start, sim::Tick completion);
    /** commit_task whose ready task the master moved into the pool
     *  (@p created is the task whose creation segment this commits;
     *  @p got may be a different task queued by a concurrent finish). */
    void onCommitReadyFetched(rt::TaskId created, rt::TaskId got,
                              std::uint32_t nsucc, sim::Tick seg_start,
                              sim::Tick completion);
    /** commit_task response received (no pool transfer). */
    void onCommitDone(rt::TaskId id, sim::Tick seg_start, sim::Tick done,
                      bool ready_now);
    /** Pool pop (under the runtime lock) completed. */
    void onPoolPopDone(sim::CoreId core, sim::Tick seg_start,
                       sim::Tick completion);
    /** Carbon local hardware-queue pop completed. */
    void onCarbonLocalPop(sim::CoreId core, sim::Tick cost);
    /** Carbon steal attempt completed. */
    void onCarbonSteal(sim::CoreId core, sim::Tick steal_done);
    /** Task Superscalar get_ready_task dispatch completed. */
    void onFifoDispatch(sim::CoreId core, sim::Tick seg_start,
                        sim::Tick done,
                        std::optional<dmu::ReadyTaskInfo> info);
    /** Task body (compute + memory stall) retired. */
    void onExecDone(sim::CoreId core, rt::TaskId id, sim::Tick dur);
    /** Software-tracker finish segment retired. */
    void onSwFinishDone(sim::CoreId core, rt::TaskId id,
                        sim::Tick seg_start, sim::Tick completion,
                        const std::vector<rt::ReadyTask> &ready);
    /** finish_task response received. */
    void onDmuFinishDone(sim::CoreId core, rt::TaskId id,
                         sim::Tick seg_start, sim::Tick done,
                         std::size_t n_ready);
    /** get_ready_task returned a task; push it to the pool and loop. */
    void onGetReadyPush(sim::CoreId core, sim::Tick seg_start,
                        rt::TaskId id, std::uint32_t nsucc,
                        sim::Tick completion);
    /** get_ready_task came back empty; scheduling segment ends. */
    void onGetReadyEmpty(sim::CoreId core, sim::Tick seg_start,
                         sim::Tick done);
    /** The master leaves a completed region for the next one. */
    void advanceToNextRegion();

    // ---- shared plumbing ----
    /**
     * Charge @p core's segment [@p start, @p end] to @p phase and, when
     * @p cat is traced, record it as a @p point span carrying @p a and
     * @p b. Every phase charge but the master's region prologues goes
     * through here, so per core the spans sum to the phase ticks.
     */
    void
    segment(sim::CoreId core, cpu::Phase phase, sim::TraceCat cat,
            sim::TracePoint point, sim::Tick start, sim::Tick end,
            std::uint32_t a = 0, std::uint32_t b = 0)
    {
        phases_.add(core, phase, end - start);
        if (tbuf_.on(cat))
            tbuf_.span(point, static_cast<std::uint16_t>(core), start, end,
                       a, b);
    }

    void deliverReady(const rt::ReadyTask &task);
    /** Resume the longest-parked core, if any, at its dispatch entry. */
    void wakeOneIdle();
    /** Park @p core: append it to the idle FIFO at the current tick. */
    void goIdle(sim::CoreId core);
    /** Take the parked @p core off the idle FIFO and charge its idle
     *  segment; the caller posts its continuation. */
    void unpark(sim::CoreId core);
    void onTaskExecuted();
    /** Reissue the master's parked DMU operation, if any. */
    void retryDmuWaiter();
    /** Trace a blocked master-side DMU operation and park it until
     *  the next finish_task. */
    void parkOnDmu(const DmuRetry &retry, dmu::BlockReason reason);

    /**
     * Model a DMU operation issued from @p core at the current tick:
     * sample the DMU occupancy counters into the trace, then request
     * traversal of the mesh, FIFO queueing at the DMU, processing of
     * @p accesses SRAM accesses, the response, and the issue cost.
     * @return the tick at which the issuing core resumes.
     */
    sim::Tick dmuOpDone(sim::CoreId core, unsigned accesses);

    rt::TaskId taskOfDesc(std::uint64_t desc_addr) const;

    /** Register every component's metrics (constructor tail). */
    void registerMetrics();

    /**
     * The run tail, once the event loop has returned: charge the cores
     * still parked at the end of a completed run their final idle
     * span, charge the energy model, and build the metric tree with
     * its phase windows (an incomplete run only warns why it stopped).
     */
    MachineResult finalize();

    /** First task body started: the warmup window ends here. */
    void noteFirstExec();

    /** Last task created: the ROI window ends here (deferred until
     *  the first exec if creation outruns it, keeping the window
     *  boundaries ordered). */
    void noteRoiEnd();

    /**
     * Fill the reusable footprint scratch buffer with @p id's region
     * accesses and return it (avoids a per-task allocation).
     */
    const std::vector<mem::MemAccess> &footprintOf(rt::TaskId id);
    std::uint32_t swSuccCount(rt::TaskId id) const;

    // ---- fixed for the machine's lifetime ----
    const cpu::MachineConfig cfg_;
    std::shared_ptr<const rt::TaskGraph> graphHold_; ///< may share
    const rt::TaskGraph &graph_; ///< always valid; == *graphHold_
    const RuntimeTraits traits_;

    /**
     * Task descriptors are laid out affinely (TaskGraph::descStride),
     * so desc -> TaskId is pure arithmetic from the first task's
     * address — no hash map on the dispatch/finish hot path. Zero when
     * the graph has no tasks.
     */
    std::uint64_t descBase_ = 0;

    // ---- the simulated run ----
    cpu::PhaseStats phases_;
    noc::Mesh mesh_;
    std::unique_ptr<mem::MemoryModel> mem_;
    std::optional<rt::SoftwareTracker> tracker_;
    std::optional<rt::ReadyPool> pool_;
    std::optional<dmu::Dmu> dmu_;
    /** Per core, the mesh route of its DMU messages (TDM runtimes). */
    std::vector<noc::Mesh::Route> dmuRoutes_;
    std::optional<hw::HwTaskQueues> hwq_;

    cpu::SerialResource lock_; ///< the runtime's global lock
    cpu::SerialResource dmuPipe_; ///< serialized DMU op processing

    /** Lock hold of one software-pool push / pop: the runtime's base
     *  cost plus the scheduling policy's extra (pool runtimes only). */
    sim::Tick poolPushHold_ = 0;
    sim::Tick poolPopHold_ = 0;

    /**
     * One core's park state. Parked cores form a FIFO, a doubly linked
     * list threaded through next/prev, so park, wake-oldest and
     * wake-specific are O(1) with no allocation. Until finalize() a
     * core is linked exactly while it is idle.
     */
    struct CoreRecord
    {
        bool idle = false;
        sim::Tick idleSince = 0;
        sim::CoreId next = sim::invalidCore;
        sim::CoreId prev = sim::invalidCore;
    };
    std::vector<CoreRecord> cores_;
    sim::CoreId idleHead_ = sim::invalidCore;
    sim::CoreId idleTail_ = sim::invalidCore;

    /** Time-resolved trace (armed from the config; see sim/trace.hh). */
    sim::TraceBuffer tbuf_;

    /** Parked cores right now (kept unconditionally — one increment
     *  per park/wake — so the core-category counter track never has
     *  to walk the idle list). */
    unsigned idleCount_ = 0;

    // Region / creation progress.
    std::uint32_t curRegion_ = 0;
    std::uint32_t createdInRegion_ = 0;
    std::uint32_t executedInRegion_ = 0;
    bool masterCreating_ = false;
    bool regionDone_ = false;
    bool started_ = false; ///< run() was called
    bool finished_ = false;

    /** The master's DMU operation blocked on capacity. The master
     *  issues one operation at a time, so at most one waits. */
    std::optional<DmuRetry> dmuWaiter_;

    std::uint64_t tasksExecuted_ = 0;
    std::uint64_t carbonRr_ = 0; ///< GTU round-robin cursor
    sim::Tick masterCreateTicks_ = 0;
    sim::Tick makespan_ = 0;
    sim::Distribution taskCycles_{0.0, 1e6};

    // Phase windows.
    std::uint32_t createdTotal_ = 0;
    bool sawFirstExec_ = false;
    bool roiEnded_ = false;
    bool pendingRoiEnd_ = false;
    sim::Tick warmupEndTick_ = 0;
    sim::Tick roiEndTick_ = 0;
    sim::MetricSnapshot snapRunStart_;
    sim::MetricSnapshot snapWarmupEnd_;
    sim::MetricSnapshot snapRoiEnd_;

    /** Scratch buffer reused by footprintOf (hot path). */
    std::vector<mem::MemAccess> footprintScratch_;

    /**
     * The power model. Only finalize() charges it, after the event
     * loop has returned, and no event reads it: that is what lets a
     * completed run's metric tree be re-priced under another power
     * configuration (pwr::EnergyAccountant::reprice).
     */
    pwr::EnergyAccountant acct_;

    sim::EventQueue eq_;
    sim::MetricRegistry metrics_;

    static constexpr sim::CoreId masterCore = 0;
};

} // namespace tdm::core

#endif // TDM_CORE_MACHINE_HH
