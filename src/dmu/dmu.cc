#include "dmu/dmu.hh"

#include "sim/assert.hh"
#include "sim/logging.hh"

namespace tdm::dmu {

namespace {

#if SIM_INVARIANTS_ENABLED
/**
 * DMU occupancy accounting, re-verified after every mutating ISA op in
 * debug/sanitizer builds. Every live task owns exactly one TAT
 * translation and every live dependence one DAT translation, so the
 * alias-table and table live counts must track each other exactly —
 * these are the same numbers the occupancy trace counters and the
 * capacity pre-checks read, so a drift here silently corrupts both
 * blocking behavior and exported occupancy.
 */
void
checkOccupancy(const Dmu &dmu)
{
    SIM_ASSERT(dmu.tat().liveEntries() == dmu.taskTable().live(),
               "TAT live ", dmu.tat().liveEntries(),
               " != Task Table live ", dmu.taskTable().live());
    SIM_ASSERT(dmu.dat().liveEntries() == dmu.depsInFlight(),
               "DAT live ", dmu.dat().liveEntries(),
               " != Dep Table live ", dmu.depsInFlight());
    SIM_ASSERT(dmu.sla().entriesInUse() <= dmu.sla().capacity(),
               "SLA occupancy over capacity");
    SIM_ASSERT(dmu.dla().entriesInUse() <= dmu.dla().capacity(),
               "DLA occupancy over capacity");
    SIM_ASSERT(dmu.rla().entriesInUse() <= dmu.rla().capacity(),
               "RLA occupancy over capacity");
    SIM_ASSERT(dmu.readyCount() <= dmu.taskTable().capacity(),
               "more ready tasks than Task Table entries");
}
#else
void checkOccupancy(const Dmu &) {}
#endif

} // namespace

const char *
toString(BlockReason r)
{
    switch (r) {
      case BlockReason::None: return "none";
      case BlockReason::TatFull: return "tat_full";
      case BlockReason::DatFull: return "dat_full";
      case BlockReason::SlaFull: return "sla_full";
      case BlockReason::DlaFull: return "dla_full";
      case BlockReason::RlaFull: return "rla_full";
    }
    return "?";
}

namespace {
/** Index granularity used for descriptor addresses in the TAT. */
constexpr std::uint64_t descIndexBytes = 64;
} // namespace

Dmu::Dmu(const DmuConfig &cfg)
    : tat_("tat", cfg.tatEntries, cfg.tatAssoc, true, 0),
      dat_("dat", cfg.datEntries, cfg.datAssoc, cfg.dynamicDatIndex,
           cfg.staticDatIndexBit),
      taskTable_("task table", cfg.taskTableEntries()),
      depTable_("dep table", cfg.depTableEntries()),
      sla_("sla", cfg.slaEntries, cfg.elemsPerEntry),
      dla_("dla", cfg.dlaEntries, cfg.elemsPerEntry),
      rla_("rla", cfg.rlaEntries, cfg.elemsPerEntry),
      readyQueue_(cfg.readyQueueEntries),
      readyBuf_(cfg.taskTableEntries())
{
    if (cfg.readyQueueEntries == 0)
        sim::fatal("ready queue capacity must be nonzero");
}

DmuResult
Dmu::blocked(BlockReason reason)
{
    ++blockedOps_;
    DmuResult res;
    res.blocked = true;
    res.reason = reason;
    return res;
}

void
Dmu::makeReady(TaskHwId id, std::uint64_t desc_addr)
{
    if (readyQueue_.full())
        sim::panic("DMU: ready queue overflow");
    readyQueue_.push_back(id);
    touch(Sram::ReadyQueue);
    readyBuf_[readyLen_++] = desc_addr;
}

TaskHwId
Dmu::requireTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    auto id = tat_.lookup(desc_addr, descIndexBytes, pid);
    touch(Sram::Tat);
    if (!id)
        sim::panic("DMU: unknown task descriptor 0x", std::hex, desc_addr);
    return static_cast<TaskHwId>(*id);
}

DmuResult
Dmu::createTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    ++statOps_;

    // Pre-check capacity: TAT entry + one SLA list + one DLA list.
    if (!tat_.canInsert(desc_addr, descIndexBytes))
        return blocked(BlockReason::TatFull);
    if (!sla_.hasFree(1))
        return blocked(BlockReason::SlaFull);
    if (!dla_.hasFree(1))
        return blocked(BlockReason::DlaFull);

    const std::uint64_t before = counts_.total();
    auto probe = tat_.lookup(desc_addr, descIndexBytes, pid);
    touch(Sram::Tat);
    if (probe)
        sim::panic("DMU: create_task of live descriptor 0x", std::hex,
                   desc_addr);

    auto ins = tat_.insert(desc_addr, descIndexBytes, pid);
    touch(Sram::Tat);
    if (ins.status != AliasInsertStatus::Ok)
        sim::panic("DMU: TAT insert failed after capacity check");

    ListHead succ = sla_.allocList();
    ListHead deps = dla_.allocList();
    touch(Sram::Sla);
    touch(Sram::Dla);
    taskTable_.init(ins.id, TaskEntry{.descAddr = desc_addr,
                                      .succList = succ,
                                      .depList = deps});
    touch(Sram::TaskTable);
    DmuResult res;
    res.accesses = accessesSince(before);
    checkOccupancy(*this);
    return res;
}

DmuResult
Dmu::addDependence(std::uint64_t desc_addr, std::uint64_t dep_addr,
                   std::uint64_t size_bytes, bool is_output,
                   std::uint32_t pid)
{
    ++statOps_;

    // ---- Locate the task (non-destructive; retried ops redo it). ----
    auto tid_probe = tat_.lookup(desc_addr, descIndexBytes, pid);
    if (!tid_probe)
        sim::panic("DMU: add_dependence for unknown task");
    TaskHwId task_id = static_cast<TaskHwId>(*tid_probe);
    TaskEntry &task = taskTable_[task_id];

    // ---- Exact capacity pre-check (no side effects if blocked). ----
    auto did_probe = dat_.lookup(dep_addr, size_bytes, pid);
    bool dat_miss = !did_probe;
    if (dat_miss) {
        if (!dat_.canInsert(dep_addr, size_bytes))
            return blocked(BlockReason::DatFull);
        if (!rla_.hasFree(1))
            return blocked(BlockReason::RlaFull);
    }
    unsigned dla_needed = dla_.pushNeedsEntry(task.depList) ? 1 : 0;
    if (dla_needed > 0 && !dla_.hasFree(dla_needed))
        return blocked(BlockReason::DlaFull);
    unsigned sla_needed = 0;
    unsigned rla_needed = 0;
    if (!dat_miss) {
        const DepEntry &dep = depTable_[static_cast<DepHwId>(*did_probe)];
        // Exact SLA demand: group the successor-list pushes this
        // operation performs by target list (the same list can be
        // pushed several times, e.g. a reader registered twice).
        std::vector<std::pair<ListHead, unsigned>> &pushes = pushScratch_;
        pushes.clear();
        auto bump = [&](ListHead head) {
            for (auto &[h, n] : pushes) {
                if (h == head) {
                    ++n;
                    return;
                }
            }
            pushes.emplace_back(head, 1u);
        };
        if (dep.hasWriter() && dep.lastWriter != task_id)
            bump(taskTable_[dep.lastWriter].succList);
        if (is_output) {
            rla_.forEach(dep.readerList, [&](std::uint16_t r) {
                if (r != task_id)
                    bump(taskTable_[static_cast<TaskHwId>(r)].succList);
            });
        } else {
            if (rla_.pushNeedsEntry(dep.readerList))
                ++rla_needed;
        }
        for (const auto &[head, n] : pushes)
            sla_needed += sla_.entriesNeededFor(head, n);
    }
    if (sla_needed > 0 && !sla_.hasFree(sla_needed))
        return blocked(BlockReason::SlaFull);
    if (rla_needed > 0 && !rla_.hasFree(rla_needed))
        return blocked(BlockReason::RlaFull);

    // ---- Execute (Algorithm 1). ----
    const std::uint64_t before = counts_.total();
    touch(Sram::Tat); // TAT lookup
    touch(Sram::Dat); // DAT lookup

    DepHwId dep_id;
    if (dat_miss) {
        auto ins = dat_.insert(dep_addr, size_bytes, pid);
        if (ins.status != AliasInsertStatus::Ok)
            sim::panic("DMU: DAT insert failed after capacity check");
        dep_id = static_cast<DepHwId>(ins.id);
        ListHead readers = rla_.allocList();
        depTable_.init(dep_id, DepEntry{.readerList = readers});
        touch(Sram::Dat);      // DAT write
        touch(Sram::Rla);      // RLA alloc
        touch(Sram::DepTable); // DepTable init
    } else {
        dep_id = static_cast<DepHwId>(*did_probe);
        touch(Sram::DepTable); // DepTable read
    }
    DepEntry &dep = depTable_[dep_id];

    // Insert depID in the dependence list of taskID.
    unsigned acc = 0;
    if (!dla_.push(task.depList, dep_id, acc))
        sim::panic("DMU: DLA push failed after capacity check");
    touch(Sram::Dla, acc);

    // Order after the last writer (RAW / WAW).
    if (dep.hasWriter() && dep.lastWriter != task_id) {
        TaskEntry &writer = taskTable_[dep.lastWriter];
        acc = 0;
        if (!sla_.push(writer.succList, task_id, acc))
            sim::panic("DMU: SLA push failed after capacity check");
        touch(Sram::Sla, acc);
        ++writer.succCount;
        ++task.predCount;
        touch(Sram::TaskTable, 2); // two Task Table updates
    }

    if (!is_output) {
        // Input: register as reader.
        acc = 0;
        if (!rla_.push(dep.readerList, task_id, acc))
            sim::panic("DMU: RLA push failed after capacity check");
        touch(Sram::Rla, acc);
    } else {
        // Output: order after every reader (WAR), then become the
        // last writer.
        // The walk pushes to successor lists only, never to the RLA
        // it walks, so it runs in place.
        touch(Sram::Rla, rla_.forEach(dep.readerList, [&](std::uint16_t r) {
            if (r == task_id)
                return;
            TaskEntry &reader = taskTable_[static_cast<TaskHwId>(r)];
            unsigned sla_acc = 0;
            if (!sla_.push(reader.succList, task_id, sla_acc))
                sim::panic("DMU: SLA push failed after capacity check");
            touch(Sram::Sla, sla_acc);
            ++reader.succCount;
            ++task.predCount;
            touch(Sram::TaskTable, 2);
        }));
        touch(Sram::Rla, rla_.clear(dep.readerList));
        dep.lastWriter = task_id;
        touch(Sram::DepTable); // DepTable write
    }
    DmuResult res;
    res.accesses = accessesSince(before);
    checkOccupancy(*this);
    return res;
}

DmuResult
Dmu::commitTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    DmuResult res;
    ++statOps_;
    readyLen_ = 0;
    const std::uint64_t before = counts_.total();
    TaskHwId task_id = requireTask(desc_addr, pid);
    TaskEntry &task = taskTable_[task_id];
    touch(Sram::TaskTable); // Task Table read-modify-write
    if (task.committed)
        sim::panic("DMU: double commit of descriptor 0x", std::hex,
                   desc_addr);
    task.committed = true;
    if (task.predCount == 0)
        makeReady(task_id, task.descAddr);
    res.accesses = accessesSince(before);
    res.readyDescAddrs = {readyBuf_.data(), readyLen_};
    return res;
}

DmuResult
Dmu::finishTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    DmuResult res;
    ++statOps_;
    readyLen_ = 0;
    const std::uint64_t before = counts_.total();

    TaskHwId task_id = requireTask(desc_addr, pid);
    TaskEntry &task = taskTable_[task_id];
    touch(Sram::TaskTable); // Task Table read

    // ---- Wake up successors (Algorithm 2, first loop). ----
    // Neither loop mutates the list it walks (the first the SLA, the
    // second the DLA), so both walk in place.
    touch(Sram::Sla, sla_.forEach(task.succList, [&](std::uint16_t s) {
        TaskEntry &succ = taskTable_[static_cast<TaskHwId>(s)];
        if (succ.predCount == 0)
            sim::panic("DMU: predecessor underflow on task id ", s);
        --succ.predCount;
        touch(Sram::TaskTable);
        if (succ.predCount == 0 && succ.committed)
            makeReady(static_cast<TaskHwId>(s), succ.descAddr);
    }));

    // ---- Detach from dependences (Algorithm 2, second loop). ----
    touch(Sram::Dla, dla_.forEach(task.depList, [&](std::uint16_t d) {
        DepHwId dep_id = static_cast<DepHwId>(d);
        if (!depTable_[dep_id].valid)
            return; // already freed via an earlier duplicate entry
        DepEntry &dep = depTable_[dep_id];
        touch(Sram::DepTable); // DepTable read
        touch(Sram::Rla, rla_.remove(dep.readerList, task_id));
        if (dep.lastWriter == task_id) {
            dep.lastWriter = invalidHwId;
            touch(Sram::DepTable);
        }
        if (!dep.hasWriter() && rla_.size(dep.readerList) == 0) {
            touch(Sram::Rla, rla_.freeList(dep.readerList));
            depTable_.free(dep_id);
            touch(Sram::DepTable);
            dat_.erase(dep_id); // the DAT issued dep_id
            touch(Sram::Dat);
        }
    }));

    // ---- Free the task's own resources. ----
    touch(Sram::Sla, sla_.freeList(task.succList));
    touch(Sram::Dla, dla_.freeList(task.depList));
    taskTable_.free(task_id);
    touch(Sram::TaskTable);
    tat_.erase(task_id); // the TAT issued task_id
    touch(Sram::Tat);

    res.accesses = accessesSince(before);
    res.readyDescAddrs = {readyBuf_.data(), readyLen_};
    checkOccupancy(*this);
    return res;
}

std::optional<ReadyTaskInfo>
Dmu::getReadyTask(unsigned &accesses)
{
    ++statOps_;
    const std::uint64_t before = counts_.total();
    touch(Sram::ReadyQueue);
    std::optional<ReadyTaskInfo> info;
    if (!readyQueue_.empty()) {
        const TaskEntry &e = taskTable_[readyQueue_.pop_front()];
        touch(Sram::TaskTable);
        info = ReadyTaskInfo{e.descAddr, e.succCount};
    }
    accesses = accessesSince(before);
    return info;
}

std::uint32_t
Dmu::succCountOf(std::uint64_t desc_addr)
{
    auto id = tat_.lookup(desc_addr, descIndexBytes, 0);
    if (!id)
        sim::panic("DMU: succCountOf unknown descriptor");
    return taskTable_[static_cast<TaskHwId>(*id)].succCount;
}

void
Dmu::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("ops", &statOps_, "DMU operations processed");
    ctx.counter("blocked", &blockedOps_,
                "operations blocked on capacity");
    ctx.counterFn("accesses",
                  [this] { return static_cast<double>(counts_.total()); },
                  "total SRAM accesses");

    // Per-structure SRAM traffic (what the energy model integrates).
    static const struct
    {
        Sram sram;
        const char *key;
        const char *desc;
    } ledger[] = {
        {Sram::TaskTable, "task_table.accesses", "Task Table SRAM accesses"},
        {Sram::DepTable, "dep_table.accesses",
         "Dependence Table SRAM accesses"},
        {Sram::Tat, "tat.accesses", "TAT SRAM accesses"},
        {Sram::Dat, "dat.accesses", "DAT SRAM accesses"},
        {Sram::Sla, "sla.accesses", "Successor List Array SRAM accesses"},
        {Sram::Dla, "dla.accesses", "Dependence List Array SRAM accesses"},
        {Sram::Rla, "rla.accesses", "Reader List Array SRAM accesses"},
        {Sram::ReadyQueue, "ready_queue.accesses",
         "Ready Queue SRAM accesses"},
    };
    for (const auto &row : ledger)
        ctx.counter(row.key,
                    &counts_.bySram[static_cast<std::size_t>(row.sram)],
                    row.desc);

    ctx.gauge("tasks_in_flight",
              [this] { return static_cast<double>(tasksInFlight()); },
              "tasks currently tracked");
    ctx.gauge("deps_in_flight",
              [this] { return static_cast<double>(depsInFlight()); },
              "dependences currently tracked");
    ctx.gauge("ready",
              [this] { return static_cast<double>(readyCount()); },
              "ready tasks queued");

    tat_.regMetrics(ctx.scope("tat"));
    dat_.regMetrics(ctx.scope("dat"));
}

} // namespace tdm::dmu
