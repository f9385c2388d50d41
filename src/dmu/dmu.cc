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
    : cfg_(cfg),
      tat_("tat", cfg.tatEntries, cfg.tatAssoc, true, 0),
      dat_("dat", cfg.datEntries, cfg.datAssoc, cfg.dynamicDatIndex,
           cfg.staticDatIndexBit),
      taskTable_(cfg.taskTableEntries()),
      depTable_(cfg.depTableEntries()),
      sla_("sla", cfg.slaEntries, cfg.elemsPerEntry),
      dla_("dla", cfg.dlaEntries, cfg.elemsPerEntry),
      rla_("rla", cfg.rlaEntries, cfg.elemsPerEntry),
      readyQueue_(cfg.readyQueueEntries)
{
    depAddrOf_.assign(cfg.depTableEntries(), 0);
    depSizeOf_.assign(cfg.depTableEntries(), 0);
    depPidOf_.assign(cfg.depTableEntries(), 0);
    taskPidOf_.assign(cfg.taskTableEntries(), 0);
}

TaskHwId
Dmu::requireTask(std::uint64_t desc_addr, std::uint32_t pid,
                 unsigned &accesses)
{
    auto id = tat_.lookup(desc_addr, descIndexBytes, pid);
    ++accesses;
    ++counts_.tat;
    if (!id)
        sim::panic("DMU: unknown task descriptor 0x", std::hex, desc_addr);
    return static_cast<TaskHwId>(*id);
}

DmuResult
Dmu::createTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    DmuResult res;
    ++statOps_;

    // Pre-check capacity: TAT entry + one SLA list + one DLA list.
    if (!tat_.canInsert(desc_addr, descIndexBytes)) {
        res.blocked = true;
        res.reason = BlockReason::TatFull;
        ++blockedOps_;
        return res;
    }
    if (!sla_.hasFree(1)) {
        res.blocked = true;
        res.reason = BlockReason::SlaFull;
        ++blockedOps_;
        return res;
    }
    if (!dla_.hasFree(1)) {
        res.blocked = true;
        res.reason = BlockReason::DlaFull;
        ++blockedOps_;
        return res;
    }

    auto probe = tat_.lookup(desc_addr, descIndexBytes, pid);
    ++res.accesses;
    ++counts_.tat;
    if (probe)
        sim::panic("DMU: create_task of live descriptor 0x", std::hex,
                   desc_addr);

    auto ins = tat_.insert(desc_addr, descIndexBytes, pid);
    ++res.accesses;
    ++counts_.tat;
    if (ins.status != AliasInsertStatus::Ok)
        sim::panic("DMU: TAT insert failed after capacity check");

    ListHead succ = sla_.allocList();
    ListHead deps = dla_.allocList();
    res.accesses += 2;
    ++counts_.sla;
    ++counts_.dla;
    taskTable_.init(static_cast<TaskHwId>(ins.id), desc_addr, succ, deps);
    taskPidOf_[ins.id] = pid;
    ++res.accesses;
    ++counts_.taskTable;
    statAccesses_ += res.accesses;
    checkOccupancy(*this);
    return res;
}

DmuResult
Dmu::addDependence(std::uint64_t desc_addr, std::uint64_t dep_addr,
                   std::uint64_t size_bytes, bool is_output,
                   std::uint32_t pid)
{
    DmuResult res;
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
        if (!dat_.canInsert(dep_addr, size_bytes)) {
            res.blocked = true;
            res.reason = BlockReason::DatFull;
            ++blockedOps_;
            return res;
        }
        if (!rla_.hasFree(1)) {
            res.blocked = true;
            res.reason = BlockReason::RlaFull;
            ++blockedOps_;
            return res;
        }
    }
    unsigned dla_needed = dla_.pushNeedsEntry(task.depList) ? 1 : 0;
    if (dla_needed > 0 && !dla_.hasFree(dla_needed)) {
        res.blocked = true;
        res.reason = BlockReason::DlaFull;
        ++blockedOps_;
        return res;
    }
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
    if (sla_needed > 0 && !sla_.hasFree(sla_needed)) {
        res.blocked = true;
        res.reason = BlockReason::SlaFull;
        ++blockedOps_;
        return res;
    }
    if (rla_needed > 0 && !rla_.hasFree(rla_needed)) {
        res.blocked = true;
        res.reason = BlockReason::RlaFull;
        ++blockedOps_;
        return res;
    }

    // ---- Execute (Algorithm 1). ----
    ++res.accesses; // TAT lookup
    ++counts_.tat;
    ++res.accesses; // DAT lookup
    ++counts_.dat;

    DepHwId dep_id;
    if (dat_miss) {
        auto ins = dat_.insert(dep_addr, size_bytes, pid);
        if (ins.status != AliasInsertStatus::Ok)
            sim::panic("DMU: DAT insert failed after capacity check");
        dep_id = static_cast<DepHwId>(ins.id);
        ListHead readers = rla_.allocList();
        depTable_.init(dep_id, readers);
        depAddrOf_[dep_id] = dep_addr;
        depSizeOf_[dep_id] = size_bytes;
        depPidOf_[dep_id] = pid;
        res.accesses += 3; // DAT write, RLA alloc, DepTable init
        ++counts_.dat;
        ++counts_.rla;
        ++counts_.depTable;
    } else {
        dep_id = static_cast<DepHwId>(*did_probe);
        ++res.accesses; // DepTable read
        ++counts_.depTable;
    }
    DepEntry &dep = depTable_[dep_id];

    // Insert depID in the dependence list of taskID.
    unsigned acc = 0;
    if (!dla_.push(task.depList, dep_id, acc))
        sim::panic("DMU: DLA push failed after capacity check");
    res.accesses += acc;
    counts_.dla += acc;

    // Order after the last writer (RAW / WAW).
    if (dep.hasWriter() && dep.lastWriter != task_id) {
        TaskEntry &writer = taskTable_[dep.lastWriter];
        acc = 0;
        if (!sla_.push(writer.succList, task_id, acc))
            sim::panic("DMU: SLA push failed after capacity check");
        res.accesses += acc;
        counts_.sla += acc;
        ++writer.succCount;
        ++task.predCount;
        res.accesses += 2; // two Task Table updates
        counts_.taskTable += 2;
    }

    if (!is_output) {
        // Input: register as reader.
        acc = 0;
        if (!rla_.push(dep.readerList, task_id, acc))
            sim::panic("DMU: RLA push failed after capacity check");
        res.accesses += acc;
        counts_.rla += acc;
    } else {
        // Output: order after every reader (WAR), then become the
        // last writer.
        std::vector<std::uint16_t> &readers = scratchIds_;
        readers.clear();
        acc = rla_.forEach(dep.readerList, [&](std::uint16_t r) {
            readers.push_back(r);
        });
        res.accesses += acc;
        counts_.rla += acc;
        for (std::uint16_t r : readers) {
            if (r == task_id)
                continue;
            TaskEntry &reader = taskTable_[static_cast<TaskHwId>(r)];
            acc = 0;
            if (!sla_.push(reader.succList, task_id, acc))
                sim::panic("DMU: SLA push failed after capacity check");
            res.accesses += acc;
            counts_.sla += acc;
            ++reader.succCount;
            ++task.predCount;
            res.accesses += 2;
            counts_.taskTable += 2;
        }
        acc = rla_.clear(dep.readerList);
        res.accesses += acc;
        counts_.rla += acc;
        dep.lastWriter = task_id;
        ++res.accesses; // DepTable write
        ++counts_.depTable;
    }
    statAccesses_ += res.accesses;
    checkOccupancy(*this);
    return res;
}

DmuResult
Dmu::commitTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    DmuResult res;
    ++statOps_;
    TaskHwId task_id = requireTask(desc_addr, pid, res.accesses);
    TaskEntry &task = taskTable_[task_id];
    ++res.accesses; // Task Table read-modify-write
    ++counts_.taskTable;
    if (task.committed)
        sim::panic("DMU: double commit of descriptor 0x", std::hex,
                   desc_addr);
    task.committed = true;
    if (task.predCount == 0) {
        if (!readyQueue_.push(task_id))
            sim::panic("DMU: ready queue overflow");
        ++res.accesses;
        ++counts_.readyQueue;
        res.readyDescAddrs.push_back(task.descAddr);
    }
    statAccesses_ += res.accesses;
    return res;
}

DmuResult
Dmu::finishTask(std::uint64_t desc_addr, std::uint32_t pid)
{
    DmuResult res;
    ++statOps_;

    TaskHwId task_id = requireTask(desc_addr, pid, res.accesses);
    TaskEntry &task = taskTable_[task_id];
    ++res.accesses; // Task Table read
    ++counts_.taskTable;

    // ---- Wake up successors (Algorithm 2, first loop). ----
    std::vector<std::uint16_t> &succs = scratchIds_;
    succs.clear();
    unsigned acc = sla_.forEach(task.succList, [&](std::uint16_t s) {
        succs.push_back(s);
    });
    res.accesses += acc;
    counts_.sla += acc;
    for (std::uint16_t s : succs) {
        TaskEntry &succ = taskTable_[static_cast<TaskHwId>(s)];
        if (succ.predCount == 0)
            sim::panic("DMU: predecessor underflow on task id ", s);
        --succ.predCount;
        ++res.accesses;
        ++counts_.taskTable;
        if (succ.predCount == 0 && succ.committed) {
            if (!readyQueue_.push(static_cast<TaskHwId>(s)))
                sim::panic("DMU: ready queue overflow");
            ++res.accesses;
            ++counts_.readyQueue;
            res.readyDescAddrs.push_back(succ.descAddr);
        }
    }

    // ---- Detach from dependences (Algorithm 2, second loop). ----
    // Reuses the scratch buffer: the successor loop above is done.
    std::vector<std::uint16_t> &deps = scratchIds_;
    deps.clear();
    acc = dla_.forEach(task.depList, [&](std::uint16_t d) {
        deps.push_back(d);
    });
    res.accesses += acc;
    counts_.dla += acc;
    for (std::uint16_t d : deps) {
        DepHwId dep_id = static_cast<DepHwId>(d);
        if (!depTable_[dep_id].valid)
            continue; // already freed via an earlier duplicate entry
        DepEntry &dep = depTable_[dep_id];
        ++res.accesses; // DepTable read
        ++counts_.depTable;
        acc = rla_.remove(dep.readerList, task_id);
        res.accesses += acc;
        counts_.rla += acc;
        if (dep.lastWriter == task_id) {
            dep.lastWriter = invalidHwId;
            ++res.accesses;
            ++counts_.depTable;
        }
        if (!dep.hasWriter() && rla_.size(dep.readerList) == 0) {
            acc = rla_.freeList(dep.readerList);
            res.accesses += acc;
            counts_.rla += acc;
            depTable_.free(dep_id);
            ++res.accesses;
            ++counts_.depTable;
            dat_.erase(depAddrOf_[dep_id], depSizeOf_[dep_id],
                       depPidOf_[dep_id]);
            ++res.accesses;
            ++counts_.dat;
        }
    }

    // ---- Free the task's own resources. ----
    acc = sla_.freeList(task.succList);
    res.accesses += acc;
    counts_.sla += acc;
    acc = dla_.freeList(task.depList);
    res.accesses += acc;
    counts_.dla += acc;
    taskTable_.free(task_id);
    ++res.accesses;
    ++counts_.taskTable;
    tat_.erase(desc_addr, descIndexBytes, pid);
    ++res.accesses;
    ++counts_.tat;

    ++capacityEpoch_;
    statAccesses_ += res.accesses;
    checkOccupancy(*this);
    return res;
}

std::optional<ReadyTaskInfo>
Dmu::getReadyTask(unsigned &accesses)
{
    ++statOps_;
    ++accesses;
    ++counts_.readyQueue;
    TaskHwId id = readyQueue_.pop();
    if (id == invalidHwId) {
        statAccesses_ += 1;
        return std::nullopt;
    }
    const TaskEntry &e = taskTable_[id];
    ++accesses;
    ++counts_.taskTable;
    statAccesses_ += 2;
    return ReadyTaskInfo{e.descAddr, e.succCount};
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
    ctx.counter("accesses", &statAccesses_, "total SRAM accesses");

    // Per-structure SRAM traffic (what the energy model integrates).
    ctx.counter("task_table.accesses", &counts_.taskTable,
                "Task Table SRAM accesses");
    ctx.counter("dep_table.accesses", &counts_.depTable,
                "Dependence Table SRAM accesses");
    ctx.counter("sla.accesses", &counts_.sla,
                "Successor List Array SRAM accesses");
    ctx.counter("dla.accesses", &counts_.dla,
                "Dependence List Array SRAM accesses");
    ctx.counter("rla.accesses", &counts_.rla,
                "Reader List Array SRAM accesses");
    ctx.counter("ready_queue.accesses", &counts_.readyQueue,
                "Ready Queue SRAM accesses");

    ctx.gauge("tasks_in_flight",
              [this] { return static_cast<double>(tasksInFlight()); },
              "tasks currently tracked");
    ctx.gauge("deps_in_flight",
              [this] { return static_cast<double>(depsInFlight()); },
              "dependences currently tracked");
    ctx.gauge("ready",
              [this] { return static_cast<double>(readyCount()); },
              "ready tasks queued");

    sim::MetricContext tat_ctx = ctx.scope("tat");
    tat_ctx.counter("accesses", &counts_.tat, "TAT SRAM accesses");
    tat_.regMetrics(tat_ctx);
    sim::MetricContext dat_ctx = ctx.scope("dat");
    dat_ctx.counter("accesses", &counts_.dat, "DAT SRAM accesses");
    dat_.regMetrics(dat_ctx);
}

} // namespace tdm::dmu
