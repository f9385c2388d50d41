/**
 * @file
 * Writing a custom software scheduler — the flexibility TDM exists to
 * preserve (Section III-C3: "the pool of ready tasks can be used by
 * the runtime system to implement any scheduling policy").
 *
 * This example implements a criticality-then-age policy: among ready
 * tasks, prefer the one with more successors (closer to the serialized
 * critical path), breaking ties toward older tasks. It is registered
 * with the runtime and plugged into the machine without any hardware
 * change — exactly the point of the co-design — and compared against
 * the five stock policies on the dedup pipeline.
 */

#include <iostream>
#include <queue>

#include "core/machine.hh"
#include "driver/experiment.hh"
#include "sim/table.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

/** Criticality-then-age priority policy (user-defined). */
class CriticalFirstScheduler : public rt::Scheduler
{
  public:
    const char *name() const override { return "critical-first"; }

    void push(const rt::ReadyTask &t) override { heap_.push(t); }

    std::optional<rt::ReadyTask>
    pop(sim::CoreId) override
    {
        if (heap_.empty())
            return std::nullopt;
        rt::ReadyTask t = heap_.top();
        heap_.pop();
        return t;
    }

    bool empty() const override { return heap_.empty(); }
    std::size_t size() const override { return heap_.size(); }

    sim::Tick pushExtraCycles() const override { return 60; }
    sim::Tick popExtraCycles() const override { return 60; }

  private:
    struct Less
    {
        bool
        operator()(const rt::ReadyTask &a, const rt::ReadyTask &b) const
        {
            if (a.numSuccessors != b.numSuccessors)
                return a.numSuccessors < b.numSuccessors;
            return a.creationSeq > b.creationSeq;
        }
    };

    std::priority_queue<rt::ReadyTask, std::vector<rt::ReadyTask>, Less>
        heap_;
};

double
runDedup(const std::string &sched)
{
    wl::WorkloadParams p;
    p.tdmOptimal = true;
    rt::TaskGraph g = wl::buildWorkload("dedup", p);
    cpu::MachineConfig cfg;
    cfg.scheduler = sched;
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    const driver::RunSummary res = driver::summarize(m.run(), g);
    return res.completed ? res.timeMs : -1.0;
}

} // namespace

int
main()
{
    // Register the custom policy; from here it behaves exactly like a
    // built-in — the DMU never hears about it.
    rt::registerScheduler("critical-first", [](unsigned, std::uint32_t) {
        return std::make_unique<CriticalFirstScheduler>();
    });

    sim::Table t("dedup on TDM, 32 cores");
    t.header({"policy", "time ms"});
    for (const auto &s : rt::allSchedulerNames())
        t.row().cell(s).cell(runDedup(s), 2);
    t.row().cell("critical-first (custom)").cell(
        runDedup("critical-first"), 2);
    t.print(std::cout);
    return 0;
}
