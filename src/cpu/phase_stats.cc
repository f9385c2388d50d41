#include "cpu/phase_stats.hh"

#include "sim/logging.hh"

namespace tdm::cpu {

const char *
toString(Phase p)
{
    switch (p) {
      case Phase::Deps: return "DEPS";
      case Phase::Sched: return "SCHED";
      case Phase::Exec: return "EXEC";
      case Phase::Idle: return "IDLE";
    }
    return "?";
}

double
PhaseBreakdown::fraction(Phase p) const
{
    sim::Tick t = total();
    if (t == 0)
        return 0.0;
    sim::Tick v = 0;
    switch (p) {
      case Phase::Deps: v = deps; break;
      case Phase::Sched: v = sched; break;
      case Phase::Exec: v = exec; break;
      case Phase::Idle: v = idle; break;
    }
    return static_cast<double>(v) / static_cast<double>(t);
}

PhaseBreakdown &
PhaseBreakdown::operator+=(const PhaseBreakdown &o)
{
    deps += o.deps;
    sched += o.sched;
    exec += o.exec;
    idle += o.idle;
    return *this;
}

PhaseStats::PhaseStats(unsigned num_cores) : per_(num_cores) {}

void
PhaseStats::add(sim::CoreId core, Phase p, sim::Tick ticks)
{
    if (core >= per_.size())
        sim::panic("phase stats: core ", core, " out of range");
    switch (p) {
      case Phase::Deps: per_[core].deps += ticks; break;
      case Phase::Sched: per_[core].sched += ticks; break;
      case Phase::Exec: per_[core].exec += ticks; break;
      case Phase::Idle: per_[core].idle += ticks; break;
    }
}

PhaseBreakdown
PhaseStats::workersTotal() const
{
    PhaseBreakdown sum;
    for (std::size_t c = 1; c < per_.size(); ++c)
        sum += per_[c];
    return sum;
}

PhaseBreakdown
PhaseStats::chipTotal() const
{
    PhaseBreakdown sum;
    for (const auto &b : per_)
        sum += b;
    return sum;
}

void
PhaseStats::regMetrics(sim::MetricContext ctx)
{
    // One aggregate scope per Figure-2 row; the per-phase tick sums
    // are monotone, so phase windows report per-window breakdowns.
    struct Group
    {
        const char *name;
        std::function<PhaseBreakdown()> get;
    };
    const Group groups[] = {
        {"master", [this] { return master(); }},
        {"workers", [this] { return workersTotal(); }},
        {"chip", [this] { return chipTotal(); }},
    };
    for (const Group &g : groups) {
        sim::MetricContext sub = ctx.scope(g.name);
        auto get = g.get;
        sub.counterFn("deps_ticks",
                      [get] { return static_cast<double>(get().deps); },
                      "ticks in dependence management (DEPS)");
        sub.counterFn("sched_ticks",
                      [get] { return static_cast<double>(get().sched); },
                      "ticks in scheduling operations (SCHED)");
        sub.counterFn("exec_ticks",
                      [get] { return static_cast<double>(get().exec); },
                      "ticks executing task bodies (EXEC)");
        sub.counterFn("idle_ticks",
                      [get] { return static_cast<double>(get().idle); },
                      "ticks waiting for work (IDLE)");
        sub.formulaFn("exec_fraction",
                      [get] {
                          return get().fraction(Phase::Exec);
                      },
                      "EXEC share of this row's total time");
        sub.formulaFn("idle_fraction",
                      [get] {
                          return get().fraction(Phase::Idle);
                      },
                      "IDLE share of this row's total time");
    }
}

} // namespace tdm::cpu
