#include "driver/fork_runner.hh"

#include "driver/graph_cache.hh"
#include "sim/logging.hh"

namespace tdm::driver {

ForkGroupRunner::ForkGroupRunner(
    std::shared_ptr<const rt::TaskGraph> graph, bool enableFork)
    : graph_(std::move(graph)), enableFork_(enableFork)
{}

void
ForkGroupRunner::reset()
{
    leader_.reset();
    trace_ = {};
    leaderKey_.clear();
}

RunSummary
ForkGroupRunner::run(const Experiment &exp, const std::string &roi_key,
                     sim::TraceBuffer *trace_out, bool *forked)
{
    if (forked)
        *forked = false;
    if (!enableFork_)
        return driver::run(exp, graph_, trace_out);

    if (!leader_ || roi_key != leaderKey_) {
        reset();
        if (!graph_)
            graph_ = buildGraph(exp);
        RunSummary s = driver::run(exp, graph_, &trace_);
        if (trace_out)
            *trace_out = trace_;
        if (s.completed) {
            leader_ = s;
            leaderKey_ = roi_key;
        }
        return s;
    }

    // An equal fingerprint means the member's run matches the leader's
    // up to the power model, so only the three power totals change.
    sim::MetricSet tree = leader_->metrics();
    pwr::EnergyAccountant::reprice(tree, leader_->makespan,
                                   exp.config.power);
    std::optional<RunSummary> s = summaryOf(std::move(tree));
    if (!s)
        sim::panic("a re-priced metric tree does not fit its summary");
    if (trace_out)
        *trace_out = trace_;
    if (forked)
        *forked = true;
    return *std::move(s);
}

} // namespace tdm::driver
