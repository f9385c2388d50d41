#include "driver/fork_runner.hh"

#include "driver/graph_cache.hh"

namespace tdm::driver {

ForkGroupRunner::ForkGroupRunner(
    std::shared_ptr<const rt::TaskGraph> graph, bool enableFork)
    : graph_(std::move(graph)), enableFork_(enableFork)
{}

void
ForkGroupRunner::reset()
{
    machine_.reset();
    finalRoiKey_.clear();
}

RunSummary
ForkGroupRunner::cold(const Experiment &exp, const std::string &roi_key,
                      sim::TraceBuffer *trace_out)
{
    if (!graph_)
        graph_ = buildGraph(exp);
    machine_ = std::make_unique<core::Machine>(exp.config, graph_,
                                               exp.runtime);
    core::MachineResult mr = machine_->run();
    finalRoiKey_ = roi_key;
    if (trace_out)
        *trace_out = machine_->traceBuffer();
    return summarize(std::move(mr), *graph_);
}

RunSummary
ForkGroupRunner::run(const Experiment &exp, const std::string &roi_key,
                     sim::TraceBuffer *trace_out, bool *forked)
{
    if (forked)
        *forked = false;
    if (!enableFork_)
        return driver::run(exp, graph_, trace_out);

    // Every leg copies the trace out: later final forks share it.
    //
    // An equal fingerprint means the member's whole trajectory matches
    // the machine's last completed one, so only finalization re-runs
    // under the member's power config.
    if (machine_ && machine_->finished() && roi_key == finalRoiKey_) {
        core::MachineResult mr = machine_->runFromFinal(exp.config);
        if (trace_out)
            *trace_out = machine_->traceBuffer();
        if (forked)
            *forked = true;
        return summarize(std::move(mr), *graph_);
    }
    return cold(exp, roi_key, trace_out);
}

} // namespace tdm::driver
