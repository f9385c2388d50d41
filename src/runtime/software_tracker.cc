#include "runtime/software_tracker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tdm::rt {

SoftwareTracker::SoftwareTracker(const TaskGraph &graph) : graph_(&graph)
{
    regState_.resize(graph.regions().size());
    numPreds_.assign(graph.numTasks(), 0);
    succs_.assign(graph.numTasks(), {});
    created_.assign(graph.numTasks(), false);
    finished_.assign(graph.numTasks(), false);
}

void
SoftwareTracker::resetRegion()
{
    for (auto &s : regState_) {
        s.lastWriter = invalidTask;
        s.readers.clear();
    }
}

TrackerCreateWork
SoftwareTracker::create(TaskId id)
{
    if (created_[id])
        sim::panic("tracker: double create of task ", id);
    created_[id] = true;
    ++inFlight_;

    TrackerCreateWork work;
    const Task &t = graph_->task(id);
    for (const DepSpec &d : t.deps) {
        RegState &rs = regState_[d.region];
        ++work.depLookups;
        if (d.fragmented)
            ++work.fragmentSplits;

        // RAW / WAW: order after the last (unfinished) writer.
        if (rs.lastWriter != invalidTask && rs.lastWriter != id) {
            succs_[rs.lastWriter].push_back(id);
            ++numPreds_[id];
            ++work.edgeInserts;
        }
        if (d.dir == DepDir::In) {
            rs.readers.push_back(id);
        } else {
            // WAR: order after every reader since the last write.
            for (TaskId r : rs.readers) {
                ++work.readerScans;
                if (r == id)
                    continue;
                succs_[r].push_back(id);
                ++numPreds_[id];
                ++work.edgeInserts;
            }
            rs.readers.clear();
            rs.lastWriter = id;
        }
    }
    work.readyNow = numPreds_[id] == 0;
    ++creates_;
    depLookups_ += work.depLookups;
    edgeInserts_ += work.edgeInserts;
    readerScans_ += work.readerScans;
    fragmentSplits_ += work.fragmentSplits;
    return work;
}

TrackerFinishWork
SoftwareTracker::finish(TaskId id)
{
    if (!created_[id] || finished_[id])
        sim::panic("tracker: bad finish of task ", id);
    finished_[id] = true;
    --inFlight_;

    TrackerFinishWork work;
    // Wake successors.
    for (TaskId s : succs_[id]) {
        ++work.succVisits;
        if (numPreds_[s] == 0)
            sim::panic("tracker: predecessor underflow on task ", s);
        --numPreds_[s];
        if (numPreds_[s] == 0)
            work.newlyReady.push_back(s);
    }
    succs_[id].clear();

    // Detach from dependence state, mirroring the DMU cleanup.
    const Task &t = graph_->task(id);
    for (const DepSpec &d : t.deps) {
        ++work.depVisits;
        RegState &rs = regState_[d.region];
        auto it = std::find(rs.readers.begin(), rs.readers.end(), id);
        if (it != rs.readers.end())
            rs.readers.erase(it);
        if (rs.lastWriter == id)
            rs.lastWriter = invalidTask;
    }
    ++finishes_;
    succVisits_ += work.succVisits;
    depVisits_ += work.depVisits;
    return work;
}

void
SoftwareTracker::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("creates", &creates_, "tasks registered");
    ctx.counter("finishes", &finishes_, "tasks retired");
    ctx.counter("dep_lookups", &depLookups_, "region-map lookups");
    ctx.counter("edge_inserts", &edgeInserts_, "TDG edges inserted");
    ctx.counter("reader_scans", &readerScans_,
                "readers visited by WAR scans");
    ctx.counter("fragment_splits", &fragmentSplits_,
                "fragmented-region map splits");
    ctx.counter("succ_visits", &succVisits_,
                "successors visited at finish");
    ctx.counter("dep_visits", &depVisits_,
                "dependences detached at finish");
    ctx.gauge("in_flight",
              [this] { return static_cast<double>(inFlight_); },
              "tasks created but not yet finished");
}

} // namespace tdm::rt
