#include "runtime/task_graph.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/logging.hh"

namespace tdm::rt {

TaskGraph::TaskGraph(std::string name) : name_(std::move(name)) {}

RegionId
TaskGraph::addRegion(std::uint64_t bytes)
{
    if (bytes == 0)
        sim::fatal("region must have nonzero size");
    RegionId id = static_cast<RegionId>(regions_.size());
    regions_.push_back(DataRegion{nextAddr_, bytes});
    nextAddr_ += bytes;
    return id;
}

void
TaskGraph::beginParallel(sim::Tick prologue_cycles)
{
    if (!parRegions_.empty()) {
        ParallelRegion &prev = parRegions_.back();
        prev.numTasks =
            static_cast<std::uint32_t>(tasks_.size()) - prev.firstTask;
    }
    parRegions_.push_back(
        ParallelRegion{static_cast<std::uint32_t>(tasks_.size()), 0,
                       prologue_cycles});
}

Task &
TaskGraph::createTask(sim::Tick compute_cycles, std::uint16_t kernel)
{
    if (parRegions_.empty())
        beginParallel();
    Task t;
    t.id = static_cast<TaskId>(tasks_.size());
    t.descAddr = nextDescAddr_;
    nextDescAddr_ += descStride; // bump allocation, like a real heap
    t.computeCycles = compute_cycles;
    t.kernel = kernel;
    t.parRegion = static_cast<std::uint32_t>(parRegions_.size()) - 1;
    tasks_.push_back(std::move(t));
    parRegions_.back().numTasks =
        static_cast<std::uint32_t>(tasks_.size())
        - parRegions_.back().firstTask;
    return tasks_.back();
}

void
TaskGraph::dep(RegionId region, DepDir dir, bool fragmented)
{
    if (tasks_.empty())
        sim::panic("dep() before any createTask()");
    if (region >= regions_.size())
        sim::panic("dep() on undeclared region ", region);
    tasks_.back().deps.push_back(DepSpec{region, dir, fragmented});
}

sim::Tick
TaskGraph::totalComputeCycles() const
{
    sim::Tick total = 0;
    for (const Task &t : tasks_)
        total += t.computeCycles;
    return total;
}

double
TaskGraph::avgTaskUs() const
{
    if (tasks_.empty())
        return 0.0;
    return sim::ticksToUs(totalComputeCycles())
           / static_cast<double>(tasks_.size());
}

TdgEdges
TaskGraph::buildEdges() const
{
    TdgEdges out;
    out.successors.assign(tasks_.size(), {});
    out.numPreds.assign(tasks_.size(), 0);

    struct RegState
    {
        TaskId lastWriter = invalidTask;
        std::vector<TaskId> readers;
    };
    std::vector<RegState> state(regions_.size());

    // Per-task set of predecessors, used to deduplicate edges the way a
    // real runtime does (a task depending twice on the same older task
    // contributes a single TDG edge).
    std::vector<TaskId> preds;
    std::uint32_t region_start = 0;
    std::uint32_t region_idx = 0;

    for (const Task &t : tasks_) {
        if (region_idx < parRegions_.size()
            && t.id >= parRegions_[region_idx].firstTask
                           + parRegions_[region_idx].numTasks) {
            // Barrier: dependence state resets between parallel regions.
            ++region_idx;
            region_start = t.id;
            for (auto &s : state) {
                s.lastWriter = invalidTask;
                s.readers.clear();
            }
        }
        (void)region_start;
        preds.clear();
        for (const DepSpec &d : t.deps) {
            RegState &rs = state[d.region];
            // Reads and writes both order after the last writer (RAW /
            // WAW).
            if (rs.lastWriter != invalidTask)
                preds.push_back(rs.lastWriter);
            if (d.dir == DepDir::In) {
                rs.readers.push_back(t.id);
            } else {
                // WAR: order after every reader since the last write.
                for (TaskId r : rs.readers)
                    preds.push_back(r);
                rs.readers.clear();
                rs.lastWriter = t.id;
            }
        }
        std::sort(preds.begin(), preds.end());
        preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
        for (TaskId p : preds) {
            if (p == t.id)
                continue; // self-dependence via multiple deps; ignore
            out.successors[p].push_back(t.id);
            ++out.numPreds[t.id];
            ++out.edgeCount;
        }
    }
    return out;
}

sim::Tick
TaskGraph::criticalPathCycles() const
{
    TdgEdges edges = buildEdges();
    // Tasks are topologically ordered by construction (edges only point
    // from lower to higher ids), so one forward pass suffices.
    std::vector<sim::Tick> finish(tasks_.size(), 0);
    sim::Tick best = 0;
    for (const Task &t : tasks_) {
        sim::Tick f = finish[t.id] + t.computeCycles;
        finish[t.id] = f;
        best = std::max(best, f);
        for (TaskId s : edges.successors[t.id])
            finish[s] = std::max(finish[s], f);
    }
    return best;
}

std::uint32_t
TaskGraph::maxTasksInRegion() const
{
    std::uint32_t best = 0;
    for (const ParallelRegion &r : parRegions_)
        best = std::max(best, r.numTasks);
    return best;
}

} // namespace tdm::rt
