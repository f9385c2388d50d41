/**
 * @file
 * Shared immutable task graphs.
 *
 * Building a workload TaskGraph is pure: the graph depends only on the
 * `workload` and `workload.*` keys of the experiment's canonical spec
 * (spec::normalized resolves a default granularity to the runtime's
 * optimum first). The GraphCache builds each distinct graph exactly
 * once, keyed by that projection, and hands out
 * shared_ptr<const TaskGraph> views that any number of concurrently
 * running machines can read. SW and TDM share a graph whenever their
 * Table II optima agree (7 of the 9 benchmarks).
 */

#ifndef TDM_DRIVER_GRAPH_CACHE_HH
#define TDM_DRIVER_GRAPH_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "driver/experiment.hh"
#include "runtime/task_graph.hh"

namespace tdm::driver {

/**
 * Canonical key of the graph @p exp runs on: the `workload` and
 * `workload.*` entries of its canonical spec, so the granularity in
 * the key is the resolved one. Two experiments with equal keys build
 * byte-identical graphs. Throws spec::SpecError as spec::normalized.
 */
std::string graphKey(const Experiment &exp);

/** Build @p exp's graph fresh from its normalized experiment, shared. */
std::shared_ptr<const rt::TaskGraph> buildGraph(const Experiment &exp);

/**
 * Thread-safe build-once store of immutable task graphs.
 */
class GraphCache
{
  public:
    /**
     * The graph for @p exp: served from the cache when an equal-key
     * graph exists, built (and published) otherwise.
     */
    std::shared_ptr<const rt::TaskGraph> obtain(const Experiment &exp);

    /** Distinct graphs built so far. */
    std::uint64_t builds() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string,
                       std::shared_ptr<const rt::TaskGraph>> map_;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_GRAPH_CACHE_HH
