/**
 * @file
 * Software task schedulers (Section VI of the paper).
 *
 * A scheduler is a pure policy data structure over ready tasks; the
 * machine model wraps it with the runtime lock and charges pool costs.
 * Five policies are provided: FIFO, LIFO, Locality, Successor and Age.
 */

#ifndef TDM_RUNTIME_SCHEDULER_HH
#define TDM_RUNTIME_SCHEDULER_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/task.hh"
#include "sim/types.hh"

namespace tdm::rt {

/** A ready task as seen by the scheduler. */
struct ReadyTask
{
    TaskId id = invalidTask;

    /** Successor count at the time the task became ready. */
    std::uint32_t numSuccessors = 0;

    /** Core that produced the readiness (finished the last
     *  predecessor), or sim::invalidCore for creation-ready tasks. */
    sim::CoreId producerHint = sim::invalidCore;

    /** Monotonic sequence assigned at creation (program order). */
    std::uint64_t creationSeq = 0;

    /** Tick at which the task became ready. */
    sim::Tick readyTime = 0;
};

/**
 * Scheduling policy interface. Implementations need not be thread-safe:
 * the simulation serializes access through the modelled runtime lock.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual const char *name() const = 0;

    /** Add a ready task. */
    virtual void push(const ReadyTask &task) = 0;

    /** Select a task for @p core; nullopt when none available. */
    virtual std::optional<ReadyTask> pop(sim::CoreId core) = 0;

    virtual bool empty() const = 0;
    virtual std::size_t size() const = 0;

    /** Extra policy cycles on top of the base pool push/pop cost.
     *  A machine reads each once, at construction, so they must be
     *  constant for the scheduler's lifetime. */
    virtual sim::Tick pushExtraCycles() const { return 0; }
    virtual sim::Tick popExtraCycles() const { return 0; }
};

/**
 * Instantiate a scheduler by policy name: "fifo", "lifo", "locality",
 * "successor", "age", or any name registered via registerScheduler().
 *
 * @param num_cores   cores in the machine (locality policy)
 * @param succ_threshold high-priority threshold of the successor policy
 */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name,
                                         unsigned num_cores,
                                         std::uint32_t succ_threshold = 1);

/** Factory signature for user-defined policies. */
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(
    unsigned num_cores, std::uint32_t succ_threshold)>;

/**
 * Register a user-defined scheduling policy under @p name; TDM's whole
 * point is that this requires no hardware change. Overrides built-ins
 * of the same name.
 */
void registerScheduler(const std::string &name, SchedulerFactory factory);

/** Names of the five built-in policies, in the paper's order. */
const std::vector<std::string> &allSchedulerNames();

/** Whether @p name resolves to a built-in or registered policy. */
bool hasScheduler(const std::string &name);

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHEDULER_HH
