/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are ordered first by tick and then by schedule sequence, so
 * simulations are bit-reproducible regardless of container internals.
 *
 * The pending set is a one-entry next-event slot in front of one
 * binary min-heap (std::push_heap/pop_heap) of inline-key entries:
 * each entry replicates its event's (tick, seq) next to the pointer,
 * so heap sifts compare without dereferencing events. Invariant: a
 * full slot's key is below every heap entry's. An event scheduled
 * strictly before every pending event takes the slot and never
 * touches the heap; on fig13 that is 78.9% of all schedules (a DMU
 * ISA op completing tens of cycles out is nearly always next). At
 * schedule time the pending set holds 24.0 events on average on fig13
 * and 7-73 on average per 256- or 1024-core point, so the heap needs
 * no tiering.
 *
 * Every event is posted (post() / postIn()), fires once, and is
 * recycled through per-size-class freelists right after, so a
 * steady-state simulation performs no per-event heap allocation.
 *
 * run(limit) end-time semantics (regression-tested):
 *  - every event with when <= limit fires;
 *  - if events remain pending, now() is advanced to exactly `limit`;
 *  - if the queue drained, now() stays at the tick of the last event
 *    executed (the quiescence time / makespan), which may be < limit;
 *  - the clock never moves backwards: run(limit) with limit < now()
 *    executes nothing and leaves now() unchanged.
 */

#ifndef TDM_SIM_EVENT_QUEUE_HH
#define TDM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/assert.hh"
#include "sim/event.hh"
#include "sim/types.hh"

namespace tdm::sim {

/**
 * A deterministic event-driven simulator kernel.
 *
 * Single-threaded: all model code runs inside event callbacks. Ties at
 * the same tick fire in schedule order.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    // ---- typed, pooled scheduling ----------------------------------

    /**
     * Schedule `(owner->*MemFn)(args...)` at absolute tick @p when via
     * a pooled BoundEvent: statically typed, no type erasure, recycled
     * memory.
     */
    template <auto MemFn, typename Owner, typename... Args>
    void
    post(Tick when, Owner *owner, Args... args)
    {
        using Ev = BoundEvent<MemFn, Owner, Args...>;
        schedule(make<Ev>(owner, std::move(args)...), when);
    }

    /** As post(), @p delay ticks from now. */
    template <auto MemFn, typename Owner, typename... Args>
    void
    postIn(Tick delay, Owner *owner, Args... args)
    {
        post<MemFn>(curTick_ + delay, owner, std::move(args)...);
    }

    // ---- execution -------------------------------------------------

    /**
     * Run until the queue drains or @p limit ticks is reached; see the
     * file comment for the exact end-time semantics.
     * @return the final simulated time.
     */
    Tick run(Tick limit = maxTick);

    /** Execute at most one event. @return false if queue was empty. */
    bool step();

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return heap_.size() + (next_.ev != nullptr);
    }

    /** True when no events remain. */
    bool empty() const { return !next_.ev && heap_.empty(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Pending entry: the event's ordering key replicated inline. */
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Event *ev = nullptr;
    };

    /**
     * Allocate a pooled event of type @p T. It is destroyed and its
     * memory recycled right after it fires (or when the queue is
     * destroyed with the event still pending).
     */
    template <typename T, typename... CtorArgs>
    T *
    make(CtorArgs &&...args)
    {
        static_assert(std::is_base_of_v<Event, T>);
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "pool blocks provide only default new alignment");
        constexpr std::size_t cls = classOf(sizeof(T));
        static_assert(cls < numClasses,
                      "event payload exceeds the largest pool class");
        T *ev = new (allocRaw(cls, classBytes(cls)))
            T(std::forward<CtorArgs>(args)...);
        ev->poolClass_ = static_cast<std::uint16_t>(
            cls | (T::trivialPayload ? Event::trivialBit : 0));
        return ev;
    }

    /** Schedule the pooled @p ev at absolute tick @p when (>= now). */
    void schedule(Event *ev, Tick when);

    /** Unlink and return the earliest pending event. Pre: not empty. */
    Event *pop();

    /** True when the slot is empty or fires before the heap's head. */
    bool slotLeads() const;

    /** Advance the clock to @p ev, fire it, and recycle it. */
    void fire(Event *ev);

    /** Destroy a fired or cancelled event and recycle its block. */
    void retire(Event *ev);

    /** Retire every pending event. */
    void clearPending();

    // ---- pool ----
    static constexpr std::size_t classGrain = 16;
    static constexpr std::size_t numClasses = 16; ///< up to 256 bytes

    /** Size class of an allocation: 0 covers 1-16 bytes, 15 covers
        241-256 (the largest event make() accepts). */
    static constexpr std::size_t classOf(std::size_t bytes) {
        return (bytes - 1) / classGrain;
    }
    static constexpr std::size_t classBytes(std::size_t cls) {
        return (cls + 1) * classGrain;
    }

    void *allocRaw(std::size_t cls, std::size_t bytes);
    void releaseRaw(void *mem, std::size_t cls);

    Entry next_;              ///< earliest pending event; null ev = empty
    std::vector<Entry> heap_; ///< min-heap by (tick, seq) of the rest

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;

    void *freeLists_[numClasses] = {};

#if SIM_INVARIANTS_ENABLED
    /**
     * Last fired (tick, seq) key: the determinism contract is that the
     * fire order is strictly increasing lexicographically.
     * Debug/sanitizer builds re-verify this at every fire.
     */
    Tick lastFiredWhen_ = 0;
    std::uint64_t lastFiredSeq_ = 0;
    bool anyFired_ = false;
#endif
};

} // namespace tdm::sim

#endif // TDM_SIM_EVENT_QUEUE_HH
