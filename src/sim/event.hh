/**
 * @file
 * Intrusive simulation events.
 *
 * An Event is a schedulable object with a virtual fire() hook and the
 * kernel bookkeeping (tick, sequence number, pool class) embedded in
 * the object itself. Model code never holds one: EventQueue::post()
 * allocates a BoundEvent from the queue's size-class freelists, and the
 * queue fires it once, then destroys and recycles it. A steady-state
 * simulation reuses the same few blocks of memory for all of its
 * events.
 *
 * BoundEvent binds a member-function pointer plus its arguments at
 * schedule time and invokes them directly on fire(), with no type
 * erasure and no per-event heap allocation.
 */

#ifndef TDM_SIM_EVENT_HH
#define TDM_SIM_EVENT_HH

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sim/types.hh"

namespace tdm::sim {

class EventQueue;

/**
 * Base class of everything schedulable on an EventQueue.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event() = default;

    /** Invoked by the kernel when simulated time reaches the
     *  event's tick. */
    virtual void fire() = 0;

  private:
    friend class EventQueue;

    /**
     * Flag bit on pooled size classes: the event needs no destructor
     * call before its memory is recycled (trivial payload).
     */
    static constexpr std::uint16_t trivialBit = 0x8000;

    Tick when_ = 0;
    std::uint64_t seq_ = 0; ///< schedule order, breaks same-tick ties
    std::uint16_t poolClass_ = 0;
};

/**
 * An event that calls `(owner->*MemFn)(args...)` when it fires.
 *
 * The argument pack is stored by value inside the event; member
 * functions that want to avoid a copy at fire time can take their
 * parameters by (non-const) reference and will be handed the stored
 * copies directly.
 */
template <auto MemFn, typename Owner, typename... Args>
class BoundEvent final : public Event
{
  public:
    explicit BoundEvent(Owner *owner, Args... args)
        : owner_(owner), args_(std::move(args)...)
    {}

    void
    fire() override
    {
        std::apply([this](Args &...a) { (owner_->*MemFn)(a...); }, args_);
    }

    /**
     * True when recycling the event needs no destructor call — the
     * pool can skip the virtual-dtor dispatch on the hot path.
     */
    static constexpr bool trivialPayload =
        (std::is_trivially_destructible_v<Args> && ...);

  private:
    Owner *owner_;
    [[no_unique_address]] std::tuple<Args...> args_;
};

} // namespace tdm::sim

#endif // TDM_SIM_EVENT_HH
