#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tdm::sim {

namespace {

/** Max-heap comparator that surfaces the earliest (tick, seq) first. */
struct Later
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

EventQueue::~EventQueue()
{
    // Drain pending events (retiring pool events into the freelists),
    // then release the freelists themselves.
    clearPending();
    for (void *&head : freeLists_) {
        while (head) {
            void *next = *static_cast<void **>(head);
            ::operator delete(head);
            head = next;
        }
    }
}

void
EventQueue::clearPending()
{
    if (next_.ev)
        retire(next_.ev);
    next_ = Entry{};
    for (const Entry &e : heap_)
        retire(e.ev);
    heap_.clear();
}

bool
EventQueue::slotLeads() const
{
    return !next_.ev || heap_.empty() || Later{}(heap_.front(), next_);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (when < curTick_)
        panic("scheduling event in the past: ", when, " < ", curTick_);
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    // The new event has the largest seq, so it fires before an entry
    // exactly when its tick is strictly smaller. It takes the slot when
    // it beats the slot's event (or, with the slot empty, the heap's
    // head); whatever it displaced goes into the heap.
    Entry e{when, ev->seq_, ev};
    if (next_.ev ? when < next_.when
                 : heap_.empty() || when < heap_.front().when)
        std::swap(e, next_);
    if (e.ev) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    SIM_ASSERT(slotLeads(), "slot (tick ", next_.when, ", seq ", next_.seq,
               ") is not below the heap head");
}

Event *
EventQueue::pop()
{
    SIM_ASSERT(slotLeads(), "slot (tick ", next_.when, ", seq ", next_.seq,
               ") is not below the heap head");
    if (Event *ev = next_.ev) {
        next_.ev = nullptr;
        return ev;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event *ev = heap_.back().ev;
    heap_.pop_back();
    return ev;
}

void
EventQueue::fire(Event *ev)
{
    // The determinism contract: events fire in strictly increasing
    // (tick, seq) order.
    SIM_ASSERT(ev->when_ >= curTick_, "event at tick ", ev->when_,
               " fired with clock already at ", curTick_);
#if SIM_INVARIANTS_ENABLED
    SIM_ASSERT(!anyFired_ || ev->when_ > lastFiredWhen_
                   || (ev->when_ == lastFiredWhen_
                       && ev->seq_ > lastFiredSeq_),
               "(tick ", ev->when_, ", seq ", ev->seq_,
               ") fired after (tick ", lastFiredWhen_, ", seq ",
               lastFiredSeq_, ")");
    lastFiredWhen_ = ev->when_;
    lastFiredSeq_ = ev->seq_;
    anyFired_ = true;
#endif
    curTick_ = ev->when_;
    ++executed_;
    try {
        ev->fire();
    } catch (...) {
        // A handler's fatal() unwinds the run; the popped event is in
        // no structure the destructor drains, so recycle it here.
        retire(ev);
        throw;
    }
    retire(ev);
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    fire(pop());
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!empty()) {
        if ((next_.ev ? next_.when : heap_.front().when) > limit) {
            // Stop at the horizon: advance the clock to exactly
            // `limit` — never backwards.
            if (limit > curTick_)
                curTick_ = limit;
            return curTick_;
        }
        fire(pop());
    }
    // Drained: the clock stays at the last executed event.
    return curTick_;
}

void
EventQueue::retire(Event *ev)
{
    // Events with trivial payloads skip the virtual-dtor dispatch
    // entirely before their memory is recycled.
    const std::uint16_t cls = ev->poolClass_;
    if (!(cls & Event::trivialBit))
        ev->~Event();
    releaseRaw(ev, cls & ~Event::trivialBit);
}

void *
EventQueue::allocRaw(std::size_t cls, std::size_t bytes)
{
    void *&head = freeLists_[cls];
    if (head) {
        void *mem = head;
        head = *static_cast<void **>(mem);
        return mem;
    }
    return ::operator new(bytes);
}

void
EventQueue::releaseRaw(void *mem, std::size_t cls)
{
    *static_cast<void **>(mem) = freeLists_[cls];
    freeLists_[cls] = mem;
}

} // namespace tdm::sim
