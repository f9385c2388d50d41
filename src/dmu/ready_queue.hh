/**
 * @file
 * The DMU Ready Queue: a hardware FIFO of internal task ids that have
 * become ready (all predecessors satisfied).
 */

#ifndef TDM_DMU_READY_QUEUE_HH
#define TDM_DMU_READY_QUEUE_HH

#include <cstdint>

#include "dmu/geometry.hh"
#include "sim/fixed_ring.hh"

namespace tdm::dmu {

/**
 * Bounded FIFO of task ids over a fixed ring — the hardware FIFO it
 * models is a fixed SRAM, and the ring keeps push/pop allocation-free.
 */
class ReadyQueue
{
  public:
    explicit ReadyQueue(unsigned capacity);

    bool empty() const { return fifo_.empty(); }
    bool full() const { return fifo_.full(); }
    std::size_t size() const { return fifo_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Push a ready task id. @return false if the queue is full. */
    bool push(TaskHwId id);

    /** Pop the oldest ready task id; invalidHwId when empty. */
    TaskHwId pop();

  private:
    unsigned capacity_;
    sim::FixedRing<TaskHwId> fifo_;
};

} // namespace tdm::dmu

#endif // TDM_DMU_READY_QUEUE_HH
