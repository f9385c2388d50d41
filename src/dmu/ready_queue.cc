#include "dmu/ready_queue.hh"

#include "sim/logging.hh"

namespace tdm::dmu {

ReadyQueue::ReadyQueue(unsigned capacity)
    : capacity_(capacity), fifo_(capacity)
{
    if (capacity_ == 0)
        sim::fatal("ready queue capacity must be nonzero");
}

bool
ReadyQueue::push(TaskHwId id)
{
    if (full())
        return false;
    fifo_.push_back(id);
    return true;
}

TaskHwId
ReadyQueue::pop()
{
    if (fifo_.empty())
        return invalidHwId;
    TaskHwId id = fifo_.front();
    fifo_.pop_front();
    return id;
}

} // namespace tdm::dmu
