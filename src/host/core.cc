#include "host/core.hh"

#include "util/panic.hh"

namespace anic::host {

Core::~Core()
{
    for (; !queue_.empty(); queue_.pop_front())
        sim_.callbacks().free(queue_.front());
}

void
Core::post(Work w)
{
    queue_.push_back(sim_.callbacks().alloc(std::move(w)));
    schedulePump();
}

void
Core::postUrgent(Work w)
{
    queue_.push_front(sim_.callbacks().alloc(std::move(w)));
    schedulePump();
}

void
Core::schedulePump()
{
    if (!pumpScheduled_ && !executing_) {
        pumpScheduled_ = true;
        sim::Tick when = std::max(sim_.now(), freeAt_);
        sim_.scheduleAt(when, [this] { pump(); });
    }
}

void
Core::charge(double cycles)
{
    ANIC_ASSERT(cycles >= 0.0);
    if (executing_) {
        pendingCycles_ += cycles;
        return;
    }
    // Charged from outside a work item (e.g. timer wheels in tests):
    // account it as immediate busy time.
    sim::Tick dur = model_.cyclesToTicks(cycles);
    busyCycles_ += cycles;
    busyTicks_ += dur;
    busyNs_.set(static_cast<double>(busyTicks_) / sim::kNanosecond);
    freeAt_ = std::max(sim_.now(), freeAt_) + dur;
}

void
Core::pump()
{
    pumpScheduled_ = false;
    if (executing_ || queue_.empty())
        return;
    if (sim_.now() < freeAt_) {
        pumpScheduled_ = true;
        sim_.scheduleAt(freeAt_, [this] { pump(); });
        return;
    }
    runOne();
}

void
Core::runOne()
{
    util::SlabHandle w = queue_.front();
    queue_.pop_front();
    executing_ = true;
    Core *prev = sCurrent_;
    sCurrent_ = this;
    pendingCycles_ = 0.0;
    sim_.callbacks().at(w)(); // in place; freed once the item is done
    sCurrent_ = prev;
    executing_ = false;
    items_++;

    sim::Tick dur = model_.cyclesToTicks(pendingCycles_);
    busyCycles_ += pendingCycles_;
    busyTicks_ += dur;
    busyNs_.set(static_cast<double>(busyTicks_) / sim::kNanosecond);
    freeAt_ = sim_.now() + dur;
    pendingCycles_ = 0.0;

    if (!queue_.empty()) {
        pumpScheduled_ = true;
        sim_.scheduleAt(freeAt_, [this] { pump(); });
    }
    sim_.callbacks().free(w);
}

} // namespace anic::host
