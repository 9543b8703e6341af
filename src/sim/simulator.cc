#include "sim/simulator.hh"

namespace anic::sim {

void
Simulator::scheduleAt(Tick when, Callback cb)
{
    ANIC_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    insert(Event{when, nextSeq_++, callbacks_.alloc(std::move(cb))});
}

void
Simulator::insert(Event ev)
{
    size_++;
    if (ev.when < wheelBase_ + kBucketWidth)
        near_.push(ev);
    else if (ev.when < windowEnd()) {
        buckets_[bucketIndex(ev.when)].push_back(ev);
        bucketed_++;
    } else
        far_.push(ev);
}

bool
Simulator::settle()
{
    // Invariants: every event in near_ is < wheelBase_ + kBucketWidth,
    // every bucketed event is in [wheelBase_ + kBucketWidth,
    // windowEnd()), every far event is >= windowEnd(). The three
    // ranges are disjoint, so near_'s top (ordered by (when, seq)) is
    // the global minimum whenever near_ is non-empty.
    while (near_.empty()) {
        if (bucketed_ == 0 && far_.empty())
            return false;
        if (bucketed_ == 0) {
            // Sparse period (timer-only horizon): jump the window
            // straight to the earliest far event instead of stepping
            // bucket by bucket.
            wheelBase_ = (far_.top().when >> kBucketShift) << kBucketShift;
        } else {
            wheelBase_ += kBucketWidth;
        }
        // The bucket that just entered [wheelBase_, wheelBase_ +
        // kBucketWidth) spills into near_; heap order restores the
        // exact (when, seq) sequence within it.
        std::vector<Event> &b = buckets_[bucketIndex(wheelBase_)];
        if (!b.empty()) {
            bucketed_ -= b.size();
            for (const Event &ev : b)
                near_.push(ev);
            b.clear(); // keeps capacity for reuse
        }
        // Far events uncovered by the advancing horizon migrate in.
        while (!far_.empty() && far_.top().when < windowEnd()) {
            Event ev = far_.pop();
            if (ev.when < wheelBase_ + kBucketWidth)
                near_.push(ev);
            else {
                buckets_[bucketIndex(ev.when)].push_back(ev);
                bucketed_++;
            }
        }
    }
    return true;
}

void
Simulator::execute(Event ev)
{
    size_--;
    now_ = ev.when;
    executed_++;
    // In place: the slot cannot move or be reused while it runs, even
    // if the callback grows the arena.
    callbacks_.at(ev.cb)();
    callbacks_.free(ev.cb);
}

void
Simulator::run()
{
    while (settle())
        execute(near_.pop());
}

void
Simulator::runUntil(Tick until)
{
    while (settle() && near_.top().when <= until)
        execute(near_.pop());
    if (now_ < until)
        now_ = until;
}

} // namespace anic::sim
