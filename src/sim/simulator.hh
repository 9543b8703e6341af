/**
 * @file
 * Discrete-event simulation core.
 *
 * Time is kept in integer picoseconds so that a single byte time at
 * 100 Gbps (80 ps) is exactly representable; uint64_t picoseconds
 * overflow only after ~213 days of simulated time.
 */

#ifndef ANIC_SIM_SIMULATOR_HH
#define ANIC_SIM_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hh"
#include "util/panic.hh"
#include "util/slab.hh"

namespace anic::sim {

/** Simulated time in picoseconds. */
using Tick = uint64_t;

constexpr Tick kPicosecond = 1;
constexpr Tick kNanosecond = 1000;
constexpr Tick kMicrosecond = 1000 * kNanosecond;
constexpr Tick kMillisecond = 1000 * kMicrosecond;
constexpr Tick kSecond = 1000 * kMillisecond;

/** Converts seconds (double) to ticks; convenience for configs. */
inline Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kSecond));
}

/** Converts ticks to seconds (double); convenience for reporting. */
inline double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/**
 * The event-driven simulator: a time-ordered queue of callbacks.
 *
 * Events scheduled for the same tick run in scheduling order (a
 * monotonic sequence number breaks ties), which keeps runs
 * deterministic: execution follows the (when, seq) total order.
 *
 * Every pending callback lives in one util::SlabArena, from
 * scheduleAt() (or host::Core::post()) until it has run, and never
 * moves: the queue orders 24-byte {when, seq, handle} keys, and
 * execute() runs the callback in its slot and frees the slot only
 * after it returns, so a callback that schedules enough to grow the
 * arena still runs on its own captures. Cores park their work items
 * in the same arena (callbacks()).
 *
 * The key queue is a two-tier calendar queue. A wheel of kBucketCount
 * unsorted buckets, each kBucketWidth ticks wide, covers the near
 * future (~67 us at the default geometry: enough for propagation
 * delays, serialization times, NIC latencies and core work); events
 * beyond the wheel horizon (RTOs, delayed acks, measurement windows)
 * sit in a min-heap and migrate into buckets as the window advances.
 * That heap is not small at scale: 10^5 TCP flows keep ~2x10^5 timers
 * in it. Events inside the current bucket are kept in a min-heap
 * ("near") so extraction stays exactly ordered. Insert and extract
 * are O(1) amortized in the near future instead of the O(log n) of
 * one big heap whose n is dominated by far-future timers.
 * tests/sim_test.cpp checks the order against a plain (when, seq)
 * priority queue.
 *
 * Callbacks are InlineFunction<kCallbackBytes>: captures never heap
 * allocate, and capture sets that would are rejected at compile time.
 */
class Simulator
{
  public:
    /** Inline capture budget for scheduled callbacks (and, by
     *  convention, core work items): fits four pointers plus slack,
     *  which covers every capture set in the tree. */
    static constexpr size_t kCallbackBytes = 64;

    using Callback = InlineFunction<kCallbackBytes>;
    using CallbackArena = util::SlabArena<Callback>;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedules @p cb to run @p delay ticks from now. */
    void schedule(Tick delay, Callback cb) { scheduleAt(now_ + delay, std::move(cb)); }

    /** Schedules @p cb at absolute time @p when (>= now). */
    void scheduleAt(Tick when, Callback cb);

    /** Runs events until the queue drains. */
    void run();

    /** Runs events with timestamp <= @p until, then sets now to @p until. */
    void runUntil(Tick until);

    /** Runs for @p delta more ticks. */
    void runFor(Tick delta) { runUntil(now_ + delta); }

    /** Number of events executed so far. */
    uint64_t eventsExecuted() const { return executed_; }

    /** True if no events remain. */
    bool idle() const { return size_ == 0; }

    /** The arena that holds every pending callback. Cores park work
     *  items here too; whoever allocates a slot frees it. Pending
     *  events' slots are destroyed with the simulator. */
    CallbackArena &callbacks() { return callbacks_; }

  private:
    /** Queue key: the callback stays in its arena slot. */
    struct Event
    {
        Tick when;
        uint64_t seq;
        util::SlabHandle cb;
    };
    static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);

    /** a runs after b in the (when, seq) total order. */
    static bool
    later(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Min-heap of keys. */
    class EventHeap
    {
      public:
        bool empty() const { return v_.empty(); }

        void
        push(Event ev)
        {
            v_.push_back(ev);
            std::push_heap(v_.begin(), v_.end(), later);
        }

        Event
        pop()
        {
            std::pop_heap(v_.begin(), v_.end(), later);
            Event ev = v_.back();
            v_.pop_back();
            return ev;
        }

        const Event &top() const { return v_.front(); }

      private:
        std::vector<Event> v_;
    };

    // Wheel geometry: 1024 buckets of 2^16 ps (~65.5 ns) give a
    // ~67 us horizon that comfortably spans every data-path latency
    // while RTO/ack timers stay in the far heap.
    static constexpr int kBucketShift = 16;
    static constexpr Tick kBucketWidth = Tick(1) << kBucketShift;
    static constexpr size_t kBucketCount = 1024;

    size_t bucketIndex(Tick when) const
    {
        return static_cast<size_t>(when >> kBucketShift) & (kBucketCount - 1);
    }

    Tick windowEnd() const { return wheelBase_ + kBucketCount * kBucketWidth; }

    void insert(Event ev);

    /** Moves events around until near_ holds the global minimum (or
     *  returns false when the queue is empty). Pure reorganization:
     *  never executes anything. */
    bool settle();

    void execute(Event ev);

    CallbackArena callbacks_;
    Tick now_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t executed_ = 0;
    size_t size_ = 0;

    Tick wheelBase_ = 0; ///< multiple of kBucketWidth
    size_t bucketed_ = 0; ///< events currently in buckets_
    EventHeap near_;      ///< events with when < wheelBase_ + kBucketWidth
    EventHeap far_;       ///< events with when >= windowEnd()
    std::array<std::vector<Event>, kBucketCount> buckets_;
};

} // namespace anic::sim

#endif // ANIC_SIM_SIMULATOR_HH
