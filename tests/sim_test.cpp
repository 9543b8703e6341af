/**
 * @file
 * Unit tests for the discrete-event simulator and statistics:
 * ordering semantics, callbacks that stay in their arena slot while
 * they run and are destroyed exactly once (run, or pending when the
 * simulator or their core dies), the InlineFunction inline callback,
 * and a randomized differential of the calendar queue and the cores
 * that post into it against a plain (when, seq) priority queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

#include "host/core.hh"
#include "sim/simulator.hh"
#include "sim/registry.hh"
#include "util/rand.hh"

namespace anic::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Simulator, SameTickFifoOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        sim.schedule(5, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        fired++;
        if (fired < 5)
            sim.schedule(100, chain);
    };
    sim.schedule(100, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(100, [&] { fired++; });
    sim.schedule(300, [&] { fired++; });
    sim.runUntil(200);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 200u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative)
{
    Simulator sim;
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 50u);
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime)
{
    Simulator sim;
    sim.runUntil(42);
    bool ran = false;
    sim.schedule(0, [&] {
        ran = true;
        EXPECT_EQ(sim.now(), 42u);
    });
    sim.run();
    EXPECT_TRUE(ran);
}

TEST(Simulator, FarEventsBeyondCalendarHorizonStayOrdered)
{
    // Events far past the bucket window exercise the far-heap
    // migration path; timer-like gaps exercise the wheel-jump.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(2 * kSecond, [&] { order.push_back(3); });
    sim.schedule(1, [&] { order.push_back(1); });
    sim.schedule(kMillisecond, [&] { order.push_back(2); });
    sim.schedule(5 * kSecond, [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(Simulator, CallbackThatGrowsTheArenaKeepsItsCaptures)
{
    // One callback schedules three full slabs' worth of events, so the
    // callback arena grows while it runs; it still reads its own
    // captures afterwards, and every event runs in (when, seq) order.
    Simulator sim;
    constexpr int kEvents = 3 * Simulator::CallbackArena::kSlabObjects;
    auto delay = [](int i) -> Tick {
        return i % 5 == 0 ? (i % 3 + 1) * kMillisecond : (i * 7919u) % 100000;
    };
    std::vector<std::pair<Tick, int>> log;
    bool intact = false;
    const std::array<uint32_t, 4> pattern{0xa5a5a5a5u, 1, 2, 0xdeadbeefu};
    sim.schedule(5, [&sim, &log, &intact, &delay, pattern,
                     token = std::make_shared<int>(42)] {
        for (int i = 0; i < kEvents; i++)
            sim.schedule(delay(i), [&sim, &log, i] {
                log.emplace_back(sim.now(), i);
            });
        intact = pattern == std::array<uint32_t, 4>{0xa5a5a5a5u, 1, 2,
                                                    0xdeadbeefu} &&
                 *token == 42 && token.use_count() == 1;
    });
    sim.run();
    EXPECT_TRUE(intact);
    std::vector<std::pair<Tick, int>> expected;
    for (int i = 0; i < kEvents; i++)
        expected.emplace_back(5 + delay(i), i);
    std::sort(expected.begin(), expected.end()); // seq order == i
    EXPECT_EQ(log, expected);
    EXPECT_GE(sim.callbacks().capacity(), size_t(kEvents));
    EXPECT_EQ(sim.callbacks().liveCount(), 0u);
}

/** Move-only capture that counts destructions of its live instance
 *  (moved-from shells do not count). */
struct Counted
{
    explicit Counted(int *destroyed) : destroyed_(destroyed) {}
    Counted(Counted &&o) noexcept : destroyed_(std::exchange(o.destroyed_, nullptr)) {}
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;
    ~Counted()
    {
        if (destroyed_ != nullptr)
            ++*destroyed_;
    }

    int *destroyed_;
};

TEST(Simulator, CapturesAreDestroyedExactlyOnce)
{
    int destroyed = 0;
    {
        Simulator sim;
        int seenWhileRunning = -1;
        sim.schedule(10, [c = Counted(&destroyed), &destroyed,
                          &seenWhileRunning] {
            seenWhileRunning = destroyed;
        });
        sim.run();
        EXPECT_EQ(seenWhileRunning, 0); // alive while it runs
        EXPECT_EQ(destroyed, 1);        // then destroyed once
        // Still pending when the simulator dies: one near, one far.
        sim.schedule(10, [c = Counted(&destroyed)] {});
        sim.schedule(kSecond, [c = Counted(&destroyed)] {});
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 3);
}

TEST(Simulator, CoreWorkIsDestroyedExactlyOnce)
{
    int destroyed = 0;
    Simulator sim;
    host::CycleModel m;
    {
        host::Core core(sim, m, 0);
        core.post([c = Counted(&destroyed)] {});
        core.postUrgent([c = Counted(&destroyed)] {});
        sim.run();
        EXPECT_EQ(destroyed, 2);
        // Queued, never run: destroyed with the core.
        core.post([c = Counted(&destroyed)] {});
        core.postUrgent([c = Counted(&destroyed)] {});
        EXPECT_EQ(destroyed, 2);
    }
    EXPECT_EQ(destroyed, 4);
    // The dead core's pump event is still pending; the simulator
    // destroys it unrun. Only it holds a slot now.
    EXPECT_EQ(sim.callbacks().liveCount(), 1u);
}

/** Reference order for the differential below: one binary heap of
 *  (when, seq), ties broken by scheduling order. */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }

    void schedule(Tick delay, std::function<void()> cb) { scheduleAt(now_ + delay, std::move(cb)); }

    void
    scheduleAt(Tick when, std::function<void()> cb)
    {
        q_.push(Ev{when, seq_++, std::move(cb)});
    }

    void
    run()
    {
        while (!q_.empty()) {
            Ev ev = q_.top();
            q_.pop();
            now_ = ev.when;
            ev.cb();
        }
    }

  private:
    struct Ev
    {
        Tick when;
        uint64_t seq;
        std::function<void()> cb;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::priority_queue<Ev, std::vector<Ev>, Later> q_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
};

/** host::Core's scheduling over the reference queue, written with a
 *  plain std::deque of std::function: items run FIFO (urgent ones
 *  first), one at a time, each starting once the previous one's
 *  charged cycles have elapsed. */
class ReferenceCore
{
  public:
    ReferenceCore(ReferenceQueue &q, const host::CycleModel &m) : q_(q), m_(m) {}

    void
    post(std::function<void()> w)
    {
        queue_.push_back(std::move(w));
        schedulePump();
    }

    void
    postUrgent(std::function<void()> w)
    {
        queue_.push_front(std::move(w));
        schedulePump();
    }

    /** Only called from inside an item. */
    void charge(double cycles) { pending_ += cycles; }

  private:
    void
    schedulePump()
    {
        if (!pumpScheduled_ && !executing_) {
            pumpScheduled_ = true;
            q_.scheduleAt(std::max(q_.now(), freeAt_), [this] { pump(); });
        }
    }

    void
    pump()
    {
        pumpScheduled_ = false;
        if (executing_ || queue_.empty())
            return;
        if (q_.now() < freeAt_) {
            pumpScheduled_ = true;
            q_.scheduleAt(freeAt_, [this] { pump(); });
            return;
        }
        std::function<void()> w = std::move(queue_.front());
        queue_.pop_front();
        executing_ = true;
        pending_ = 0.0;
        w();
        executing_ = false;
        freeAt_ = q_.now() + m_.cyclesToTicks(pending_);
        if (!queue_.empty()) {
            pumpScheduled_ = true;
            q_.scheduleAt(freeAt_, [this] { pump(); });
        }
    }

    ReferenceQueue &q_;
    const host::CycleModel &m_;
    std::deque<std::function<void()>> queue_;
    bool executing_ = false;
    bool pumpScheduled_ = false;
    Tick freeAt_ = 0;
    double pending_ = 0.0;
};

/** Runs the randomized workload on @p sim and cores @p a, @p b and
 *  logs (tick, id) per executed callback or work item. */
template <typename Queue, typename CoreT>
std::vector<std::pair<Tick, int>>
randomizedTrace(Queue &sim, CoreT &a, CoreT &b)
{
    constexpr int kIds = 6000;
    std::vector<std::pair<Tick, int>> log;
    anic::Rng rng(0x5eed);
    int next = 3;
    std::function<void(int)> spawn = [&](int id) {
        log.emplace_back(sim.now(), id);
        // Every callback and item reenters the queues: one child, two
        // now and then, until kIds ids exist.
        int children = rng.next() % 8 == 0 ? 2 : 1;
        for (int k = 0; k < children && next < kIds; k++) {
            int child = next++;
            uint64_t r = rng.next();
            CoreT &core = (r >> 4) & 1 ? a : b;
            double cycles = static_cast<double>(r % 4000);
            auto item = [&spawn, &core, child, cycles] {
                core.charge(cycles);
                spawn(child);
            };
            switch ((r >> 8) % 6) {
            case 0:
                core.post(item);
                break;
            case 1:
                core.postUrgent(item);
                break;
            default: {
                Tick d = r % 7 == 0 ? (r % 3) * kMillisecond // far timer
                                    : r % 50000;             // near burst
                sim.schedule(d, [&spawn, child] { spawn(child); });
            }
            }
        }
    };
    for (int i = 0; i < 3; i++)
        sim.schedule(i * 17, [&spawn, i] { spawn(i); });
    sim.run();
    return log;
}

TEST(Simulator, CalendarMatchesHeapOnRandomizedSchedule)
{
    // Differential: the same randomized workload (dense near ticks,
    // sparse far timers, same-tick bursts, events scheduling events,
    // work items posting normal and urgent work to two cores) must
    // execute in the order of the reference queue and cores.
    Simulator sim;
    host::CycleModel m;
    host::Core a(sim, m, 0);
    host::Core b(sim, m, 1);
    ReferenceQueue ref;
    ReferenceCore refA(ref, m);
    ReferenceCore refB(ref, m);
    auto calendar = randomizedTrace(sim, a, b);
    auto reference = randomizedTrace(ref, refA, refB);
    EXPECT_EQ(calendar.size(), 6000u);
    EXPECT_GT(a.itemsExecuted() + b.itemsExecuted(), 1000u);
    EXPECT_EQ(calendar, reference);
}

TEST(InlineFunction, InvokesAndMovesCaptures)
{
    auto counter = std::make_shared<int>(0);
    InlineFunction<64> f([counter] { (*counter)++; });
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(counter.use_count(), 2);

    InlineFunction<64> g = std::move(f);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_EQ(counter.use_count(), 2); // moved, not copied
    g();
    g();
    EXPECT_EQ(*counter, 2);
}

TEST(InlineFunction, DestroysCaptureExactlyOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> weak = token;
    {
        InlineFunction<64> f([t = std::move(token)] { (void)*t; });
        InlineFunction<64> g;
        g = std::move(f);
        EXPECT_FALSE(weak.expired());
    }
    EXPECT_TRUE(weak.expired());
}

TEST(InlineFunction, AcceptsCopyableLvalueCallables)
{
    int hits = 0;
    std::function<void()> fn = [&hits] { hits++; };
    InlineFunction<64> f(fn); // copies; fn stays usable
    f();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(TickConversions, RoundTrip)
{
    EXPECT_EQ(secondsToTicks(1.0), kSecond);
    EXPECT_EQ(secondsToTicks(0.001), kMillisecond);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSecond), 1.0);
    EXPECT_EQ(kMicrosecond, 1000000u);
}

TEST(Distribution, Moments)
{
    Distribution s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_EQ(s.count(), 5u);
}

TEST(Distribution, Percentiles)
{
    Distribution s;
    for (int i = 1; i <= 100; i++)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Distribution, TrimmedMeanDropsExtremes)
{
    Distribution s;
    for (double v : {10.0, 10.0, 10.0, 1000.0, 0.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.trimmedMean(), 10.0);
}

TEST(RateMeter, MeasuresOnlyWindow)
{
    RateMeter m;
    m.add(100); // before start: ignored
    m.start(kSecond);
    m.add(1000);
    m.add(250);
    m.stop(2 * kSecond);
    m.add(77); // after stop: ignored
    EXPECT_EQ(m.total(), 1250u);
    EXPECT_DOUBLE_EQ(m.perSecond(), 1250.0);
    EXPECT_DOUBLE_EQ(m.gbps(), 1250.0 * 8 / 1e9);
}

} // namespace
} // namespace anic::sim
