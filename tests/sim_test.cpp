/**
 * @file
 * Unit tests for the discrete-event simulator and statistics:
 * ordering semantics, the InlineFunction inline callback, and a
 * randomized differential of the calendar queue against a plain
 * (when, seq) priority queue.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>

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

/** Reference order for the differential below: one binary heap of
 *  (when, seq), ties broken by scheduling order. */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }

    void
    schedule(Tick delay, std::function<void()> cb)
    {
        q_.push(Ev{now_ + delay, seq_++, std::move(cb)});
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

/** Runs the randomized workload on @p sim and logs (tick, id) per
 *  executed event. */
template <typename Queue>
std::vector<std::pair<Tick, int>>
randomizedTrace(Queue &sim)
{
    std::vector<std::pair<Tick, int>> log;
    anic::Rng rng(0x5eed);
    std::function<void(int)> spawn = [&](int id) {
        log.emplace_back(sim.now(), id);
        if (id < 4000) {
            uint64_t r = rng.next();
            Tick d = r % 7 == 0 ? (r % 3) * kMillisecond // far timer
                                : r % 50000;             // near burst
            sim.schedule(d, [&spawn, id] { spawn(id + 3); });
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
    // sparse far timers, same-tick bursts, events scheduling events)
    // must execute in the (when, seq) order of the reference queue.
    Simulator sim;
    ReferenceQueue ref;
    auto calendar = randomizedTrace(sim);
    auto reference = randomizedTrace(ref);
    EXPECT_FALSE(calendar.empty());
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
