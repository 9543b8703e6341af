/**
 * @file
 * Unit tests for the host substrate: core work-item accounting,
 * urgent posting, the allocation-free event and work-item path, cycle
 * model, page cache, drive model, file store.
 */

#include <gtest/gtest.h>

#include "host/core.hh"
#include "host/storage.hh"
#include "support/alloc_counter.hh"

namespace anic::host {
namespace {

TEST(CycleModel, Conversions)
{
    CycleModel m;
    m.cpuGhz = 2.0;
    EXPECT_EQ(m.cyclesToTicks(2000), 1000 * sim::kPicosecond * 1000);
    EXPECT_DOUBLE_EQ(m.ticksToCycles(sim::kMicrosecond), 2000.0);
}

TEST(CycleModel, CopyCostDependsOnWorkingSet)
{
    CycleModel m;
    EXPECT_EQ(m.copyPerByte(1 << 20), m.copyLlcPerByte);
    EXPECT_EQ(m.copyPerByte(m.llcBytes + 1), m.copyDramPerByte);
    EXPECT_GT(m.copyDramPerByte, m.copyLlcPerByte);
}

TEST(Core, ChargesMakeTheCoreBusy)
{
    sim::Simulator sim;
    CycleModel m; // 2 GHz
    Core core(sim, m, 0);

    sim::Tick done_at = 0;
    core.post([&] {
        core.charge(2000); // 1 us at 2 GHz
    });
    core.post([&] { done_at = sim.now(); });
    sim.run();
    // Second item starts only after the first item's charge elapses.
    EXPECT_EQ(done_at, sim::kMicrosecond);
    EXPECT_DOUBLE_EQ(core.totalBusyCycles(), 2000.0);
    EXPECT_EQ(core.itemsExecuted(), 2u);
}

TEST(Core, QueueSerializesWork)
{
    sim::Simulator sim;
    CycleModel m;
    Core core(sim, m, 0);
    std::vector<sim::Tick> starts;
    for (int i = 0; i < 5; i++) {
        core.post([&] {
            starts.push_back(sim.now());
            core.charge(1000); // 0.5 us each
        });
    }
    sim.run();
    ASSERT_EQ(starts.size(), 5u);
    for (size_t i = 1; i < starts.size(); i++)
        EXPECT_EQ(starts[i] - starts[i - 1], sim::kMicrosecond / 2);
}

TEST(Core, UrgentItemsJumpTheQueue)
{
    sim::Simulator sim;
    CycleModel m;
    Core core(sim, m, 0);
    std::vector<int> order;
    core.post([&] {
        core.charge(1000);
        order.push_back(1);
        // While item 1 runs, both a normal and an urgent item arrive.
        core.post([&] { order.push_back(2); });
        core.postUrgent([&] { order.push_back(3); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Core, CurrentPointsAtExecutingCore)
{
    sim::Simulator sim;
    CycleModel m;
    Core a(sim, m, 0);
    Core b(sim, m, 1);
    EXPECT_EQ(Core::current(), nullptr);
    bool checked = false;
    a.post([&] {
        EXPECT_EQ(Core::current(), &a);
        Core::chargeCurrent(500);
        checked = true;
    });
    sim.run();
    EXPECT_TRUE(checked);
    EXPECT_EQ(Core::current(), nullptr);
    EXPECT_DOUBLE_EQ(a.totalBusyCycles(), 500.0);
    EXPECT_DOUBLE_EQ(b.totalBusyCycles(), 0.0);
}

TEST(Core, UtilizationOverWindow)
{
    sim::Simulator sim;
    CycleModel m;
    Core core(sim, m, 0);
    core.post([&] { core.charge(10000); }); // 5 us busy
    sim.runUntil(10 * sim::kMicrosecond);
    EXPECT_NEAR(core.utilization(0, 10 * sim::kMicrosecond), 0.5, 1e-9);
}

TEST(Core, SteadyStateEventPathDoesZeroHeapAllocation)
{
    // Each round schedules 1000 events (near, bucketed and far) and
    // posts 1000 work items (a quarter urgent), then drains. Rounds
    // start on multiples of 2^32 ticks, a whole number of turns of the
    // calendar's 2^26-tick wheel, so every round after the first two
    // reuses the buckets, heaps, arena slots and ring they grew.
    sim::Simulator sim;
    CycleModel m;
    Core core(sim, m, 0);
    constexpr sim::Tick kRound = sim::Tick(1) << 32;
    uint64_t ran = 0;
    auto round = [&](uint64_t r) {
        sim.runUntil(r * kRound);
        for (int i = 0; i < 1000; i++) {
            sim::Tick d = i % 10 == 0 ? sim::kMillisecond + i
                                      : (i * 7919u) % (80 * sim::kMicrosecond);
            sim.schedule(d, [&ran] { ran++; });
            auto item = [&core, &ran] {
                core.charge(100);
                ran++;
            };
            if (i % 4 == 0)
                core.postUrgent(item);
            else
                core.post(item);
        }
        sim.run();
    };
    round(0);
    round(1);
    testing::AllocCounter::start();
    for (uint64_t r = 2; r < 1002; r++)
        round(r);
    testing::AllocCounter::stop();
    EXPECT_EQ(testing::AllocCounter::calls, 0u)
        << "1M events and 1M work items must not touch the heap";
    EXPECT_EQ(ran, 2000u * 1002);
    EXPECT_EQ(sim.callbacks().liveCount(), 0u);
}

TEST(Drive, BandwidthBoundService)
{
    sim::Simulator sim;
    NvmeDrive::Config cfg;
    cfg.readGBps = 1.0; // 1 GB/s
    cfg.accessLatency = 0;
    NvmeDrive drive(sim, cfg);

    sim::Tick t1 = 0;
    sim::Tick t2 = 0;
    drive.read(0, 1 << 20, [&](Bytes) { t1 = sim.now(); });
    drive.read(0, 1 << 20, [&](Bytes) { t2 = sim.now(); });
    sim.run();
    // 1 MiB at 1 GB/s ~ 1.048 ms; the second is queued behind it.
    EXPECT_NEAR(sim::ticksToSeconds(t1), 1.048e-3, 1e-4);
    EXPECT_NEAR(sim::ticksToSeconds(t2), 2.097e-3, 1e-4);
    EXPECT_EQ(drive.bytesRead(), 2u << 20);
}

TEST(Drive, ContentIsDeterministicByAddress)
{
    sim::Simulator sim;
    NvmeDrive drive(sim, {});
    Bytes a;
    Bytes b;
    drive.read(4096, 100, [&](Bytes d) { a = std::move(d); });
    drive.read(4096, 100, [&](Bytes d) { b = std::move(d); });
    sim.run();
    EXPECT_EQ(a, b);
    EXPECT_TRUE(checkDeterministic(a, drive.config().contentSeed, 4096));
}

TEST(FileStore, ExtentsAreAlignedAndDisjoint)
{
    FileStore fs(7);
    File a = fs.create(5000);
    File b = fs.create(4096);
    EXPECT_EQ(a.lba % PageCache::kPageSize, 0u);
    EXPECT_EQ(b.lba % PageCache::kPageSize, 0u);
    EXPECT_GE(b.lba, a.lba + a.size);
    EXPECT_EQ(fs.count(), 2u);
    EXPECT_EQ(fs.get(1).id, 1u);
}

TEST(PageCache, InsertContainsEvict)
{
    PageCache pc(8 * PageCache::kPageSize);
    pc.insert(1, 0, 4 * PageCache::kPageSize);
    EXPECT_TRUE(pc.contains(1, 0, 4 * PageCache::kPageSize));
    EXPECT_FALSE(pc.contains(1, 0, 5 * PageCache::kPageSize));
    EXPECT_FALSE(pc.contains(2, 0, 1));

    // Fill beyond capacity: LRU (file 1) evicts.
    pc.insert(2, 0, 8 * PageCache::kPageSize);
    EXPECT_FALSE(pc.contains(1, 0, PageCache::kPageSize));
    EXPECT_TRUE(pc.contains(2, 0, 8 * PageCache::kPageSize));
}

TEST(PageCache, TouchRefreshesLru)
{
    PageCache pc(2 * PageCache::kPageSize);
    pc.insert(1, 0, PageCache::kPageSize);
    pc.insert(2, 0, PageCache::kPageSize);
    pc.touch(1, 0, PageCache::kPageSize); // 1 is now most recent
    pc.insert(3, 0, PageCache::kPageSize);
    EXPECT_TRUE(pc.contains(1, 0, PageCache::kPageSize));
    EXPECT_FALSE(pc.contains(2, 0, PageCache::kPageSize));
}

TEST(PageCache, ZeroCapacityNeverCaches)
{
    PageCache pc(0);
    pc.insert(1, 0, PageCache::kPageSize);
    EXPECT_FALSE(pc.contains(1, 0, 1));
    EXPECT_EQ(pc.residentPages(), 0u);
}

} // namespace
} // namespace anic::host
