#include "accel/qat.hh"

#include <memory>

namespace anic::accel {

namespace {

/** One cooperating client thread of the speed test. */
struct SpeedThread
{
    sim::Simulator &sim;
    host::Core &core;
    OffCpuAccelerator &dev;
    size_t blockSize;
    sim::Tick deadline;
    uint64_t *bytesDone;

    void
    loop()
    {
        if (sim.now() >= deadline)
            return;
        // Submit on the CPU...
        core.post([this] {
            core.charge(dev.config().cpuCyclesPerOp / 2);
            dev.submit(blockSize, [this] {
                // ...completion reaped on the CPU; thread then loops.
                core.post([this] {
                    core.charge(dev.config().cpuCyclesPerOp / 2);
                    *bytesDone += blockSize;
                    loop();
                });
            });
        });
    }
};

} // namespace

double
runAcceleratedSpeedTest(sim::Simulator &sim, host::Core &core,
                        OffCpuAccelerator &dev, int threads,
                        size_t blockSize, sim::Tick duration)
{
    uint64_t bytes = 0;
    sim::Tick deadline = sim.now() + duration;
    std::vector<std::unique_ptr<SpeedThread>> pool;
    for (int i = 0; i < threads; i++) {
        pool.push_back(std::make_unique<SpeedThread>(
            SpeedThread{sim, core, dev, blockSize, deadline, &bytes}));
        pool.back()->loop();
    }
    sim.runUntil(deadline);
    double mbps =
        static_cast<double>(bytes) / sim::ticksToSeconds(duration) / 1e6;
    // Completions still in flight point at `pool` and `bytes`: let them
    // run out (loop() stops at the deadline) before both go away.
    sim.run();
    return mbps;
}

double
runOnCpuSpeedTest(sim::Simulator &sim, host::Core &core, double cyclesPerByte,
                  size_t blockSize, sim::Tick duration)
{
    // Pure CPU loop: one block per work item until the window closes.
    uint64_t bytes = 0;
    sim::Tick deadline = sim.now() + duration;
    std::function<void()> step = [&sim, &core, cyclesPerByte, blockSize,
                                  deadline, &bytes, &step] {
        if (sim.now() >= deadline)
            return;
        core.charge(cyclesPerByte * static_cast<double>(blockSize));
        bytes += blockSize;
        core.post(step);
    };
    core.post(step);
    sim.runUntil(deadline);
    return static_cast<double>(bytes) / sim::ticksToSeconds(duration) / 1e6;
}

} // namespace anic::accel
