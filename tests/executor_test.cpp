/**
 * @file
 * JobRunner determinism tests: the core invariant of the parallel
 * executor is that `--jobs N` output is byte-identical to a serial
 * sweep. The suites run the same workload serially and across 8
 * workers and compare every byte the ordered sink received.
 *
 * Built with -DANIC_TSAN=ON the same binary doubles as the
 * ThreadSanitizer gate for the executor and the per-run isolation of
 * the simulation worlds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "bench_common.hh"
#include "sim/executor.hh"
#include "testing/differential.hh"

using namespace anic;

namespace {

/** Runs @p submit against a JobRunner with @p jobs workers and
 *  returns every byte the ordered sink saw, concatenated. */
std::string
capture(int jobs, const std::function<void(sim::JobRunner &)> &submit)
{
    std::string got;
    sim::JobRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.sink = [&got](const sim::RunContext::Output &o) {
        got += o.text;
        got += '\x1e'; // record separator: flush boundaries must match
        got += o.jsonLines;
        for (const auto &[bench, line] : o.snapshots) {
            got += bench;
            got += ':';
            got += line;
        }
        got += o.traceDump;
    };
    sim::JobRunner runner(cfg);
    submit(runner);
    runner.drain();
    return got;
}

TEST(JobRunner, FlushesInSubmissionOrder)
{
    auto submit = [](sim::JobRunner &r) {
        // Jobs with wildly uneven cost: on 8 workers the cheap tail
        // finishes long before job 0, yet the sink must still see
        // submission order.
        for (int i = 0; i < 24; i++) {
            r.submit("point=" + std::to_string(i),
                     [i](sim::RunContext &ctx) {
                         uint64_t acc = 0;
                         uint64_t spins = (i % 3 == 0) ? 2'000'000 : 1'000;
                         for (uint64_t k = 0; k < spins; k++)
                             acc += k * k + i;
                         ctx.print("point %d done (acc %llu)\n", i,
                                   (unsigned long long)(acc != 0));
                         ctx.json("{\"point\": " + std::to_string(i) + "}");
                     });
        }
    };
    std::string serial = capture(1, submit);
    std::string parallel = capture(8, submit);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(JobRunner, CancelPendingSkipsUnstartedJobs)
{
    int executed = 0;
    size_t flushes = 0;
    std::atomic<bool> gate{false};
    sim::JobRunner::Config cfg;
    cfg.jobs = 1; // serial: cancellation point is deterministic
    cfg.sink = [&flushes](const sim::RunContext::Output &) { flushes++; };
    sim::JobRunner runner(cfg);
    for (int i = 0; i < 16; i++) {
        runner.submit("job=" + std::to_string(i),
                      [&, i](sim::RunContext &) {
                          // Job 0 holds the single worker until every
                          // job is queued, so the cancellation from
                          // job 3 always finds 12 pending jobs.
                          while (!gate.load())
                              std::this_thread::yield();
                          executed++;
                          if (i == 3)
                              runner.cancelPending();
                      });
    }
    gate.store(true);
    runner.drain();
    EXPECT_EQ(executed, 4);
    EXPECT_EQ(flushes, 4u); // canceled slots never reach the sink
    EXPECT_EQ(runner.stats().runs, 4u);
    EXPECT_EQ(runner.stats().canceled, 12u);
}

TEST(JobRunner, StatsCoverEveryRun)
{
    sim::JobRunner::Config cfg;
    cfg.jobs = 4;
    cfg.sink = [](const sim::RunContext::Output &) {};
    sim::JobRunner runner(cfg);
    for (int i = 0; i < 10; i++) {
        std::string label = "r";
        label += std::to_string(i);
        runner.submit(label, [](sim::RunContext &) {});
    }
    runner.drain();
    const sim::JobRunner::Stats &st = runner.stats();
    EXPECT_EQ(st.runs, 10u);
    EXPECT_EQ(st.perRun.size(), 10u);
    EXPECT_EQ(st.perRun[0].label, "r0");
    EXPECT_GT(st.wallSeconds, 0.0);
    EXPECT_GE(st.speedup(), 0.0);
}

TEST(RunContext, ScaledWindowNeverZero)
{
    sim::RunConfig cfg;
    cfg.windowScale = 0.25;
    sim::RunContext ctx(cfg);
    EXPECT_EQ(ctx.scaleWindow(0), 0u);  // "no window" stays no window
    EXPECT_EQ(ctx.scaleWindow(1), 1u);  // cannot floor to zero
    EXPECT_EQ(ctx.scaleWindow(3), 1u);
    EXPECT_EQ(ctx.scaleWindow(100), 25u);
}

/** The Figure 19 shape in miniature: an nginx sweep over connection
 *  counts and TLS variants, every point a full MacroWorld run. */
TEST(JobRunnerDeterminism, Fig19MiniSweep)
{
    const int kConns[] = {2, 4};
    const bench::HttpVariant kVariants[] = {bench::HttpVariant::Https,
                                            bench::HttpVariant::OffloadZc};
    auto submit = [&](sim::JobRunner &r) {
        for (int conns : kConns) {
            for (bench::HttpVariant v : kVariants) {
                std::string label = "conns=" + std::to_string(conns) +
                                    "/" + bench::variantName(v);
                r.submit(label, [conns, v, label](sim::RunContext &ctx) {
                    bench::NginxParams p;
                    p.serverCores = 1;
                    p.generatorCores = 2;
                    p.connections = conns;
                    p.fileCount = 4;
                    p.fileSize = 32 << 10;
                    p.variant = v;
                    p.warmup = 5 * sim::kMillisecond;
                    p.window = 4 * sim::kMillisecond;
                    bench::NginxResult res = bench::runNginx(ctx, p);
                    ctx.print("%s gbps=%.4f busy=%.3f err=%llu\n",
                              label.c_str(), res.gbps, res.busyCores,
                              (unsigned long long)res.errors);
                });
            }
        }
    };
    std::string serial = capture(1, submit);
    std::string parallel = capture(8, submit);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

/** The multi-core contention shape of the reworked Figure 19: four
 *  server cores, each owning a NIC TX/RX queue pair, RSS sharding
 *  flows across them. Serial vs 8-worker output must stay
 *  byte-identical, and under -DANIC_TSAN=ON this doubles as the
 *  ThreadSanitizer gate for the multi-queue receive path. A repeated
 *  serial run also pins seed-reproducibility of the sharded worlds. */
TEST(JobRunnerDeterminism, Fig19MultiCoreSweep)
{
    auto submit = [](sim::JobRunner &r) {
        for (int conns : {4, 8}) {
            for (bench::HttpVariant v : {bench::HttpVariant::Https,
                                         bench::HttpVariant::OffloadZc}) {
                std::string label = "cores=4/conns=" +
                                    std::to_string(conns) + "/" +
                                    bench::variantName(v);
                r.submit(label, [conns, v, label](sim::RunContext &ctx) {
                    bench::NginxParams p;
                    p.serverCores = 4;
                    p.generatorCores = 4;
                    p.connections = conns;
                    p.fileCount = 4;
                    p.fileSize = 32 << 10;
                    p.variant = v;
                    p.warmup = 5 * sim::kMillisecond;
                    p.window = 4 * sim::kMillisecond;
                    bench::NginxResult res = bench::runNginx(ctx, p);
                    ctx.print("%s gbps=%.4f busy=%.3f err=%llu\n",
                              label.c_str(), res.gbps, res.busyCores,
                              (unsigned long long)res.errors);
                });
            }
        }
    };
    std::string serial = capture(1, submit);
    std::string parallel = capture(8, submit);
    std::string repeat = capture(1, submit);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, repeat) << "multi-core run is not seed-reproducible";
}

/** A 64-seed differential fuzz batch: every world is run-isolated,
 *  so seed results and trace hashes cannot depend on --jobs. */
TEST(JobRunnerDeterminism, FuzzSeedBatch)
{
    constexpr uint64_t kSeeds = 64;
    auto submitSeeds = [](sim::JobRunner &r) {
        for (uint64_t seed = 1; seed <= kSeeds; seed++) {
            r.submit("seed=" + std::to_string(seed),
                     [seed](sim::RunContext &ctx) {
                         anic::testing::ScenarioGen gen;
                         anic::testing::Scenario s = gen.generate(seed);
                         anic::testing::DifferentialRunner dr;
                         uint64_t hash = dr.runOne(s, true).traceHash;
                         size_t errs = dr.check(s).size();
                         ctx.print("seed %llu hash %016llx errs %zu\n",
                                   (unsigned long long)seed,
                                   (unsigned long long)hash, errs);
                     });
        }
    };
    std::string serial = capture(1, submitSeeds);
    std::string parallel = capture(8, submitSeeds);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

/** Incast + congestion-control diversity through the differential
 *  runner: every generated scenario is forced to carry an incast
 *  fan-in and a short-flow arrival process, swept across all three
 *  CC algorithms. Serial vs 8-worker trace hashes must match — the
 *  burst synchronization, ECN marking draws, and CC arithmetic all
 *  live inside the run-isolated worlds. */
TEST(JobRunnerDeterminism, IncastScenarioBatch)
{
    constexpr uint64_t kSeeds = 8;
    const tcp::CcAlgo kAlgos[] = {tcp::CcAlgo::Reno, tcp::CcAlgo::Cubic,
                                  tcp::CcAlgo::Dctcp};
    auto submit = [&](sim::JobRunner &r) {
        for (tcp::CcAlgo cc : kAlgos) {
            for (uint64_t seed = 1; seed <= kSeeds; seed++) {
                std::string label = std::string(tcp::ccAlgoName(cc)) +
                                    "/seed=" + std::to_string(seed);
                r.submit(label, [cc, seed](sim::RunContext &ctx) {
                    anic::testing::ScenarioGen gen;
                    anic::testing::Scenario s = gen.generate(seed);
                    s.cc = cc;
                    s.ecn = cc != tcp::CcAlgo::Reno;
                    s.incast.senders = 4 + static_cast<uint32_t>(seed % 5);
                    s.incast.bytesPerSender = 16384;
                    s.incast.rounds = 2;
                    s.incast.startAt = 1 * sim::kMillisecond;
                    s.shortFlows.count = 8;
                    s.shortFlows.startAt = 1 * sim::kMillisecond;
                    anic::testing::DifferentialRunner dr;
                    uint64_t hash = dr.runOne(s, true).traceHash;
                    size_t errs = dr.check(s).size();
                    ctx.print("%s hash %016llx errs %zu\n",
                              tcp::ccAlgoName(cc),
                              (unsigned long long)hash, errs);
                });
            }
        }
    };
    std::string serial = capture(1, submit);
    std::string parallel = capture(8, submit);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
