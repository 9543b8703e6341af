/**
 * @file
 * Application-layer integration tests: HTTP server/client over all
 * transport variants and storage configurations, iperf streams, fio
 * jobs, and the KV store — the same wiring the benches use.
 */

#include <gtest/gtest.h>

#include "app/fio.hh"
#include "accel/qat.hh"
#include "app/iperf.hh"
#include "app/macro_world.hh"

namespace anic {
namespace {

using app::MacroWorld;

MacroWorld::Config
c2Config(int serverCores = 1)
{
    MacroWorld::Config cfg;
    cfg.b.cores = serverCores;
    cfg.remoteStorage = false; // pure page cache
    return cfg;
}

MacroWorld::Config
c1Config(int serverCores = 1)
{
    MacroWorld::Config cfg;
    cfg.b.cores = serverCores;
    cfg.remoteStorage = true;
    cfg.storage.pageCacheBytes = 1 << 20; // tiny: every request misses
    return cfg;
}

TEST(HttpApp, PlainHttpServesCorrectBodies)
{
    MacroWorld w(c2Config());
    auto ids = w.makeFiles(4, 65536);
    w.storage->prewarm();

    app::HttpServer server(w.b, 80, *w.storage, {});
    app::HttpClientConfig ccfg;
    ccfg.connections = 8;
    ccfg.fileIds = ids;
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 80, w.files, ccfg);
    client.start();
    w.sim.runUntil(w.sim.now() + 100 * sim::kMillisecond);

    EXPECT_GT(client.stats().responses, 50u);
    EXPECT_EQ(client.stats().corruptions, 0u);
    EXPECT_EQ(server.stats().errors, 0u);
    // The server may have completed one more response per connection
    // that was still in flight when the window closed.
    EXPECT_GE(server.stats().requests, client.stats().responses);
    EXPECT_LE(server.stats().requests, client.stats().responses + 8);
}

TEST(HttpApp, HttpsVariantsServeIdenticalContent)
{
    struct Variant
    {
        bool tx;
        bool zc;
    };
    for (Variant v : {Variant{false, false}, Variant{true, false},
                      Variant{true, true}}) {
        MacroWorld w(c2Config());
        auto ids = w.makeFiles(4, 262144);
        w.storage->prewarm();

        app::HttpServerConfig scfg;
        scfg.tlsEnabled = true;
        scfg.tlsCfg.txOffload = v.tx;
        scfg.tlsCfg.zerocopySendfile = v.zc;
        app::HttpServer server(w.b, 443, *w.storage, scfg);

        app::HttpClientConfig ccfg;
        ccfg.connections = 8;
        ccfg.fileIds = ids;
        ccfg.tlsEnabled = true;
        app::HttpClient client(w.a, core::Testbed::kIpA,
                               core::Testbed::kIpB, 443, w.files, ccfg);
        client.start();
        w.sim.runUntil(w.sim.now() + 100 * sim::kMillisecond);

        EXPECT_GT(client.stats().responses, 10u)
            << "tx=" << v.tx << " zc=" << v.zc;
        EXPECT_EQ(client.stats().corruptions, 0u);
        EXPECT_EQ(server.stats().errors, 0u);
    }
}

TEST(HttpApp, C1ReadsComeFromTheRemoteDrive)
{
    MacroWorld w(c1Config());
    auto ids = w.makeFiles(64, 65536);

    app::HttpServer server(w.b, 80, *w.storage, {});
    app::HttpClientConfig ccfg;
    ccfg.connections = 16;
    ccfg.fileIds = ids;
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 80, w.files, ccfg);
    client.start();
    w.sim.runUntil(w.sim.now() + 200 * sim::kMillisecond);

    EXPECT_GT(client.stats().responses, 20u);
    EXPECT_EQ(client.stats().corruptions, 0u);
    EXPECT_GT(w.storage->cacheMisses(), 0u);
    EXPECT_GT(w.drive.bytesRead(), 0u);
}

TEST(HttpApp, C1WithNvmeOffloadsStillCorrect)
{
    MacroWorld::Config cfg = c1Config();
    cfg.storage.offloadEnabled = true;
    cfg.storage.offload.crcRx = true;
    cfg.storage.offload.copyRx = true;
    MacroWorld w(cfg);
    auto ids = w.makeFiles(64, 262144);

    app::HttpServer server(w.b, 80, *w.storage, {});
    app::HttpClientConfig ccfg;
    ccfg.connections = 16;
    ccfg.fileIds = ids;
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 80, w.files, ccfg);
    client.start();
    w.sim.runUntil(w.sim.now() + 300 * sim::kMillisecond);

    EXPECT_GT(client.stats().responses, 10u);
    EXPECT_EQ(client.stats().corruptions, 0u);
    // Placement happened on the storage path.
    uint64_t placed = 0;
    for (int i = 0; i < w.b.coreCount(); i++)
        placed += w.storage->queue(i)->stats().bytesPlaced;
    EXPECT_GT(placed, 0u);
}

TEST(HttpApp, C1OverNvmeTlsComposition)
{
    MacroWorld::Config cfg = c1Config();
    cfg.storage.tlsTransport = true;
    cfg.storage.tlsCfg.rxOffload = true;
    cfg.storage.offloadEnabled = true;
    cfg.storage.offload.crcRx = true;
    cfg.storage.offload.copyRx = true;
    MacroWorld w(cfg);
    auto ids = w.makeFiles(32, 262144);

    app::HttpServer server(w.b, 80, *w.storage, {});
    app::HttpClientConfig ccfg;
    ccfg.connections = 16;
    ccfg.fileIds = ids;
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 80, w.files, ccfg);
    client.start();
    w.sim.runUntil(w.sim.now() + 300 * sim::kMillisecond);

    EXPECT_GT(client.stats().responses, 10u);
    EXPECT_EQ(client.stats().corruptions, 0u);
    uint64_t placed = 0;
    uint64_t crc_skipped = 0;
    for (int i = 0; i < w.b.coreCount(); i++) {
        placed += w.storage->queue(i)->stats().bytesPlaced;
        crc_skipped += w.storage->queue(i)->stats().crcSkipped;
    }
    EXPECT_GT(placed, 0u);
    EXPECT_GT(crc_skipped, 0u);
}

TEST(KvApp, GetWorkloadServesValues)
{
    MacroWorld::Config cfg = c1Config();
    cfg.storage.offloadEnabled = true;
    cfg.storage.offload.crcRx = true;
    cfg.storage.offload.copyRx = true;
    MacroWorld w(cfg);
    w.makeFiles(64, 65536);

    app::KvServer server(w.b, 6379, *w.storage, {});
    app::KvClientConfig ccfg;
    ccfg.connections = 8;
    ccfg.keyCount = 64;
    app::KvClient client(w.a, core::Testbed::kIpA, core::Testbed::kIpB,
                         6379, w.files, ccfg);
    client.start();
    w.sim.runUntil(w.sim.now() + 200 * sim::kMillisecond);

    EXPECT_GT(client.stats().responses, 20u);
    EXPECT_EQ(client.stats().corruptions, 0u);
    EXPECT_EQ(server.stats().errors, 0u);
}

TEST(IperfApp, TlsStreamsWithOffloadAndLoss)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.01;
    lc.seed = 5;
    MacroWorld::Config cfg = c2Config();
    cfg.link = lc;
    MacroWorld w(cfg);

    app::IperfConfig icfg;
    icfg.streams = 8;
    icfg.clientTls.txOffload = true;
    icfg.serverTls.rxOffload = true;
    icfg.verifyContent = true;
    // Sender = generator, receiver = server (DUT).
    app::IperfRun run(w.a, core::Testbed::kIpA, w.b,
                      core::Testbed::kIpB, icfg);
    run.start();
    w.sim.runFor(20 * sim::kMillisecond);
    run.measureStart();
    w.sim.runFor(50 * sim::kMillisecond);
    run.measureStop();

    EXPECT_EQ(run.streamsConnected(), 8);
    EXPECT_EQ(run.corruptions(), 0u);
    EXPECT_GT(run.meter().gbps(), 0.5);
    tls::TlsStats rx = run.receiverTlsStats();
    EXPECT_EQ(rx.tagFailures, 0u);
    EXPECT_GT(rx.rxFullyOffloaded, 0u);
}

TEST(FioApp, RandomReadsAtDepth)
{
    MacroWorld::Config cfg = c1Config();
    cfg.storage.offloadEnabled = true;
    cfg.storage.offload.crcRx = true;
    cfg.storage.offload.copyRx = true;
    MacroWorld w(cfg);

    app::FioConfig fcfg;
    fcfg.blockSize = 65536;
    fcfg.ioDepth = 16;
    fcfg.verify = true;
    app::FioJob job(w.sim, *w.storage->queue(0), fcfg);
    job.driveSeed_ = w.drive.config().contentSeed;
    w.b.core(0).post([&job] { job.start(); });
    w.sim.runFor(100 * sim::kMillisecond);

    EXPECT_GT(job.completions(), 50u);
    EXPECT_EQ(job.failures(), 0u);
    EXPECT_GT(job.latencyUs().mean(), 0.0);
}

TEST(AccelModel, Table1CrossoverShape)
{
    // On-CPU AES-NI vs off-CPU accelerator: 1 thread loses to AES-NI,
    // 128 threads overlap latency and exceed it (for CBC-HMAC).
    sim::Simulator sim;
    host::CycleModel model;
    model.cpuGhz = 2.4; // Table 1 machine
    host::Core core(sim, model, 0);
    accel::OffCpuAccelerator dev(sim, {});

    double aesni_cbc = accel::runOnCpuSpeedTest(
        sim, core, accel::CipherCosts::kCbcHmacSha1PerByte, 16384,
        20 * sim::kMillisecond);
    double qat1 = accel::runAcceleratedSpeedTest(sim, core, dev, 1, 16384,
                                                 20 * sim::kMillisecond);
    double qat128 = accel::runAcceleratedSpeedTest(sim, core, dev, 128, 16384,
                                                   20 * sim::kMillisecond);

    EXPECT_LT(qat1, aesni_cbc);       // single-threaded QAT loses
    EXPECT_GT(qat128, aesni_cbc * 3); // 128 threads win big (4.5x paper)
    EXPECT_GT(qat128, qat1 * 5);
}

TEST(AccelModel, SpeedTestLeavesNoCompletionQueued)
{
    // Completions in flight at the deadline point at the call's own
    // threads and byte counter; none may outlive the call.
    sim::Simulator sim;
    host::CycleModel model;
    host::Core core(sim, model, 0);
    accel::OffCpuAccelerator dev(sim, {});
    double mbps = accel::runAcceleratedSpeedTest(sim, core, dev, 8, 16384,
                                                 1 * sim::kMillisecond);
    EXPECT_GT(mbps, 0.0);
    EXPECT_TRUE(sim.idle());
}

} // namespace
} // namespace anic
