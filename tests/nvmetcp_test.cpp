/**
 * @file
 * NVMe-TCP tests: PDU codec, end-to-end reads/writes over the
 * simulated fabric, CRC and copy (zero-copy placement) offloads, loss
 * resilience, and the NVMe-TLS composition. Reassembly and the NIC
 * engine core are tested per wire traits in storage_l5p_test.
 */

#include <gtest/gtest.h>

#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "core/testbed.hh"
#include "support/raw_peer.hh"

namespace anic {
namespace {

using namespace nvmetcp;

// ------------------------------------------------------------- codec

TEST(NvmePdu, CommonHeaderValidation)
{
    WireConfig wc;
    Bytes cmd = buildCmdCapsule(wc, CmdCapsule{7, kOpRead, 4096, 512});
    auto ch = parseCommonHdr(cmd);
    ASSERT_TRUE(ch.has_value());
    EXPECT_EQ(ch->type, kPduCapsuleCmd);
    EXPECT_EQ(ch->hlen, kCmdHdrSize);
    EXPECT_TRUE(ch->hasHdgst());
    EXPECT_EQ(ch->plen, cmd.size());

    // Corrupt the type / hlen / pdo: magic must fail.
    Bytes bad = cmd;
    bad[0] = 0x55;
    EXPECT_FALSE(parseCommonHdr(bad).has_value());
    bad = cmd;
    bad[2] = 10;
    EXPECT_FALSE(parseCommonHdr(bad).has_value());
    bad = cmd;
    bad[3] = 99;
    EXPECT_FALSE(parseCommonHdr(bad).has_value());
    bad = cmd;
    putLe32(bad.data() + 4, 3u << 21);
    EXPECT_FALSE(parseCommonHdr(bad).has_value());
}

TEST(NvmePdu, CmdCapsuleRoundTrip)
{
    WireConfig wc;
    CmdCapsule in{42, kOpWrite, 0x123456789aull, 65536};
    Bytes pdu = buildCmdCapsule(wc, in);
    CmdCapsule out = parseCmdCapsule(pdu);
    EXPECT_EQ(out.cid, in.cid);
    EXPECT_EQ(out.opcode, in.opcode);
    EXPECT_EQ(out.slba, in.slba);
    EXPECT_EQ(out.length, in.length);
}

TEST(NvmePdu, DataPduCarriesDigest)
{
    WireConfig wc;
    Bytes data(1000);
    fillDeterministic(data, 3, 0);
    Bytes pdu = buildDataPdu(wc, kPduC2HData, DataPduHdr{5, 100, 0}, data,
                             true);
    auto ch = parseCommonHdr(pdu);
    ASSERT_TRUE(ch.has_value());
    EXPECT_EQ(ch->dataLen(), data.size());
    uint32_t wire = getLe32(pdu.data() + ch->pdo + data.size());
    EXPECT_EQ(wire, crypto::Crc32c::compute(data));

    // Dummy-digest variant leaves zeros for the NIC.
    Bytes pdu2 = buildDataPdu(wc, kPduC2HData, DataPduHdr{5, 100, 0}, data,
                              false);
    EXPECT_EQ(getLe32(pdu2.data() + ch->pdo + data.size()), 0u);
}

// ----------------------------------------------------- fabric fixture

/**
 * Host (initiator) on node B reads from the drive exported by node A:
 * the paper's layout, where the SSD lives on the workload generator.
 */
struct NvmeFabric
{
    static constexpr uint16_t kPort = 4420;

    core::Testbed &w;
    host::NvmeDrive drive;
    WireConfig wc;
    std::unique_ptr<NvmeTarget> target;
    std::unique_ptr<NvmeHostQueue> hostq;
    bool ready = false;

    NvmeFabric(core::Testbed &world, NvmeOffloadConfig ocfg,
               host::NvmeDrive::Config dcfg = {},
               NvmeOffloadConfig targetOcfg = {})
        : w(world), drive(world.sim, dcfg)
    {
        w.a.stack().listen(kPort, w.a.tcpConfig(),
                           [this, targetOcfg](tcp::TcpConnection &c) {
                               target = std::make_unique<NvmeTarget>(
                                   c, drive, wc);
                               target->enableOffload(w.a.device(), c,
                                                     targetOcfg);
                           });
        tcp::TcpConnection &c = w.b.stack().connect(
            core::Testbed::kIpB, core::Testbed::kIpA, kPort, w.b.tcpConfig());
        c.setOnConnected([this, &c, ocfg] {
            hostq = std::make_unique<NvmeHostQueue>(c, wc, ocfg);
            hostq->enableOffload(w.b.device(), c);
            ready = true;
        });
        w.sim.runUntil(10 * sim::kMillisecond);
        ANIC_ASSERT(ready, "fabric setup failed");
    }
};

bool
verifyRead(const host::NvmeDrive &drive, const host::BlockBufferPtr &buf,
           uint64_t slba)
{
    return checkDeterministic(buf->data, drive.config().contentSeed, slba);
}

// -------------------------------------------------------------- tests

TEST(NvmeFabric, SoftwareReadDeliversDriveContent)
{
    core::Testbed w;
    NvmeFabric f(w, {});
    bool done = false;
    bool ok = false;
    host::BlockBufferPtr buf;
    f.hostq->read(8192, 262144, [&](bool o, host::BlockBufferPtr b) {
        done = true;
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(done);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(verifyRead(f.drive, buf, 8192));
    EXPECT_EQ(f.hostq->stats().crcSoftware, 1u);
    EXPECT_EQ(f.hostq->stats().crcSkipped, 0u);
    EXPECT_EQ(f.hostq->stats().bytesPlaced, 0u);
    EXPECT_EQ(f.hostq->stats().bytesCopied, 262144u);
}

TEST(NvmeFabric, CrcOffloadSkipsSoftwareDigest)
{
    core::Testbed w;
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    NvmeFabric f(w, ocfg);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.hostq->read(0, 262144, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(verifyRead(f.drive, buf, 0));
    EXPECT_EQ(f.hostq->stats().crcSkipped, 1u);
    EXPECT_EQ(f.hostq->stats().crcSoftware, 0u);
}

TEST(NvmeFabric, CopyOffloadPlacesDirectly)
{
    core::Testbed w;
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    NvmeFabric f(w, ocfg);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.hostq->read(4096, 262144, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    // Content must be correct even though software never copied it.
    EXPECT_TRUE(verifyRead(f.drive, buf, 4096));
    EXPECT_EQ(f.hostq->stats().bytesCopied, 0u);
    EXPECT_EQ(f.hostq->stats().bytesPlaced, 262144u);
    EXPECT_EQ(f.hostq->stats().crcSkipped, 1u);
}

TEST(NvmeFabric, ManyConcurrentReads)
{
    core::Testbed w;
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    NvmeFabric f(w, ocfg);
    const int kReqs = 32;
    int completed = 0;
    int correct = 0;
    for (int i = 0; i < kReqs; i++) {
        uint64_t slba = 65536ull * i;
        f.hostq->read(slba, 32768,
                      [&, slba](bool o, host::BlockBufferPtr b) {
                          completed++;
                          if (o && verifyRead(f.drive, b, slba))
                              correct++;
                      });
    }
    w.sim.runUntil(300 * sim::kMillisecond);
    EXPECT_EQ(completed, kReqs);
    EXPECT_EQ(correct, kReqs);
}

TEST(NvmeFabric, LossyLinkFallsBackAndRecovers)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.01; // target -> host data direction
    lc.seed = 3;
    core::Testbed w({.link = lc});
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    NvmeFabric f(w, ocfg);

    const int kReqs = 60;
    int completed = 0;
    int correct = 0;
    std::function<void(int)> issue = [&](int i) {
        uint64_t slba = 262144ull * i;
        f.hostq->read(slba, 262144,
                      [&, slba, i](bool o, host::BlockBufferPtr b) {
                          completed++;
                          if (o && verifyRead(f.drive, b, slba))
                              correct++;
                          if (i + 8 < kReqs)
                              issue(i + 8);
                      });
    };
    for (int i = 0; i < 8; i++)
        issue(i);
    w.sim.runUntil(3 * sim::kSecond);
    EXPECT_EQ(completed, kReqs);
    EXPECT_EQ(correct, kReqs);
    // Some capsules fell back to software CRC, some were offloaded.
    EXPECT_GT(f.hostq->stats().crcSoftware, 0u);
    EXPECT_GT(f.hostq->stats().crcSkipped, 0u);
    // Placement kept working across the losses (mid-capsule resume).
    EXPECT_GT(f.hostq->stats().bytesPlaced, 0u);
}

TEST(NvmeFabric, WritesReachTheDrive)
{
    core::Testbed w;
    NvmeFabric f(w, {});
    bool ok = false;
    f.hostq->write(0, 131072, /*seed=*/9, [&](bool o) { ok = o; });
    w.sim.runUntil(100 * sim::kMillisecond);
    EXPECT_TRUE(ok);
    EXPECT_EQ(f.target->stats().writesServed, 1u);
    EXPECT_EQ(f.target->stats().bytesWritten, 131072u);
    EXPECT_EQ(f.target->stats().digestFailures, 0u);
    EXPECT_EQ(f.drive.bytesWritten(), 131072u);
    // 131072 bytes under a 128 KiB R2T window: exactly one credit.
    EXPECT_EQ(f.target->stats().r2tsSent, 1u);
    EXPECT_EQ(f.hostq->stats().r2tPdusRx, 1u);
}

TEST(NvmeFabric, LargeWriteUsesOneR2tWindowAtATime)
{
    core::Testbed w;
    NvmeFabric f(w, {});
    bool ok = false;
    f.hostq->write(0, 512 << 10, /*seed=*/4, [&](bool o) { ok = o; });
    w.sim.runUntil(200 * sim::kMillisecond);
    EXPECT_TRUE(ok);
    // 512 KiB under a 128 KiB window: four sequential grants.
    EXPECT_EQ(f.target->stats().r2tsSent, 4u);
    EXPECT_EQ(f.hostq->stats().r2tPdusRx, 4u);
    EXPECT_EQ(f.drive.bytesWritten(), 512u << 10);
}

TEST(NvmeFabric, FlushAndCompareRoundTrip)
{
    core::Testbed w;
    NvmeFabric f(w, {});
    uint64_t seed = f.drive.config().contentSeed;
    bool wok = false, fok = false, cok = false, cbad = true;
    f.hostq->write(0, 65536, seed, [&](bool o) { wok = o; });
    f.hostq->flush([&](bool o) { fok = o; });
    // COMPARE against the drive's synthetic content: the matching
    // seed succeeds, a different one must miscompare.
    f.hostq->compare(8192, 65536, seed, [&](bool o) { cok = o; });
    f.hostq->compare(8192, 65536, seed ^ 0xbad, [&](bool o) { cbad = o; });
    w.sim.runUntil(200 * sim::kMillisecond);
    EXPECT_TRUE(wok);
    EXPECT_TRUE(fok);
    EXPECT_TRUE(cok);
    EXPECT_FALSE(cbad);
    EXPECT_EQ(f.target->stats().flushesServed, 1u);
    EXPECT_EQ(f.target->stats().comparesServed, 2u);
    EXPECT_EQ(f.target->stats().compareMismatches, 1u);
    EXPECT_EQ(f.hostq->stats().flushesCompleted, 1u);
    EXPECT_EQ(f.hostq->stats().comparesCompleted, 2u);
}

TEST(NvmeFabric, TargetOffloadedWritePath)
{
    // Host fills H2CData digests via its tx engine; the target's NIC
    // verifies them and places payload straight into the pending
    // write's buffer (the ISSUE's ≥90 % full-offload criterion).
    core::Testbed w;
    NvmeOffloadConfig hostO;
    hostO.crcTx = true;
    NvmeOffloadConfig tgtO;
    tgtO.crcRx = true;
    tgtO.copyRx = true;
    tgtO.crcTx = true;
    NvmeFabric f(w, hostO, {}, tgtO);
    int oks = 0;
    for (int i = 0; i < 8; i++) {
        f.hostq->write(262144ull * i, 262144, 30 + i,
                       [&](bool o) { oks += o ? 1 : 0; });
    }
    w.sim.runUntil(500 * sim::kMillisecond);
    EXPECT_EQ(oks, 8);
    const NvmeTargetStats &ts = f.target->stats();
    EXPECT_EQ(ts.digestFailures, 0u);
    EXPECT_GT(ts.h2cBytesPlaced, 0u);
    uint64_t total = ts.h2cDigestSkipped + ts.h2cDigestSoftware;
    ASSERT_GT(total, 0u);
    EXPECT_GE(ts.h2cDigestSkipped * 10, total * 9); // >= 90 % offloaded
}

TEST(NvmeFabric, TxCrcOffloadProducesValidDigests)
{
    core::Testbed w;
    NvmeOffloadConfig ocfg;
    ocfg.crcTx = true;
    NvmeFabric f(w, ocfg);
    int oks = 0;
    for (int i = 0; i < 4; i++) {
        f.hostq->write(262144ull * i, 262144, 10 + i, [&](bool o) {
            if (o)
                oks++;
        });
    }
    w.sim.runUntil(300 * sim::kMillisecond);
    EXPECT_EQ(oks, 4);
    // The target verified NIC-computed digests in software.
    EXPECT_EQ(f.target->stats().digestFailures, 0u);
    EXPECT_GT(w.b.nicDev().stats().txOffloadedPkts, 0u);
}

TEST(NvmeFabric, TxCrcOffloadSurvivesLoss)
{
    net::Link::Config lc;
    lc.dir[1].lossRate = 0.02; // host -> target direction
    lc.seed = 11;
    core::Testbed w({.link = lc});
    NvmeOffloadConfig ocfg;
    ocfg.crcTx = true;
    NvmeFabric f(w, ocfg);
    int oks = 0;
    for (int i = 0; i < 6; i++) {
        f.hostq->write(262144ull * i, 262144, 20 + i, [&](bool o) {
            if (o)
                oks++;
        });
    }
    w.sim.runUntil(3 * sim::kSecond);
    EXPECT_EQ(oks, 6);
    EXPECT_EQ(f.target->stats().digestFailures, 0u);
    EXPECT_GT(w.b.nicDev().stats().txResyncs, 0u);
}

/**
 * Alternating 256 KiB writes and reads with host and target both
 * offloaded (rx digest + placement, tx digest), on a clean wire and
 * at 0.5% loss each way. Clean: >= 90% of data digests, host and
 * target combined, are skipped by the NICs. Both: every IO completes
 * with zero failures.
 */
class NvmeMixedIo : public ::testing::TestWithParam<double>
{
};

TEST_P(NvmeMixedIo, BothEndsOffloaded)
{
    const double loss = GetParam();
    core::Testbed::Config cfg;
    cfg.link.seed = 0x15b71;
    cfg.link.dir[0].lossRate = loss;
    cfg.link.dir[1].lossRate = loss;
    core::Testbed w(cfg);
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = ocfg.copyRx = ocfg.crcTx = true;
    NvmeFabric f(w, ocfg, {}, ocfg);

    constexpr int kOps = 8;
    constexpr uint32_t kLen = 256 << 10;
    int completed = 0, failed = 0;
    for (int i = 0; i < kOps; i++) {
        uint64_t slba = uint64_t{kLen} * 2 * i;
        if (i % 2 == 0) {
            f.hostq->write(slba, kLen, f.drive.config().contentSeed,
                           [&](bool o) {
                               completed++;
                               if (!o)
                                   failed++;
                           });
        } else {
            f.hostq->read(slba, kLen,
                          [&, slba](bool o, host::BlockBufferPtr b) {
                              completed++;
                              if (!o || !verifyRead(f.drive, b, slba))
                                  failed++;
                          });
        }
    }
    while (completed < kOps && w.sim.now() < 4 * sim::kSecond)
        w.sim.runFor(sim::kMillisecond);
    EXPECT_EQ(completed, kOps);
    EXPECT_EQ(failed, 0);
    const NvmeHostStats &h = f.hostq->stats();
    const NvmeTargetStats &t = f.target->stats();
    EXPECT_EQ(h.crcFailures.value(), 0u);
    EXPECT_EQ(t.digestFailures, 0u);
    // The shared data path's counts, at both ends: one digest verdict
    // per data PDU, and every data byte either placed or copied.
    const uint64_t dataBytes = uint64_t{kOps / 2} * kLen; // each way
    EXPECT_EQ(h.crcSkipped + h.crcSoftware, h.dataPdusRx.value());
    EXPECT_EQ(h.bytesPlaced + h.bytesCopied, dataBytes);
    EXPECT_EQ(t.h2cDigestSkipped + t.h2cDigestSoftware, t.h2cPdusRx.value());
    EXPECT_EQ(t.h2cBytesPlaced + t.h2cBytesCopied, t.bytesWritten.value());
    EXPECT_EQ(t.bytesWritten.value(), dataBytes);
    if (loss == 0) {
        uint64_t skipped = h.crcSkipped.value() + t.h2cDigestSkipped;
        uint64_t total =
            skipped + h.crcSoftware.value() + t.h2cDigestSoftware;
        ASSERT_GT(total, 0u);
        EXPECT_GE(skipped * 10, total * 9); // >= 90 % skipped
    } else {
        EXPECT_GT(w.link.stats(0).dropped + w.link.stats(1).dropped, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Wire, NvmeMixedIo, ::testing::Values(0.0, 0.005),
                         [](const ::testing::TestParamInfo<double> &i) {
                             return i.param == 0 ? "clean" : "lossy";
                         });

// ------------------------------------------------------ crafted PDUs

/** A host queue on node b whose target is a raw peer on node a. */
struct CraftedTarget
{
    core::Testbed w;
    testing::RawPeer peer;
    WireConfig wc;
    std::unique_ptr<NvmeHostQueue> hostq;

    CraftedTarget()
    {
        testing::connectRawPeer(w, 4420, /*peerOnA=*/true, peer,
                                [this](tcp::TcpConnection &c) {
                                    hostq = std::make_unique<NvmeHostQueue>(
                                        c, wc, NvmeOffloadConfig{});
                                });
    }

    void run() { w.sim.runFor(2 * sim::kMillisecond); }
};

TEST(NvmeCrafted, C2HDataOutsideTheReadIsFatal)
{
    CraftedTarget t;
    int calls = 0;
    bool ok = true;
    t.hostq->read(0, 4096, [&](bool o, host::BlockBufferPtr) {
        calls++;
        ok = o;
    });
    t.run();
    // 4 KiB of data for the 4 KiB read, but 2 KiB of it past its end;
    // then a success response. Dropping the tail would complete the
    // read "successfully" with a hole.
    Bytes data(4096);
    t.peer.send(buildDataPdu(t.wc, kPduC2HData, DataPduHdr{1, 2048, 0}, data,
                             true));
    t.peer.send(buildRespCapsule(t.wc, RespCapsule{1, 0}));
    t.run();
    EXPECT_TRUE(t.hostq->desynced());
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(ok);
}

TEST(NvmeCrafted, C2HDataForAWriteIsFatal)
{
    CraftedTarget t;
    int calls = 0;
    bool ok = true;
    t.hostq->write(0, 4096, 7, [&](bool o) {
        calls++;
        ok = o;
    });
    t.run();
    Bytes data(4096);
    t.peer.send(buildDataPdu(t.wc, kPduC2HData, DataPduHdr{1, 0, 0}, data,
                             true));
    t.peer.send(buildRespCapsule(t.wc, RespCapsule{1, 0}));
    t.run();
    EXPECT_TRUE(t.hostq->desynced());
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(ok);
}

TEST(NvmeCrafted, FramingLossFailsEveryCommandOnceInIssueOrder)
{
    CraftedTarget t;
    std::vector<int> order;
    for (int i = 0; i < 6; i++) {
        uint64_t slba = uint64_t{4096} * i;
        if (i % 2 == 0) {
            t.hostq->read(slba, 4096, [&, i](bool o, host::BlockBufferPtr) {
                EXPECT_FALSE(o);
                order.push_back(i);
            });
        } else {
            t.hostq->write(slba, 4096, 7, [&, i](bool o) {
                EXPECT_FALSE(o);
                order.push_back(i);
            });
        }
    }
    t.run();
    ASSERT_EQ(t.hostq->outstanding(), 6u);
    t.peer.send(Bytes(8, 0xff)); // no PDU type is 0xff: framing is lost
    t.run();
    EXPECT_TRUE(t.hostq->desynced());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(t.hostq->outstanding(), 0u);
    EXPECT_EQ(t.hostq->stats().failures.value(), 6u);

    // Later PDUs are discarded unread.
    Bytes data(4096);
    t.peer.send(buildDataPdu(t.wc, kPduC2HData, DataPduHdr{1, 0, 0}, data,
                             true));
    t.run();
    EXPECT_EQ(t.hostq->stats().dataPdusRx.value(), 0u);
    EXPECT_EQ(order.size(), 6u);
}

TEST(NvmeCrafted, H2CDataOutsideTheGrantIsFatal)
{
    core::Testbed w;
    testing::RawPeer peer;
    host::NvmeDrive drive(w.sim, {});
    WireConfig wc;
    std::unique_ptr<NvmeTarget> target;
    testing::connectRawPeer(w, 4420, /*peerOnA=*/false, peer,
                            [&](tcp::TcpConnection &c) {
                                target = std::make_unique<NvmeTarget>(
                                    c, drive, wc);
                            });
    peer.send(buildCmdCapsule(wc, CmdCapsule{1, kOpWrite, 0, 256 << 10}));
    w.sim.runFor(2 * sim::kMillisecond);
    ASSERT_EQ(target->stats().r2tsSent, 1u); // grants [0, 128 KiB)

    // Data inside the write but past the granted window.
    Bytes data(4096);
    peer.send(buildDataPdu(wc, kPduH2CData, DataPduHdr{1, 128 << 10, 0}, data,
                           true));
    w.sim.runFor(2 * sim::kMillisecond);
    EXPECT_TRUE(target->desynced());
    EXPECT_EQ(target->stats().h2cBytesCopied, 0u);
}

TEST(NvmeCrafted, SpeculationPassedInOneBatchIsStillConfirmed)
{
    // The NIC's rx context is installed mid-PDU, so it loses framing
    // and speculates on the next PDU header. One segment then carries
    // the rest of the current PDU, the speculated PDU whole and the
    // start of the one after it: software reaches the speculated
    // position inside the batch and must confirm it there.
    sim::TraceRing ring;
    ring.enable();
    core::Testbed::Config cfg;
    cfg.b.trace = &ring;
    core::Testbed w(cfg);
    testing::RawPeer peer;
    WireConfig wc;
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    tcp::TcpConnection *conn = nullptr;
    std::unique_ptr<NvmeHostQueue> hostq;
    testing::connectRawPeer(w, 4420, /*peerOnA=*/true, peer,
                            [&](tcp::TcpConnection &c) {
                                conn = &c;
                                hostq = std::make_unique<NvmeHostQueue>(
                                    c, wc, ocfg);
                            });
    int done = 0;
    for (int i = 0; i < 2; i++)
        hostq->read(uint64_t{4096} * i, 4096,
                    [&](bool ok, host::BlockBufferPtr) { done += ok; });
    w.sim.runFor(2 * sim::kMillisecond);

    // PDU 0: cid 1's data, all-0xff so no window inside it parses as a
    // header. Its first part lands before the offload is installed.
    Bytes data(4096, 0xff);
    Bytes pdu0 = buildDataPdu(wc, kPduC2HData, DataPduHdr{1, 0, 0}, data,
                              true);
    Bytes pdu1 = buildRespCapsule(wc, RespCapsule{1, 0});
    Bytes pdu2 = buildRespCapsule(wc, RespCapsule{2, 0});
    const size_t split = pdu0.size() - 64;
    peer.send(Bytes(pdu0.begin(), pdu0.begin() + split));
    w.sim.runFor(2 * sim::kMillisecond);
    hostq->enableOffload(w.b.device(), *conn);

    Bytes batch(pdu0.begin() + split, pdu0.end());
    batch.insert(batch.end(), pdu1.begin(), pdu1.end());
    batch.insert(batch.end(), pdu2.begin(), pdu2.begin() + 8);
    peer.send(batch);
    w.sim.runFor(2 * sim::kMillisecond);
    peer.send(Bytes(pdu2.begin() + 8, pdu2.end()));
    w.sim.runFor(2 * sim::kMillisecond);

    EXPECT_FALSE(hostq->desynced());
    EXPECT_EQ(done, 1);
    const nic::FsmStats *fsm = hostq->rxFsmStats();
    ASSERT_NE(fsm, nullptr);
    EXPECT_EQ(fsm->resyncRequests, 1u);
    EXPECT_EQ(hostq->stats().resyncRequests, 1u);
    EXPECT_EQ(hostq->stats().resyncConfirmed, 1u);
    EXPECT_EQ(fsm->resyncConfirmed, 1u);
    EXPECT_EQ(fsm->resyncRefuted, 0u);
    // Confirmed as message 1: the PDU that starts where the NIC
    // speculated.
    int confirms = 0;
    for (const sim::TraceEvent &e : ring.events()) {
        if (e.kind == sim::TraceKind::ResyncConfirmed) {
            confirms++;
            EXPECT_EQ(e.a, 1u);
        }
    }
    EXPECT_EQ(confirms, 1);
}

// ------------------------------------------------- NVMe-TLS composition

struct NvmeTlsFabric
{
    static constexpr uint16_t kPort = 4420;
    static constexpr uint64_t kSecret = 0xabcd;

    core::Testbed &w;
    host::NvmeDrive drive;
    WireConfig wc;
    std::unique_ptr<tls::TlsSocket> targetTls;
    std::unique_ptr<tls::TlsSocket> hostTls;
    std::unique_ptr<NvmeTarget> target;
    std::unique_ptr<NvmeHostQueue> hostq;
    bool ready = false;

    NvmeTlsFabric(core::Testbed &world, NvmeOffloadConfig ocfg,
                  bool tlsRxOffload)
        : w(world), drive(world.sim, {})
    {
        w.a.stack().listen(kPort, w.a.tcpConfig(),
                           [this](tcp::TcpConnection &c) {
                               targetTls = std::make_unique<tls::TlsSocket>(
                                   c, tls::SessionKeys::derive(kSecret, false),
                                   tls::TlsConfig{});
                               target = std::make_unique<NvmeTarget>(
                                   *targetTls, drive, wc);
                           });
        tcp::TcpConnection &c = w.b.stack().connect(
            core::Testbed::kIpB, core::Testbed::kIpA, kPort, w.b.tcpConfig());
        c.setOnConnected([this, &c, ocfg, tlsRxOffload] {
            tls::TlsConfig tcfg;
            tcfg.rxOffload = tlsRxOffload;
            hostTls = std::make_unique<tls::TlsSocket>(
                c, tls::SessionKeys::derive(kSecret, true), tcfg);
            hostTls->enableOffload(w.b.device());
            hostq = std::make_unique<NvmeHostQueue>(*hostTls, wc, ocfg);
            if (tlsRxOffload && (ocfg.crcRx || ocfg.copyRx))
                hostq->enableOffloadOverTls(*hostTls);
            ready = true;
        });
        w.sim.runUntil(10 * sim::kMillisecond);
        ANIC_ASSERT(ready, "fabric setup failed");
    }
};

TEST(NvmeTls, SoftwareTlsTransportWorks)
{
    core::Testbed w;
    NvmeTlsFabric f(w, {}, /*tlsRxOffload=*/false);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.hostq->read(8192, 262144, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(200 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(checkDeterministic(buf->data, f.drive.config().contentSeed,
                                   8192));
}

TEST(NvmeTls, ComposedOffloadPlacesAndVerifies)
{
    core::Testbed w;
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    NvmeTlsFabric f(w, ocfg, /*tlsRxOffload=*/true);

    const int kReqs = 8;
    int correct = 0;
    for (int i = 0; i < kReqs; i++) {
        uint64_t slba = 262144ull * i;
        f.hostq->read(slba, 262144,
                      [&, slba](bool o, host::BlockBufferPtr b) {
                          if (o && checkDeterministic(
                                       b->data,
                                       f.drive.config().contentSeed, slba))
                              correct++;
                      });
    }
    w.sim.runUntil(500 * sim::kMillisecond);
    EXPECT_EQ(correct, kReqs);
    // The inner (NVMe) engine placed payload and checked digests
    // while the outer (TLS) engine decrypted.
    EXPECT_GT(f.hostq->stats().bytesPlaced, 0u);
    EXPECT_GT(f.hostq->stats().crcSkipped, 0u);
    EXPECT_EQ(f.hostTls->stats().rxFullyOffloaded,
              f.hostTls->stats().recordsRx);
}

TEST(NvmeTls, ComposedOffloadSurvivesLoss)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.01;
    lc.seed = 7;
    core::Testbed w({.link = lc});
    NvmeOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    NvmeTlsFabric f(w, ocfg, /*tlsRxOffload=*/true);

    const int kReqs = 40;
    int completed = 0;
    int correct = 0;
    std::function<void(int)> issue = [&](int i) {
        uint64_t slba = 262144ull * i;
        f.hostq->read(slba, 262144,
                      [&, slba, i](bool o, host::BlockBufferPtr b) {
                          completed++;
                          if (o && checkDeterministic(
                                       b->data,
                                       f.drive.config().contentSeed, slba))
                              correct++;
                          if (i + 4 < kReqs)
                              issue(i + 4);
                      });
    };
    for (int i = 0; i < 4; i++)
        issue(i);
    w.sim.runUntil(5 * sim::kSecond);
    EXPECT_EQ(completed, kReqs);
    EXPECT_EQ(correct, kReqs);
}

} // namespace
} // namespace anic
