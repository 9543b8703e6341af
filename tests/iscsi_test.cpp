/**
 * @file
 * iSCSI tests: BHS codec and known-answer digest vectors, end-to-end
 * reads/writes over the simulated fabric, and the three autonomous
 * offloads (rx digest verification, ITT-keyed zero-copy placement, tx
 * digest computation) installed through the protocol-agnostic
 * l5o_create binding. Reassembly and the NIC engine core are tested
 * per wire traits in storage_l5p_test. Crafted PDUs from a raw peer
 * check the fatal paths: data outside a task, and lost framing.
 */

#include <gtest/gtest.h>

#include "iscsi/session.hh"
#include "core/testbed.hh"
#include "support/raw_peer.hh"

namespace anic {
namespace {

using namespace iscsi;

// ------------------------------------------------------------- codec

TEST(IscsiPdu, BhsPrefixValidation)
{
    IscsiWireConfig wc;
    IscsiBhs bhs;
    bhs.itt = 7;
    bhs.edtl = 4096;
    bhs.scsiOp = kScsiRead;
    bhs.slba = 512;
    bhs.length = 4096;
    Bytes cmd = buildScsiCmd(wc, bhs);
    ASSERT_EQ(cmd.size(), wc.pduLen(0));
    auto len = parseBhsPrefix(wc, cmd, 2 << 20);
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, cmd.size());

    // Unknown opcode, dirty reserved bytes, and a data-bearing
    // command capsule must all fail the magic pattern.
    Bytes bad = cmd;
    bad[0] = 0x3f;
    EXPECT_FALSE(parseBhsPrefix(wc, bad, 2 << 20).has_value());
    bad = cmd;
    bad[3] = 1;
    EXPECT_FALSE(parseBhsPrefix(wc, bad, 2 << 20).has_value());
    bad = cmd;
    bad[7] = 8; // Cmd with dsl != 0
    EXPECT_FALSE(parseBhsPrefix(wc, bad, 2 << 20).has_value());
}

TEST(IscsiPdu, CmdRoundTrip)
{
    IscsiWireConfig wc;
    IscsiBhs in;
    in.itt = 42;
    in.edtl = 65536;
    in.scsiOp = kScsiWrite;
    in.slba = 0x123456789aull;
    in.length = 65536;
    IscsiBhs out = parseBhs(buildScsiCmd(wc, in));
    EXPECT_EQ(out.opcode, kOpScsiCmd);
    EXPECT_EQ(out.itt, in.itt);
    EXPECT_EQ(out.edtl, in.edtl);
    EXPECT_EQ(out.scsiOp, in.scsiOp);
    EXPECT_EQ(out.slba, in.slba);
    EXPECT_EQ(out.length, in.length);
    EXPECT_NE(out.flags & kFlagWrite, 0);
}

TEST(IscsiPdu, KnownAnswerDigests)
{
    // CRC-32C check value (RFC 3720 §B.4 / iSCSI uses CRC32C): the
    // ASCII digits "123456789" digest to 0xe3069283.
    const uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crypto::Crc32c::compute(ByteView(kCheck, sizeof(kCheck))),
              0xe3069283u);

    // Builders place the header digest over BHS [0, 48) and the data
    // digest right after the data segment, both little-endian.
    IscsiWireConfig wc;
    Bytes data(1000);
    fillDeterministic(data, 3, 0);
    IscsiBhs dh;
    dh.itt = 5;
    dh.bufferOffset = 100;
    dh.flags = kFlagFinal;
    Bytes pdu = buildDataPdu(wc, kOpDataIn, dh, data, /*fillDdgst=*/true);
    ASSERT_EQ(pdu.size(), wc.pduLen(data.size()));
    EXPECT_EQ(static_cast<uint32_t>(getLe32(pdu.data() + kBhsSize)),
              crypto::Crc32c::compute(ByteView(pdu.data(), kBhsSize)));
    size_t pdo = kBhsSize + wc.hdgstLen();
    EXPECT_EQ(static_cast<uint32_t>(getLe32(pdu.data() + pdo + data.size())),
              crypto::Crc32c::compute(data));
    EXPECT_TRUE(verifyHdgst(wc, pdu));

    // Any BHS corruption must break the header digest.
    Bytes bad = pdu;
    bad[16] ^= 1; // ITT
    EXPECT_FALSE(verifyHdgst(wc, bad));

    // Dummy-digest variant leaves zeros for the NIC tx engine.
    Bytes pdu2 = buildDataPdu(wc, kOpDataIn, dh, data, /*fillDdgst=*/false);
    EXPECT_EQ(getLe32(pdu2.data() + pdo + data.size()), 0u);
    EXPECT_TRUE(verifyHdgst(wc, pdu2)); // hdgst is always real
}

TEST(IscsiPdu, DigestsOptionalByConfig)
{
    IscsiWireConfig wc;
    wc.headerDigest = false;
    wc.dataDigest = false;
    Bytes data(500);
    fillDeterministic(data, 1, 0);
    IscsiBhs dh;
    dh.itt = 9;
    Bytes pdu = buildDataPdu(wc, kOpDataOut, dh, data, true);
    EXPECT_EQ(pdu.size(), kBhsSize + data.size());
    auto len = parseBhsPrefix(wc, pdu, 2 << 20);
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, pdu.size());
    EXPECT_TRUE(verifyHdgst(wc, pdu)); // vacuously true
}

// ----------------------------------------------------- fabric fixture

/**
 * Initiator on node B against a target on node A exporting the same
 * synthetic NvmeDrive block model the NVMe-TCP suite uses.
 */
struct IscsiFabric
{
    static constexpr uint16_t kPort = 3260;

    core::Testbed &w;
    host::NvmeDrive drive;
    IscsiWireConfig wc;
    std::unique_ptr<IscsiTarget> target;
    std::unique_ptr<IscsiInitiator> init;
    bool ready = false;

    IscsiFabric(core::Testbed &world, IscsiOffloadConfig ocfg,
                IscsiOffloadConfig targetOcfg = {},
                IscsiWireConfig wireCfg = {})
        : w(world), drive(world.sim, {}), wc(wireCfg)
    {
        w.a.stack().listen(kPort, w.a.tcpConfig(),
                           [this, targetOcfg](tcp::TcpConnection &c) {
                               target = std::make_unique<IscsiTarget>(
                                   c, drive, wc);
                               target->enableOffload(w.a.device(), c,
                                                     targetOcfg);
                           });
        tcp::TcpConnection &c = w.b.stack().connect(
            core::Testbed::kIpB, core::Testbed::kIpA, kPort, w.b.tcpConfig());
        c.setOnConnected([this, &c, ocfg] {
            init = std::make_unique<IscsiInitiator>(c, wc, ocfg);
            init->enableOffload(w.b.device(), c);
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

TEST(IscsiFabric, SoftwareReadDeliversDriveContent)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiFabric f(w, {});
    bool done = false;
    bool ok = false;
    host::BlockBufferPtr buf;
    f.init->read(8192, 262144, [&](bool o, host::BlockBufferPtr b) {
        done = true;
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(done);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(verifyRead(f.drive, buf, 8192));
    EXPECT_GT(f.init->stats().digestSoftware, 0u);
    EXPECT_EQ(f.init->stats().digestSkipped, 0u);
    EXPECT_EQ(f.init->stats().bytesPlaced, 0u);
    EXPECT_EQ(f.init->stats().bytesCopied, 262144u);
}

TEST(IscsiFabric, DigestOffloadSkipsSoftwareCrc)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    IscsiFabric f(w, ocfg);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.init->read(0, 262144, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(verifyRead(f.drive, buf, 0));
    // Every PDU (Data-In chunks + Resp) was verified by the NIC.
    EXPECT_GT(f.init->stats().digestSkipped, 0u);
    EXPECT_EQ(f.init->stats().digestSoftware, 0u);
    EXPECT_EQ(f.init->stats().digestFailures, 0u);
}

TEST(IscsiFabric, CopyOffloadPlacesByItt)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    IscsiFabric f(w, ocfg);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.init->read(4096, 262144, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    // Content is correct even though software never copied it: the
    // NIC placed Data-In payload at ITT-keyed buffer offsets.
    EXPECT_TRUE(verifyRead(f.drive, buf, 4096));
    EXPECT_EQ(f.init->stats().bytesCopied, 0u);
    EXPECT_EQ(f.init->stats().bytesPlaced, 262144u);
    EXPECT_GT(f.init->stats().digestSkipped, 0u);
}

TEST(IscsiFabric, UnsolicitedWriteReachesTheDrive)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiFabric f(w, {});
    bool ok = false;
    f.init->write(0, 131072, /*seed=*/9, [&](bool o) { ok = o; });
    w.sim.runUntil(100 * sim::kMillisecond);
    EXPECT_TRUE(ok);
    EXPECT_EQ(f.target->stats().writesServed, 1u);
    EXPECT_EQ(f.target->stats().bytesWritten, 131072u);
    EXPECT_EQ(f.target->stats().digestFailures, 0u);
    EXPECT_EQ(f.drive.bytesWritten(), 131072u);
    // 128 KiB segments: exactly one unsolicited Data-Out PDU.
    EXPECT_EQ(f.target->stats().dataOutPdus, 1u);
}

TEST(IscsiFabric, TargetOffloadedWritePath)
{
    // Initiator fills data digests via its tx engine; the target NIC
    // verifies them and places Data-Out payload into the pending
    // write buffer registered at command time.
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig initO;
    initO.crcTx = true;
    IscsiOffloadConfig tgtO;
    tgtO.crcRx = true;
    tgtO.copyRx = true;
    tgtO.crcTx = true;
    IscsiFabric f(w, initO, tgtO);
    int oks = 0;
    for (int i = 0; i < 8; i++) {
        f.init->write(262144ull * i, 262144, 30 + i,
                      [&](bool o) { oks += o ? 1 : 0; });
    }
    w.sim.runUntil(500 * sim::kMillisecond);
    EXPECT_EQ(oks, 8);
    const IscsiTargetStats &ts = f.target->stats();
    EXPECT_EQ(ts.digestFailures, 0u);
    EXPECT_GT(ts.bytesPlaced, 0u);
    uint64_t total = ts.digestSkipped + ts.digestSoftware;
    ASSERT_GT(total, 0u);
    EXPECT_GE(ts.digestSkipped * 10, total * 9); // >= 90 % offloaded
}

TEST(IscsiFabric, TxCrcOffloadProducesValidDigests)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig ocfg;
    ocfg.crcTx = true;
    IscsiFabric f(w, ocfg);
    int oks = 0;
    for (int i = 0; i < 4; i++) {
        f.init->write(262144ull * i, 262144, 10 + i, [&](bool o) {
            if (o)
                oks++;
        });
    }
    w.sim.runUntil(300 * sim::kMillisecond);
    EXPECT_EQ(oks, 4);
    // The target verified NIC-computed data digests in software.
    EXPECT_EQ(f.target->stats().digestFailures, 0u);
    EXPECT_GT(f.target->stats().digestSoftware, 0u);
    EXPECT_GT(w.b.nicDev().stats().txOffloadedPkts, 0u);
}

TEST(IscsiFabric, MixedReadsAndWrites)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    ocfg.crcTx = true;
    IscsiOffloadConfig tgtO = ocfg;
    IscsiFabric f(w, ocfg, tgtO);
    const int kReqs = 24;
    int completed = 0;
    int correct = 0;
    for (int i = 0; i < kReqs; i++) {
        uint64_t slba = 65536ull * i;
        if (i % 3 == 2) {
            f.init->write(slba, 32768, f.drive.config().contentSeed,
                          [&](bool o) {
                              completed++;
                              if (o)
                                  correct++;
                          });
        } else {
            f.init->read(slba, 32768,
                         [&, slba](bool o, host::BlockBufferPtr b) {
                             completed++;
                             if (o && verifyRead(f.drive, b, slba))
                                 correct++;
                         });
        }
    }
    w.sim.runUntil(500 * sim::kMillisecond);
    EXPECT_EQ(completed, kReqs);
    EXPECT_EQ(correct, kReqs);
    EXPECT_EQ(f.init->outstanding(), 0u);
    EXPECT_EQ(f.init->stats().failures, 0u);
}

/**
 * Alternating writes and reads with initiator and target both
 * offloaded (rx digest + placement, tx digest). Every IO completes
 * with the right content and zero failures, also at 0.5% loss each
 * way; on a clean wire >= 90% of data digests, initiator and target
 * combined, are skipped by the NICs.
 */
struct MixedIo
{
    const char *name;
    int reqs;
    uint32_t len;
    double loss;
};

class IscsiMixedIo : public ::testing::TestWithParam<MixedIo>
{
};

TEST_P(IscsiMixedIo, BothEndsOffloaded)
{
    const MixedIo &p = GetParam();
    core::Testbed::Config cfg;
    cfg.link.seed = 0x15b71;
    cfg.link.dir[0].lossRate = p.loss;
    cfg.link.dir[1].lossRate = p.loss;
    sim::RunContext ctx;
    core::Testbed w(ctx, cfg);
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = ocfg.copyRx = ocfg.crcTx = true;
    IscsiFabric f(w, ocfg, ocfg);

    int completed = 0, failed = 0;
    for (int i = 0; i < p.reqs; i++) {
        uint64_t slba = uint64_t{p.len} * 2 * i;
        if (i % 2 == 0) {
            f.init->write(slba, p.len, f.drive.config().contentSeed,
                          [&](bool o) {
                              completed++;
                              if (!o)
                                  failed++;
                          });
        } else {
            f.init->read(slba, p.len,
                         [&, slba](bool o, host::BlockBufferPtr b) {
                             completed++;
                             if (!o || !verifyRead(f.drive, b, slba))
                                 failed++;
                         });
        }
    }
    while (completed < p.reqs && w.sim.now() < 4 * sim::kSecond)
        w.sim.runFor(sim::kMillisecond);
    EXPECT_EQ(completed, p.reqs);
    EXPECT_EQ(failed, 0);
    EXPECT_EQ(f.init->outstanding(), 0u);
    const IscsiInitiatorStats &h = f.init->stats();
    const IscsiTargetStats &t = f.target->stats();
    EXPECT_EQ(h.failures.value(), 0u);
    EXPECT_EQ(h.digestFailures.value() + t.digestFailures.value(), 0u);
    // The shared data path's counts, at both ends: one digest verdict
    // per PDU, and every data byte either placed or copied.
    const uint64_t dataBytes = uint64_t(p.reqs / 2) * p.len; // each way
    EXPECT_EQ(h.digestSkipped + h.digestSoftware,
              h.dataInPdus + h.readsCompleted + h.writesCompleted);
    EXPECT_EQ(h.bytesPlaced + h.bytesCopied, dataBytes);
    EXPECT_EQ(t.digestSkipped + t.digestSoftware,
              t.readsServed + t.writesServed + t.dataOutPdus);
    EXPECT_EQ(t.bytesPlaced + t.bytesCopied, t.bytesWritten.value());
    EXPECT_EQ(t.bytesWritten.value(), dataBytes);
    if (p.loss == 0) {
        uint64_t skipped = h.digestSkipped.value() + t.digestSkipped.value();
        uint64_t total =
            skipped + h.digestSoftware.value() + t.digestSoftware.value();
        ASSERT_GT(total, 0u);
        EXPECT_GE(skipped * 10, total * 9); // >= 90 % skipped
    } else {
        EXPECT_GT(w.link.stats(0).dropped + w.link.stats(1).dropped, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Wire, IscsiMixedIo,
    ::testing::Values(MixedIo{"clean", 8, 256 << 10, 0},
                      MixedIo{"lossy", 8, 256 << 10, 0.005}),
    [](const ::testing::TestParamInfo<MixedIo> &i) { return i.param.name; });

// ------------------------------------------------------ crafted PDUs

/** An initiator on node b whose target is a raw peer on node a. */
struct CraftedTarget
{
    sim::RunContext ctx;
    core::Testbed w{ctx};
    testing::RawPeer peer;
    IscsiWireConfig wc;
    std::unique_ptr<IscsiInitiator> init;

    CraftedTarget()
    {
        testing::connectRawPeer(w, 3260, /*peerOnA=*/true, peer,
                                [this](tcp::TcpConnection &c) {
                                    init = std::make_unique<IscsiInitiator>(
                                        c, wc, IscsiOffloadConfig{});
                                });
    }

    void run() { w.sim.runFor(2 * sim::kMillisecond); }
};

TEST(IscsiCrafted, DataInOutsideTheTaskIsFatal)
{
    CraftedTarget t;
    int calls = 0;
    bool ok = true;
    t.init->read(0, 4096, [&](bool o, host::BlockBufferPtr) {
        calls++;
        ok = o;
    });
    t.run();
    // 4 KiB of Data-In for the 4 KiB read, but 2 KiB of it past its
    // end; then a good status. Dropping the tail would complete the
    // read "successfully" with a hole.
    Bytes data(4096);
    t.peer.send(buildDataPdu(
        t.wc, kOpDataIn,
        IscsiBhs{.flags = kFlagFinal, .itt = 1, .bufferOffset = 2048}, data,
        true));
    t.peer.send(buildScsiResp(t.wc, IscsiBhs{.itt = 1, .status = 0}));
    t.run();
    EXPECT_TRUE(t.init->desynced());
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(ok);
}

TEST(IscsiCrafted, FramingLossFailsEveryTaskOnceInIssueOrder)
{
    CraftedTarget t;
    std::vector<int> order;
    for (int i = 0; i < 6; i++) {
        uint64_t slba = uint64_t{4096} * i;
        if (i % 2 == 0) {
            t.init->read(slba, 4096, [&, i](bool o, host::BlockBufferPtr) {
                EXPECT_FALSE(o);
                order.push_back(i);
            });
        } else {
            t.init->write(slba, 4096, 7, [&, i](bool o) {
                EXPECT_FALSE(o);
                order.push_back(i);
            });
        }
    }
    t.run();
    ASSERT_EQ(t.init->outstanding(), 6u);
    t.peer.send(Bytes(8, 0xff)); // no opcode is 0xff: framing is lost
    t.run();
    EXPECT_TRUE(t.init->desynced());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(t.init->outstanding(), 0u);
    EXPECT_EQ(t.init->stats().failures.value(), 6u);

    // Later PDUs are discarded unread.
    t.peer.send(buildScsiResp(t.wc, IscsiBhs{.itt = 1, .status = 0}));
    t.run();
    EXPECT_EQ(t.init->stats().digestSoftware.value(), 0u);
    EXPECT_EQ(order.size(), 6u);
}

TEST(IscsiCrafted, DataOutOutsideTheTaskIsFatal)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    testing::RawPeer peer;
    host::NvmeDrive drive(w.sim, {});
    IscsiWireConfig wc;
    std::unique_ptr<IscsiTarget> target;
    testing::connectRawPeer(w, 3260, /*peerOnA=*/false, peer,
                            [&](tcp::TcpConnection &c) {
                                target = std::make_unique<IscsiTarget>(
                                    c, drive, wc);
                            });
    // An 8 KiB write whose 8 KiB of Data-Out start 4 KiB in. Dropping
    // the tail would write the drive "successfully" with a hole.
    peer.send(buildScsiCmd(wc, IscsiBhs{.itt = 1, .edtl = 8192,
                                        .scsiOp = kScsiWrite, .slba = 0,
                                        .length = 8192}));
    Bytes data(8192);
    peer.send(buildDataPdu(
        wc, kOpDataOut,
        IscsiBhs{.flags = kFlagFinal, .itt = 1, .bufferOffset = 4096}, data,
        true));
    w.sim.runFor(5 * sim::kMillisecond);
    EXPECT_TRUE(target->desynced());
    EXPECT_EQ(target->stats().writesServed.value(), 0u);
}

TEST(IscsiFabric, LossyLinkFallsBackAndRecovers)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.01; // target -> initiator data direction
    lc.seed = 3;
    sim::RunContext ctx;
    core::Testbed w(ctx, {.link = lc});
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    IscsiFabric f(w, ocfg);

    const int kReqs = 60;
    int completed = 0;
    int correct = 0;
    std::function<void(int)> issue = [&](int i) {
        uint64_t slba = 262144ull * i;
        f.init->read(slba, 262144,
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
    // Some PDUs fell back to software digests, some were offloaded,
    // and placement kept working across losses (mid-PDU resumes).
    EXPECT_GT(f.init->stats().digestSoftware, 0u);
    EXPECT_GT(f.init->stats().digestSkipped, 0u);
    EXPECT_GT(f.init->stats().bytesPlaced, 0u);
    EXPECT_FALSE(f.init->desynced());
}

TEST(IscsiFabric, NoDigestsConfigStillTransfers)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiWireConfig wire;
    wire.headerDigest = false;
    wire.dataDigest = false;
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    IscsiFabric f(w, ocfg, {}, wire);
    bool ok = false;
    host::BlockBufferPtr buf;
    f.init->read(0, 131072, [&](bool o, host::BlockBufferPtr b) {
        ok = o;
        buf = std::move(b);
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(verifyRead(f.drive, buf, 0));
    // Nothing to verify, but placement still works.
    EXPECT_EQ(f.init->stats().bytesPlaced, 131072u);
}

TEST(IscsiFabric, EngineStatsPublished)
{
    sim::RunContext ctx;
    core::Testbed w(ctx);
    IscsiOffloadConfig ocfg;
    ocfg.crcRx = true;
    ocfg.copyRx = true;
    IscsiFabric f(w, ocfg);
    bool ok = false;
    f.init->read(0, 262144,
                 [&](bool o, host::BlockBufferPtr) { ok = o; });
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_TRUE(ok);
    // The generic per-kind engine bank picked up the iSCSI counters.
    const nic::EngineStats &es =
        w.b.nicDev().engineStats().of(net::L5Kind::Iscsi);
    EXPECT_GT(es.bytesChecked, 0u);
    EXPECT_GT(es.bytesPlaced, 0u);
    EXPECT_GT(es.verifiedOk, 0u);
    EXPECT_EQ(es.verifyFailures, 0u);
}

} // namespace
} // namespace anic
