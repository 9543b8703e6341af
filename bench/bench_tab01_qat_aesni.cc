/**
 * @file
 * Table 1: encryption bandwidth (MB/s) of on-CPU AES-NI vs an off-CPU
 * QAT-class accelerator, 16 KiB blocks, 1 vs 128 client threads on a
 * single 2.4 GHz core. Paper: CBC-HMAC-SHA1 — QAT(1) 249, QAT(128)
 * 3144, AES-NI 695; GCM — QAT(1) 249, QAT(128) 3109, AES-NI 3150.
 */

#include "accel/qat.hh"
#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

double
qat(sim::RunContext &ctx, int threads)
{
    sim::Simulator sim;
    host::CycleModel model;
    model.cpuGhz = 2.4;
    host::Core core(sim, model, 0,
                    sim::StatsScope(ctx.registry(), "core0"));
    accel::OffCpuAccelerator dev(sim, {});
    return accel::runAcceleratedSpeedTest(
        sim, core, dev, threads, 16384,
        ctx.scaleWindow(100 * sim::kMillisecond));
}

double
aesni(sim::RunContext &ctx, double cyclesPerByte)
{
    sim::Simulator sim;
    host::CycleModel model;
    model.cpuGhz = 2.4;
    host::Core core(sim, model, 0,
                    sim::StatsScope(ctx.registry(), "core0"));
    return accel::runOnCpuSpeedTest(
        sim, core, cyclesPerByte, 16384,
        ctx.scaleWindow(100 * sim::kMillisecond));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Table 1: AES-NI (on-CPU) vs QAT (off-CPU) encryption "
                "bandwidth, MB/s, 16KiB blocks, 1 core @2.4GHz");

    double mbps[4] = {}; // q1, q128, cbc, gcm
    {
        Sweep sweep("tab01", opt);
        sweep.add("qat1", [&mbps](sim::RunContext &ctx) {
            mbps[0] = qat(ctx, 1);
        });
        sweep.add("qat128", [&mbps](sim::RunContext &ctx) {
            mbps[1] = qat(ctx, 128);
        });
        sweep.add("aesni-cbc", [&mbps](sim::RunContext &ctx) {
            mbps[2] = aesni(ctx, accel::CipherCosts::kCbcHmacPerByte);
        });
        sweep.add("aesni-gcm", [&mbps](sim::RunContext &ctx) {
            mbps[3] = aesni(ctx, accel::CipherCosts::kGcmPerByte);
            emitRegistrySnapshot(ctx, "tab01");
        });
        sweep.drain();
    }
    double q1 = mbps[0], q128 = mbps[1], cbc = mbps[2], gcm = mbps[3];

    std::printf("%-28s %10s %10s %10s\n", "cipher", "QAT 1", "QAT 128",
                "AES-NI 1");
    std::printf("%-28s %10.0f %10.0f %10.0f\n", "AES-128-CBC-HMAC-SHA1", q1,
                q128, cbc);
    std::printf("%-28s %10.0f %10.0f %10.0f\n", "AES-128-GCM", q1, q128, gcm);
    // Aggregate records span all sweep points, so they are emitted
    // from the main thread after drain (honoring --json).
    sim::RunContext all;
    auto record = [&](const char *metric, double v, const char *cipher) {
        jsonRecord(all, "tab01", metric, v, {{"cipher", cipher}});
    };
    for (const char *cipher : {"cbc-hmac-sha1", "gcm"}) {
        record("qat1_mbps", q1, cipher);
        record("qat128_mbps", q128, cipher);
    }
    record("aesni_mbps", cbc, "cbc-hmac-sha1");
    record("aesni_mbps", gcm, "gcm");
    makeBenchSink(opt.jsonPath)(all.takeOutput());
    std::printf("\npaper: 249 / 3144 / 695 and 249 / 3109 / 3150\n");
    return 0;
}
