/**
 * @file
 * Figure 15: Redis-on-Flash (KV store over an OffloadDB-style NVMe
 * backend) with the combined NVMe-TLS offload, memtier-style "get"
 * workload, value sizes 4-256 KiB. Paper: 1-core gains 17%..2.3x;
 * 8 cores saturate the drive with up to 48% fewer busy cores.
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct KvResult
{
    double gbps = 0;
    double busyCores = 0;
};

KvResult
runKv(sim::RunContext &ctx, int serverCores, uint64_t valueSize, bool offload)
{
    StorageVariant sv;
    sv.tls = true; // NVMe over TLS both ways
    sv.offload = offload;
    sv.tlsOffload = offload;
    auto ex = ExperimentBuilder()
                  .run(ctx)
                  .serverCores(serverCores)
                  .generatorCores(16)
                  .remoteStorage(sv)
                  .kvOffload(offload)
                  .files(256, valueSize)
                  // memtier: 8 concurrent request-response connections
                  // per server instance (instance = core).
                  .connections(8 * serverCores)
                  .build();
    app::MacroWorld &w = ex->world();

    app::KvServer server(w.b, 6379, *w.storage, ex->kvServerCfg());
    app::KvClientConfig ccfg = ex->kvClientCfg();
    ccfg.verifyContent = false;
    app::KvClient client(w.a, core::Testbed::kIpA,
                         core::Testbed::kIpB, 6379, w.files, ccfg);
    client.start();

    ex->warm(serverCores == 1 ? 60 * sim::kMillisecond
                              : 20 * sim::kMillisecond);
    sim::Tick window = ex->scaledWindow(30 * sim::kMillisecond);
    double busy = ex->measure(
        window, [&] { client.measureStart(); },
        [&] { client.measureStop(); });

    emitRegistrySnapshot(
        ctx,
        "fig15", {{"value_kib", tagNum(static_cast<double>(valueSize >> 10))},
                  {"cores", tagNum(serverCores)},
                  {"offload", offload ? "1" : "0"}});
    return KvResult{client.meter().gbps(), busy};
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 15: Redis-on-Flash + NVMe-TLS combined offload "
                "(memtier get)");

    const uint64_t kibs[] = {4, 16, 64, 256};
    KvResult r[4][2][2]; // [size][cores8][offload]
    {
        Sweep sweep("fig15", opt);
        for (int ki = 0; ki < 4; ki++) {
            for (int cores8 = 0; cores8 < 2; cores8++) {
                for (int off = 0; off < 2; off++) {
                    uint64_t kib = kibs[ki];
                    std::string label =
                        strprintf("kib=%llu/cores=%d/off=%d",
                                  static_cast<unsigned long long>(kib),
                                  cores8 ? 8 : 1, off);
                    sweep.add(label, [&r, ki, cores8, off,
                                      kib](sim::RunContext &ctx) {
                        r[ki][cores8][off] = runKv(ctx, cores8 ? 8 : 1,
                                                   kib << 10, off == 1);
                    });
                }
            }
        }
        sweep.drain();
    }

    std::printf("%-11s | %10s %10s %7s | %10s %10s %7s | %9s %9s\n",
                "value[KiB]", "base 1c", "off 1c", "gain", "base 8c",
                "off 8c", "gain", "busy base", "busy off");
    for (int ki = 0; ki < 4; ki++) {
        const auto &x = r[ki];
        std::printf("%-11llu | %10.2f %10.2f %6.0f%% | %10.2f %10.2f %6.0f%% "
                    "| %9.2f %9.2f\n",
                    static_cast<unsigned long long>(kibs[ki]), x[0][0].gbps,
                    x[0][1].gbps,
                    100.0 * (x[0][1].gbps / x[0][0].gbps - 1.0), x[1][0].gbps,
                    x[1][1].gbps,
                    100.0 * (x[1][1].gbps / x[1][0].gbps - 1.0),
                    x[1][0].busyCores, x[1][1].busyCores);
    }
    std::printf("\npaper: 1-core gains 17%%..2.3x growing with value size; "
                "8 cores cap at the drive with up to 48%% fewer busy "
                "cores\n");
    return 0;
}
