/**
 * @file
 * Example: a Redis-on-Flash-style key-value store whose values live
 * on a remote drive reached over NVMe-TCP *inside TLS*, with the
 * combined NVMe-TLS offload (§5.3): the NIC parses TLS, decrypts,
 * then parses NVMe-TCP inside the plaintext, verifies data digests
 * and places payloads straight into block buffers.
 *
 *   $ ./secure_kv [value_kib] [connections]
 */

#include <cstdio>
#include <cstdlib>

#include "bench_cli.hh"
#include "experiment.hh"

using namespace anic;
using namespace anic::bench;

namespace {

void
run(bool offload, uint64_t valueKib, int connections)
{
    StorageVariant sv;
    sv.tls = true; // NVMe over TLS
    sv.offload = offload;
    sv.tlsOffload = offload;
    sim::RunContext ctx;
    auto ex = ExperimentBuilder(ctx)
                  .serverCores(2)
                  .generatorCores(12)
                  .remoteStorage(sv)
                  .kvOffload(offload)
                  .files(128, valueKib << 10)
                  .connections(connections)
                  .build();
    app::MacroWorld &w = ex->world();

    app::KvServer server(w.b, 6379, *w.storage, ex->kvServerCfg());
    app::KvClientConfig ccfg = ex->kvClientCfg();
    ccfg.verifyContent = true;
    app::KvClient client(w.a, core::Testbed::kIpA,
                         core::Testbed::kIpB, 6379, w.files, ccfg);
    client.start();

    ex->warm(15 * sim::kMillisecond);
    sim::Tick window = 30 * sim::kMillisecond;
    double busy = ex->measure(
        window, [&] { client.measureStart(); },
        [&] { client.measureStop(); });

    uint64_t placed = 0;
    uint64_t skipped = 0;
    for (int i = 0; i < w.b.coreCount(); i++) {
        placed += w.storage->queue(i)->stats().bytesPlaced;
        skipped += w.storage->queue(i)->stats().crcSkipped;
    }
    std::printf("%-9s %8.2f Gbps %8.0f gets/s %6.2f busy cores | "
                "%llu corruptions | NIC placed %.1f MiB, crc skipped "
                "%llu capsules\n",
                offload ? "offload" : "software", client.meter().gbps(),
                static_cast<double>(client.windowResponses()) /
                    sim::ticksToSeconds(window),
                busy, (unsigned long long)client.stats().corruptions,
                static_cast<double>(placed) / (1 << 20),
                (unsigned long long)skipped);
    emitRegistrySnapshot(ctx, "secure_kv",
                         {{"variant", offload ? "offload" : "software"}});
    flushRun(ctx);
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t value_kib = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
    int connections = argc > 2 ? std::atoi(argv[2]) : 16;
    std::printf("secure KV store: %llu KiB values on a TLS-wrapped remote "
                "drive, %d client connections\n\n",
                (unsigned long long)value_kib, connections);
    run(false, value_kib, connections);
    run(true, value_kib, connections);
    return 0;
}
