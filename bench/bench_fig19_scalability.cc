/**
 * @file
 * Figure 19: scalability with connection count far beyond the NIC's
 * flow-context cache (4 MiB / 208 B ~ 20K flows): nginx in C2 with 8
 * server cores, 256 KiB files, 128..128K persistent connections,
 * https / offload / offload+zc / http. Paper: no performance cliff —
 * packet batching means only the first packet of a batch pays the
 * context-fetch cost; offload+zc stays within 10% of http and
 * 53-94% over https.
 *
 * Note: to keep 128K simulated connections within laptop memory the
 * per-connection socket buffers are smaller than the defaults (the
 * paper's server has 128 GB of RAM).
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    // --cores sets the server core count (and, via the node's auto
    // queue config, its NIC TX/RX queue pair count): the multi-core
    // contention axis the CI TSan job sweeps.
    const int serverCores = opt.cores > 0 ? opt.cores : 8;
    printHeader("Figure 19: connection scalability vs NIC context cache "
                "(20K flows)");
    const HttpVariant variants[] = {HttpVariant::Https, HttpVariant::Offload,
                                    HttpVariant::OffloadZc,
                                    HttpVariant::Http};
    std::vector<int> counts = opt.quick
                                  ? std::vector<int>{128, 2048, 16384}
                                  : std::vector<int>{128, 512, 2048, 8192,
                                                     32768, 131072};

    struct Row
    {
        double gbps[4] = {0, 0, 0, 0};
        double busyZc = 0;
        double missRate = 0;
    };
    std::vector<Row> rows(counts.size());
    {
        Sweep sweep("fig19", opt);
        for (size_t ci = 0; ci < counts.size(); ci++) {
            for (int i = 0; i < 4; i++) {
                int conns = counts[ci];
                std::string label = strprintf("conns=%d/%s", conns,
                                              variantName(variants[i]));
                sweep.add(label, [&rows, &variants, ci, i, conns,
                                  serverCores](sim::RunContext &ctx) {
                    NginxParams p;
                    p.serverCores = serverCores;
                    p.generatorCores = 16;
                    p.connections = conns;
                    p.fileSize = 256 << 10;
                    p.fileCount = 32;
                    p.c1 = false;
                    p.variant = variants[i];
                    // Small per-connection buffers so 128K connections
                    // fit in memory; aggregate throughput is
                    // unaffected.
                    p.serverSndBuf = 64 << 10;
                    p.clientRcvBuf = 64 << 10;
                    p.warmup = 15 * sim::kMillisecond;
                    p.window = 20 * sim::kMillisecond;
                    p.bench = "fig19";
                    p.scenario = {{"connections", tagNum(conns)},
                                  {"cores", tagNum(serverCores)}};
                    NginxResult r = runNginx(ctx, p);
                    rows[ci].gbps[i] = r.gbps;
                    if (variants[i] == HttpVariant::OffloadZc) {
                        rows[ci].busyZc = r.busyCores;
                        rows[ci].missRate = r.ctxMissPerPkt;
                    }
                });
            }
        }
        sweep.drain();
    }

    std::printf("%-8s", "conns");
    for (HttpVariant v : variants)
        std::printf(" %11s", variantName(v));
    std::printf(" %9s %10s %12s\n", "zc/https", "busy(zc)", "ctx miss/pkt");
    for (size_t ci = 0; ci < counts.size(); ci++) {
        const Row &row = rows[ci];
        std::printf("%-8d", counts[ci]);
        for (double g : row.gbps)
            std::printf(" %11.2f", g);
        std::printf(" %8.0f%% %10.2f %12.4f\n",
                    100.0 * (row.gbps[2] / row.gbps[0] - 1.0), row.busyZc,
                    row.missRate);
    }
    std::printf("\npaper: offload+zc within 10%% of http at every count; "
                "53-94%% over https; no cliff past 20K flows\n");
    return 0;
}
