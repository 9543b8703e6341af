#include "bench_common.hh"

namespace anic::bench {

NginxResult
runNginx(sim::RunContext &ctx, const NginxParams &p)
{
    ExperimentBuilder b(ctx);
    b.serverCores(p.serverCores)
        .generatorCores(p.generatorCores)
        .link(p.link)
        .serverSndBuf(p.serverSndBuf)
        .generatorRcvBuf(p.clientRcvBuf)
        .httpVariant(p.variant)
        .files(p.fileCount, p.fileSize)
        .connections(p.connections);
    if (p.c1)
        b.remoteStorage(p.storage);
    else
        b.pageCache();
    auto ex = b.build();

    app::HttpClientConfig ccfg = ex->httpClientCfg();
    ccfg.verifyContent = false; // benches measure, tests verify

    app::MacroWorld &w = ex->world();
    app::HttpServer server(w.b, 443, *w.storage, ex->httpServerCfg());
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 443, w.files, ccfg);
    client.start();

    // Ramp + warm-up: wait for (nearly) all connections before
    // opening the measurement window.
    sim::Tick ramp = static_cast<sim::Tick>(p.connections) *
                     ccfg.staggerPerConn;
    ex->warm(p.warmup + ramp);
    for (int tries = 0;
         client.connected() < p.connections * 95 / 100 && tries < 40;
         tries++) {
        ex->warm(5 * sim::kMillisecond);
    }
    sim::Tick window = ex->scaledWindow(p.window);
    nic::NicStats nic0 = w.b.nicDev().stats();
    double busyCores = ex->measure(
        window, [&] { client.measureStart(); },
        [&] { client.measureStop(); });
    nic::NicStats nic1 = w.b.nicDev().stats();

    NginxResult r;
    r.gbps = client.bodyMeter().gbps();
    r.busyCores = busyCores;
    r.requestsPerSec = static_cast<double>(client.windowResponses()) /
                       sim::ticksToSeconds(window);
    r.latencyUs = client.stats().latencyUs.empty()
                      ? 0.0
                      : client.stats().latencyUs.mean();
    uint64_t pkts = (nic1.pktsTx - nic0.pktsTx) + (nic1.pktsRx - nic0.pktsRx);
    r.ctxMissPerPkt = pkts > 0 ? static_cast<double>(nic1.ctxCacheMisses -
                                                     nic0.ctxCacheMisses) /
                                     static_cast<double>(pkts)
                               : 0.0;
    r.corruptions = client.stats().corruptions;
    r.errors = server.stats().errors;

    if (!p.bench.empty()) {
        ScenarioTags tags = p.scenario;
        tags.emplace_back("variant", variantName(p.variant));
        emitRegistrySnapshot(ctx, p.bench, tags);
    }
    return r;
}

} // namespace anic::bench
