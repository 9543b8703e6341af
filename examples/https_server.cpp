/**
 * @file
 * Example: an nginx-style https file server under a wrk-style load,
 * comparing the TLS offload variants side by side (the paper's
 * headline use case, §6.3).
 *
 *   $ ./https_server [connections] [file_kib]
 *
 * Serves 64 files from the page cache over 100 Gbps to the given
 * number of keep-alive connections, once per variant, and prints the
 * goodput and server CPU for each.
 */

#include <cstdio>
#include <cstdlib>

#include "experiment.hh"
#include "bench_json.hh"

using namespace anic;
using namespace anic::bench;

namespace {

void
run(HttpVariant v, int connections, uint64_t fileKib)
{
    auto ex = ExperimentBuilder()
                  .serverCores(4)
                  .generatorCores(12)
                  .pageCache()
                  .httpVariant(v)
                  .files(64, fileKib << 10)
                  .connections(connections)
                  .build();
    app::MacroWorld &w = ex->world();

    app::HttpServer server(w.b, 443, *w.storage, ex->httpServerCfg());
    app::HttpClientConfig ccfg = ex->httpClientCfg();
    ccfg.verifyContent = false;
    app::HttpClient client(w.a, core::Testbed::kIpA,
                           core::Testbed::kIpB, 443, w.files, ccfg);
    client.start();

    ex->warm(15 * sim::kMillisecond);
    sim::Tick window = 25 * sim::kMillisecond;
    double busy = ex->measure(
        window, [&] { client.measureStart(); },
        [&] { client.measureStop(); });

    std::printf("%-12s %10.2f Gbps %10.0f req/s %8.2f busy cores\n",
                variantName(v), client.bodyMeter().gbps(),
                static_cast<double>(client.windowResponses()) /
                    sim::ticksToSeconds(window),
                busy);
}

} // namespace

int
main(int argc, char **argv)
{
    int connections = argc > 1 ? std::atoi(argv[1]) : 256;
    uint64_t file_kib = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;

    std::printf("https file server: %d connections, %llu KiB files, "
                "4 server cores, 100 Gbps\n\n",
                connections, (unsigned long long)file_kib);
    for (HttpVariant v : {HttpVariant::Http, HttpVariant::Https,
                          HttpVariant::Offload, HttpVariant::OffloadZc}) {
        run(v, connections, file_kib);
    }
    anic::bench::emitRegistrySnapshot("https_server");
    return 0;
}
