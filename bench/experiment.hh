/**
 * @file
 * ExperimentBuilder: a fluent facade over the world / topology /
 * flow / TLS / NVMe-TCP setup that benches and examples previously
 * copy-pasted. One chain configures the testbed:
 *
 *   auto ex = ExperimentBuilder(ctx)        // the run's registry
 *                 .serverCores(4).generatorCores(12)
 *                 .pageCache()              // or .remoteStorage(...)
 *                 .httpVariant(HttpVariant::OffloadZc)
 *                 .files(64, 256 << 10)
 *                 .connections(512)
 *                 .build();
 *
 * and the Experiment hands back the wired MacroWorld, the created
 * file ids, workload configs derived from the chosen variant, and
 * the shared warm-up / measurement-window bracketing.
 */

#ifndef ANIC_BENCH_EXPERIMENT_HH
#define ANIC_BENCH_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <vector>

#include "app/macro_world.hh"
#include "sim/run_context.hh"

namespace anic::bench {

/** nginx transport/offload variants (Figure 13 legend). */
enum class HttpVariant
{
    Http,      ///< no encryption (upper bound)
    Https,     ///< kTLS software crypto (baseline)
    Offload,   ///< TLS NIC offload, sendfile still copies
    OffloadZc, ///< TLS NIC offload + zero-copy sendfile
};

const char *variantName(HttpVariant v);

/** Storage-path offload selection for C1 scenarios. */
struct StorageVariant
{
    bool offload = false;    ///< NVMe-TCP CRC + copy offload
    bool tls = false;        ///< NVMe-TLS transport
    bool tlsOffload = false; ///< offload the storage TLS too
};

class Experiment;

class ExperimentBuilder
{
  public:
    /** Binds the world to @p ctx's registry/trace ring and scales
     *  measurement windows by its RunConfig. */
    explicit ExperimentBuilder(sim::RunContext &ctx);

    // ------------------------------------------------- topology
    ExperimentBuilder &serverCores(int n);
    ExperimentBuilder &generatorCores(int n);
    ExperimentBuilder &link(const net::Link::Config &lc);
    ExperimentBuilder &serverSndBuf(size_t bytes);
    ExperimentBuilder &serverRcvBuf(size_t bytes);
    ExperimentBuilder &generatorSndBuf(size_t bytes);
    ExperimentBuilder &generatorRcvBuf(size_t bytes);

    // -------------------------------------------------- storage
    /** C2: all content served from the page cache (prewarmed). */
    ExperimentBuilder &pageCache();
    /** C1: content on the generator-side drive over NVMe-TCP, with
     *  the given storage-path offloads. */
    ExperimentBuilder &remoteStorage(const StorageVariant &v = {});

    // ------------------------------------------------- workload
    /** HTTPS file serving; maps the variant onto server/client TLS
     *  and sendfile knobs (and nginx-style client buffers). */
    ExperimentBuilder &httpVariant(HttpVariant v);
    /** Secure-KV serving; @p offload drives client-facing TLS
     *  offload + zero-copy like the §5.3 combined scenario. */
    ExperimentBuilder &kvOffload(bool offload);
    ExperimentBuilder &files(int count, uint64_t bytes);
    ExperimentBuilder &connections(int n);

    /** Wires the world (attaching storage/NVMe-TCP per the storage
     *  choice), creates + prewarms files, derives workload configs. */
    std::unique_ptr<Experiment> build();

  private:
    sim::RunContext &ctx_;
    app::MacroWorld::Config cfg_;
    bool haveHttp_ = false;
    HttpVariant http_ = HttpVariant::Https;
    bool haveKv_ = false;
    bool kvOffload_ = false;
    int fileCount_ = 0;
    uint64_t fileBytes_ = 0;
    int connections_ = 16;
};

class Experiment
{
  public:
    app::MacroWorld &world() { return *world_; }
    sim::Simulator &sim() { return world_->sim; }

    const std::vector<uint32_t> &fileIds() const { return fileIds_; }

    /** Server-side workload config for the chosen variant. */
    const app::HttpServerConfig &httpServerCfg() const { return httpServer_; }
    const app::KvServerConfig &kvServerCfg() const { return kvServer_; }

    /** Client config with connections/fileIds/keys pre-filled. */
    app::HttpClientConfig httpClientCfg() const;
    app::KvClientConfig kvClientCfg() const;

    /** Runs the simulation for @p t (warm-up, connection ramp). */
    void warm(sim::Tick t) { world_->sim.runFor(t); }

    /** Quick-mode-scaled measurement window (never zero). */
    sim::Tick scaledWindow(sim::Tick full) const;

    /**
     * Measurement-window bracketing on @p dut: snapshots busy cores,
     * calls @p start, runs the (already scaled) window, calls
     * @p stop; returns the average busy cores over the window.
     */
    double measure(core::Node &dut, sim::Tick window,
                   const std::function<void()> &start,
                   const std::function<void()> &stop);

    /** Same, with the server as the device under test. */
    double
    measure(sim::Tick window, const std::function<void()> &start,
            const std::function<void()> &stop)
    {
        return measure(world_->b, window, start, stop);
    }

  private:
    friend class ExperimentBuilder;
    Experiment() = default;

    std::unique_ptr<app::MacroWorld> world_;
    sim::RunContext *ctx_ = nullptr;
    std::vector<uint32_t> fileIds_;
    app::HttpServerConfig httpServer_;
    app::HttpClientConfig httpClient_;
    app::KvServerConfig kvServer_;
    app::KvClientConfig kvClient_;
    int connections_ = 16;
};

} // namespace anic::bench

#endif // ANIC_BENCH_EXPERIMENT_HH
