#include "experiment.hh"

namespace anic::bench {

const char *
variantName(HttpVariant v)
{
    switch (v) {
      case HttpVariant::Http:
        return "http";
      case HttpVariant::Https:
        return "https";
      case HttpVariant::Offload:
        return "offload";
      case HttpVariant::OffloadZc:
        return "offload+zc";
    }
    return "?";
}

ExperimentBuilder::ExperimentBuilder()
{
    cfg_.remoteStorage = false;
}

ExperimentBuilder &
ExperimentBuilder::run(sim::RunContext &ctx)
{
    ctx_ = &ctx;
    cfg_.bindRun(ctx);
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::serverCores(int n)
{
    cfg_.b.cores = n;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::generatorCores(int n)
{
    cfg_.a.cores = n;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::link(const net::Link::Config &lc)
{
    cfg_.link = lc;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::serverSndBuf(size_t bytes)
{
    cfg_.b.tcpCfg.sndBufSize = bytes;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::serverRcvBuf(size_t bytes)
{
    cfg_.b.tcpCfg.rcvBufSize = bytes;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::generatorSndBuf(size_t bytes)
{
    cfg_.a.tcpCfg.sndBufSize = bytes;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::generatorRcvBuf(size_t bytes)
{
    cfg_.a.tcpCfg.rcvBufSize = bytes;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::pageCache()
{
    cfg_.remoteStorage = false;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::remoteStorage(const StorageVariant &v)
{
    cfg_.remoteStorage = true;
    cfg_.storage.pageCacheBytes = 0; // C1: every request misses
    cfg_.storage.offloadEnabled = v.offload;
    cfg_.storage.offload.crcRx = v.offload;
    cfg_.storage.offload.copyRx = v.offload;
    cfg_.storage.tlsTransport = v.tls;
    cfg_.storage.tlsCfg.rxOffload = v.tlsOffload;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::httpVariant(HttpVariant v)
{
    haveHttp_ = true;
    http_ = v;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::kvOffload(bool offload)
{
    haveKv_ = true;
    kvOffload_ = offload;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::files(int count, uint64_t bytes)
{
    fileCount_ = count;
    fileBytes_ = bytes;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::connections(int n)
{
    connections_ = n;
    return *this;
}

std::unique_ptr<Experiment>
ExperimentBuilder::build()
{
    if (haveHttp_) {
        // HTTP clients only ever send small requests, but the send
        // ring allocates its full capacity on first use — at 128K
        // connections a 1 MB default would be ~128 GB.
        cfg_.a.tcpCfg.sndBufSize = 64 << 10;
    }

    auto ex = std::unique_ptr<Experiment>(new Experiment());
    ex->ctx_ = ctx_;
    ex->connections_ = connections_;
    ex->world_ = std::make_unique<app::MacroWorld>(cfg_);
    if (fileCount_ > 0)
        ex->fileIds_ = ex->world_->makeFiles(fileCount_, fileBytes_);
    if (!cfg_.remoteStorage)
        ex->world_->storage->prewarm();

    if (haveHttp_) {
        switch (http_) {
          case HttpVariant::Http:
            break;
          case HttpVariant::Https:
            ex->httpServer_.tlsEnabled = true;
            ex->httpClient_.tlsEnabled = true;
            break;
          case HttpVariant::Offload:
            ex->httpServer_.tlsEnabled = true;
            ex->httpServer_.tlsCfg.txOffload = true;
            ex->httpServer_.tlsCfg.rxOffload = true;
            ex->httpClient_.tlsEnabled = true;
            break;
          case HttpVariant::OffloadZc:
            ex->httpServer_.tlsEnabled = true;
            ex->httpServer_.tlsCfg.txOffload = true;
            ex->httpServer_.tlsCfg.rxOffload = true;
            ex->httpServer_.tlsCfg.zerocopySendfile = true;
            ex->httpClient_.tlsEnabled = true;
            break;
        }
    }
    if (haveKv_) {
        ex->kvServer_.tlsEnabled = true; // client-facing TLS
        ex->kvServer_.tlsCfg.txOffload = kvOffload_;
        ex->kvServer_.tlsCfg.rxOffload = kvOffload_;
        ex->kvServer_.tlsCfg.zerocopySendfile = kvOffload_;
        ex->kvClient_.tlsEnabled = true;
    }
    return ex;
}

app::HttpClientConfig
Experiment::httpClientCfg() const
{
    app::HttpClientConfig c = httpClient_;
    c.connections = connections_;
    c.fileIds = fileIds_;
    return c;
}

app::KvClientConfig
Experiment::kvClientCfg() const
{
    app::KvClientConfig c = kvClient_;
    c.connections = connections_;
    c.keyCount = static_cast<uint32_t>(fileIds_.size());
    return c;
}

sim::Tick
Experiment::scaledWindow(sim::Tick full) const
{
    if (ctx_ != nullptr)
        return ctx_->scaleWindow(full);
    return full == 0 ? 0 : (full < 1 ? 1 : full);
}

double
Experiment::measure(core::Node &dut, sim::Tick window,
                    const std::function<void()> &start,
                    const std::function<void()> &stop)
{
    std::vector<sim::Tick> busy = dut.busySnapshot();
    if (start)
        start();
    world_->sim.runFor(window);
    if (stop)
        stop();
    return dut.busyCores(busy, window);
}

} // namespace anic::bench
