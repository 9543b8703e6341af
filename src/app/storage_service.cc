#include "app/storage_service.hh"

#include "util/panic.hh"

namespace anic::app {

StorageService::StorageService(core::Node &node, host::FileStore &files,
                               Config cfg)
    : node_(node), files_(files), cfg_(std::move(cfg)),
      cache_(cfg_.pageCacheBytes), scope_(node.subScope("storage"))
{
    scope_.link("cacheHits", hits_);
    scope_.link("cacheMisses", misses_);
    scope_.link("remoteBytesRead", remoteBytes_);
    scope_.link("nvme.readsCompleted", nvmeAgg_.readsCompleted);
    scope_.link("nvme.writesCompleted", nvmeAgg_.writesCompleted);
    scope_.link("nvme.failures", nvmeAgg_.failures);
    scope_.link("nvme.dataPdusRx", nvmeAgg_.dataPdusRx);
    scope_.link("nvme.crcSkipped", nvmeAgg_.crcSkipped);
    scope_.link("nvme.crcSoftware", nvmeAgg_.crcSoftware);
    scope_.link("nvme.crcFailures", nvmeAgg_.crcFailures);
    scope_.link("nvme.bytesPlaced", nvmeAgg_.bytesPlaced);
    scope_.link("nvme.bytesCopied", nvmeAgg_.bytesCopied);
    scope_.link("nvme.resyncRequests", nvmeAgg_.resyncRequests);
    scope_.link("nvme.resyncConfirmed", nvmeAgg_.resyncConfirmed);
    tls::linkTlsStats(scope_, "tls", tlsAgg_);
}

void
StorageService::prewarm()
{
    for (size_t i = 0; i < files_.count(); i++) {
        const host::File &f = files_.get(static_cast<uint32_t>(i));
        cache_.insert(f.id, 0, f.size);
    }
}

void
StorageService::connectRemote(net::IpAddr localIp, net::IpAddr targetIp,
                              uint16_t port)
{
    remotes_.resize(node_.coreCount());
    for (int i = 0; i < node_.coreCount(); i++) {
        Remote &r = remotes_[i];
        tcp::TcpConnection &c = node_.stack().connect(
            localIp, targetIp, port, node_.tcpConfig(), &node_.core(i));
        r.conn = &c;
        c.setOnConnected([this, &r, &c] {
            if (cfg_.tlsTransport) {
                tls::TlsConfig tcfg = cfg_.tlsCfg;
                tcfg.aggregate = &tlsAgg_;
                r.tls = std::make_unique<tls::TlsSocket>(
                    c, tls::SessionKeys::derive(kTlsSecret, true), tcfg);
                r.tls->enableOffload(node_.device());
                r.queue = std::make_unique<nvmetcp::NvmeHostQueue>(
                    *r.tls, cfg_.wire, cfg_.offload, &nvmeAgg_);
                if (cfg_.offloadEnabled && tcfg.rxOffload)
                    r.queue->enableOffloadOverTls(*r.tls);
            } else {
                r.queue = std::make_unique<nvmetcp::NvmeHostQueue>(
                    c, cfg_.wire, cfg_.offload, &nvmeAgg_);
                if (cfg_.offloadEnabled)
                    r.queue->enableOffload(node_.device(), c);
            }
            r.ready = true;
        });
    }
}

bool
StorageService::ready() const
{
    if (remotes_.empty())
        return true;
    for (const Remote &r : remotes_) {
        if (!r.ready)
            return false;
    }
    return true;
}

nvmetcp::NvmeHostQueue *
StorageService::queue(int core)
{
    if (remotes_.empty())
        return nullptr;
    return remotes_[static_cast<size_t>(core) % remotes_.size()].queue.get();
}

void
StorageService::fetch(const host::File &file, host::Core &core,
                      std::function<void(bool ok)> done)
{
    const host::CycleModel &m = core.model();
    core.charge(m.pageCachePer4k *
                static_cast<double>(file.size / host::PageCache::kPageSize + 1));
    if (cache_.contains(file.id, 0, file.size)) {
        hits_++;
        cache_.touch(file.id, 0, file.size);
        done(true);
        return;
    }
    misses_++;

    nvmetcp::NvmeHostQueue *q = queue(core.id());
    if (q == nullptr) {
        // No backing store: treat as resident (pure page-cache mode).
        cache_.insert(file.id, 0, file.size);
        done(true);
        return;
    }
    remoteBytes_ += file.size;
    q->read(file.lba, static_cast<uint32_t>(file.size),
            [this, &file, done = std::move(done)](
                bool ok, host::BlockBufferPtr) {
                if (ok)
                    cache_.insert(file.id, 0, file.size);
                done(ok);
            });
}

} // namespace anic::app
