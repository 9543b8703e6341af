/**
 * @file
 * Server-side storage service: the page cache plus optional remote
 * NVMe-TCP backing, as nginx-on-ext4-on-NVMe-TCP sees it.
 *
 * Configuration C1 (paper §6.3): tiny cache, every request misses and
 * reads the whole file from the remote drive (ext4 read-ahead is set
 * to the file size). Configuration C2: cache pre-warmed, no I/O.
 */

#ifndef ANIC_APP_STORAGE_SERVICE_HH
#define ANIC_APP_STORAGE_SERVICE_HH

#include "core/node.hh"
#include "nvmetcp/host_queue.hh"

namespace anic::app {

class StorageService
{
  public:
    struct Config
    {
        size_t pageCacheBytes = 64ull << 30; ///< C2 default: everything fits
        nvmetcp::WireConfig wire;
        nvmetcp::NvmeOffloadConfig offload;
        bool offloadEnabled = false; ///< request NIC offloads on queues
        bool tlsTransport = false;   ///< NVMe-TLS composition
        tls::TlsConfig tlsCfg;
    };

    /** NVMe-TLS session-key secret the queues and the target derive
     *  from (stands in for the handshake). */
    static constexpr uint64_t kTlsSecret = 0x4242;

    StorageService(core::Node &node, host::FileStore &files, Config cfg);

    /** Pre-populates the page cache with every file (C2). */
    void prewarm();

    /**
     * Connects one NVMe-TCP queue per core to the remote target
     * (paper: "each NVMe submission and completion queue pair maps to
     * a TCP socket"). Run the simulator until ready() afterwards.
     */
    void connectRemote(net::IpAddr localIp, net::IpAddr targetIp,
                       uint16_t port);

    bool ready() const;

    /**
     * Makes @p file resident (cache hit or remote read + insert) and
     * calls @p done. Must be invoked from a work item on @p core.
     */
    void fetch(const host::File &file, host::Core &core,
               std::function<void(bool ok)> done);

    uint64_t cacheHits() const { return hits_; }
    uint64_t cacheMisses() const { return misses_; }
    uint64_t remoteBytesRead() const { return remoteBytes_; }

    nvmetcp::NvmeHostQueue *queue(int core);
    host::FileStore &files() { return files_; }

  private:
    struct Remote
    {
        tcp::TcpConnection *conn = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        std::unique_ptr<nvmetcp::NvmeHostQueue> queue;
        bool ready = false;
    };

    core::Node &node_;
    host::FileStore &files_;
    Config cfg_;
    host::PageCache cache_;
    std::vector<Remote> remotes_; // one per core
    sim::StatsScope scope_;       ///< "<node>.storage"
    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter remoteBytes_;
    nvmetcp::NvmeHostStats nvmeAgg_; ///< across the per-core queues
    tls::TlsStats tlsAgg_;           ///< across the NVMe-TLS transports
};

} // namespace anic::app

#endif // ANIC_APP_STORAGE_SERVICE_HH
