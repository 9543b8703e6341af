/**
 * @file
 * Redis-on-Flash-like key-value store with an OffloadDB-style backend
 * (paper §6.2): keys index values stored as extents on the remote
 * NVMe-TCP device, keeping data, keys, and metadata separate so the
 * placement offload applies. Client is memtier-like (GET workload,
 * fixed concurrency per connection). Drives Figure 15.
 *
 * Protocol: "GET <id>\r\n" -> "VALUE <len>\r\n" + <len> bytes.
 */

#ifndef ANIC_APP_KV_HH
#define ANIC_APP_KV_HH

#include "app/storage_service.hh"
#include "sim/registry.hh"
#include "util/rand.hh"

namespace anic::app {

struct KvServerConfig
{
    bool tlsEnabled = false; ///< client-facing transport
    tls::TlsConfig tlsCfg;
};

struct KvServerStats
{
    sim::Counter gets;
    sim::Counter errors;
    sim::Counter bytesSent;
};

/** Values are files in the FileStore (the OffloadDB extent map). */
class KvServer
{
  public:
    KvServer(core::Node &node, uint16_t port, StorageService &storage,
             KvServerConfig cfg);

    const KvServerStats &stats() const { return stats_; }

  private:
    struct Conn
    {
        KvServer *srv = nullptr;
        std::unique_ptr<tls::TlsSocket> tlsSock;
        tcp::StreamSocket *sock = nullptr;
        std::string reqBuf;
        Bytes hdr;
        size_t hdrSent = 0;
        const host::File *value = nullptr;
        uint64_t bodySent = 0;
        bool responding = false;

        void onReadable();
        void maybeServe();
        void pump();
    };

    void accept(tcp::TcpConnection &c);

    core::Node &node_;
    StorageService &storage_;
    KvServerConfig cfg_;
    KvServerStats stats_;
    sim::StatsScope scope_;  ///< "<node>.kv"
    tls::TlsStats tlsAgg_;   ///< across accepted TLS sockets
    std::vector<std::unique_ptr<Conn>> conns_;
};

struct KvClientConfig
{
    int connections = 8;
    bool tlsEnabled = false;
    tls::TlsConfig tlsCfg;
    uint32_t keyCount = 64;
    uint64_t seed = 0x9e7;
    bool verifyContent = true;
};

struct KvClientStats
{
    sim::Counter responses;
    sim::Counter bodyBytes;
    sim::Counter corruptions;
    sim::Distribution latencyUs;
};

class KvClient
{
  public:
    KvClient(core::Node &node, net::IpAddr localIp, net::IpAddr serverIp,
             uint16_t port, const host::FileStore &values,
             KvClientConfig cfg);

    void start();
    void measureStart();
    void measureStop();

    const KvClientStats &stats() const { return stats_; }
    const sim::RateMeter &meter() const { return meter_; }
    uint64_t windowResponses() const { return windowResponses_; }

  private:
    struct Conn
    {
        KvClient *cli = nullptr;
        std::unique_ptr<tls::TlsSocket> tlsSock;
        tcp::StreamSocket *sock = nullptr;
        std::string hdrBuf;
        bool awaitingHeader = true;
        uint64_t bodyRemaining = 0;
        uint64_t bodyOffset = 0;
        const host::File *value = nullptr;
        sim::Tick requestStart = 0;

        void sendRequest();
        void onReadable();
    };

    core::Node &node_;
    net::IpAddr localIp_;
    net::IpAddr serverIp_;
    uint16_t port_;
    const host::FileStore &values_;
    KvClientConfig cfg_;
    Rng rng_;
    std::vector<std::unique_ptr<Conn>> conns_;

    KvClientStats stats_;
    sim::RateMeter meter_;
    sim::StatsScope scope_;  ///< "<node>.kvClient"
    tls::TlsStats tlsAgg_;   ///< across client TLS sockets
    bool measuring_ = false;
    uint64_t windowResponses_ = 0;
};

} // namespace anic::app

#endif // ANIC_APP_KV_HH
