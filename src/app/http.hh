/**
 * @file
 * HTTP substrate: an nginx-like static-file server and a wrk-like
 * keep-alive client, over plain TCP or TLS (software or offloaded) —
 * the macrobenchmark pair behind Figures 12-14 and 19.
 *
 * The protocol is minimal HTTP/1.1: "GET /<fileId> HTTP/1.1" and a
 * "200 OK" response with Content-Length; bodies are served with
 * sendfile semantics from the page cache / remote NVMe-TCP device.
 */

#ifndef ANIC_APP_HTTP_HH
#define ANIC_APP_HTTP_HH

#include "app/storage_service.hh"
#include "sim/registry.hh"
#include "util/rand.hh"

namespace anic::app {

struct HttpServerConfig
{
    bool tlsEnabled = false;
    tls::TlsConfig tlsCfg;
};

struct HttpServerStats
{
    sim::Counter requests;
    sim::Counter bytesSent;
    sim::Counter errors;
};

class HttpServer
{
  public:
    HttpServer(core::Node &node, uint16_t port, StorageService &storage,
               HttpServerConfig cfg);

    const HttpServerStats &stats() const { return stats_; }

  private:
    struct Conn
    {
        HttpServer *srv = nullptr;
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tlsSock;
        tcp::StreamSocket *sock = nullptr;

        std::string reqBuf;
        Bytes hdr;
        size_t hdrSent = 0;
        const host::File *file = nullptr;
        uint64_t bodySent = 0;
        bool responding = false;

        void onReadable();
        void maybeStartRequest();
        void pump();
    };

    void accept(tcp::TcpConnection &c);

    core::Node &node_;
    StorageService &storage_;
    HttpServerConfig cfg_;
    HttpServerStats stats_;
    sim::StatsScope scope_;  ///< "<node>.http"
    tls::TlsStats tlsAgg_;   ///< across accepted TLS sockets
    std::vector<std::unique_ptr<Conn>> conns_;
};

struct HttpClientConfig
{
    int connections = 16;
    bool tlsEnabled = false;
    tls::TlsConfig tlsCfg; ///< client side (usually software crypto)
    std::vector<uint32_t> fileIds; ///< request targets (uniform random)
    uint64_t seed = 99;
    bool verifyContent = true;
    /** Connection-establishment ramp: opening tens of thousands of
     *  connections in one instant overflows SYN queues everywhere
     *  (real load generators ramp too). */
    sim::Tick staggerPerConn = 500 * sim::kNanosecond;
};

struct HttpClientStats
{
    sim::Counter responses;
    sim::Counter bodyBytes;
    sim::Counter corruptions;
    sim::Distribution latencyUs; ///< per-request latency (measured window)
};

class HttpClient
{
  public:
    HttpClient(core::Node &node, net::IpAddr localIp, net::IpAddr serverIp,
               uint16_t port, const host::FileStore &files,
               HttpClientConfig cfg);

    /** Opens the connections and starts the request loops. */
    void start();

    /** Measurement window control (excludes warm-up). */
    void measureStart();
    void measureStop();

    const HttpClientStats &stats() const { return stats_; }
    const sim::RateMeter &bodyMeter() const { return meter_; }
    uint64_t windowResponses() const { return windowResponses_; }
    int connected() const { return connected_; }

  private:
    struct Conn;
    void openConnection(Conn &conn);

    struct Conn
    {
        HttpClient *cli = nullptr;
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tlsSock;
        tcp::StreamSocket *sock = nullptr;

        std::string hdrBuf;
        bool awaitingHeader = true;
        uint64_t bodyRemaining = 0;
        uint64_t bodyOffset = 0;
        const host::File *file = nullptr;
        sim::Tick requestStart = 0;

        void sendRequest();
        void onReadable();
    };

    core::Node &node_;
    net::IpAddr localIp_;
    net::IpAddr serverIp_;
    uint16_t port_;
    const host::FileStore &files_;
    HttpClientConfig cfg_;
    Rng rng_;
    std::vector<std::unique_ptr<Conn>> conns_;
    int connected_ = 0;

    HttpClientStats stats_;
    sim::RateMeter meter_;
    sim::StatsScope scope_;  ///< "<node>.httpClient"
    tls::TlsStats tlsAgg_;   ///< across client TLS sockets
    bool measuring_ = false;
    uint64_t windowResponses_ = 0;
};

} // namespace anic::app

#endif // ANIC_APP_HTTP_HH
