/**
 * @file
 * iperf-like bulk streamer over TLS (or plain TCP): one sender pushes
 * a continuous byte stream in fixed-size application messages; the
 * receiver drains and counts. Drives Figures 11 and 16-18.
 */

#ifndef ANIC_APP_IPERF_HH
#define ANIC_APP_IPERF_HH

#include "core/node.hh"
#include "sim/registry.hh"
#include "tls/ktls.hh"

namespace anic::app {

struct IperfConfig
{
    uint16_t port = 5201;
    int streams = 1;
    size_t sendChunk = 256 << 10; ///< per-send() message (paper: 256 KiB)
    bool tlsEnabled = true;
    tls::TlsConfig clientTls; ///< sender-side config (tx offload knob)
    tls::TlsConfig serverTls; ///< receiver-side config (rx offload knob)
    bool verifyContent = false; ///< integrity check at the receiver
};

/** One measurement's worth of sender->receiver streams. */
class IperfRun
{
  public:
    IperfRun(core::Node &sender, net::IpAddr senderIp, core::Node &receiver,
             net::IpAddr receiverIp, IperfConfig cfg);

    void start();
    void measureStart();
    void measureStop();

    /** Application payload goodput over the window. */
    const sim::RateMeter &meter() const { return meter_; }

    uint64_t bytesReceived() const { return bytesReceived_; }
    uint64_t corruptions() const { return corruptions_; }
    int streamsConnected() const { return connected_; }

    /** Aggregated receiver-side TLS stats (record classification). */
    tls::TlsStats receiverTlsStats() const;
    tls::TlsStats senderTlsStats() const;

  private:
    struct Stream
    {
        IperfRun *run = nullptr;
        uint64_t seed = 0;
        tcp::TcpConnection *rawTx = nullptr;
        std::unique_ptr<tls::TlsSocket> txTls;
        tcp::StreamSocket *tx = nullptr;
        std::unique_ptr<tls::TlsSocket> rxTls;
        tcp::StreamSocket *rx = nullptr;
        uint64_t sent = 0;
        uint64_t received = 0;

        void pumpSend();
    };

    core::Node &sender_;
    net::IpAddr senderIp_;
    core::Node &receiver_;
    net::IpAddr receiverIp_;
    IperfConfig cfg_;
    std::vector<std::unique_ptr<Stream>> streams_;
    int connected_ = 0;
    int acceptIdx_ = 0;

    sim::RateMeter meter_;
    sim::Counter bytesReceived_;
    sim::Counter corruptions_;
    sim::StatsScope scope_;   ///< "<receiver>.iperf"
    sim::StatsScope txScope_; ///< "<sender>.iperfTx"
    tls::TlsStats rxTlsAgg_;  ///< across receiver-side TLS sockets
    tls::TlsStats txTlsAgg_;  ///< across sender-side TLS sockets
};

} // namespace anic::app

#endif // ANIC_APP_IPERF_HH
