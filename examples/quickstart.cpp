/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 * Builds two hosts connected back-to-back by a lossy 100 Gbps link,
 * opens a TLS connection with the autonomous NIC offload enabled on
 * both sides (transmit crypto at the client NIC, receive crypto at
 * the server NIC), streams 8 MiB of data, and prints what the NIC
 * and the resynchronization machinery did.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "experiment.hh"
#include "bench_json.hh"

using namespace anic;

int
main()
{
    // 1. A world: client host a ("gen"), server host b ("srv"),
    //    connected by a link with 1% packet loss toward the server.
    net::Link::Config link;
    link.dir[0].lossRate = 0.01;
    auto ex = bench::ExperimentBuilder()
                  .pageCache() // no storage needed here
                  .link(link)
                  .build();
    app::MacroWorld &w = ex->world();

    // 2. Server: accept one TLS connection with rx offload and verify
    //    the received plaintext.
    constexpr uint64_t kSecret = 42;   // stands in for the handshake
    constexpr uint64_t kDataSeed = 7;  // deterministic payload
    constexpr uint64_t kTotal = 8 << 20;

    std::unique_ptr<tls::TlsSocket> serverSock;
    uint64_t received = 0;
    bool corrupt = false;
    w.b.stack().listen(443, w.b.tcpConfig(), [&](tcp::TcpConnection &c) {
        tls::TlsConfig scfg;
        scfg.rxOffload = true; // NIC decrypts + verifies in-sequence
        serverSock = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kSecret, false), scfg);
        serverSock->enableOffload(w.b.device()); // l5o_create
        serverSock->setOnReadable([&] {
            while (serverSock->readable()) {
                tcp::RxSegment seg = serverSock->pop();
                if (!checkDeterministic(seg.data, kDataSeed, seg.streamOff))
                    corrupt = true;
                received += seg.data.size();
            }
        });
    });

    // 3. Client: connect, enable tx offload (the NIC encrypts and
    //    fills ICVs; retransmissions recover context via
    //    l5o_get_tx_msgstate), and push the stream.
    std::unique_ptr<tls::TlsSocket> clientSock;
    uint64_t sent = 0;
    tcp::TcpConnection &conn = w.a.stack().connect(
        core::Testbed::kIpA, core::Testbed::kIpB, 443,
        w.a.tcpConfig());
    conn.setOnConnected([&] {
        tls::TlsConfig ccfg;
        ccfg.txOffload = true;
        clientSock = std::make_unique<tls::TlsSocket>(
            conn, tls::SessionKeys::derive(kSecret, true), ccfg);
        clientSock->enableOffload(w.a.device());
        auto pump = [&] {
            while (sent < kTotal) {
                size_t n = std::min<uint64_t>(kTotal - sent, 65536);
                Bytes chunk(n);
                fillDeterministic(chunk, kDataSeed, sent);
                size_t acc = clientSock->send(chunk);
                sent += acc;
                if (acc < n)
                    break;
            }
        };
        clientSock->setOnWritable(pump);
        pump();
    });

    // 4. Run the simulation until the stream completes.
    w.sim.runUntil(5 * sim::kSecond);

    std::printf("delivered %llu / %llu bytes, %s\n",
                (unsigned long long)received, (unsigned long long)kTotal,
                corrupt ? "CORRUPT" : "intact and authenticated");

    const tls::TlsStats &rx = serverSock->stats();
    std::printf("server records: %llu total, %llu fully offloaded, "
                "%llu partial, %llu software\n",
                (unsigned long long)rx.recordsRx,
                (unsigned long long)rx.rxFullyOffloaded,
                (unsigned long long)rx.rxPartiallyOffloaded,
                (unsigned long long)rx.rxNotOffloaded);

    const nic::FsmStats *fsm = serverSock->rxFsmStats();
    std::printf("NIC resync: %llu speculations, %llu confirmed, "
                "%llu mid-record resumes\n",
                (unsigned long long)fsm->resyncRequests,
                (unsigned long long)fsm->resyncConfirmed,
                (unsigned long long)fsm->midMsgResumes);
    std::printf("client NIC: %llu packets encrypted inline, %llu tx "
                "context recoveries\n",
                (unsigned long long)w.a.nicDev().stats().txOffloadedPkts,
                (unsigned long long)w.a.nicDev().stats().txResyncs);
    anic::bench::emitRegistrySnapshot("quickstart");
    return corrupt || received != kTotal ? 1 : 0;
}
