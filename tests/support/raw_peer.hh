/**
 * @file
 * Crafted-PDU harness for the storage endpoints: a real endpoint on
 * one Testbed node talks to a raw TCP peer on the other, which drains
 * what it receives and sends whatever bytes a test builds.
 */

#ifndef ANIC_TESTS_SUPPORT_RAW_PEER_HH
#define ANIC_TESTS_SUPPORT_RAW_PEER_HH

#include <functional>

#include "core/testbed.hh"
#include "util/panic.hh"

namespace anic::testing {

struct RawPeer
{
    tcp::TcpConnection *conn = nullptr;
    uint64_t received = 0;

    void
    attach(tcp::TcpConnection &c)
    {
        conn = &c;
        c.setOnReadable([this] {
            while (conn->readable())
                received += conn->pop().data.size();
        });
    }

    /** Sends @p bytes from the peer's core. */
    void
    send(Bytes bytes)
    {
        conn->core().post([this, bytes = std::move(bytes)] {
            ANIC_ASSERT(conn->send(bytes) == bytes.size());
        });
    }
};

/**
 * Connects node b to node a on @p port. The raw peer takes the
 * listening end on a if @p peerOnA, else the connecting end on b;
 * @p endpoint gets the other end once it is up.
 */
inline void
connectRawPeer(core::Testbed &w, uint16_t port, bool peerOnA, RawPeer &peer,
               std::function<void(tcp::TcpConnection &)> endpoint)
{
    w.a.stack().listen(port, w.a.tcpConfig(),
                       [&peer, peerOnA, endpoint](tcp::TcpConnection &c) {
                           if (peerOnA)
                               peer.attach(c);
                           else
                               endpoint(c);
                       });
    tcp::TcpConnection &c = w.b.stack().connect(
        core::Testbed::kIpB, core::Testbed::kIpA, port, w.b.tcpConfig());
    c.setOnConnected([&peer, &c, peerOnA, endpoint] {
        if (peerOnA)
            endpoint(c);
        else
            peer.attach(c);
    });
    w.sim.runUntil(10 * sim::kMillisecond);
    ANIC_ASSERT(peer.conn != nullptr, "raw peer setup failed");
}

} // namespace anic::testing

#endif // ANIC_TESTS_SUPPORT_RAW_PEER_HH
