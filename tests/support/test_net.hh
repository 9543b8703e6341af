/**
 * @file
 * Shared test harness: a plain (offload-less) network device that
 * serializes packets at a line rate onto a Link and delivers received
 * packets to a TCP stack on the steered core, plus a two-host world
 * fixture used by the TCP tests.
 */

#ifndef ANIC_TESTS_SUPPORT_TEST_NET_HH
#define ANIC_TESTS_SUPPORT_TEST_NET_HH

#include <deque>
#include <memory>

#include "host/core.hh"
#include "net/link.hh"
#include "tcp/net_device.hh"
#include "tcp/tcp_stack.hh"

namespace anic::testing {

/** Offload-less NIC stand-in with a bounded tx ring and line rate. */
class SimpleDevice : public tcp::NetDevice
{
  public:
    SimpleDevice(sim::Simulator &sim, net::Link &link, int port,
                 net::IpAddr ip, double gbps, size_t txRing = 4096)
        : sim_(sim), link_(link), port_(port), ip_(ip),
          psPerByte_(8000.0 / gbps), txRingCap_(txRing)
    {
        link_.attach(port, [this](net::PacketPtr pkt) { onWire(pkt); });
    }

    void attachStack(tcp::TcpStack *stack) { stack_ = stack; }

    bool
    transmit(net::PacketPtr pkt) override
    {
        if (txq_.size() >= txRingCap_)
            return false;
        txq_.push_back(std::move(pkt));
        pump();
        return true;
    }

    void setOnTxSpace(std::function<void()> cb) override { onTxSpace_ = std::move(cb); }
    net::IpAddr ipAddr() const override { return ip_; }

  private:
    void
    pump()
    {
        if (pumping_ || txq_.empty())
            return;
        pumping_ = true;
        sim::Tick start = std::max(sim_.now(), lineFreeAt_);
        sim_.scheduleAt(start, [this] { drainOne(); });
    }

    void
    drainOne()
    {
        pumping_ = false;
        if (txq_.empty())
            return;
        net::PacketPtr pkt = std::move(txq_.front());
        txq_.pop_front();
        sim::Tick ser = static_cast<sim::Tick>(
            static_cast<double>(pkt->wireSize()) * psPerByte_);
        lineFreeAt_ = std::max(sim_.now(), lineFreeAt_) + ser;
        link_.transmit(port_, std::move(pkt));
        bool had_backlog = txq_.size() + 1 >= txRingCap_;
        if (had_backlog && onTxSpace_)
            onTxSpace_();
        if (!txq_.empty()) {
            pumping_ = true;
            sim_.scheduleAt(lineFreeAt_, [this] { drainOne(); });
        }
    }

    void
    onWire(net::PacketPtr pkt)
    {
        if (stack_ == nullptr)
            return;
        host::Core &core = stack_->steer(pkt->flow().reversed());
        core.post([this, pkt, &core] {
            // Per-packet interrupts: entry/exit plus descriptor
            // handling, as on the OffloadDevice path.
            core.charge(core.model().interruptCost +
                        core.model().driverRxPerPacket);
            stack_->input(pkt);
        });
    }

    sim::Simulator &sim_;
    net::Link &link_;
    int port_;
    net::IpAddr ip_;
    double psPerByte_;
    size_t txRingCap_;
    std::deque<net::PacketPtr> txq_;
    bool pumping_ = false;
    sim::Tick lineFreeAt_ = 0;
    tcp::TcpStack *stack_ = nullptr;
    std::function<void()> onTxSpace_;
};

/** Two hosts connected back-to-back, one core each by default. */
struct TwoHostWorld
{
    static constexpr net::IpAddr kIpA = net::makeIp(10, 0, 0, 1);
    static constexpr net::IpAddr kIpB = net::makeIp(10, 0, 0, 2);

    explicit TwoHostWorld(net::Link::Config linkCfg = {}, int coresPerHost = 1,
                          double gbps = 100.0)
        : link(sim, linkCfg)
    {
        for (int i = 0; i < coresPerHost; i++) {
            coresA.push_back(std::make_unique<host::Core>(sim, model, i));
            coresB.push_back(std::make_unique<host::Core>(sim, model, i));
        }
        devA = std::make_unique<SimpleDevice>(sim, link, 0, kIpA, gbps);
        devB = std::make_unique<SimpleDevice>(sim, link, 1, kIpB, gbps);

        auto raw = [](auto &v) {
            std::vector<host::Core *> out;
            for (auto &c : v)
                out.push_back(c.get());
            return out;
        };
        stackA = std::make_unique<tcp::TcpStack>(sim, raw(coresA), 1);
        stackB = std::make_unique<tcp::TcpStack>(sim, raw(coresB), 2);
        stackA->addDevice(devA.get());
        stackB->addDevice(devB.get());
        devA->attachStack(stackA.get());
        devB->attachStack(stackB.get());
    }

    sim::Simulator sim;
    host::CycleModel model;
    net::Link link;
    std::vector<std::unique_ptr<host::Core>> coresA;
    std::vector<std::unique_ptr<host::Core>> coresB;
    std::unique_ptr<SimpleDevice> devA;
    std::unique_ptr<SimpleDevice> devB;
    std::unique_ptr<tcp::TcpStack> stackA;
    std::unique_ptr<tcp::TcpStack> stackB;
};

} // namespace anic::testing

#endif // ANIC_TESTS_SUPPORT_TEST_NET_HH
