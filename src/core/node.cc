#include "core/node.hh"

#include "util/panic.hh"

namespace anic::core {

Node::Node(sim::Simulator &sim, Config cfg) : sim_(sim), cfg_(std::move(cfg))
{
    sim::StatsRegistry &reg = required(cfg_.registry, "Node::Config::registry");
    required(cfg_.trace, "Node::Config::trace");
    required(cfg_.pool, "Node::Config::pool");
    name_ = reg.uniqueName(cfg_.name.empty() ? "node" : cfg_.name);
    scope_ = sim::StatsScope(reg, name_);
    for (int i = 0; i < cfg_.cores; i++) {
        cores_.push_back(std::make_unique<host::Core>(
            sim_, cfg_.model, i, scope_.child("cpu" + std::to_string(i))));
    }
    std::vector<host::Core *> raw;
    for (auto &c : cores_)
        raw.push_back(c.get());
    stack_ = std::make_unique<tcp::TcpStack>(sim_, raw, cfg_.stackSeed,
                                             cfg_.pool, cfg_.trace,
                                             scope_.child("tcp"));
}

OffloadDevice &
Node::attachPort(net::Link &link, int linkPort, net::IpAddr ip)
{
    Port p;
    nic::Nic::Config nicCfg = cfg_.nicCfg;
    // numQueues 0 = auto: one TX/RX queue pair per host core, so every
    // core owns a pair (resolved per node; worlds share one nicCfg
    // between hosts with different core counts).
    if (nicCfg.numQueues == 0)
        nicCfg.numQueues = cfg_.cores;
    nicCfg.name = name_ + ".nic" + std::to_string(ports_.size());
    nicCfg.registry = scope_.registry();
    nicCfg.trace = cfg_.trace;
    p.nic = std::make_unique<nic::Nic>(sim_, link, linkPort, nicCfg);
    p.dev = std::make_unique<OffloadDevice>(sim_, *p.nic, ip);
    p.dev->attachStack(stack_.get());
    stack_->addDevice(p.dev.get());
    ports_.push_back(std::move(p));
    return *ports_.back().dev;
}

std::vector<sim::Tick>
Node::busySnapshot() const
{
    std::vector<sim::Tick> out;
    for (const auto &c : cores_)
        out.push_back(c->totalBusyTicks());
    return out;
}

double
Node::busyCores(const std::vector<sim::Tick> &snap, sim::Tick window) const
{
    if (window == 0)
        return 0.0;
    double total = 0.0;
    for (size_t i = 0; i < cores_.size(); i++) {
        sim::Tick base = i < snap.size() ? snap[i] : 0;
        total += static_cast<double>(cores_[i]->totalBusyTicks() - base);
    }
    return total / static_cast<double>(window);
}

std::vector<double>
Node::cycleSnapshot() const
{
    std::vector<double> out;
    for (const auto &c : cores_)
        out.push_back(c->totalBusyCycles());
    return out;
}

double
Node::busyCyclesSince(const std::vector<double> &snap) const
{
    double total = 0.0;
    for (size_t i = 0; i < cores_.size(); i++) {
        double base = i < snap.size() ? snap[i] : 0.0;
        total += cores_[i]->totalBusyCycles() - base;
    }
    return total;
}

} // namespace anic::core
