/**
 * @file
 * Node: one simulated host — cores, TCP stack, and one offload-aware
 * NIC per attached link port. This is the top-level wiring benches,
 * examples and integration tests instantiate.
 */

#ifndef ANIC_CORE_NODE_HH
#define ANIC_CORE_NODE_HH

#include <memory>
#include <vector>

#include "core/offload_device.hh"
#include "host/storage.hh"
#include "sim/run_context.hh"

namespace anic::core {

class Node
{
  public:
    struct Config
    {
        int cores = 1;
        host::CycleModel model;
        nic::Nic::Config nicCfg;
        uint64_t stackSeed = 0x1234;
        tcp::TcpConnection::Config tcpCfg;

        /** Stable instance name for the stats registry ("srv");
         *  empty -> a unique "node", "node2", ... is chosen. Cores
         *  become <name>.cpu<i>, the stack <name>.tcp, and port @p i's
         *  NIC <name>.nic<i>. */
        std::string name;
        /** Registry to publish under (required; the run's). */
        sim::StatsRegistry *registry = nullptr;
        /** Trace ring for this node's stack and NICs (required; the
         *  run's). */
        sim::TraceRing *trace = nullptr;
        /** Packet arena for this node's stack (required). core::Testbed
         *  injects the pool it owns, so packet recycling stays
         *  per-world. */
        net::PacketPool *pool = nullptr;

        /** Binds registry + trace to @p run's per-run instances. */
        void
        bindRun(sim::RunContext &run)
        {
            registry = &run.registry();
            trace = &run.trace();
        }
    };

    Node(sim::Simulator &sim, Config cfg);

    /** Creates a NIC + driver on @p linkPort of @p link, bound to @p ip. */
    OffloadDevice &attachPort(net::Link &link, int linkPort, net::IpAddr ip);

    sim::Simulator &sim() { return sim_; }
    tcp::TcpStack &stack() { return *stack_; }
    host::Core &core(int i) { return *cores_.at(i); }
    int coreCount() const { return static_cast<int>(cores_.size()); }
    const host::CycleModel &model() const { return cfg_.model; }
    const tcp::TcpConnection::Config &tcpConfig() const { return cfg_.tcpCfg; }
    OffloadDevice &device(int i = 0) { return *ports_.at(i).dev; }
    nic::Nic &nicDev(int i = 0) { return *ports_.at(i).nic; }
    size_t portCount() const { return ports_.size(); }

    /** Registry instance name ("node", "srv", ...). */
    const std::string &name() const { return name_; }
    /** Registry this node publishes under. */
    sim::StatsRegistry &registry() { return *scope_.registry(); }
    /** Child scope under this node's name, for co-located components
     *  (apps, storage services) to publish their own stats. */
    sim::StatsScope subScope(const std::string &leaf) { return scope_.child(leaf); }

    /** Snapshot of per-core busy ticks (for windowed utilization). */
    std::vector<sim::Tick> busySnapshot() const;

    /** Average number of busy cores over a window since @p snap. */
    double busyCores(const std::vector<sim::Tick> &snap,
                     sim::Tick window) const;

    /** Total busy cycles across cores since @p snap. */
    double busyCyclesSince(const std::vector<double> &snap) const;
    std::vector<double> cycleSnapshot() const;

  private:
    struct Port
    {
        std::unique_ptr<nic::Nic> nic;
        std::unique_ptr<OffloadDevice> dev;
    };

    sim::Simulator &sim_;
    Config cfg_;
    std::string name_;
    sim::StatsScope scope_;
    std::vector<std::unique_ptr<host::Core>> cores_;
    std::unique_ptr<tcp::TcpStack> stack_;
    std::vector<Port> ports_;
};

} // namespace anic::core

#endif // ANIC_CORE_NODE_HH
