/**
 * @file
 * Testbed: the paper's two hosts back to back over one link (§2), the
 * one type every two-node world builds on. Node a sits on link port 0
 * at 10.0.0.1, node b on port 1 at 10.0.0.2. The testbed owns the
 * packet pool; the sim::RunContext it runs under owns the registry and
 * the trace ring both nodes publish to.
 */

#ifndef ANIC_CORE_TESTBED_HH
#define ANIC_CORE_TESTBED_HH

#include "core/node.hh"
#include "net/link.hh"

namespace anic::core {

struct Testbed
{
    static constexpr net::IpAddr kIpA = net::makeIp(10, 0, 0, 1);
    static constexpr net::IpAddr kIpB = net::makeIp(10, 0, 0, 2);

    struct Config
    {
        net::Link::Config link;
        Node::Config a = named("a", 11);
        Node::Config b = named("b", 22);

        static Node::Config
        named(const char *name, uint64_t stackSeed)
        {
            Node::Config c;
            c.name = name;
            c.stackSeed = stackSeed;
            return c;
        }
    };

    explicit Testbed(sim::RunContext &run) : Testbed(run, Config{}) {}

    /** Injects the pool into the link and both nodes, binds the nodes
     *  to @p run's registry and trace ring, attaches them and
     *  publishes the pool as sim.alloc under the run's registry. */
    Testbed(sim::RunContext &run, Config cfg)
        : link(sim, withPool(cfg.link)), a(sim, bound(cfg.a, run)),
          b(sim, bound(cfg.b, run))
    {
        pool.linkStats(sim::StatsScope(run.registry(), "sim.alloc"));
        a.attachPort(link, 0, kIpA);
        b.attachPort(link, 1, kIpB);
    }

    // Pool first: members destroy in reverse order, so every packet in
    // sim events, on the link or in socket buffers is released before
    // the pool's destructor checks liveCount == 0.
    net::PacketPool pool;
    sim::Simulator sim;
    net::Link link;
    Node a;
    Node b;

  private:
    template <typename C>
    C
    withPool(C c)
    {
        c.pool = &pool;
        return c;
    }

    Node::Config
    bound(Node::Config c, sim::RunContext &run)
    {
        c.bindRun(run);
        return withPool(std::move(c));
    }
};

} // namespace anic::core

#endif // ANIC_CORE_TESTBED_HH
