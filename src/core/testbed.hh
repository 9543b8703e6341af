/**
 * @file
 * Testbed: the paper's two hosts back to back over one link (§2), the
 * one type every two-node world builds on. Node a sits on link port 0
 * at 10.0.0.1, node b on port 1 at 10.0.0.2.
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

        /** Binds both nodes' registry + trace to @p run. */
        void
        bindRun(sim::RunContext &run)
        {
            a.bindRun(run);
            b.bindRun(run);
        }

        static Node::Config
        named(const char *name, uint64_t stackSeed)
        {
            Node::Config c;
            c.name = name;
            c.stackSeed = stackSeed;
            return c;
        }
    };

    Testbed() : Testbed(Config{}) {}

    /** Injects the pool into the link and both nodes, attaches the
     *  nodes and publishes the pool as sim.alloc under a's registry. */
    explicit Testbed(Config cfg)
        : link(sim, withPool(cfg.link)), a(sim, withPool(cfg.a)),
          b(sim, withPool(cfg.b))
    {
        pool.linkStats(sim::StatsScope(a.registry(), "sim.alloc"));
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
};

} // namespace anic::core

#endif // ANIC_CORE_TESTBED_HH
