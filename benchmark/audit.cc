#include "audit.hh"

#include <algorithm>

#include "units.hh"
#include "util/panic.hh"

namespace anicbench {

using anic::strprintf;

void
Audit::equal(const std::string &what, uint64_t lhs, uint64_t rhs)
{
    check(lhs == rhs,
          strprintf("%s: %llu != %llu", what.c_str(),
                    static_cast<unsigned long long>(lhs),
                    static_cast<unsigned long long>(rhs)));
}

WorldSnap
WorldSnap::take(World &w)
{
    WorldSnap s;
    s.srvBusy = w.srv.busySnapshot();
    s.genBusy = w.gen.busySnapshot();
    s.srvPcieBytes = w.srv.nicDev().pcie().total();
    s.genPcieBytes = w.gen.nicDev().pcie().total();
    s.srvRxBytes = w.srv.nicDev().stats().bytesRx;
    s.genRxBytes = w.gen.nicDev().stats().bytesRx;
    return s;
}

namespace {

/** Packets one direction can hold between the sender's link hand-off
 *  and the receiver NIC's arrival count: the longest link delay at
 *  line rate in minimum-size frames. */
uint64_t
maxInFlight(World &w, int dir)
{
    const anic::net::Link::Config &lc = w.cfg.link;
    Tick longest = lc.propDelay + lc.dir[dir].reorderExtraDelay + kMicrosecond;
    double frames = units::seconds(longest) *
                    w.srv.nicDev().config().gbps * 1e9 / (8.0 * 64.0);
    return static_cast<uint64_t>(frames) + 1;
}

void
auditLink(Audit &a, World &w)
{
    for (int dir = 0; dir < 2; dir++) {
        const anic::net::LinkStats &s = w.link.stats(dir);
        const anic::nic::Nic &from = dir == 0 ? w.gen.nicDev() : w.srv.nicDev();
        const anic::nic::Nic &to = dir == 0 ? w.srv.nicDev() : w.gen.nicDev();
        std::string d = strprintf("link dir %d", dir);
        // The link counts a packet delivered when it schedules the
        // arrival, so delivered includes packets still on the wire.
        a.equal(d + ": sent + duplicated == delivered + dropped",
                s.sent + s.duplicated, s.delivered + s.dropped);
        uint64_t arrived = to.stats().pktsRx;
        a.check(arrived <= s.delivered &&
                    s.delivered - arrived <= maxInFlight(w, dir),
                strprintf("%s: in flight = delivered %llu - arrived %llu "
                          "outside [0, %llu]",
                          d.c_str(),
                          static_cast<unsigned long long>(s.delivered),
                          static_cast<unsigned long long>(arrived),
                          static_cast<unsigned long long>(
                              maxInFlight(w, dir))));
        a.check(from.stats().pktsTx >= s.sent,
                strprintf("%s: NIC serialized %llu < link sent %llu",
                          d.c_str(),
                          static_cast<unsigned long long>(from.stats().pktsTx),
                          static_cast<unsigned long long>(s.sent)));
    }
}

/** Every context lookup lands in the NIC total; the per-queue counters
 *  miss exactly the control-path lookups, which have no queue: one per
 *  tx resync and one per context created (at most two per install). */
void
auditNicCache(Audit &a, const anic::nic::Nic &nic, uint64_t installs)
{
    uint64_t perQueue = 0;
    for (int q = 0; q < nic.queueCount(); q++)
        perQueue += nic.queueStats(q).ctxHits + nic.queueStats(q).ctxMisses;
    uint64_t total = nic.stats().ctxCacheHits + nic.stats().ctxCacheMisses;
    uint64_t resyncs = nic.stats().txResyncs;
    a.check(perQueue + resyncs <= total &&
                total - perQueue - resyncs <= 2 * installs,
            strprintf("%s: ctxCacheHits+Misses %llu - sum qN.ctxHits+ctxMisses "
                      "%llu - txResyncs %llu outside [0, 2 x %llu installs]",
                      nic.name().c_str(), static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(perQueue),
                      static_cast<unsigned long long>(resyncs),
                      static_cast<unsigned long long>(installs)));
}

void
auditCpu(Audit &a, const anic::core::Node &node,
         const std::vector<Tick> &begin, const std::vector<Tick> &end,
         Tick window)
{
    // A work item's whole charge lands when it runs, so an item that
    // starts just before the window closes may overhang it.
    constexpr Tick kItemOverhang = 100 * kMicrosecond;
    Tick busy = 0;
    for (size_t i = 0; i < end.size(); i++)
        busy += end[i] - begin[i];
    Tick cap = (window + kItemOverhang) * static_cast<Tick>(end.size());
    a.check(busy <= cap,
            strprintf("%s: busy %.0f ns > window x cores %.0f ns",
                      node.name().c_str(), units::seconds(busy) * 1e9,
                      units::seconds(cap) * 1e9));
}

} // namespace

void
auditWorld(Audit &a, World &w, const WorldSnap &begin, const WorldSnap &end,
           Tick window, uint64_t installs)
{
    auditLink(a, w);
    auditNicCache(a, w.srv.nicDev(), installs);
    auditNicCache(a, w.gen.nicDev(), installs);
    auditCpu(a, w.srv, begin.srvBusy, end.srvBusy, window);
    auditCpu(a, w.gen, begin.genBusy, end.genBusy, window);
}

double
pcieUtilization(World &w, const WorldSnap &begin, const WorldSnap &end,
                Tick window)
{
    double cap = w.srv.nicDev().config().pcieGbps;
    return std::max(
               units::gbps(end.srvPcieBytes - begin.srvPcieBytes, window),
               units::gbps(end.genPcieBytes - begin.genPcieBytes, window)) /
           cap;
}

void
auditTls(Audit &a, const std::string &who, const anic::tls::TlsStats &s)
{
    uint64_t classified =
        s.rxFullyOffloaded + s.rxPartiallyOffloaded + s.rxNotOffloaded;
    a.check(classified >= s.recordsRx &&
                classified <= s.recordsRx + s.tagFailures,
            strprintf("%s: full %llu + partial %llu + none %llu vs records "
                      "%llu (tag failures %llu)",
                      who.c_str(),
                      static_cast<unsigned long long>(s.rxFullyOffloaded),
                      static_cast<unsigned long long>(s.rxPartiallyOffloaded),
                      static_cast<unsigned long long>(s.rxNotOffloaded),
                      static_cast<unsigned long long>(s.recordsRx),
                      static_cast<unsigned long long>(s.tagFailures)));
}

} // namespace anicbench
