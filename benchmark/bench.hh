/**
 * @file
 * Shared pieces of anicbench: the two-node world every workload runs
 * in, the operation log that times requests from their due tick, the
 * metric list, and the interface anicbench.cc runs each workload
 * through.
 */

#ifndef ANICBENCH_BENCH_HH
#define ANICBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.hh"
#include "sim/run_context.hh"

namespace anicbench {

using anic::sim::Tick;
using anic::sim::kMicrosecond;
using anic::sim::kMillisecond;
using anic::sim::kNanosecond;
using anic::sim::kSecond;

/** Independent 64-bit stream @p stream of the run seed (splitmix64). */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** Host wall-clock seconds since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Knobs of the two-node world. Link direction 0 runs toward the
 *  server ("srv", the node under test), direction 1 toward the
 *  generator ("gen"). */
struct WorldConfig
{
    /** A 1 ms RTO floor, as datacenter stacks tune it. At the 10 ms
     *  default a handful of tail-loss timeouts per window decided
     *  storage_rw's goodput: 3.2% IQR across seeds, 0.45% at 1 ms. */
    WorldConfig() { srvTcp.minRto = genTcp.minRto = 1 * kMillisecond; }

    int srvCores = 1;
    int genCores = 1;
    anic::net::Link::Config link;
    anic::nic::Nic::Config nic;
    anic::tcp::TcpConnection::Config srvTcp;
    anic::tcp::TcpConnection::Config genTcp;
    uint64_t seed = 0;
};

/** A server and a generator, back to back over one link. Members are
 *  ordered so every packet is released before the pool dies. */
struct World
{
    static constexpr anic::net::IpAddr kGenIp = anic::net::makeIp(10, 0, 0, 1);
    static constexpr anic::net::IpAddr kSrvIp = anic::net::makeIp(10, 0, 0, 2);

    explicit World(const WorldConfig &cfg);

    /** Wire packets handed to the link, both directions. */
    uint64_t
    wirePkts() const
    {
        return link.stats(0).delivered + link.stats(1).delivered;
    }

    WorldConfig cfg;
    anic::sim::RunContext run{anic::sim::RunConfig{}};
    anic::net::PacketPool pool;
    anic::sim::Simulator sim;
    anic::net::Link link;
    anic::core::Node gen;
    anic::core::Node srv;
};

/**
 * Operations (messages, IOs, requests) timed from the tick they were
 * due. Only operations due inside the measurement window count.
 */
class OpLog
{
  public:
    void
    openWindow(Tick start, Tick end)
    {
        start_ = start;
        end_ = end;
    }

    /** (start, end]: events at the opening tick ran before the window
     *  opened, events at the closing tick run inside its last chunk. */
    bool inWindow(Tick due) const { return due > start_ && due <= end_; }

    void
    issued(Tick due)
    {
        if (inWindow(due))
            attempted_++;
    }

    void completed(Tick due, Tick now, bool ok);

    uint64_t attempted() const { return attempted_; }
    uint64_t completedCount() const { return completed_; }
    uint64_t failedCount() const { return failed_; }
    bool drained() const { return completed_ == attempted_; }
    /** Latency of every completed in-window operation, in simulated
     *  microseconds. */
    const anic::sim::Distribution &latencyUs() const { return latUs_; }

    /** The first few timed operations, for the span trace. */
    struct Sample
    {
        Tick due, done;
        bool ok;
    };
    const std::vector<Sample> &samples() const { return samples_; }

  private:
    Tick start_ = 0;
    Tick end_ = 0;
    uint64_t attempted_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    anic::sim::Distribution latUs_;
    std::vector<Sample> samples_;
};

/** One reported number. @p sim marks values computed from simulated
 *  state only: those repeat exactly for a given seed and window. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    uint64_t n = 1;
    double q1 = 0;
    double q3 = 0;
    bool sim = true;
};

class Metrics
{
  public:
    /** A single-sample value (its spread is the value itself). */
    void
    add(const std::string &name, const std::string &unit, double value,
        bool sim = true)
    {
        list_.push_back({name, unit, value, 1, value, value, sim});
    }

    void add(Metric m) { list_.push_back(std::move(m)); }

    const std::vector<Metric> &all() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/** a / b, or 0 when b is 0 (a ratio whose base did not occur). */
inline double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

class Audit;

/** Live-heap growth attributed to the layer each call belongs to,
 *  counted while connections are first opened. */
struct HeapTally
{
    int64_t tcp = 0; ///< around TcpStack::connect
    int64_t tls = 0; ///< around TlsSocket construction
    int64_t nic = 0; ///< around offload installation
    int64_t app = 0; ///< the workload's own per-flow state
    uint64_t flows = 0;
};

/** One benchmark workload, run by anicbench.cc in phases. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the world and its listeners. */
    virtual void build() = 0;
    /** Opens every connection and installs offloads; returns once
     *  they are established. */
    virtual void connect() = 0;
    /** Starts issuing load. */
    virtual void start() = 0;
    /** Stops issuing new operations; in-flight ones finish. */
    virtual void stopIssuing() = 0;
    virtual World &world() = 0;
    /** Workload-specific per-layer metrics. */
    virtual void report(Metrics &m) const = 0;
    /** Workload-specific conservation identities. */
    virtual void audit(Audit &a) const = 0;

    OpLog ops;
    /** Application payload bytes delivered and verified so far. */
    uint64_t appBytes = 0;
    /** Content, tag and digest failures not tied to one operation. */
    uint64_t integrityFailures = 0;
    HeapTally heap;
    /** Host seconds spent installing NIC offloads during connect(). */
    double offloadInstallS = 0;
    /** Offload installations so far, on either node. */
    uint64_t installs = 0;

  protected:
    /** True inside connect(): heap and install-time tallies run. */
    bool connecting_ = false;

    /** Runs @p fn, charging its heap growth to @p acc while
     *  connecting. */
    template <typename F> void tally(int64_t &acc, F &&fn);
    /** Installs an offload through @p fn, counting it, and timing it
     *  while connecting. */
    template <typename F> void install(F &&fn);
};

/** A workload's fixed simulated durations. */
struct WorkloadSpec
{
    const char *name;
    std::unique_ptr<Workload> (*make)(uint64_t seed);
    /** Simulated warm-up before the window opens. */
    Tick warmup;
    /** Simulated time one host second covers on the reference box;
     *  the window is this times --seconds. */
    Tick simPerHostSecond;
};

std::unique_ptr<Workload> makeTcpBulk(uint64_t seed);
std::unique_ptr<Workload> makeTlsRxLossy(uint64_t seed);
std::unique_ptr<Workload> makeStorageRw(uint64_t seed);
std::unique_ptr<Workload> makeFlowsMany(uint64_t seed);

} // namespace anicbench

#include "heap.hh"

template <typename F>
void
anicbench::Workload::tally(int64_t &acc, F &&fn)
{
    uint64_t before = heapLiveBytes();
    fn();
    if (connecting_)
        acc += static_cast<int64_t>(heapLiveBytes() - before);
}

template <typename F>
void
anicbench::Workload::install(F &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    tally(heap.nic, fn);
    installs++;
    if (connecting_)
        offloadInstallS += secondsSince(t0);
}

#endif // ANICBENCH_BENCH_HH
