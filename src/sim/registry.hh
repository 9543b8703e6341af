/**
 * @file
 * Hierarchical statistics registry: typed instruments addressable by
 * dotted path (e.g. "srv.nic0.pcie.ctxFetchBytes").
 *
 * Instruments are plain value types so components keep them as struct
 * members exactly as before (copies snapshot values, arithmetic works
 * through implicit conversion). A component additionally *links* its
 * member instruments into a StatsRegistry under a stable instance
 * name chosen at construction; a StatsScope is the RAII handle that
 * removes those links when the component dies.
 *
 * Instrument types:
 *  - Counter       monotonically increasing uint64 (packets, bytes)
 *  - Gauge         instantaneous double (cycles, depths)
 *  - Distribution  scalar samples with moments/percentiles
 *  - RateMeter     value accumulated over an explicit measurement
 *                  window
 *
 * The registry renders one nested JSON object from the dotted paths;
 * bench_json.hh wraps that into the shared snapshot schema every
 * bench and example emits.
 */

#ifndef ANIC_SIM_REGISTRY_HH
#define ANIC_SIM_REGISTRY_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/simulator.hh"

namespace anic::sim {

/** Monotonic event/byte counter. Drop-in for a raw uint64_t field. */
class Counter
{
  public:
    constexpr Counter() = default;
    constexpr Counter(uint64_t v) : v_(v) {}

    uint64_t value() const { return v_; }
    void inc(uint64_t n = 1) { v_ += n; }
    void reset() { v_ = 0; }

    Counter &operator+=(uint64_t n) { v_ += n; return *this; }
    Counter &operator++() { ++v_; return *this; }
    uint64_t operator++(int) { return v_++; }
    operator uint64_t() const { return v_; }

  private:
    uint64_t v_ = 0;
};

/** Instantaneous scalar (utilizations, cycle totals, queue depths). */
class Gauge
{
  public:
    constexpr Gauge() = default;
    constexpr Gauge(double v) : v_(v) {}

    double value() const { return v_; }
    void set(double v) { v_ = v; }

    Gauge &operator+=(double d) { v_ += d; return *this; }
    Gauge &operator-=(double d) { v_ -= d; return *this; }
    operator double() const { return v_; }

  private:
    double v_ = 0.0;
};

/**
 * Collects scalar samples and reports mean / stddev / percentiles.
 * Keeps all samples; fine for the sample counts benches produce.
 */
class Distribution
{
  public:
    void add(double v) { samples_.push_back(v); }
    size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double
    mean() const
    {
        if (samples_.empty())
            return 0.0;
        double sum = 0.0;
        for (double v : samples_)
            sum += v;
        return sum / static_cast<double>(samples_.size());
    }

    double
    stddev() const
    {
        if (samples_.size() < 2)
            return 0.0;
        double m = mean();
        double acc = 0.0;
        for (double v : samples_)
            acc += (v - m) * (v - m);
        return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
    }

    double min() const;
    double max() const;

    /** p in [0,100]; nearest-rank percentile. */
    double percentile(double p) const;

    /**
     * Trimmed mean as used by the paper's methodology: drop the single
     * minimum and maximum sample, average the rest.
     */
    double trimmedMean() const;

    void clear() { samples_.clear(); }

  private:
    std::vector<double> samples_;
};

/**
 * Measures a rate (e.g. bytes delivered) over a measurement window so
 * warm-up traffic can be excluded.
 */
class RateMeter
{
  public:
    /** Starts (or restarts) the measurement window at time @p now. */
    void
    start(Tick now)
    {
        startTick_ = now;
        endTick_ = 0;
        value_ = 0;
        running_ = true;
        closed_ = false;
    }

    /** Accumulates @p amount if the window is open. */
    void
    add(uint64_t amount)
    {
        if (running_)
            value_ += amount;
    }

    /** Closes the window at @p now. */
    void
    stop(Tick now)
    {
        endTick_ = now;
        running_ = false;
        closed_ = true;
    }

    uint64_t total() const { return value_; }
    bool running() const { return running_; }

    /**
     * Window length. Reading while the window is still open (or never
     * opened) returns 0 rather than the endTick_ - startTick_
     * underflow a naive endTick - startTick would produce.
     */
    Tick
    elapsed() const
    {
        if (!closed_ || endTick_ < startTick_)
            return 0;
        return endTick_ - startTick_;
    }

    /** Rate in units/second over the closed window (0 while open). */
    double
    perSecond() const
    {
        Tick e = elapsed();
        if (e == 0)
            return 0.0;
        return static_cast<double>(value_) / ticksToSeconds(e);
    }

    /** Convenience: bits/sec in Gbps when value is bytes. */
    double gbps() const { return perSecond() * 8.0 / 1e9; }

  private:
    Tick startTick_ = 0;
    Tick endTick_ = 0;
    uint64_t value_ = 0;
    bool running_ = false;
    bool closed_ = false;
};

/** Non-owning view of any instrument, for iteration and JSON. */
using InstrumentRef = std::variant<const Counter *, const Gauge *,
                                   const Distribution *, const RateMeter *>;

/** Appends the instrument's JSON value (number or object) to @p out. */
void appendInstrumentJson(const InstrumentRef &ref, std::string &out);

/**
 * The registry: dotted path -> instrument. Holds non-owning links to
 * component-member instruments (removed by StatsScope on component
 * destruction) and owns get-or-create instruments for ad-hoc use.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    // ------------------------------------------------------- links
    void link(const std::string &path, const Counter &c) { put(path, &c, {}); }
    void link(const std::string &path, const Gauge &g) { put(path, &g, {}); }
    void link(const std::string &path, const Distribution &d) { put(path, &d, {}); }
    void link(const std::string &path, const RateMeter &r) { put(path, &r, {}); }

    // --------------------------------- owned (get-or-create by path)
    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    Distribution &distribution(const std::string &path);
    RateMeter &rate(const std::string &path);

    // ----------------------------------------------------- removal
    void unlink(const std::string &path) { entries_.erase(path); }

    /** Removes @p prefix itself and every entry under "prefix.". */
    void removeSubtree(const std::string &prefix);

    void clear() { entries_.clear(); }

    // ------------------------------------------------------ lookup
    bool contains(const std::string &path) const
    {
        return entries_.find(path) != entries_.end();
    }
    const Counter *findCounter(const std::string &path) const;
    const Gauge *findGauge(const std::string &path) const;
    const Distribution *findDistribution(const std::string &path) const;

    size_t size() const { return entries_.size(); }

    /** Visits entries in path order. */
    void forEach(
        const std::function<void(const std::string &, const InstrumentRef &)>
            &fn) const;

    // ------------------------------------------------------ naming
    /**
     * Returns @p base if no live scope or entry occupies it, else
     * base2, base3, ... Stable across sequential worlds in one
     * process because scopes free their names on destruction.
     */
    std::string uniqueName(const std::string &base) const;

    void claimPrefix(const std::string &prefix) { claimed_[prefix]++; }
    void
    releasePrefix(const std::string &prefix)
    {
        auto it = claimed_.find(prefix);
        if (it != claimed_.end() && --it->second == 0)
            claimed_.erase(it);
    }

    // -------------------------------------------------------- JSON
    /** Nested JSON object, e.g. {"srv":{"nic0":{"pktsTx":12,...}}}. */
    std::string jsonSnapshot() const;
    void writeJson(std::string &out) const;

  private:
    struct Entry
    {
        InstrumentRef ref;
        std::shared_ptr<void> owned; ///< null for links
    };

    void put(const std::string &path, InstrumentRef ref,
             std::shared_ptr<void> owned);
    template <typename T> T &ownedInstrument(const std::string &path);
    bool subtreeOccupied(const std::string &prefix) const;

    std::map<std::string, Entry> entries_;
    std::map<std::string, int> claimed_; ///< live scope prefixes
};

/**
 * RAII handle a component holds for its registry links: claims the
 * instance-name prefix at construction and removes the subtree on
 * destruction. A default-constructed scope is detached (links are
 * no-ops), which keeps bare component construction in unit tests
 * registry-free when desired.
 */
class StatsScope
{
  public:
    StatsScope() = default;
    StatsScope(StatsRegistry &reg, std::string prefix)
        : reg_(&reg), prefix_(std::move(prefix))
    {
        reg_->claimPrefix(prefix_);
    }

    StatsScope(const StatsScope &) = delete;
    StatsScope &operator=(const StatsScope &) = delete;

    StatsScope(StatsScope &&o) noexcept
        : reg_(o.reg_), prefix_(std::move(o.prefix_))
    {
        o.reg_ = nullptr;
    }

    StatsScope &
    operator=(StatsScope &&o) noexcept
    {
        if (this != &o) {
            detach();
            reg_ = o.reg_;
            prefix_ = std::move(o.prefix_);
            o.reg_ = nullptr;
        }
        return *this;
    }

    ~StatsScope() { detach(); }

    /** Removes everything linked under this scope's prefix. */
    void
    detach()
    {
        if (reg_ == nullptr)
            return;
        reg_->removeSubtree(prefix_);
        reg_->releasePrefix(prefix_);
        reg_ = nullptr;
    }

    bool attached() const { return reg_ != nullptr; }
    StatsRegistry *registry() const { return reg_; }
    const std::string &prefix() const { return prefix_; }

    std::string
    path(const std::string &leaf) const
    {
        return prefix_.empty() ? leaf : prefix_ + "." + leaf;
    }

    template <typename T>
    void
    link(const std::string &leaf, const T &inst)
    {
        if (reg_ != nullptr)
            reg_->link(path(leaf), inst);
    }

    /** Child scope under "prefix.name" (detached if this one is). */
    StatsScope
    child(const std::string &name)
    {
        if (reg_ == nullptr)
            return {};
        return StatsScope(*reg_, path(name));
    }

  private:
    StatsRegistry *reg_ = nullptr;
    std::string prefix_;
};

} // namespace anic::sim

#endif // ANIC_SIM_REGISTRY_HH
