/**
 * @file
 * Bounded event trace ring for the offload datapath. Components record
 * discrete events — FSM state transitions, resync request/confirm,
 * context-cache evictions, TCP retransmits — into a fixed-capacity
 * ring; when full, the oldest events are overwritten (and counted as
 * dropped), so tracing is safe to leave compiled in.
 *
 * Each sim::RunContext owns one ring, disabled by default so record()
 * is a cheap no-op; ANIC_TRACE=1 arms every run's ring
 * (kDefaultCapacity events). Benches write a run's ring as JSONL to
 * ANIC_TRACE_FILE.
 */

#ifndef ANIC_SIM_TRACE_HH
#define ANIC_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hh"

namespace anic::sim {

enum class TraceKind : uint8_t
{
    FsmTransition,   ///< a: from state, b: to state
    ResyncRequest,   ///< a: tcp seq the NIC asked about
    ResyncConfirmed, ///< a: confirmed seq
    ResyncRefuted,   ///< a: refuted seq
    CtxEvict,        ///< a: evicted flow id, b: writeback bytes
    CtxFetch,        ///< a: flow id, b: fetch bytes
    Retransmit,      ///< a: seq, b: bytes
    TxResync,        ///< a: flow id
    RxQueueSelect,   ///< id: rx queue, a: rss hash
    IrqFire,         ///< id: queue, a: packets covered (always 1)
    Custom,          ///< component-defined
};

const char *traceKindName(TraceKind k);

struct TraceEvent
{
    Tick ts = 0;
    TraceKind kind = TraceKind::Custom;
    uint64_t id = 0; ///< flow/connection identifier
    uint64_t a = 0;  ///< kind-specific operand
    uint64_t b = 0;  ///< kind-specific operand
    std::string comp; ///< component instance name ("srv.nic0.fsm")
};

class TraceRing
{
  public:
    static constexpr size_t kDefaultCapacity = 4096;

    explicit TraceRing(size_t capacity = kDefaultCapacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }

    void
    setCapacity(size_t capacity)
    {
        capacity_ = capacity == 0 ? 1 : capacity;
        clear();
    }
    size_t capacity() const { return capacity_; }

    void
    clear()
    {
        buf_.clear();
        head_ = 0;
        dropped_ = 0;
    }

    /** Records one event. A disabled ring costs callers one inlined
     *  test: @p comp is copied, out of line, only when enabled. */
    void
    record(Tick ts, TraceKind kind, std::string_view comp, uint64_t id = 0,
           uint64_t a = 0, uint64_t b = 0)
    {
        if (enabled_)
            push(ts, kind, comp, id, a, b);
    }

    size_t size() const { return buf_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Events oldest-first. */
    std::vector<TraceEvent> events() const;

    /** One JSON object per line, as a string. */
    std::string jsonl() const;

  private:
    void push(Tick ts, TraceKind kind, std::string_view comp, uint64_t id,
              uint64_t a, uint64_t b);

    size_t capacity_;
    std::vector<TraceEvent> buf_;
    size_t head_ = 0; ///< oldest element once the ring wrapped
    uint64_t dropped_ = 0;
    bool enabled_ = false;
};

} // namespace anic::sim

#endif // ANIC_SIM_TRACE_HH
