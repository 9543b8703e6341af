#include "sim/trace.hh"

#include "util/panic.hh"

namespace anic::sim {

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::FsmTransition:
        return "fsm_transition";
      case TraceKind::ResyncRequest:
        return "resync_request";
      case TraceKind::ResyncConfirmed:
        return "resync_confirmed";
      case TraceKind::ResyncRefuted:
        return "resync_refuted";
      case TraceKind::CtxEvict:
        return "ctx_evict";
      case TraceKind::CtxFetch:
        return "ctx_fetch";
      case TraceKind::Retransmit:
        return "retransmit";
      case TraceKind::TxResync:
        return "tx_resync";
      case TraceKind::RxQueueSelect:
        return "rx_queue_select";
      case TraceKind::IrqFire:
        return "irq_fire";
      case TraceKind::Custom:
        return "custom";
    }
    return "?";
}

void
TraceRing::push(Tick ts, TraceKind kind, std::string_view comp, uint64_t id,
                uint64_t a, uint64_t b)
{
    TraceEvent ev{ts, kind, id, a, b, std::string(comp)};
    if (buf_.size() < capacity_) {
        buf_.push_back(std::move(ev));
    } else {
        buf_[head_] = std::move(ev);
        head_ = (head_ + 1) % capacity_;
        dropped_++;
    }
}

std::vector<TraceEvent>
TraceRing::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    // Once wrapped, head_ is the oldest slot.
    for (size_t i = 0; i < buf_.size(); ++i)
        out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
}

std::string
TraceRing::jsonl() const
{
    std::string out;
    for (const TraceEvent &ev : events()) {
        out += strprintf(
            "{\"ts_ns\":%llu,\"kind\":\"%s\",\"comp\":\"%s\","
            "\"id\":%llu,\"a\":%llu,\"b\":%llu}\n",
            (unsigned long long)(ev.ts / kNanosecond),
            traceKindName(ev.kind), ev.comp.c_str(),
            (unsigned long long)ev.id, (unsigned long long)ev.a,
            (unsigned long long)ev.b);
    }
    return out;
}

} // namespace anic::sim
