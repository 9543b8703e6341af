/**
 * @file
 * CPU core model.
 *
 * Software work is expressed as work items posted to a core. Items
 * run to completion in FIFO order; while an item executes, any code
 * it calls charges cycles via charge(). The core then stays busy for
 * the charged duration before starting the next item, which creates
 * the queueing/backpressure behaviour that makes throughput
 * CPU-bound when a core saturates.
 *
 * The "execute instantly, charge retroactively" scheme means a work
 * item's side effects (e.g. posting a response packet) conceptually
 * happen at item start; the inaccuracy is bounded by one item's
 * duration and is irrelevant at the millisecond horizons benches use.
 *
 * A posted item is parked in the simulator's callback arena and runs
 * there, in place; the core's queue holds only its 8-byte handle, so
 * posting moves the item once and allocates nothing in steady state.
 */

#ifndef ANIC_HOST_CORE_HH
#define ANIC_HOST_CORE_HH

#include "host/cycle_model.hh"
#include "sim/registry.hh"
#include "sim/simulator.hh"
#include "util/ring_fifo.hh"

namespace anic::host {

/** A single CPU core with cycle accounting. */
class Core
{
  public:
    /** Work items share the simulator's inline-capture budget: no heap
     *  allocation per posted item, oversized captures fail to compile. */
    using Work = sim::Simulator::Callback;

    /** @param scope registry scope to publish cycle accounting under
     *  ("<node>.cpu0"); a detached scope keeps the core unregistered. */
    Core(sim::Simulator &sim, const CycleModel &model, int id,
         sim::StatsScope scope = {})
        : sim_(sim), model_(model), id_(id), scope_(std::move(scope))
    {
        scope_.link("busyCycles", busyCycles_);
        scope_.link("busyNs", busyNs_);
        scope_.link("itemsExecuted", items_);
    }

    /** Destroys the items still queued, unrun. */
    ~Core();

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    int id() const { return id_; }
    const CycleModel &model() const { return model_; }
    sim::Simulator &simulator() { return sim_; }

    /** Enqueues a work item; runs when the core becomes free. */
    void post(Work w);

    /**
     * Enqueues ahead of pending items (softirq-style priority). Used
     * for device redrives so transmit progress is not starved behind
     * queued application work on a saturated core.
     */
    void postUrgent(Work w);

    /**
     * Charges @p cycles to the currently executing work item. Must be
     * called from inside a work item (i.e. during post() execution).
     * Calls from outside any item (e.g. test setup) accumulate into
     * the next idle gap and are still counted as busy time.
     */
    void charge(double cycles);

    /** Total cycles this core has been busy since construction. */
    double totalBusyCycles() const { return busyCycles_; }

    /** Busy time in ticks since construction. */
    sim::Tick totalBusyTicks() const { return busyTicks_; }

    /** Number of work items executed. */
    uint64_t itemsExecuted() const { return items_; }

    /** Current queue depth (for saturation checks in tests). */
    size_t queueDepth() const { return queue_.size(); }

    /** True while a work item is executing on this core. */
    bool executing() const { return executing_; }

    /** The core whose work item is currently executing (nullptr when
     *  no item runs). Lets layered code charge the right core without
     *  threading it through every call (single-threaded simulation). */
    static Core *current() { return sCurrent_; }

    /** Charges @p cycles to the executing core, if any. */
    static void
    chargeCurrent(double cycles)
    {
        if (sCurrent_ != nullptr)
            sCurrent_->charge(cycles);
    }

    /**
     * Utilization in [0,1] over a window: busy ticks accumulated
     * since @p sinceBusyTicks snapshot divided by the window length.
     */
    double
    utilization(sim::Tick sinceBusyTicks, sim::Tick window) const
    {
        if (window == 0)
            return 0.0;
        return static_cast<double>(busyTicks_ - sinceBusyTicks) /
               static_cast<double>(window);
    }

  private:
    void pump();
    void runOne();
    void schedulePump();

    sim::Simulator &sim_;
    const CycleModel &model_;
    int id_;

    util::RingFifo<util::SlabHandle> queue_; ///< into sim_.callbacks()
    bool executing_ = false;
    bool pumpScheduled_ = false;
    sim::Tick freeAt_ = 0;

    // thread_local: each JobRunner worker simulates its own world, so
    // "the currently executing core" is a per-thread notion. Defined
    // inline with a constant initializer, so other translation units
    // read it directly instead of through a TLS init wrapper (GCC 12's
    // UBSan null check misreads the wrapper's weak-symbol test).
    static inline thread_local Core *sCurrent_ = nullptr;

    double pendingCycles_ = 0.0; // charged by the current item
    sim::Gauge busyCycles_;
    sim::Tick busyTicks_ = 0;
    sim::Gauge busyNs_; ///< busyTicks_ in ns, for the registry
    sim::Counter items_;
    sim::StatsScope scope_;
};

} // namespace anic::host

#endif // ANIC_HOST_CORE_HH
