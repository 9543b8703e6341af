/**
 * @file
 * Per-run execution context: the ownership boundary that makes
 * independent simulation runs (bench sweep points, fuzz seeds,
 * ablation variants) safe to execute concurrently.
 *
 * A RunContext owns everything that used to be process-global per
 * run: the stats registry the run's components publish into, the
 * event-trace ring, the measurement-window scaling (quick mode), and
 * all of the run's textual output. Nothing a run produces touches
 * stdout or the filesystem directly — it accumulates in the context's
 * Output and is flushed by the JobRunner in submission order, which
 * is what makes `--jobs N` byte-identical to a serial sweep.
 *
 * Ownership rules (DESIGN.md §12): a simulation world takes its
 * StatsRegistry and TraceRing from the RunContext it runs under, and
 * there is no fallback: a Node or Nic without them panics. Unit tests
 * and single-run tools build a RunContext of their own.
 */

#ifndef ANIC_SIM_RUN_CONTEXT_HH
#define ANIC_SIM_RUN_CONTEXT_HH

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "sim/registry.hh"
#include "sim/trace.hh"

namespace anic::sim {

/**
 * Static per-run configuration. Replaces the hidden ANIC_QUICK read
 * inside the measurement loop: quick mode is now a field callers can
 * set (fromEnv() derives the historical behavior from the
 * environment once, at the edge).
 */
struct RunConfig
{
    /** Measurement-window scale factor; 1.0 = the full window the
     *  bench asks for, quick mode historically ran 1/4 windows. */
    double windowScale = 1.0;

    /** Arm this run's TraceRing (events are recorded). */
    bool traceEnabled = false;

    /** Historical env-driven defaults: ANIC_QUICK -> windowScale
     *  0.25, ANIC_TRACE -> traceEnabled. */
    static RunConfig fromEnv();
};

class RunContext
{
  public:
    /** Everything one run produced, flushed as a unit, in order. */
    struct Output
    {
        /** The run's stdout stream (tables, JSON lines, messages). */
        std::string text;
        /** Machine-readable JSON lines only (ANIC_BENCH_JSON sink). */
        std::string jsonLines;
        /** Registry snapshots: (bench name, snapshot line) pairs for
         *  per-run ANIC_SNAPSHOT_DIR files. */
        std::vector<std::pair<std::string, std::string>> snapshots;
        /** JSONL dump of the run's trace ring (ANIC_TRACE_FILE sink);
         *  empty when no dump was requested. */
        std::string traceDump;

        bool
        empty() const
        {
            return text.empty() && jsonLines.empty() && snapshots.empty() &&
                   traceDump.empty();
        }
    };

    explicit RunContext(RunConfig cfg = RunConfig::fromEnv());

    RunContext(const RunContext &) = delete;
    RunContext &operator=(const RunContext &) = delete;

    const RunConfig &config() const { return cfg_; }

    /** The run's private registry; worlds must publish here. */
    StatsRegistry &registry() { return registry_; }

    /** The run's private trace ring; worlds must record here. */
    TraceRing &trace() { return trace_; }

    /**
     * Applies the quick-mode window scale. Never returns 0: a scaled
     * window is clamped to at least one tick so short windows cannot
     * silently degenerate into an empty measurement.
     */
    Tick
    scaleWindow(Tick full) const
    {
        if (full == 0)
            return 0;
        double scaled = static_cast<double>(full) * cfg_.windowScale;
        Tick t = static_cast<Tick>(scaled);
        return t == 0 ? 1 : t;
    }

    // ------------------------------------------------- run output
    /** printf into the run's stdout stream. */
    void print(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    /** Appends one machine-readable JSON line: it appears in the
     *  stdout stream *and* the jsonLines sink (ANIC_BENCH_JSON) when
     *  the output is flushed. */
    void json(const std::string &line);

    /** Registers a registry-snapshot line for per-run file output. */
    void
    addSnapshot(std::string bench, std::string line)
    {
        out_.snapshots.emplace_back(std::move(bench), std::move(line));
    }

    /** Requests a JSONL dump of this run's trace ring in the output
     *  (no-op when the ring is disabled or empty). */
    void captureTraceDump();

    /** Moves the accumulated output out (context can keep running). */
    Output
    takeOutput()
    {
        Output o = std::move(out_);
        out_ = Output{};
        return o;
    }

    // -------------------------------------------------- wall clock
    /** Starts the run's wall-clock (called by the JobRunner). */
    void clockStart() { t0_ = std::chrono::steady_clock::now(); }

    /** Stops the clock, accumulating into wallSeconds(). */
    void
    clockStop()
    {
        wall_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0_)
                     .count();
    }

    /** Real (not simulated) seconds this run has executed for. */
    double wallSeconds() const { return wall_; }

  private:
    RunConfig cfg_;
    StatsRegistry registry_;
    TraceRing trace_;
    Output out_;
    std::chrono::steady_clock::time_point t0_{};
    double wall_ = 0.0;
};

} // namespace anic::sim

#endif // ANIC_SIM_RUN_CONTEXT_HH
