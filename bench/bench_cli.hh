/**
 * @file
 * Shared bench command line + the Sweep driver every bench binary
 * uses to shard its sweep points across a JobRunner:
 *
 *   --jobs N          worker threads (default 1; output is
 *                     byte-identical for any N)
 *   --cores N         simulated server core count (default: the
 *                     bench's own choice)
 *   --filter STR      run only sweep points whose label contains STR
 *   --json PATH       append machine-readable JSON lines to PATH
 *                     (overrides ANIC_BENCH_JSON)
 *   --timing-json P   write the wall-clock timing snapshot to P
 *   --quick           shrink measurement windows (same as ANIC_QUICK)
 *
 * Sweep wires the options to a sim::JobRunner with an ordered sink
 * that performs all file/stdout I/O (bench JSON lines, per-run
 * ANIC_SNAPSHOT_DIR snapshots, ANIC_TRACE_FILE dumps) strictly in
 * submission order. After drain() it emits a timing snapshot —
 * per-run wall-clock plus the aggregate speedup — to stderr and the
 * timing sinks, never to stdout, so parallel and serial stdout stay
 * comparable.
 */

#ifndef ANIC_BENCH_BENCH_CLI_HH
#define ANIC_BENCH_BENCH_CLI_HH

#include <string>

#include "bench_json.hh"
#include "sim/executor.hh"

namespace anic::bench {

struct BenchOptions
{
    int jobs = 1;
    int cores = 0; ///< --cores; 0 = bench default
    std::string filter;
    std::string jsonPath;   ///< --json override of ANIC_BENCH_JSON
    std::string timingJson; ///< --timing-json output path
    bool quick = false;     ///< --quick or ANIC_QUICK

    /** Per-run config implied by the options. */
    sim::RunConfig runConfig() const;
};

/** Parses the shared flags; exits(2) on unknown arguments, exits(0)
 *  after printing usage for --help. */
BenchOptions parseBenchCli(int argc, char **argv);

/** Ordered output sink: run text -> stdout, jsonLines -> bench JSON
 *  file, snapshots -> ANIC_SNAPSHOT_DIR, trace dump -> ANIC_TRACE_FILE. */
sim::JobRunner::Sink makeBenchSink(std::string jsonPath);

/**
 * One bench sweep: submit each data point as an independent job; the
 * human table is printed by the bench after drain() from per-point
 * result slots each job fills (distinct slots — no sharing).
 */
class Sweep
{
  public:
    Sweep(std::string bench, const BenchOptions &opt);
    ~Sweep();

    /** Submits one sweep point unless the label fails the filter.
     *  Returns false when filtered out (the result slot keeps its
     *  default value and the table shows a dash-worthy zero). */
    bool add(const std::string &label, sim::JobRunner::Job job);

    /** True when @p label passes --filter. */
    bool selected(const std::string &label) const;

    /** Waits for every point, flushes output in submission order,
     *  then emits the timing snapshot. */
    void drain();

    const sim::JobRunner::Stats &stats() const { return runner_.stats(); }
    int jobs() const { return runner_.jobs(); }

  private:
    void emitTiming();

    std::string bench_;
    BenchOptions opt_;
    sim::JobRunner runner_;
    uint64_t filtered_ = 0;
    bool drained_ = false;
};

} // namespace anic::bench

#endif // ANIC_BENCH_BENCH_CLI_HH
