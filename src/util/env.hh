/**
 * @file
 * Typed accessors for every ANIC_* environment knob. The whole
 * environment is snapshotted once, on first access, so values are
 * stable for the life of the process and safe to read from worker
 * threads (no getenv racing a putenv).
 *
 * Knob table (documented in README "Environment knobs"):
 *
 *   ANIC_QUICK         bool    shrink bench measurement windows (CI)
 *   ANIC_TRACE         bool    arm each run's trace ring (no global one)
 *   ANIC_TRACE_FILE    path    dump the trace ring as JSONL
 *   ANIC_SNAPSHOT_DIR  path    write one registry snapshot file/run
 *   ANIC_BENCH_JSON    path    append bench JSON lines to this file
 *   ANIC_CRYPTO_IMPL   enum    scalar | hw | auto kernel selection
 *   ANIC_TCP_CC        enum    reno | cubic | dctcp — congestion
 *                              control for configs left on Auto
 *   ANIC_FSM_BUG       enum    fault injection for the mutation smoke
 *   ANIC_FUZZ_STORAGE  bool    pin fuzz scenarios to a write-heavy
 *                              storage mix (NVMe writes + iSCSI)
 *
 * Code must come here instead of calling std::getenv("ANIC_...")
 * directly; this is the single list of supported knobs.
 */

#ifndef ANIC_UTIL_ENV_HH
#define ANIC_UTIL_ENV_HH

#include <string>

namespace anic::util {

class Env
{
  public:
    /** ANIC_QUICK: set (and not "0") -> shrink measurement windows. */
    static bool quick();

    /** ANIC_TRACE: arm every RunContext's TraceRing. */
    static bool traceEnabled();

    /** ANIC_TRACE_FILE: JSONL dump path ("" when unset). */
    static const std::string &traceFile();

    /** ANIC_SNAPSHOT_DIR: per-run snapshot directory ("" when unset). */
    static const std::string &snapshotDir();

    /** ANIC_BENCH_JSON: bench JSON append path ("" when unset). */
    static const std::string &benchJson();

    /** ANIC_CRYPTO_IMPL: raw value ("" when unset; cpu.cc parses). */
    static const std::string &cryptoImpl();

    /** ANIC_TCP_CC: raw value ("" when unset; tcp/congestion.cc
     *  parses reno|cubic|dctcp). */
    static const std::string &tcpCc();

    /** ANIC_FSM_BUG: raw value ("" when unset; stream_fsm.cc parses). */
    static const std::string &fsmBug();

    /** ANIC_FUZZ_STORAGE: every fuzz scenario carries a write-heavy
     *  NVMe workload plus an iSCSI workload (the storage CI arm). */
    static bool fuzzStorage();

  private:
    struct Values;
    static const Values &values();
};

} // namespace anic::util

#endif // ANIC_UTIL_ENV_HH
