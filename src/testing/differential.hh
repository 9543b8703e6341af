/**
 * @file
 * Differential execution of fuzz scenarios. Every scenario is run
 * twice in isolated worlds — once with NIC L5 offloads enabled
 * (TLS tx/rx, NVMe-TCP crc+copy) and once software-only — and the
 * oracle asserts the paper's transparency claim:
 *
 *  - delivered application bytes are always the ground-truth bytes
 *    (authenticated-crypto makes wrong-but-delivered impossible; this
 *    catches it if the stack ever breaks that),
 *  - in corruption-free scenarios both runs deliver *everything* and
 *    agree on TCP goodput accounting (record framing is made
 *    deterministic so ciphertext stream lengths are comparable),
 *  - FSM invariants hold on every NIC flow context (via FsmProbe),
 *  - the per-run trace ring is well-formed (monotonic timestamps).
 *
 * A failing scenario can be auto-minimized: phases are halved, flows
 * dropped, and impairment knobs zeroed one at a time while the
 * failure persists.
 */

#ifndef ANIC_TESTING_DIFFERENTIAL_HH
#define ANIC_TESTING_DIFFERENTIAL_HH

#include <string>
#include <vector>

#include "testing/scenario.hh"

namespace anic::testing {

/** Outcome of one world execution (offload or software). */
struct RunResult
{
    bool completed = false; ///< all flows finished before the limit
    std::vector<uint64_t> tlsDelivered;    ///< plaintext per TLS flow
    std::vector<uint64_t> tlsTcpDelivered; ///< ciphertext stream bytes
    uint64_t nvmeReadsOk = 0;
    uint64_t nvmeWritesOk = 0;
    uint64_t nvmeFailures = 0;
    uint64_t nvmeTcpDelivered = 0;
    bool nvmeDesynced = false;
    uint64_t iscsiReadsOk = 0;
    uint64_t iscsiWritesOk = 0;
    uint64_t iscsiFailures = 0;
    uint64_t iscsiTcpDelivered = 0;
    bool iscsiDesynced = false;
    uint64_t incastDelivered = 0; ///< plain-TCP incast bytes at receiver
    uint64_t shortDelivered = 0;  ///< short-flow bytes at receiver
    /** Plain-TCP payload mismatch. Expected under corruption (no
     *  authentication on the plain flows); an oracle error otherwise. */
    bool plainCorrupt = false;
    uint64_t traceHash = 0;   ///< run fingerprint (determinism checks)
    uint64_t fsmEvents = 0;   ///< probe callbacks observed
    std::vector<std::string> errors; ///< oracle/invariant violations
};

/** Trace-ring fingerprints of check()'s two runs. */
struct TraceHashes
{
    uint64_t offload = 0;
    uint64_t software = 0;
};

class DifferentialRunner
{
  public:
    /** Executes the scenario once. @p offload selects the NIC-offload
     *  or the software-only world. */
    RunResult runOne(const Scenario &s, bool offload);

    /** Full differential verdict: offload + software runs plus the
     *  cross-run oracle. Empty result means the scenario passes.
     *  @p hashes, if given, receives both runs' trace hashes. */
    std::vector<std::string> check(const Scenario &s,
                                   TraceHashes *hashes = nullptr);

    /**
     * Shrinks a failing scenario while check() still fails: halves
     * the phase list, drops flows, zeroes one impairment knob at a
     * time, halves flow sizes. Bounded by @p maxEvals differential
     * evaluations; returns the smallest still-failing scenario.
     */
    Scenario minimize(Scenario s, int maxEvals = 48);
};

} // namespace anic::testing

#endif // ANIC_TESTING_DIFFERENTIAL_HH
