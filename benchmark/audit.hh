/**
 * @file
 * Conservation auditor. After every run anicbench checks identities
 * that must hold whatever the workload did: packets on the link, NIC
 * context-cache lookups, TLS record and storage PDU classification,
 * and CPU busy time against capacity. A violation fails the run before
 * any metric is printed, with the counters that disagree.
 *
 * PCIe bytes against capacity is reported (nic.pcie_util), not
 * enforced: the NIC model accounts PCIe traffic but does not limit it,
 * and storage_rw's tx-context recovery reads alone exceed the PCIe
 * capacity (README.md, "Found while building the benchmark").
 */

#ifndef ANICBENCH_AUDIT_HH
#define ANICBENCH_AUDIT_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "tls/ktls.hh"

namespace anicbench {

class Audit
{
  public:
    /** Records @p what as violated unless @p ok. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            bad_.push_back(what);
    }

    /** Checks lhs == rhs, naming both sides' counters in @p what. */
    void equal(const std::string &what, uint64_t lhs, uint64_t rhs);

    bool ok() const { return bad_.empty(); }
    const std::vector<std::string> &violations() const { return bad_; }

  private:
    std::vector<std::string> bad_;
};

/** Counters the window-bounded identities compare across the
 *  measurement window. */
struct WorldSnap
{
    std::vector<Tick> srvBusy;
    std::vector<Tick> genBusy;
    uint64_t srvPcieBytes = 0;
    uint64_t genPcieBytes = 0;
    uint64_t srvRxBytes = 0;
    uint64_t genRxBytes = 0;

    static WorldSnap take(World &w);
};

/** Link, NIC-cache and CPU identities; @p installs is the number of
 *  offload installations the workload made. */
void auditWorld(Audit &a, World &w, const WorldSnap &begin,
                const WorldSnap &end, Tick window, uint64_t installs);

/** The busier NIC's PCIe bytes over the window as a share of the
 *  configured PCIe capacity. */
double pcieUtilization(World &w, const WorldSnap &begin, const WorldSnap &end,
                       Tick window);

/** Every received record is classified exactly once (a record whose
 *  tag fails is classified but not counted as received). */
void auditTls(Audit &a, const std::string &who, const anic::tls::TlsStats &s);

} // namespace anicbench

#endif // ANICBENCH_AUDIT_HH
