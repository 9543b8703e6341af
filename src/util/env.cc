#include "util/env.hh"

#include <cstdlib>

namespace anic::util {

struct Env::Values
{
    bool quick = false;
    int cores = 0;
    int flows = 0;
    bool traceEnabled = false;
    size_t traceCap = 0;
    std::string traceFile;
    std::string snapshotDir;
    std::string benchJson;
    std::string cryptoImpl;
    std::string tcpCc;
    std::string fsmBug;
    bool fuzzDebug = false;
    bool fuzzStorage = false;
};

namespace {

bool
envFlag(const char *name)
{
    const char *e = std::getenv(name);
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

std::string
envString(const char *name)
{
    const char *e = std::getenv(name);
    return e != nullptr ? e : "";
}

size_t
envSize(const char *name)
{
    const char *e = std::getenv(name);
    if (e == nullptr)
        return 0;
    return static_cast<size_t>(std::strtoull(e, nullptr, 10));
}

} // namespace

const Env::Values &
Env::values()
{
    // Magic static: snapshotted once, thread-safe thereafter.
    static const Values v = [] {
        Values r;
        r.quick = envFlag("ANIC_QUICK");
        r.cores = static_cast<int>(envSize("ANIC_CORES"));
        r.flows = static_cast<int>(envSize("ANIC_FLOWS"));
        r.traceEnabled = envFlag("ANIC_TRACE");
        r.traceCap = envSize("ANIC_TRACE_CAP");
        r.traceFile = envString("ANIC_TRACE_FILE");
        r.snapshotDir = envString("ANIC_SNAPSHOT_DIR");
        r.benchJson = envString("ANIC_BENCH_JSON");
        r.cryptoImpl = envString("ANIC_CRYPTO_IMPL");
        r.tcpCc = envString("ANIC_TCP_CC");
        r.fsmBug = envString("ANIC_FSM_BUG");
        r.fuzzDebug = envFlag("ANIC_FUZZ_DEBUG");
        r.fuzzStorage = envFlag("ANIC_FUZZ_STORAGE");
        return r;
    }();
    return v;
}

bool Env::quick() { return values().quick; }
int Env::cores() { return values().cores; }
int Env::flows() { return values().flows; }
bool Env::traceEnabled() { return values().traceEnabled; }
size_t Env::traceCap() { return values().traceCap; }
const std::string &Env::traceFile() { return values().traceFile; }
const std::string &Env::snapshotDir() { return values().snapshotDir; }
const std::string &Env::benchJson() { return values().benchJson; }
const std::string &Env::cryptoImpl() { return values().cryptoImpl; }
const std::string &Env::tcpCc() { return values().tcpCc; }
const std::string &Env::fsmBug() { return values().fsmBug; }
bool Env::fuzzDebug() { return values().fuzzDebug; }
bool Env::fuzzStorage() { return values().fuzzStorage; }

} // namespace anic::util
