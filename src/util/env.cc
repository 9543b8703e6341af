#include "util/env.hh"

#include <cstdlib>

namespace anic::util {

struct Env::Values
{
    bool quick = false;
    bool traceEnabled = false;
    std::string traceFile;
    std::string snapshotDir;
    std::string benchJson;
    std::string cryptoImpl;
    std::string tcpCc;
    std::string fsmBug;
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

} // namespace

const Env::Values &
Env::values()
{
    // Magic static: snapshotted once, thread-safe thereafter.
    static const Values v = [] {
        Values r;
        r.quick = envFlag("ANIC_QUICK");
        r.traceEnabled = envFlag("ANIC_TRACE");
        r.traceFile = envString("ANIC_TRACE_FILE");
        r.snapshotDir = envString("ANIC_SNAPSHOT_DIR");
        r.benchJson = envString("ANIC_BENCH_JSON");
        r.cryptoImpl = envString("ANIC_CRYPTO_IMPL");
        r.tcpCc = envString("ANIC_TCP_CC");
        r.fsmBug = envString("ANIC_FSM_BUG");
        r.fuzzStorage = envFlag("ANIC_FUZZ_STORAGE");
        return r;
    }();
    return v;
}

bool Env::quick() { return values().quick; }
bool Env::traceEnabled() { return values().traceEnabled; }
const std::string &Env::traceFile() { return values().traceFile; }
const std::string &Env::snapshotDir() { return values().snapshotDir; }
const std::string &Env::benchJson() { return values().benchJson; }
const std::string &Env::cryptoImpl() { return values().cryptoImpl; }
const std::string &Env::tcpCc() { return values().tcpCc; }
const std::string &Env::fsmBug() { return values().fsmBug; }
bool Env::fuzzStorage() { return values().fuzzStorage; }

} // namespace anic::util
