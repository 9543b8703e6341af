/**
 * @file
 * fuzz_offload — deterministic differential fuzzer for the autonomous
 * offload FSM.
 *
 *   fuzz_offload --seeds 200            # quick sweep (CI tier)
 *   fuzz_offload --seeds 5000 --jobs 8  # sharded across 8 workers
 *   fuzz_offload --seed 1234567         # one specific seed
 *   fuzz_offload --replay fail.scenario # reproduce a saved scenario
 *   fuzz_offload --seeds 25 --expect-failure   # mutation smoke: with
 *       ANIC_FSM_BUG set the sweep must find and minimize a failure
 *
 * --jobs N shards the seed sweep across N worker threads; every world
 * is already run-isolated (its own simulator, registry, trace ring),
 * so stdout is byte-identical to a serial sweep and the reported
 * failing seed is the earliest in seed order. On the first failing
 * scenario the harness minimizes it, writes the replay file
 * (fuzz-fail-<seed>.scenario, --out selects the directory), re-loads
 * the file and verifies the reproduction, then exits non-zero. Every
 * Nth seed (--determinism-every, default 16) the offload run is
 * executed twice and the trace-ring hashes must match exactly — the
 * same seed always yields the same simulation.
 *
 * A passing sweep ends with one JSON line whose "trace_digest" folds,
 * in seed order, every seed's offload-run and software-run trace
 * hashes: the same for any --jobs, and equal between two builds iff
 * every simulated run of the sweep traced identically.
 */

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/executor.hh"
#include "testing/differential.hh"

using namespace anic::testing;
namespace sim = anic::sim;

namespace {

struct Options
{
    uint64_t seeds = 200;
    uint64_t seedBase = 1;
    bool haveSingleSeed = false;
    uint64_t singleSeed = 0;
    std::string replayFile;
    std::string outDir = ".";
    uint64_t determinismEvery = 16;
    bool expectFailure = false;
    int jobs = 1;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seeds N] [--seed-base B] [--seed S] [--jobs N]\n"
        "          [--replay FILE] [--out DIR] [--determinism-every K]\n"
        "          [--expect-failure]\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--seeds") {
            const char *v = need("--seeds");
            if (v == nullptr)
                return false;
            opt.seeds = std::strtoull(v, nullptr, 10);
        } else if (a == "--seed-base") {
            const char *v = need("--seed-base");
            if (v == nullptr)
                return false;
            opt.seedBase = std::strtoull(v, nullptr, 10);
        } else if (a == "--seed") {
            const char *v = need("--seed");
            if (v == nullptr)
                return false;
            opt.haveSingleSeed = true;
            opt.singleSeed = std::strtoull(v, nullptr, 10);
        } else if (a == "--jobs") {
            const char *v = need("--jobs");
            if (v == nullptr)
                return false;
            opt.jobs = std::atoi(v);
            if (opt.jobs < 1)
                opt.jobs = 1;
        } else if (a == "--replay") {
            const char *v = need("--replay");
            if (v == nullptr)
                return false;
            opt.replayFile = v;
        } else if (a == "--out") {
            const char *v = need("--out");
            if (v == nullptr)
                return false;
            opt.outDir = v;
        } else if (a == "--determinism-every") {
            const char *v = need("--determinism-every");
            if (v == nullptr)
                return false;
            opt.determinismEvery = std::strtoull(v, nullptr, 10);
        } else if (a == "--expect-failure") {
            opt.expectFailure = true;
        } else {
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

void
printErrors(const std::vector<std::string> &errs)
{
    for (const std::string &e : errs)
        std::printf("  %s\n", e.c_str());
}

/** Minimizes, saves, and re-verifies one failing scenario.
 *  Returns true if the written replay file reproduces the failure. */
bool
handleFailure(DifferentialRunner &runner, const Scenario &s,
              const std::vector<std::string> &errs, const Options &opt)
{
    std::printf("FAIL seed %" PRIu64 " (%zu error%s):\n", s.seed,
                errs.size(), errs.size() == 1 ? "" : "s");
    printErrors(errs);

    std::printf("minimizing...\n");
    Scenario small = runner.minimize(s);
    std::string path =
        opt.outDir + "/fuzz-fail-" + std::to_string(s.seed) + ".scenario";
    std::ofstream out(path);
    out << small.toText();
    out.close();
    if (!out) {
        std::printf("could not write replay file %s\n", path.c_str());
        return false;
    }
    std::printf("replay written: %s\n", path.c_str());

    // Close the loop: the file on disk must itself reproduce.
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::optional<Scenario> reloaded = Scenario::fromText(buf.str());
    if (!reloaded) {
        std::printf("replay file does not parse back\n");
        return false;
    }
    std::vector<std::string> again = runner.check(*reloaded);
    if (again.empty()) {
        std::printf("replay file does NOT reproduce the failure\n");
        return false;
    }
    std::printf("replay reproduces (%zu error%s):\n", again.size(),
                again.size() == 1 ? "" : "s");
    printErrors(again);
    return true;
}

int
replayMode(const Options &opt)
{
    std::ifstream in(opt.replayFile);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", opt.replayFile.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::optional<Scenario> s = Scenario::fromText(buf.str());
    if (!s) {
        std::fprintf(stderr, "malformed scenario file %s\n",
                     opt.replayFile.c_str());
        return 2;
    }
    DifferentialRunner runner;
    std::vector<std::string> errs = runner.check(*s);
    if (errs.empty()) {
        std::printf("replay seed %" PRIu64 ": PASS\n", s->seed);
        return 0;
    }
    std::printf("replay seed %" PRIu64 ": FAIL (%zu error%s)\n", s->seed,
                errs.size(), errs.size() == 1 ? "" : "s");
    printErrors(errs);
    return 1;
}

/** What one seed's job recorded. Slots are distinct per submission
 *  index, so workers never share one. */
struct SeedOutcome
{
    bool ran = false;     ///< false: canceled after an earlier failure
    bool detFail = false; ///< trace-hash mismatch between double runs
    uint64_t h1 = 0, h2 = 0;
    TraceHashes hashes; ///< of the differential check's two runs
    std::vector<std::string> errs; ///< differential oracle violations
    Scenario scenario;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;
    if (!opt.replayFile.empty())
        return replayMode(opt);

    ScenarioGen gen;
    uint64_t first = opt.haveSingleSeed ? opt.singleSeed : opt.seedBase;
    uint64_t count = opt.haveSingleSeed ? 1 : opt.seeds;

    std::vector<SeedOutcome> outcomes(count);
    sim::JobRunner::Config rcfg;
    rcfg.jobs = opt.jobs;
    {
        // Progress goes to stderr (nondeterministic pacing is fine
        // there); successful jobs write nothing to stdout, so parallel
        // and serial stdout match byte for byte.
        uint64_t flushed = 0;
        rcfg.sink = [&flushed, count](const sim::RunContext::Output &o) {
            if (!o.text.empty())
                std::fwrite(o.text.data(), 1, o.text.size(), stdout);
            flushed++;
            if (flushed % 25 == 0)
                std::fprintf(stderr, "... %" PRIu64 "/%" PRIu64 " done\n",
                             flushed, count);
        };
        sim::JobRunner runner(rcfg);
        for (uint64_t i = 0; i < count; i++) {
            uint64_t seed = first + i;
            bool detCheck = opt.determinismEvery != 0 &&
                            i % opt.determinismEvery == 0;
            runner.submit(
                "seed=" + std::to_string(seed),
                [&gen, &outcomes, &runner, i, seed,
                 detCheck](sim::RunContext &) {
                    SeedOutcome &so = outcomes[i];
                    so.ran = true;
                    Scenario s = gen.generate(seed);
                    DifferentialRunner dr;
                    if (detCheck) {
                        so.h1 = dr.runOne(s, true).traceHash;
                        so.h2 = dr.runOne(s, true).traceHash;
                        if (so.h1 != so.h2) {
                            so.detFail = true;
                            so.scenario = s;
                            runner.cancelPending();
                            return;
                        }
                    }
                    so.errs = dr.check(s, &so.hashes);
                    if (!so.errs.empty()) {
                        so.scenario = s;
                        // Seeds submitted before this one have already
                        // been popped (the queue drains in order), so
                        // they still finish: the earliest failure in
                        // seed order is always among completed slots.
                        runner.cancelPending();
                    }
                });
        }
        runner.drain();
    }

    // Report in seed order: the verdict is independent of --jobs.
    uint64_t checked = 0;
    uint64_t determinismChecks = 0;
    uint64_t digest = 0xcbf29ce484222325ull; // FNV-1 over 64-bit words
    for (uint64_t i = 0; i < count; i++) {
        const SeedOutcome &so = outcomes[i];
        if (!so.ran)
            break;
        checked++;
        for (uint64_t h : {so.hashes.offload, so.hashes.software})
            digest = (digest ^ h) * 0x100000001b3ull;
        if (so.detFail) {
            std::printf("FAIL seed %" PRIu64
                        ": nondeterministic trace "
                        "(%016" PRIx64 " vs %016" PRIx64 ")\n",
                        first + i, so.h1, so.h2);
            return 1;
        }
        if (opt.determinismEvery != 0 && i % opt.determinismEvery == 0)
            determinismChecks++;
        if (!so.errs.empty()) {
            DifferentialRunner runner;
            bool reproduced =
                handleFailure(runner, so.scenario, so.errs, opt);
            if (opt.expectFailure && reproduced) {
                std::printf("expected failure found after %" PRIu64
                            " scenario%s\n",
                            checked, checked == 1 ? "" : "s");
                return 0;
            }
            return 1;
        }
    }

    if (opt.expectFailure) {
        std::printf("expected a failure but %" PRIu64
                    " scenarios passed\n",
                    checked);
        return 1;
    }
    std::printf("{\"scenarios\": %" PRIu64 ", \"failures\": 0, "
                "\"determinism_checks\": %" PRIu64
                ", \"trace_digest\": \"%016" PRIx64 "\"}\n",
                checked, determinismChecks, digest);
    return 0;
}
