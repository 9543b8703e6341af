#include "bench_cli.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/env.hh"

namespace anic::bench {

sim::RunConfig
BenchOptions::runConfig() const
{
    sim::RunConfig rc = sim::RunConfig::fromEnv();
    if (quick)
        rc.windowScale = 0.25;
    return rc;
}

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "shared bench options:\n"
                 "  --jobs N         worker threads (default 1)\n"
                 "  --cores N        simulated server core count\n"
                 "  --filter STR     run only points whose label "
                 "contains STR\n"
                 "  --json PATH      append JSON records to PATH\n"
                 "  --timing-json P  write wall-clock timing JSON to P\n"
                 "  --quick          shrink measurement windows "
                 "(ANIC_QUICK)\n");
}

} // namespace

BenchOptions
parseBenchCli(int argc, char **argv)
{
    BenchOptions opt;
    opt.quick = util::Env::quick();
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            opt.jobs = std::atoi(need("--jobs"));
            if (opt.jobs < 1)
                opt.jobs = 1;
        } else if (a == "--cores") {
            opt.cores = std::atoi(need("--cores"));
            if (opt.cores < 0)
                opt.cores = 0;
        } else if (a == "--filter") {
            opt.filter = need("--filter");
        } else if (a == "--json") {
            opt.jsonPath = need("--json");
        } else if (a == "--timing-json") {
            opt.timingJson = need("--timing-json");
        } else if (a == "--quick") {
            opt.quick = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            usage();
            std::exit(2);
        }
    }
    return opt;
}

sim::JobRunner::Sink
makeBenchSink(std::string jsonPath)
{
    return [jsonPath = std::move(jsonPath)](const sim::RunContext::Output &o) {
        if (!o.text.empty()) {
            std::fwrite(o.text.data(), 1, o.text.size(), stdout);
            std::fflush(stdout);
        }
        const std::string &path =
            jsonPath.empty() ? util::Env::benchJson() : jsonPath;
        if (!path.empty() && !o.jsonLines.empty()) {
            if (std::FILE *f = std::fopen(path.c_str(), "a")) {
                std::fwrite(o.jsonLines.data(), 1, o.jsonLines.size(), f);
                std::fclose(f);
            }
        }
        for (const auto &[bench, line] : o.snapshots)
            detail::writeSnapshotFile(bench, line);
        detail::writeTraceFile(o.traceDump);
    };
}

void
flushRun(sim::RunContext &ctx)
{
    makeBenchSink("")(ctx.takeOutput());
}

Sweep::Sweep(std::string bench, const BenchOptions &opt)
    : bench_(std::move(bench)), opt_(opt),
      runner_(sim::JobRunner::Config{opt.jobs, opt.runConfig(),
                                     makeBenchSink(opt.jsonPath)})
{
}

Sweep::~Sweep()
{
    drain();
}

bool
Sweep::selected(const std::string &label) const
{
    return opt_.filter.empty() || label.find(opt_.filter) != std::string::npos;
}

bool
Sweep::add(const std::string &label, sim::JobRunner::Job job)
{
    if (!selected(label)) {
        filtered_++;
        return false;
    }
    runner_.submit(label, std::move(job));
    return true;
}

void
Sweep::drain()
{
    if (drained_)
        return;
    drained_ = true;
    runner_.drain();
    emitTiming();
}

void
Sweep::emitTiming()
{
    const sim::JobRunner::Stats &st = runner_.stats();
    if (st.runs == 0 && filtered_ == 0)
        return;

    // Build the timing snapshot as a registry so it shares the
    // anic.registry.v1 schema every other snapshot uses.
    sim::StatsRegistry reg;
    reg.gauge("runner.jobs").set(st.jobs);
    reg.gauge("runner.runs").set(static_cast<double>(st.runs));
    reg.gauge("runner.filtered").set(static_cast<double>(filtered_));
    reg.gauge("runner.wallSeconds").set(st.wallSeconds);
    reg.gauge("runner.cpuSeconds").set(st.cpuSeconds);
    reg.gauge("runner.speedup").set(st.speedup());
    for (const sim::JobRunner::RunTiming &rt : st.perRun) {
        // Dots would nest in the registry path; flatten the label.
        std::string leaf = rt.label;
        for (char &c : leaf) {
            if (c == '.')
                c = '_';
        }
        reg.gauge("run." + leaf + ".wallSeconds").set(rt.wallSeconds);
    }
    std::string line =
        detail::snapshotLine(bench_, {{"kind", "timing"}}, reg);

    // Timing is wall-clock and therefore nondeterministic: it goes to
    // stderr and the timing files, never to stdout, so `--jobs N`
    // stdout stays byte-identical to serial.
    std::fprintf(stderr, "%s\n", line.c_str());
    if (!opt_.timingJson.empty()) {
        if (std::FILE *f = std::fopen(opt_.timingJson.c_str(), "w")) {
            std::fprintf(f, "%s\n", line.c_str());
            std::fclose(f);
        }
    }
    if (!util::Env::snapshotDir().empty()) {
        std::string path =
            util::Env::snapshotDir() + "/" + bench_ + "-timing.json";
        if (std::FILE *f = std::fopen(path.c_str(), "w")) {
            std::fprintf(f, "%s\n", line.c_str());
            std::fclose(f);
        }
    }
}

} // namespace anic::bench
