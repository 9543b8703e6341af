/**
 * @file
 * Machine-readable benchmark records. Every bench prints its human
 * table; calling jsonRecord() alongside emits one JSON line per data
 * point so BENCH_*.json trajectories can be recorded by tooling:
 *
 *   {"bench":"fig13","metric":"gbps","value":42.1,
 *    "crypto_impl":"hw","variant":"offload+zc","file_kib":"256"}
 *
 * emitRegistrySnapshot() additionally dumps the whole hierarchical
 * StatsRegistry (every component instrument, uniform schema across
 * all benches and examples):
 *
 *   {"schema":"anic.registry.v1","bench":"fig13","crypto_impl":"hw",
 *    "scenario":{"variant":"offload+zc"},"stats":{"srv":{"nic0":...}}}
 *
 * Every line is buffered in a run's RunContext and flushed by the
 * JobRunner in submission order, which keeps `--jobs N` byte-identical
 * to serial. Snapshots read the context's own registry, so they must
 * be taken while the run's world is alive; ANIC_SNAPSHOT_DIR /
 * ANIC_TRACE_FILE artifacts are attached to the run's Output and
 * written at flush time. Single-run tools (the examples,
 * bench_crypto_micro) flush their one context with flushRun()
 * (bench_cli.hh).
 */

#ifndef ANIC_BENCH_BENCH_JSON_HH
#define ANIC_BENCH_BENCH_JSON_HH

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/run_context.hh"

namespace anic::bench {

using JsonExtra = std::initializer_list<std::pair<const char *, std::string>>;

/** Scenario tags carried by a registry snapshot ("variant":"https"). */
using ScenarioTags = std::vector<std::pair<std::string, std::string>>;

/** Compact numeric tag value ("0.01", "256"). */
inline std::string
tagNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

namespace detail {

/** Builds one {"bench":...,"metric":...} record line (no newline). */
std::string recordLine(const char *bench, const char *metric, double value,
                       JsonExtra extra);

/** Builds one anic.registry.v1 snapshot line from @p reg. */
std::string snapshotLine(const std::string &bench,
                         const ScenarioTags &scenario,
                         const sim::StatsRegistry &reg);

/** Flush-time sinks: per-run snapshot files and the trace dump. */
void writeSnapshotFile(const std::string &bench, const std::string &line);
void writeTraceFile(const std::string &dump);

} // namespace detail

/** Buffers one record line in @p ctx (flushed in submission order). */
void jsonRecord(sim::RunContext &ctx, const char *bench, const char *metric,
                double value, JsonExtra extra = {});

/** Buffers a snapshot of @p ctx's registry, plus (when configured)
 *  a per-run snapshot-file artifact and a trace dump. Must run while
 *  the run's world is alive (scopes unlink on destruction). */
void emitRegistrySnapshot(sim::RunContext &ctx, const std::string &bench,
                          const ScenarioTags &scenario = {});

} // namespace anic::bench

#endif // ANIC_BENCH_BENCH_JSON_HH
