/**
 * @file
 * pmtest_perfbench: one benchmark run of one workload. Measures for
 * --seconds, verifies every verdict against a known answer, logs a
 * human-readable summary to stderr and prints the result as one JSON
 * line on stdout:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"wall_s": {"value": 0.41, "unit": "s"}, ...}}
 *
 * --trace=0 reports the end-to-end metrics, --trace=1 the per-layer
 * ones. Exit status: 0 when every output was correct, 1 when a
 * verification failed, 2 on usage errors.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "util/cli.hh"
#include "workloads.hh"

namespace
{

using perfbench::Metric;
using perfbench::Result;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run reports. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},     {"ops_per_s", "1/s"},
    {"slowdown", "x"},      {"req_p50_us", "us"}, {"req_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

/**
 * The per-layer metrics every traced run reports, in output order. A
 * layer that is not on a workload's path (ingest on online_apps, the
 * capture API on offline_*) reads 0 there.
 */
constexpr MetricSpec kPerLayer[] = {
    {"trace.open_s", "s"},
    {"ingest.call_s", "s"},
    {"ingest.decode_s", "s"},
    {"ingest.decode_mb_per_s", "MB/s"},
    {"ingest.stall_s", "s"},
    {"ingest.decoders", "count"},
    {"pool.workers", "count"},
    {"pool.batches", "count"},
    {"pool.producer_stall_s", "s"},
    {"pool.drain_s", "s"},
    {"pool.worker_imbalance", "ratio"},
    {"pool.worker_busy_share", "share"},
    {"pool.worker_idle_s", "s"},
    {"pool.steals", "count"},
    {"engine.check_s", "s"},
    {"engine.ns_per_op", "ns"},
    {"engine.ops_checked", "count"},
    {"report.merge_s", "s"},
    {"report.canonicalize_s", "s"},
    {"report.render_s", "s"},
    {"report.findings", "count"},
    {"session.finalize_s", "s"},
    {"session.unattributed_s", "s"},
    {"api.init_s", "s"},
    {"api.requests_s", "s"},
    {"capture.seal_s", "s"},
    {"api.submit_s", "s"},
    {"api.final_drain_s", "s"},
    {"capture.ops_recorded", "count"},
    {"capture.traces", "count"},
    {"pmfs.fifo_stalls", "count"},
    {"pmfs.fifo_stall_s", "s"},
    {"workloads.native_s", "s"},
    {"workloads.setup_s", "s"},
    {"online.memcached_s", "s"},
    {"online.redis_s", "s"},
    {"online.pmfs_s", "s"},
    {"obs.traced_wall_s", "s"},
    {"obs.trace_overhead_share", "share"},
};

/**
 * Put @p result's metrics into the contract order of @p specs. A
 * missing end-to-end metric is a defect of the run; a missing
 * per-layer metric is a layer the workload does not use (0).
 */
template <size_t N>
void
normalize(const MetricSpec (&specs)[N], bool missing_is_zero,
          Result *result)
{
    std::vector<Metric> ordered;
    for (const MetricSpec &spec : specs) {
        const auto it = std::find_if(
            result->metrics.begin(), result->metrics.end(),
            [&](const Metric &m) { return m.name == spec.name; });
        if (it != result->metrics.end() && it->unit == spec.unit) {
            ordered.push_back(*it);
        } else if (it == result->metrics.end() && missing_is_zero) {
            ordered.push_back({spec.name, 0.0, spec.unit});
        } else {
            result->fail(1, std::string("metric ") + spec.name +
                                " missing or in the wrong unit");
        }
    }
    if (ordered.size() != result->metrics.size() && !missing_is_zero)
        result->fail(1, "unexpected extra metrics");
    result->metrics = std::move(ordered);
}

void
printMetric(std::FILE *out, const Metric &m, bool first)
{
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", m.name.c_str(), m.value,
                 m.unit.c_str());
}

void
logResult(const perfbench::Options &options, const Result &result)
{
    std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %s, "
                         "%llu attempted, %llu failed (failed_share "
                         "%.6g)\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.traced ? 1 : 0,
                 result.correct ? "correct" : "INCORRECT",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed),
                 result.attempted
                     ? double(result.failed) / double(result.attempted)
                     : 1.0);
    for (const auto &error : result.errors)
        std::fprintf(stderr, "  mismatch: %s\n", error.c_str());
    for (const auto &m : result.notes)
        std::fprintf(stderr, "  %-28s %.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    for (const auto &m : result.metrics)
        std::fprintf(stderr, "  %-28s %.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    size_t seed = 1, seconds = 10, trace = 0;
    pmtest::util::CliParser cli("pmtest_perfbench");
    cli.addString("--workload", &options.workload,
                  "offline_small | offline_sparse | online_apps");
    cli.addSize("--seed", &seed, "input seed");
    cli.addSize("--seconds", &seconds, "measured seconds per run", 1);
    cli.addSize("--trace", &trace,
                "0 = end-to-end metrics, 1 = per-layer metrics", 0, 1);
    cli.addFlag("--tiny", &options.tiny, "smoke-sized inputs");
    cli.addFlag("--perturb-reference", &options.perturbReference,
                "corrupt the known answer (self-test)");
    cli.addString("--workdir", &options.workdir,
                  "scratch directory for trace/report files");
    cli.addString("--trace-events", &options.traceEventsPath,
                  "Chrome trace-event export of a traced run");
    cli.positionalCount(0, 0);
    const auto status = cli.parse(argc, argv);
    if (status != pmtest::util::CliStatus::Ok)
        return pmtest::util::cliExitCode(status);
    options.seed = seed;
    options.seconds = static_cast<double>(seconds);
    options.traced = trace == 1;

    Result result;
    if (perfbench::isOfflineWorkload(options.workload)) {
        result = perfbench::runOffline(options);
    } else if (options.workload == "online_apps") {
        result = perfbench::runOnline(options);
    } else {
        return pmtest::util::cliExitCode(
            cli.usageError("unknown --workload '" + options.workload +
                           "'"));
    }
    if (result.attempted == 0)
        result.fail(1, "no work was attempted");
    if (options.traced)
        normalize(kPerLayer, true, &result);
    else
        normalize(kEndToEnd, false, &result);

    logResult(options, result);
    std::fflush(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (size_t i = 0; i < result.metrics.size(); i++)
        printMetric(stdout, result.metrics[i], i == 0);
    std::printf("}}\n");
    return result.correct ? 0 : 1;
}
