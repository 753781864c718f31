/**
 * @file
 * The offline workloads: a seeded v2 trace file checked the way
 * `pmtest_check FILE` checks it.
 *
 * Inputs are generated one trace at a time: each trace is checked by
 * a serial Engine (the known answer), encoded into the v2 file and
 * dropped, so the generator never holds the whole input and the
 * process high-water mark belongs to the checker.
 *
 * Untraced run: core::CheckSession over a default CheckPlan (no
 * --workers/--decoders/--batch pinned) — the end-to-end metrics.
 * Traced run: the same blocking path rebuilt from the public layer
 * calls (openTraceSource, EnginePool, core::ingest, results,
 * canonicalize, str), each timed from here, plus telemetry, PoolStats
 * and IngestStats deltas — the per-layer metrics.
 */

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/check_session.hh"
#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/report_io.hh"
#include "core/trace_ingest.hh"
#include "obs/telemetry.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "util/cpu.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** Traffic dimensions of one offline workload. */
struct Shape
{
    size_t traces;
    size_t rounds;      ///< write/clwb/sfence/isPersist rounds per trace
    uint64_t lines;     ///< address span, in 64-byte lines
    uint64_t missOneIn; ///< one writeback in N is left out
};

Shape
shapeFor(const std::string &workload, bool tiny)
{
    // offline_small: ~190-op traces over a 256 KiB hot line set.
    if (workload == "offline_small")
        return tiny ? Shape{400, 48, 4096, 64}
                    : Shape{40000, 48, 4096, 64};
    // offline_sparse: ~400k-op traces over an 8 MiB sparse span.
    return tiny ? Shape{4, 2000, 1u << 17, 64}
                : Shape{16, 100000, 1u << 17, 64};
}

constexpr uint64_t kSaltSmall = 0x5e11;
constexpr uint64_t kSaltSparse = 0x59a5;
constexpr const char *kSourceFile = "app/persist_loop.c";

volatile uint64_t g_read_sink;

/** The generated input file and its known answer. */
struct Prepared
{
    std::string path;
    uint64_t traces = 0;
    uint64_t ops = 0;
    uint64_t fileBytes = 0;
    uint64_t seededMisses = 0;
    /** Canonical Report::str() of the serial reference check. */
    std::string referenceText;
    /**
     * What `pmtest_check FILE` prints after its header line for the
     * reference: the verdict counts and the first findings.
     */
    std::string printedVerdict;
    size_t referenceFails = 0;
    size_t referenceFindings = 0;
};

template <typename T>
void
putLe(std::string *buf, T value)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    buf->append(bytes, sizeof(T));
}

/**
 * Generate the workload's traces, check each with a serial Engine
 * (the reference) and stream it into a v2 file with the layout
 * saveTraces writes (header, length-framed bodies, CRC'd index).
 */
Prepared
prepare(const Options &options, const Shape &shape, Result *result)
{
    Prepared prep;
    prep.path = options.workdir + "/" + options.workload + "-" +
                std::to_string(options.seed) + ".trace";
    const uint64_t salt =
        options.workload == "offline_small" ? kSaltSmall : kSaltSparse;
    Rng rng(mixSeed(options.seed, salt));

    std::ofstream out(prep.path, std::ios::binary | std::ios::trunc);
    std::string chunk;
    putLe(&chunk, TraceWire::kMagic);
    putLe(&chunk, static_cast<uint32_t>(TraceFormat::V2));
    putLe(&chunk, static_cast<uint32_t>(shape.traces));
    std::string index;
    uint64_t offset = TraceWire::kHeaderBytes;

    Engine engine(ModelKind::X86);
    Report reference;
    std::string body;
    for (size_t t = 0; t < shape.traces; t++) {
        Trace trace(t, static_cast<uint32_t>(t % 4));
        for (size_t i = 0; i < shape.rounds; i++) {
            const uint64_t addr = 64 * rng.below(shape.lines);
            trace.append(PmOp::write(addr, 64, {kSourceFile, 10}));
            if (rng.below(shape.missOneIn) != 0)
                trace.append(PmOp::clwb(addr, 64, {kSourceFile, 11}));
            else
                prep.seededMisses++;
            trace.append(PmOp::sfence({kSourceFile, 12}));
            trace.append(PmOp::isPersist(addr, 64, {kSourceFile, 13}));
        }
        prep.ops += trace.size();

        reference.merge(engine.check(trace));

        body.clear();
        encodeTraceBody(trace, &body);
        putLe(&index, offset);
        putLe(&index, static_cast<uint32_t>(trace.size()));
        putLe(&index, trace.threadId());
        putLe(&chunk, static_cast<uint64_t>(body.size()));
        chunk += body;
        offset += sizeof(uint64_t) + body.size();
        if (chunk.size() > (size_t{8} << 20)) {
            out.write(chunk.data(),
                      static_cast<std::streamsize>(chunk.size()));
            chunk.clear();
        }
    }
    chunk += index;
    putLe(&chunk, offset);
    putLe(&chunk, crc32(index.data(), index.size()));
    putLe(&chunk, static_cast<uint32_t>(shape.traces));
    putLe(&chunk, TraceWire::kFooterMagic);
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    out.close();
    if (!out)
        result->fail(shape.traces, "cannot write " + prep.path);
    prep.traces = shape.traces;
    prep.fileBytes = offset + index.size() + TraceWire::kFooterBytes;

    reference.canonicalize();
    // The reference itself must match the generator's own count.
    if (reference.failCount() != prep.seededMisses ||
        reference.warnCount() != 0) {
        const size_t fails = reference.failCount();
        result->fail(std::max<size_t>(
                         1, fails > prep.seededMisses
                                ? fails - prep.seededMisses
                                : prep.seededMisses - fails),
                     "serial reference: " +
                         std::to_string(reference.failCount()) +
                         " FAIL for " +
                         std::to_string(prep.seededMisses) +
                         " seeded missing writebacks");
    }
    if (options.perturbReference && !reference.findings().empty())
        reference.mutableFindings().pop_back();
    prep.referenceText = reference.str();
    const CheckPlan defaults;
    const auto &findings = reference.findings();
    prep.printedVerdict = std::to_string(reference.failCount()) +
                          " FAIL, " +
                          std::to_string(reference.warnCount()) +
                          " WARN\n";
    for (size_t i = 0;
         i < std::min(findings.size(), defaults.maxFindings); i++)
        prep.printedVerdict += "  " + findings[i].str() + "\n";
    if (findings.size() > defaults.maxFindings)
        prep.printedVerdict +=
            "  ... (" +
            std::to_string(findings.size() - defaults.maxFindings) +
            " more; use --summary)\n";
    prep.referenceFails = reference.failCount();
    prep.referenceFindings = reference.findings().size();
    return prep;
}

/** Finding lines of a Report::str() text, sorted (for a diff). */
std::vector<std::string>
sortedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    std::getline(in, line); // "report for trace #N: ..." header
    while (std::getline(in, line))
        lines.push_back(std::move(line));
    std::sort(lines.begin(), lines.end());
    return lines;
}

/**
 * Compare a produced canonical report with the reference; every
 * finding present on one side only counts as one failure.
 */
void
verifyReport(const Prepared &prep, const std::string &text,
             const char *where, Result *result)
{
    if (text == prep.referenceText)
        return;
    const auto want = sortedLines(prep.referenceText);
    const auto got = sortedLines(text);
    std::vector<std::string> diff;
    std::set_symmetric_difference(want.begin(), want.end(), got.begin(),
                                  got.end(), std::back_inserter(diff));
    // Same multiset, different order: the canonical order is broken.
    const uint64_t wrong = diff.empty() ? 1 : diff.size();
    result->fail(wrong, std::string(where) + ": " +
                            std::to_string(wrong) +
                            " findings differ from the reference");
}

/** The plan `pmtest_check FILE` builds: nothing pinned. */
CheckPlan
defaultPlan(const Prepared &prep)
{
    CheckPlan plan;
    plan.inputArgs = {prep.path};
    return plan;
}

/** Sends stdout to a file for its lifetime (the session's report). */
class StdoutToFile
{
  public:
    explicit StdoutToFile(const std::string &path)
    {
        std::fflush(stdout);
        saved_ = dup(STDOUT_FILENO);
        const int fd =
            open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            close(fd);
        }
    }

    ~StdoutToFile()
    {
        std::fflush(stdout);
        dup2(saved_, STDOUT_FILENO);
        close(saved_);
    }

    StdoutToFile(const StdoutToFile &) = delete;
    StdoutToFile &operator=(const StdoutToFile &) = delete;

  private:
    int saved_ = -1;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Set-up time: CheckPlan::finalize plus opening and validating the
 * source — what has to happen before checked work can start.
 */
double
measureSetup(const Prepared &prep, Result *result)
{
    const double start = nowSeconds();
    CheckPlan plan = defaultPlan(prep);
    std::string error;
    bool ok = plan.finalize(&error);
    std::unique_ptr<TraceSource> source;
    if (ok)
        source = openTraceSource(plan.inputs[0], plan.ingestMode, 0,
                                 &error);
    const double took = nowSeconds() - start;
    if (!ok || !source)
        result->fail(prep.traces, "setup: " + error);
    return took;
}

/**
 * One untraced run: CheckSession load→verdict, exactly the plan of
 * `pmtest_check FILE`; returns its wall time. The printed report
 * (verdict counts and the first findings) must equal the reference.
 * With @p full_report the run also writes the complete canonical
 * report (--report-out), which must equal the reference byte for
 * byte; that costs an encode and a file write, so timed runs skip it.
 */
double
runSession(const Prepared &prep, bool full_report, Result *result)
{
    CheckPlan plan = defaultPlan(prep);
    const std::string printed_path = prep.path + ".stdout";
    const std::string report_path = prep.path + ".report";
    if (full_report)
        plan.reportOutPath = report_path;
    std::string error;
    if (!plan.finalize(&error))
        result->fail(prep.traces, "finalize: " + error);
    const uint64_t ops_before = obs::Telemetry::instance().metrics()
                                    .counter(obs::Counter::OpsChecked);

    double wall = 0;
    int exit_code = 2;
    {
        StdoutToFile redirect(printed_path);
        const double start = nowSeconds();
        exit_code = CheckSession(plan).run();
        wall = nowSeconds() - start;
    }

    result->attempted += prep.traces;
    const int want_exit = prep.referenceFails > 0 ? 1 : 0;
    if (exit_code != want_exit) {
        result->fail(exit_code == 2 ? prep.traces : 1,
                     "session exit code " + std::to_string(exit_code) +
                         ", want " + std::to_string(want_exit));
        if (exit_code == 2)
            return wall;
    }
    const std::string printed = readFile(printed_path);
    const std::string header = prep.path + ": " +
                               std::to_string(prep.traces) + " traces, " +
                               std::to_string(prep.ops) + " PM operations";
    const size_t eol = printed.find('\n');
    if (printed.rfind(header, 0) != 0 || eol == std::string::npos ||
        printed.compare(eol + 1, std::string::npos,
                        prep.printedVerdict) != 0)
        result->fail(1, "session printed a different report");
    const uint64_t ops_checked =
        obs::Telemetry::instance().metrics().counter(
            obs::Counter::OpsChecked) -
        ops_before;
    if (ops_checked != prep.ops)
        result->fail(1, "engine checked " + std::to_string(ops_checked) +
                            " ops of " + std::to_string(prep.ops));
    if (!full_report)
        return wall;

    Report report;
    ReportMeta meta;
    if (!loadReportFile(report_path, &report, &meta, &error)) {
        result->fail(prep.traces, "session report: " + error);
        return wall;
    }
    if (meta.traceCount != prep.traces)
        result->fail(prep.traces - std::min<uint64_t>(meta.traceCount,
                                                      prep.traces),
                     "session checked " +
                         std::to_string(meta.traceCount) + " traces");
    verifyReport(prep, report.str(), "session", result);
    return wall;
}

/** Per-layer times and counts of one traced run. */
struct LayerSample
{
    double wall = 0;
    double finalize = 0;
    double open = 0;
    double ingestCall = 0;
    double drain = 0;
    double canonicalize = 0;
    double render = 0;
    IngestStats ingest;
    PoolStats pool;
    obs::MetricsSnapshot telemetry; ///< delta over the run
    size_t workers = 0;
    size_t findings = 0;
};

/**
 * One traced run: the CheckSession blocking path rebuilt from the
 * public layer calls, each timed here.
 */
LayerSample
runTraced(const Prepared &prep, Result *result)
{
    LayerSample s;
    const obs::MetricsSnapshot before =
        obs::Telemetry::instance().metrics();
    const double start = nowSeconds();

    double t = nowSeconds();
    CheckPlan plan = defaultPlan(prep);
    std::string error;
    if (!plan.finalize(&error))
        result->fail(prep.traces, "finalize: " + error);
    s.finalize = nowSeconds() - t;

    t = nowSeconds();
    std::unique_ptr<TraceSource> source =
        openTraceSource(prep.path, plan.ingestMode, 0, &error);
    s.open = nowSeconds() - t;
    result->attempted += prep.traces;
    if (!source) {
        result->fail(prep.traces, "open: " + error);
        return s;
    }

    // The session's thread resolution with no flags set.
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    PoolOptions pool_options;
    pool_options.model = plan.model;
    pool_options.workers = layout.workers;
    pool_options.queueCapacity = plan.queueCap;
    IngestOptions ingest_options;
    ingest_options.decoders = layout.decoders;
    ingest_options.batch = plan.batch;
    ingest_options.affinity = plan.affinity;

    Report merged;
    {
        EnginePool pool(pool_options);
        s.workers = pool.workerCount();
        SourceError source_error;
        t = nowSeconds();
        const bool ok = ingest(*source, pool, ingest_options, &s.ingest,
                               &source_error);
        s.ingestCall = nowSeconds() - t;
        if (!ok)
            result->fail(prep.traces, "ingest: " + source_error.str());

        t = nowSeconds();
        merged = pool.results();
        s.drain = nowSeconds() - t;
        s.pool = pool.stats();
    }

    t = nowSeconds();
    merged.canonicalize();
    s.canonicalize = nowSeconds() - t;

    t = nowSeconds();
    const std::string text = merged.str();
    s.render = nowSeconds() - t;
    s.wall = nowSeconds() - start;

    s.telemetry = obs::Telemetry::instance().metrics();
    s.telemetry.subtract(before);
    s.findings = merged.findings().size();
    if (s.pool.tracesCompleted != prep.traces)
        result->fail(prep.traces - std::min<uint64_t>(
                                       s.pool.tracesCompleted,
                                       prep.traces),
                     "pool completed " +
                         std::to_string(s.pool.tracesCompleted) +
                         " traces");
    if (s.telemetry.counter(obs::Counter::OpsChecked) != prep.ops)
        result->fail(1, "engine checked " +
                            std::to_string(s.telemetry.counter(
                                obs::Counter::OpsChecked)) +
                            " ops of " + std::to_string(prep.ops));
    verifyReport(prep, text, "traced", result);
    return s;
}

/**
 * The native baseline of the offline slowdown: one thread reading
 * every byte of the input file, as the simplest consumer of the same
 * bytes would. @return its wall time.
 */
double
readInput(const Prepared &prep, Result *result)
{
    const double start = nowSeconds();
    const int fd = open(prep.path.c_str(), O_RDONLY);
    void *map = fd < 0 ? MAP_FAILED
                       : mmap(nullptr, prep.fileBytes, PROT_READ,
                              MAP_PRIVATE, fd, 0);
    if (fd >= 0)
        close(fd);
    if (map == MAP_FAILED) {
        result->fail(1, "cannot map " + prep.path);
        return 1;
    }
    const auto *bytes = static_cast<const unsigned char *>(map);
    uint64_t sum = 0;
    for (uint64_t i = 0; i + sizeof(uint64_t) <= prep.fileBytes;
         i += sizeof(uint64_t)) {
        uint64_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        sum += word;
    }
    munmap(map, prep.fileBytes);
    g_read_sink = sum;
    return nowSeconds() - start;
}

double
stageSeconds(const obs::MetricsSnapshot &snap, obs::Stage stage)
{
    return static_cast<double>(snap.stage(stage).sum) * 1e-9;
}

/** Mean over samples of @p field. */
template <typename Fn>
double
meanOf(const std::vector<LayerSample> &samples, Fn &&field)
{
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto &s : samples)
        values.push_back(field(s));
    return mean(values);
}

void
addLayerMetrics(const std::vector<LayerSample> &samples,
                double untraced_wall, Result *result)
{
    using S = LayerSample;
    const auto check_s = [](const S &s) {
        return stageSeconds(s.telemetry, obs::Stage::EngineCheck);
    };
    const auto ops = [](const S &s) {
        return double(s.telemetry.counter(obs::Counter::OpsChecked));
    };
    const auto layers = [](const S &s) {
        return s.finalize + s.open + s.ingestCall + s.drain +
               s.canonicalize + s.render;
    };
    const double wall = meanOf(samples, [](const S &s) { return s.wall; });
    const double decode_s = meanOf(samples, [](const S &s) {
        return s.ingest.decodeNanos * 1e-9;
    });
    const double decoded_mb = meanOf(samples, [](const S &s) {
        return s.ingest.bytesMapped / 1e6;
    });

    // trace (source open and decode)
    result->add("trace.open_s",
                meanOf(samples, [](const S &s) { return s.open; }), "s");
    result->add("ingest.call_s",
                meanOf(samples, [](const S &s) { return s.ingestCall; }),
                "s");
    result->add("ingest.decode_s", decode_s, "s");
    result->add("ingest.decode_mb_per_s",
                decode_s > 0 ? decoded_mb / decode_s : 0, "MB/s");
    result->add("ingest.stall_s", meanOf(samples, [](const S &s) {
                    return s.ingest.stallNanos * 1e-9;
                }),
                "s");
    result->add("ingest.decoders", meanOf(samples, [](const S &s) {
                    return double(s.ingest.decoders);
                }),
                "count");

    // core.pool
    result->add("pool.workers", meanOf(samples, [](const S &s) {
                    return double(s.workers);
                }),
                "count");
    result->add("pool.batches", meanOf(samples, [](const S &s) {
                    return double(s.pool.batchesSubmitted);
                }),
                "count");
    result->add("pool.producer_stall_s", meanOf(samples, [](const S &s) {
                    return s.pool.producerStallNanos * 1e-9;
                }),
                "s");
    result->add("pool.drain_s",
                meanOf(samples, [](const S &s) { return s.drain; }), "s");
    result->add("pool.worker_imbalance", meanOf(samples, [](const S &s) {
                    double max_ops = 0, sum_ops = 0;
                    for (const auto &w : s.pool.workers) {
                        max_ops = std::max(max_ops,
                                           double(w.opsProcessed));
                        sum_ops += double(w.opsProcessed);
                    }
                    const double avg =
                        s.pool.workers.empty()
                            ? 0
                            : sum_ops / double(s.pool.workers.size());
                    return avg > 0 ? max_ops / avg : 1.0;
                }),
                "ratio");
    result->add("pool.worker_busy_share",
                meanOf(samples,
                       [&](const S &s) {
                           return s.workers && s.wall > 0
                                      ? check_s(s) /
                                            (double(s.workers) * s.wall)
                                      : 0;
                       }),
                "share");
    result->add("pool.worker_idle_s",
                meanOf(samples,
                       [&](const S &s) {
                           return double(s.workers) * s.wall - check_s(s);
                       }),
                "s");
    result->add("pool.steals", meanOf(samples, [](const S &s) {
                    return double(s.pool.steals);
                }),
                "count");

    // core.engine
    result->add("engine.check_s", meanOf(samples, check_s), "s");
    result->add("engine.ns_per_op", meanOf(samples,
                                           [&](const S &s) {
                                               return ops(s) > 0
                                                          ? check_s(s) *
                                                                1e9 /
                                                                ops(s)
                                                          : 0;
                                           }),
                "ns");
    result->add("engine.ops_checked", meanOf(samples, ops), "count");

    // core.report
    result->add("report.merge_s", meanOf(samples, [](const S &s) {
                    return stageSeconds(s.telemetry,
                                        obs::Stage::ReportMerge);
                }),
                "s");
    result->add("report.canonicalize_s",
                meanOf(samples,
                       [](const S &s) { return s.canonicalize; }),
                "s");
    result->add("report.render_s",
                meanOf(samples, [](const S &s) { return s.render; }),
                "s");
    result->add("report.findings", meanOf(samples, [](const S &s) {
                    return double(s.findings);
                }),
                "count");

    // core.session
    result->add("session.finalize_s",
                meanOf(samples, [](const S &s) { return s.finalize; }),
                "s");
    result->add("session.unattributed_s",
                meanOf(samples,
                       [&](const S &s) { return s.wall - layers(s); }),
                "s");

    // obs
    result->add("obs.traced_wall_s", wall, "s");
    result->add("obs.trace_overhead_share",
                untraced_wall > 0 ? wall / untraced_wall - 1 : 0,
                "share");
}

} // namespace

bool
isOfflineWorkload(const std::string &name)
{
    return name == "offline_small" || name == "offline_sparse";
}

Result
runOffline(const Options &options)
{
    Result result;
    ScopedLogSilencer quiet;
    std::error_code ec;
    std::filesystem::create_directories(options.workdir, ec);
    const Shape shape = shapeFor(options.workload, options.tiny);
    const Prepared prep = prepare(options, shape, &result);
    result.note("input.traces", double(prep.traces), "count");
    result.note("input.ops", double(prep.ops), "count");
    result.note("input.file_mb", prep.fileBytes / 1e6, "MB");
    result.note("input.seeded_misses", double(prep.seededMisses),
                "count");
    result.note("reference.findings", double(prep.referenceFindings),
                "count");

    // One untimed run compares the complete report byte for byte
    // (and warms the page cache the timed runs read through).
    runSession(prep, true, &result);

    // Set-up runs several times, spread over the run; its median is
    // the metric.
    constexpr size_t kSetupReps = 3, kMinSetups = 31;
    std::vector<double> setups;
    std::vector<double> walls, slowdowns;
    std::vector<LayerSample> layers;
    // A traced run alternates untraced and traced load→verdict runs,
    // so the tracing overhead compares like with like. The first
    // traced run collects the exported timeline and is not averaged.
    const double deadline = nowSeconds() + options.seconds;
    bool exported = !options.traced;
    do {
        for (size_t i = 0; i < kSetupReps; i++)
            setups.push_back(measureSetup(prep, &result));
        walls.push_back(runSession(prep, false, &result));
        if (!options.traced) {
            slowdowns.push_back(walls.back() / readInput(prep, &result));
            continue;
        }
        if (!exported) {
            auto &telemetry = obs::Telemetry::instance();
            telemetry.enableSpans();
            runTraced(prep, &result);
            telemetry.disableSpans();
            exported = true;
            std::string error;
            if (!options.traceEventsPath.empty() &&
                !telemetry.writeTraceEventsFile(options.traceEventsPath,
                                                &error))
                result.fail(1, "trace events: " + error);
            continue;
        }
        layers.push_back(runTraced(prep, &result));
    } while (nowSeconds() < deadline || walls.size() < 3 ||
             (options.traced && layers.size() < 2));
    while (setups.size() < kMinSetups)
        setups.push_back(measureSetup(prep, &result));
    result.note("runs.untraced", double(walls.size()), "count");
    result.note("runs.wall_q1_s", quantile(walls, 0.25), "s");
    result.note("runs.wall_q3_s", quantile(walls, 0.75), "s");

    const double wall = median(walls);
    if (options.traced) {
        result.note("runs.traced", double(layers.size()), "count");
        addLayerMetrics(layers, wall, &result);
    } else {
        result.add("setup_s", median(setups), "s");
        result.add("wall_s", wall, "s");
        result.add("ops_per_s", double(prep.ops) / wall, "1/s");
        result.add("slowdown", median(slowdowns), "x");
        // Offline, one request is one load→verdict check of the file.
        result.add("req_p50_us", quantile(walls, 0.5) * 1e6, "us");
        result.add("req_p99_us", quantile(walls, 0.99) * 1e6, "us");
        result.add("peak_rss_mb", peakRssMb(), "MB");
    }

    for (const char *suffix : {"", ".report", ".stdout"})
        std::filesystem::remove(prep.path + suffix, ec);
    return result;
}

} // namespace perfbench
