/**
 * @file
 * The online workload: the Fig. 11 apps run back to back —
 * memcached-lite + YCSB-A on mnemosyne, redis-lite + LRU stress on
 * txlib, PMFS + a filebench mix through the KernelFifo — each driven
 * by one seeded closed-loop client, request by request, first
 * natively and then under PMTest (default Config: one engine worker).
 *
 * Every reply is checked against the client's own model of the store
 * (a GET returns the last value SET, a file read returns the bytes
 * last written), every PMTest run must end with 0 FAIL findings and
 * tracesSubmitted == tracesCompleted.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/api.hh"
#include "mnemosyne/region.hh"
#include "obs/telemetry.hh"
#include "pmfs/pmfs.hh"
#include "txlib/obj_pool.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads.hh"
#include "workloads/clients.hh"
#include "workloads/memcached_lite.hh"
#include "workloads/redis_lite.hh"

namespace perfbench
{

namespace
{

using namespace pmtest;
using namespace pmtest::workloads;

/** Request-mix parameters (the Fig. 11 client settings). */
constexpr size_t kKeySpace = 400;
constexpr size_t kValueSize = 128;
constexpr size_t kRedisCapacity = 300;
constexpr size_t kFiles = 16;
constexpr size_t kReadBytes = 1024;
/** Per-request CPU work, as workloads::ClientConfig::requestWork. */
constexpr size_t kRequestWork = 24;

volatile uint64_t g_request_sink;

void
requestWork(const std::string &payload)
{
    g_request_sink = simulateRequestWork(payload.data(), payload.size(),
                                         kRequestWork);
}

std::string
valueOf(uint64_t salt)
{
    std::string v(kValueSize, 'v');
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<char>('a' + ((salt + i) % 26));
    return v;
}

/** One key-value request: SET key=value, or GET key. */
struct KvRequest
{
    bool set;
    uint32_t key;
    std::string value; ///< SET payload
};

/** One file request of the filebench mix. */
struct FsRequest
{
    enum Kind : uint8_t
    {
        Write,  ///< create if missing, write the payload at offset 0
        Read,   ///< read the file's first kReadBytes
        Append, ///< append the payload
        Delete, ///< unlink
    } kind;
    uint32_t file;
    std::string payload;
};

std::vector<KvRequest>
kvRequests(Rng &rng, size_t count, uint32_t set_percent)
{
    std::vector<KvRequest> out;
    out.reserve(count);
    for (size_t i = 0; i < count; i++) {
        KvRequest r;
        r.key = static_cast<uint32_t>(rng.below(kKeySpace));
        r.set = rng.below(100) < set_percent;
        if (r.set)
            r.value = valueOf(rng.next());
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<FsRequest>
fsRequests(Rng &rng, size_t count)
{
    // File-server mix: 30% create+write, 40% read, 20% append,
    // 10% delete over a 16-file working set.
    std::vector<FsRequest> out;
    out.reserve(count);
    for (size_t i = 0; i < count; i++) {
        FsRequest r;
        r.file = static_cast<uint32_t>(rng.below(kFiles));
        const uint64_t dice = rng.below(100);
        r.kind = dice < 30   ? FsRequest::Write
                 : dice < 70 ? FsRequest::Read
                 : dice < 90 ? FsRequest::Append
                             : FsRequest::Delete;
        r.payload = valueOf(rng.next());
        out.push_back(std::move(r));
    }
    return out;
}

std::string
keyName(uint32_t key)
{
    return "key-" + std::to_string(key);
}

/** memcached-lite + YCSB-A (50% update, 50% read) on mnemosyne. */
struct MemcachedApp
{
    static constexpr const char *kName = "memcached";
    const std::vector<KvRequest> *requests = nullptr;
    std::unique_ptr<mnemosyne::Region> region;
    std::unique_ptr<MemcachedLite> server;
    std::vector<std::string> model; ///< last value SET per key
    bool perturb = false;           ///< self-test: a wrong known answer
    std::string out;

    void
    setUp(bool checkers)
    {
        region = std::make_unique<mnemosyne::Region>(64 << 20);
        region->emitCheckers = checkers;
        server = std::make_unique<MemcachedLite>(*region);
        // Pre-populate so GETs hit, like a warmed cache.
        model.assign(kKeySpace, std::string(kValueSize, 'w'));
        for (uint32_t k = 0; k < kKeySpace; k++)
            server->set(keyName(k), model[k]);
        if (perturb)
            model.assign(kKeySpace, std::string(kValueSize, 'x'));
    }

    /** Serve request @p i; false when the reply is wrong. */
    bool
    serve(size_t i)
    {
        const KvRequest &r = (*requests)[i];
        if (r.set) {
            requestWork(r.value);
            server->set(keyName(r.key), r.value);
            model[r.key] = r.value;
            return true;
        }
        const bool hit = server->get(keyName(r.key), &out);
        requestWork(out);
        return hit && out == model[r.key];
    }

    void
    tearDown()
    {
        server.reset();
        region.reset();
    }
};

/** redis-lite + LRU stress (80% SET) on txlib, 300-entry capacity. */
struct RedisApp
{
    static constexpr const char *kName = "redis";
    const std::vector<KvRequest> *requests = nullptr;
    std::unique_ptr<txlib::ObjPool> pool;
    std::unique_ptr<RedisLite> server;
    std::unordered_map<uint32_t, std::string> model;
    uint64_t evictedMisses = 0;
    std::string out;

    void
    setUp(bool checkers)
    {
        pool = std::make_unique<txlib::ObjPool>(64 << 20);
        server = std::make_unique<RedisLite>(*pool, kRedisCapacity);
        server->emitCheckers = checkers;
        model.clear();
        evictedMisses = 0;
    }

    bool
    serve(size_t i)
    {
        const KvRequest &r = (*requests)[i];
        if (r.set) {
            requestWork(r.value);
            server->set(keyName(r.key), r.value);
            model[r.key] = r.value;
            return true;
        }
        const bool hit = server->get(keyName(r.key), &out);
        requestWork(out);
        const auto it = model.find(r.key);
        if (hit)
            return it != model.end() && out == it->second;
        if (it == model.end())
            return true;
        // A miss on a key that was SET is only right when an
        // eviction removed it: misses may not outnumber evictions.
        model.erase(it);
        return ++evictedMisses <= server->evictions();
    }

    void
    tearDown()
    {
        server.reset();
        pool.reset();
    }
};

/** PMFS + filebench-style file server mix, traces via KernelFifo. */
struct PmfsApp
{
    static constexpr const char *kName = "pmfs";
    const std::vector<FsRequest> *requests = nullptr;
    std::unique_ptr<pmfs::Pmfs> fs;
    std::map<uint32_t, std::string> model; ///< file contents
    std::vector<char> buf = std::vector<char>(kReadBytes);

    void
    setUp(bool checkers)
    {
        fs = std::make_unique<pmfs::Pmfs>(32 << 20, false,
                                          /*use_fifo=*/true);
        fs->emitCheckers = checkers;
        model.clear();
    }

    bool
    serve(size_t i)
    {
        const FsRequest &r = (*requests)[i];
        requestWork(r.payload);
        const std::string name = "c0-f" + std::to_string(r.file);
        int ino = fs->lookup(name);
        const auto it = model.find(r.file);
        if ((ino >= 0) != (it != model.end()))
            return false;
        const long len = static_cast<long>(r.payload.size());
        switch (r.kind) {
          case FsRequest::Write: {
            if (ino < 0)
                ino = fs->create(name);
            if (ino < 0 ||
                fs->write(ino, 0, r.payload.data(), r.payload.size()) !=
                    len)
                return false;
            std::string &content = model[r.file];
            if (content.size() < r.payload.size())
                content.resize(r.payload.size());
            content.replace(0, r.payload.size(), r.payload);
            return true;
          }
          case FsRequest::Read: {
            if (ino < 0)
                return true;
            const long got = fs->read(ino, 0, buf.data(), buf.size());
            const size_t want = std::min(kReadBytes, it->second.size());
            return got == static_cast<long>(want) &&
                   std::equal(buf.begin(), buf.begin() + want,
                              it->second.begin());
          }
          case FsRequest::Append: {
            if (ino < 0)
                return true;
            const uint64_t size = fs->fileSize(ino);
            if (size != it->second.size())
                return false;
            if (size + r.payload.size() >
                pmfs::kDirectBlocks * pmfs::kBlockSize)
                return true;
            if (fs->write(ino, size, r.payload.data(),
                          r.payload.size()) != len)
                return false;
            it->second += r.payload;
            return true;
          }
          case FsRequest::Delete:
            if (ino < 0)
                return true;
            model.erase(it);
            return fs->unlink(name);
        }
        return false;
    }

    /** Wait for the FIFO pump to hand every trace to the pool. */
    void drainFifo() { fs->drainTraces(); }

    void tearDown() { fs.reset(); }
};

/** What one app measured in one iteration. */
struct AppRun
{
    double nativeWall = 0;
    double setup = 0;     ///< pmtestInit + server build + pre-population
    double init = 0;      ///< pmtestInit + pmtestThreadInit
    double wall = 0;      ///< request sequence incl. the final drain
    double requests = 0;  ///< time inside the timed server calls
    double finalDrain = 0;///< FIFO drain + pmtestSendTrace + GetResult
    double getResult = 0; ///< the pmtestGetResult part of finalDrain
    uint64_t opsRecorded = 0;
    uint64_t fifoStalls = 0;
    double fifoStallSec = 0;
    core::PoolStats pool;
    obs::MetricsSnapshot telemetry; ///< delta over the PMTest run
};

template <typename App>
double
runNative(App &app, size_t count, Result *result)
{
    app.setUp(false);
    const double start = nowSeconds();
    uint64_t wrong = 0;
    for (size_t i = 0; i < count; i++)
        wrong += app.serve(i) ? 0 : 1;
    const double wall = nowSeconds() - start;
    app.tearDown();
    if (wrong)
        result->fail(wrong, std::string(App::kName) + " native: " +
                                std::to_string(wrong) +
                                " wrong replies");
    return wall;
}

template <typename App>
AppRun
runPmtest(App &app, size_t count, std::vector<double> *latencies_us,
          Result *result)
{
    AppRun run;
    ScopedLogSilencer quiet;
    const double setup_start = nowSeconds();
    pmtestInit(Config{});
    pmtestThreadInit();
    run.init = nowSeconds() - setup_start;
    app.setUp(true);
    run.setup = nowSeconds() - setup_start;

    const obs::MetricsSnapshot before =
        obs::Telemetry::instance().metrics();
    pmtestStart();
    const double start = nowSeconds();
    uint64_t wrong = 0;
    for (size_t i = 0; i < count; i++) {
        const double t = nowSeconds();
        wrong += app.serve(i) ? 0 : 1;
        const double took = nowSeconds() - t;
        run.requests += took;
        latencies_us->push_back(took * 1e6);
    }
    const double drain_start = nowSeconds();
    if constexpr (requires { app.drainFifo(); })
        app.drainFifo();
    pmtestSendTrace();
    const double get_start = nowSeconds();
    pmtestGetResult();
    const double end = nowSeconds();
    run.getResult = end - get_start;
    run.finalDrain = end - drain_start;
    run.wall = end - start;

    run.telemetry = obs::Telemetry::instance().metrics();
    run.telemetry.subtract(before);
    run.pool = pmtestPoolStats();
    run.opsRecorded = pmtestOpsRecorded();
    if constexpr (requires { app.fs->fifoStalls(); }) {
        run.fifoStalls = app.fs->fifoStalls();
        run.fifoStallSec = app.fs->fifoStallNanos() * 1e-9;
    }
    const core::Report report = pmtestResults();
    pmtestEnd();
    app.tearDown();
    pmtestExit();

    if (wrong)
        result->fail(wrong, std::string(App::kName) + " pmtest: " +
                                std::to_string(wrong) +
                                " wrong replies");
    if (report.failCount() != 0)
        result->fail(report.failCount(),
                     std::string(App::kName) + ": " +
                         std::to_string(report.failCount()) +
                         " FAIL findings on a clean app");
    if (run.pool.tracesSubmitted != run.pool.tracesCompleted)
        result->fail(run.pool.tracesSubmitted - run.pool.tracesCompleted,
                     std::string(App::kName) + ": " +
                         std::to_string(run.pool.tracesCompleted) +
                         " of " +
                         std::to_string(run.pool.tracesSubmitted) +
                         " traces completed");
    return run;
}

/** The three apps' request sequences for one seed. */
struct Requests
{
    std::vector<KvRequest> memcached;
    std::vector<KvRequest> redis;
    std::vector<FsRequest> pmfs;

    size_t
    total() const
    {
        return memcached.size() + redis.size() + pmfs.size();
    }
};

/** One iteration: every app natively, then under PMTest. */
struct Iteration
{
    AppRun apps[3];

    double
    sum(double AppRun::*field) const
    {
        return apps[0].*field + apps[1].*field + apps[2].*field;
    }
};

/** Run @p app natively, then under PMTest, on the same requests. */
template <typename App>
AppRun
runApp(App &app, size_t count, std::vector<double> *latencies_us,
       Result *result)
{
    const double native = runNative(app, count, result);
    AppRun run = runPmtest(app, count, latencies_us, result);
    run.nativeWall = native;
    return run;
}

Iteration
runIteration(const Requests &requests, bool perturb,
             std::vector<double> *latencies_us, Result *result)
{
    MemcachedApp memcached;
    memcached.requests = &requests.memcached;
    memcached.perturb = perturb;
    RedisApp redis;
    redis.requests = &requests.redis;
    PmfsApp pmfs;
    pmfs.requests = &requests.pmfs;

    Iteration it;
    it.apps[0] = runApp(memcached, requests.memcached.size(),
                        latencies_us, result);
    it.apps[1] =
        runApp(redis, requests.redis.size(), latencies_us, result);
    it.apps[2] =
        runApp(pmfs, requests.pmfs.size(), latencies_us, result);
    result->attempted += 2 * requests.total();
    return it;
}

template <typename Fn>
double
meanOver(const std::vector<Iteration> &runs, Fn &&field)
{
    std::vector<double> values;
    for (const auto &it : runs)
        values.push_back(field(it));
    return mean(values);
}

double
stageSum(const Iteration &it, obs::Stage stage)
{
    double total = 0;
    for (const auto &app : it.apps)
        total += app.telemetry.stage(stage).sum * 1e-9;
    return total;
}

uint64_t
counterSum(const Iteration &it, obs::Counter counter)
{
    uint64_t total = 0;
    for (const auto &app : it.apps)
        total += app.telemetry.counter(counter);
    return total;
}

void
addLayerMetrics(const std::vector<Iteration> &runs, double untraced_wall,
                Result *result)
{
    using I = Iteration;
    const auto wall = [](const I &it) { return it.sum(&AppRun::wall); };
    const auto check_s = [](const I &it) {
        return stageSum(it, obs::Stage::EngineCheck);
    };
    const double traced_wall = meanOver(runs, wall);

    // core.pool (one engine worker per PMTest run)
    result->add("pool.workers", meanOver(runs, [](const I &it) {
                    return double(it.apps[0].pool.workers.size());
                }),
                "count");
    result->add("pool.batches", meanOver(runs, [](const I &it) {
                    double n = 0;
                    for (const auto &a : it.apps)
                        n += double(a.pool.batchesSubmitted);
                    return n;
                }),
                "count");
    result->add("pool.producer_stall_s", meanOver(runs, [](const I &it) {
                    double s = 0;
                    for (const auto &a : it.apps)
                        s += a.pool.producerStallNanos * 1e-9;
                    return s;
                }),
                "s");
    result->add("pool.drain_s",
                meanOver(runs,
                         [](const I &it) {
                             return it.sum(&AppRun::getResult);
                         }),
                "s");
    result->add("pool.worker_imbalance", meanOver(runs, [](const I &it) {
                    // Max over mean ops per worker, worst app.
                    double worst = 1;
                    for (const auto &a : it.apps) {
                        double max_ops = 0, sum_ops = 0;
                        for (const auto &w : a.pool.workers) {
                            max_ops = std::max(max_ops,
                                               double(w.opsProcessed));
                            sum_ops += double(w.opsProcessed);
                        }
                        if (sum_ops > 0)
                            worst = std::max(
                                worst, max_ops * a.pool.workers.size() /
                                           sum_ops);
                    }
                    return worst;
                }),
                "ratio");
    result->add("pool.worker_busy_share",
                meanOver(runs,
                         [&](const I &it) {
                             return check_s(it) / wall(it);
                         }),
                "share");
    result->add("pool.worker_idle_s",
                meanOver(runs,
                         [&](const I &it) {
                             return wall(it) - check_s(it);
                         }),
                "s");
    result->add("pool.steals", meanOver(runs, [](const I &it) {
                    double n = 0;
                    for (const auto &a : it.apps)
                        n += double(a.pool.steals);
                    return n;
                }),
                "count");

    // core.engine
    result->add("engine.check_s", meanOver(runs, check_s), "s");
    result->add("engine.ns_per_op",
                meanOver(runs,
                         [&](const I &it) {
                             const double ops = double(counterSum(
                                 it, obs::Counter::OpsChecked));
                             return ops > 0 ? check_s(it) * 1e9 / ops
                                            : 0;
                         }),
                "ns");
    result->add("engine.ops_checked", meanOver(runs, [](const I &it) {
                    return double(
                        counterSum(it, obs::Counter::OpsChecked));
                }),
                "count");

    // core.report
    result->add("report.merge_s", meanOver(runs, [](const I &it) {
                    return stageSum(it, obs::Stage::ReportMerge);
                }),
                "s");

    // core.session: the client loop between timed calls.
    result->add("session.unattributed_s",
                meanOver(runs,
                         [&](const I &it) {
                             return wall(it) -
                                    it.sum(&AppRun::requests) -
                                    it.sum(&AppRun::finalDrain);
                         }),
                "s");

    // core.api / trace capture
    result->add("api.init_s",
                meanOver(runs,
                         [](const I &it) { return it.sum(&AppRun::init); }),
                "s");
    result->add("api.requests_s", meanOver(runs, [](const I &it) {
                    return it.sum(&AppRun::requests);
                }),
                "s");
    result->add("capture.seal_s", meanOver(runs, [](const I &it) {
                    return stageSum(it, obs::Stage::CaptureSeal);
                }),
                "s");
    result->add("api.submit_s", meanOver(runs, [](const I &it) {
                    return stageSum(it, obs::Stage::PoolSubmit) +
                           stageSum(it, obs::Stage::PoolStall);
                }),
                "s");
    result->add("api.final_drain_s", meanOver(runs, [](const I &it) {
                    return it.sum(&AppRun::finalDrain);
                }),
                "s");
    result->add("capture.ops_recorded", meanOver(runs, [](const I &it) {
                    double n = 0;
                    for (const auto &a : it.apps)
                        n += double(a.opsRecorded);
                    return n;
                }),
                "count");
    result->add("capture.traces", meanOver(runs, [](const I &it) {
                    return double(
                        counterSum(it, obs::Counter::TracesSealed));
                }),
                "count");

    // pmfs
    result->add("pmfs.fifo_stalls", meanOver(runs, [](const I &it) {
                    return double(it.apps[2].fifoStalls);
                }),
                "count");
    result->add("pmfs.fifo_stall_s", meanOver(runs, [](const I &it) {
                    return it.apps[2].fifoStallSec;
                }),
                "s");

    // workloads
    result->add("workloads.native_s", meanOver(runs, [](const I &it) {
                    return it.sum(&AppRun::nativeWall);
                }),
                "s");
    result->add("workloads.setup_s", meanOver(runs, [](const I &it) {
                    return it.sum(&AppRun::setup) - it.sum(&AppRun::init);
                }),
                "s");
    result->add("online.memcached_s", meanOver(runs, [](const I &it) {
                    return it.apps[0].wall;
                }),
                "s");
    result->add("online.redis_s", meanOver(runs, [](const I &it) {
                    return it.apps[1].wall;
                }),
                "s");
    result->add("online.pmfs_s", meanOver(runs, [](const I &it) {
                    return it.apps[2].wall;
                }),
                "s");

    // obs
    result->add("obs.traced_wall_s", traced_wall, "s");
    result->add("obs.trace_overhead_share",
                untraced_wall > 0 ? traced_wall / untraced_wall - 1 : 0,
                "share");
}

} // namespace

Result
runOnline(const Options &options)
{
    Result result;
    Requests requests;
    {
        const size_t kv = options.tiny ? 200 : 12000;
        const size_t files = options.tiny ? 50 : 3000;
        Rng rng(mixSeed(options.seed, 0x0a11));
        requests.memcached = kvRequests(rng, kv, 50);
        requests.redis = kvRequests(rng, kv, 80);
        requests.pmfs = fsRequests(rng, files);
    }
    result.note("input.requests", double(requests.total()), "count");

    std::vector<double> setups, walls, slowdowns, ops_rates;
    std::vector<double> p50s_us, p99s_us, latencies_us;
    std::vector<Iteration> traced;
    // Start every timed loop from a recently busy host (see
    // settleHost). Traced runs alternate plain and traced iterations;
    // the first traced iteration collects the exported timeline and is
    // not averaged.
    settleHost(2.0);
    const double deadline = nowSeconds() + options.seconds;
    bool exported = !options.traced;
    do {
        latencies_us.clear();
        const Iteration it = runIteration(
            requests, options.perturbReference, &latencies_us, &result);
        // Per-iteration quantiles (~27k requests each, so 270 lie
        // beyond the p99), then medians over iterations: a host
        // hiccup in one iteration cannot set the run's tail.
        p50s_us.push_back(quantile(latencies_us, 0.5));
        p99s_us.push_back(quantile(latencies_us, 0.99));
        const double wall = it.sum(&AppRun::wall);
        walls.push_back(wall);
        setups.push_back(it.sum(&AppRun::setup));
        slowdowns.push_back(wall / it.sum(&AppRun::nativeWall));
        double ops = 0;
        for (const auto &app : it.apps)
            ops += double(app.opsRecorded);
        ops_rates.push_back(ops / wall);
        if (!options.traced)
            continue;
        auto &telemetry = obs::Telemetry::instance();
        if (!exported)
            telemetry.enableSpans();
        latencies_us.clear();
        Iteration layered =
            runIteration(requests, false, &latencies_us, &result);
        if (!exported) {
            telemetry.disableSpans();
            exported = true;
            std::string error;
            if (!options.traceEventsPath.empty() &&
                !telemetry.writeTraceEventsFile(options.traceEventsPath,
                                                &error))
                result.fail(1, "trace events: " + error);
            continue;
        }
        traced.push_back(std::move(layered));
    } while (nowSeconds() < deadline || walls.size() < 3 ||
             (options.traced && traced.size() < 2));
    result.note("runs.untraced", double(walls.size()), "count");
    result.note("runs.wall_q1_s", quantile(walls, 0.25), "s");
    result.note("runs.wall_q3_s", quantile(walls, 0.75), "s");

    if (options.traced) {
        result.note("runs.traced", double(traced.size()), "count");
        addLayerMetrics(traced, median(walls), &result);
        return result;
    }
    result.add("setup_s", median(setups), "s");
    result.add("wall_s", median(walls), "s");
    result.add("ops_per_s", median(ops_rates), "1/s");
    result.add("slowdown", median(slowdowns), "x");
    result.add("req_p50_us", median(p50s_us), "us");
    result.add("req_p99_us", median(p99s_us), "us");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    return result;
}

} // namespace perfbench
