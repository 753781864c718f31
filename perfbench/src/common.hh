/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: run options, the
 * result every workload returns, and the small statistics helpers
 * (medians, quantiles, peak RSS) the workloads report through.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool traced = false;
    /** Smoke-sized inputs (self-test), not the benchmarked sizes. */
    bool tiny = false;
    /** Corrupt the known answer, so verification must fail. */
    bool perturbReference = false;
    /** Scratch directory for trace and report files. */
    std::string workdir = ".";
    /** Chrome trace-event export path (traced runs; "" = none). */
    std::string traceEventsPath;
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run measured and verified. */
struct Result
{
    /** Every output matched its known answer. */
    bool correct = true;
    /** Traces (offline) or requests (online) attempted. */
    uint64_t attempted = 0;
    /**
     * Traces not checked + findings that differ from the known
     * answer (offline), or requests that returned wrong data plus
     * unexpected findings (online).
     */
    uint64_t failed = 0;
    /** The contract metrics (end-to-end or per-layer). */
    std::vector<Metric> metrics;
    /** Extra facts for the human-readable log (not contract). */
    std::vector<Metric> notes;
    /** First few mismatch descriptions. */
    std::vector<std::string> errors;

    void add(const char *name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    void note(const char *name, double value, const char *unit)
    {
        notes.push_back({name, value, unit});
    }

    /** Record one verification failure of @p count units. */
    void fail(uint64_t count, std::string message);
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Linear-interpolated @p p quantile (0 <= p <= 1) of @p values. */
double quantile(std::vector<double> values, double p);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &values);

/** Process peak resident set size, in MiB. */
double peakRssMb();

/**
 * Keep every core busy for @p seconds. The online workload runs it
 * right before its timed loop: on a virtual machine, waking a thread
 * on a vCPU that has been idle for a while costs far more than on one
 * that ran recently (the hypervisor's halt polling adapts to recent
 * load), which made the online path's worker wake-ups — and so its
 * wall time and slowdown — bimodal (about 1.5x vs 1.9x slowdown)
 * depending on what the machine did in the preceding seconds.
 * Starting from the same recently-busy state makes runs comparable.
 */
void settleHost(double seconds);

/** Seconds since an arbitrary fixed point (steady clock). */
double nowSeconds();

/**
 * A seed mixed with a workload-local salt, so two workloads with the
 * same --seed draw unrelated inputs.
 */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
