#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

namespace perfbench
{

void
Result::fail(uint64_t count, std::string message)
{
    correct = false;
    failed += count;
    if (errors.size() < 8)
        errors.push_back(std::move(message));
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
settleHost(double seconds)
{
    const double until = nowSeconds() + seconds;
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> spinners;
    for (unsigned i = 0; i < n; i++)
        spinners.emplace_back([until] {
            while (nowSeconds() < until) {
            }
        });
    for (auto &t : spinners)
        t.join();
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
