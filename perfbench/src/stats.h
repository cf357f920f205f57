/**
 * @file
 * Host-clock helpers and the percentile rule every reported timing
 * follows: a percentile is reported only when at least ten samples lie
 * beyond it, and always together with its sample count.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace pb {

/** Host steady-clock nanoseconds. */
inline int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Samples needed so that ten lie beyond the @p p-th percentile. */
inline size_t
minSamplesFor(double p)
{
    return static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9));
}

/** A percentile together with the samples it was taken over. */
struct Percentile
{
    double value = 0;
    size_t samples = 0;
};

/**
 * Nearest-rank @p p-th percentile of @p v, or nullopt when fewer than
 * minSamplesFor(p) samples are given.
 */
inline std::optional<Percentile>
percentile(std::vector<double> v, double p)
{
    if (v.empty() || v.size() < minSamplesFor(p))
        return std::nullopt;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return Percentile{v[std::max<size_t>(rank, 1) - 1], v.size()};
}

/** Median of a non-empty sample (mean of the middle pair when even). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace pb

#endif // PERFBENCH_STATS_H
