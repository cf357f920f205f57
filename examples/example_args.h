/**
 * @file
 * Command-line arguments shared by the examples and the figure
 * benches. Each takes at most one size argument; anything it cannot
 * run with gets a usage line on stderr and exit status kUsageExit,
 * instead of a run of a wrapped-around or empty size.
 */

#ifndef SBHBM_EXAMPLES_EXAMPLE_ARGS_H
#define SBHBM_EXAMPLES_EXAMPLE_ARGS_H

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sbhbm::examples {

/** Exit status of an example given a bad argument. */
constexpr int kUsageExit = 2;

/** Print "usage: <prog> <args>" to stderr; @return kUsageExit. */
inline int
usage(const char *prog, const char *args)
{
    std::fprintf(stderr, "usage: %s %s\n", prog, args);
    return kUsageExit;
}

/**
 * Parse @p arg as a count: a positive decimal integer, digits only,
 * that fits in uint64_t.
 * @return false, leaving @p count as it was, for anything else.
 */
inline bool
parseCount(const char *arg, uint64_t &count)
{
    if (*arg == '\0')
        return false;
    for (const char *c = arg; *c != '\0'; ++c)
        if (*c < '0' || *c > '9')
            return false;
    errno = 0;
    const unsigned long long v = std::strtoull(arg, nullptr, 10);
    if (errno == ERANGE || v == 0)
        return false;
    count = v;
    return true;
}

/**
 * Parse @p arg as a record count in millions: a count small enough
 * that million * 1'000'000 fits in uint64_t.
 * @return false, leaving @p million as it was, for anything else.
 */
inline bool
parseMillions(const char *arg, uint64_t &million)
{
    uint64_t v = 0;
    if (!parseCount(arg, v) || v > UINT64_MAX / 1'000'000)
        return false;
    million = v;
    return true;
}

/**
 * Parse @p arg as a scale factor: a finite number in (0, @p max].
 * @return false, leaving @p scale as it was, for anything else.
 */
inline bool
parseScale(const char *arg, double max, double &scale)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || errno == ERANGE || !std::isfinite(v)
        || v <= 0 || v > max)
        return false;
    scale = v;
    return true;
}

} // namespace sbhbm::examples

#endif // SBHBM_EXAMPLES_EXAMPLE_ARGS_H
