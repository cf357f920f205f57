/**
 * @file
 * Host-clock window delay: for each window, the program's host time
 * from the generator fill that completes the window's input on every
 * stream to the instant the window's result is complete at the egress.
 * The benchmark's own time in between (generating later input) is not
 * the program's and is left out.
 */

#ifndef PERFBENCH_DELAY_H
#define PERFBENCH_DELAY_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "columnar/window.h"
#include "common/units.h"

namespace pb {

using namespace sbhbm;

/**
 * A host instant on the program's clock: host time minus the
 * benchmark's own time (generators, reference counting) spent so far.
 */
struct ProgramClock
{
    int64_t host_ns = 0;
    int64_t bench_ns = 0; //!< benchmark time accumulated before host_ns

    int64_t programNs() const { return host_ns - bench_ns; }
};

/** One generator fill: records with event times in [t0, t1). */
struct FillStamp
{
    ProgramClock at; //!< when the fill returned
    EventTime t0 = 0;
    EventTime t1 = 0;
    uint32_t n = 0;
};

/**
 * Program instant of the fill that completes window @p w on one
 * stream: the first fill whose range reaches the window's end (no later
 * fill can carry an earlier event time). A window the stream never
 * reached is completed by the stream's last fill, after which the
 * source closes every open window. Fills are in delivery (event-time)
 * order.
 */
inline int64_t
completingFillNs(const std::vector<FillStamp> &fills,
                 const columnar::WindowSpec &spec, columnar::WindowId w)
{
    if (fills.empty())
        return 0;
    const EventTime end = spec.end(w);
    auto it = std::lower_bound(
        fills.begin(), fills.end(), end,
        [](const FillStamp &f, EventTime e) { return f.t1 < e; });
    return (it == fills.end() ? fills.back() : *it).at.programNs();
}

/**
 * Per-window delays on the program's clock, in milliseconds, in window
 * order. @p streams holds each input stream's fills; @p results maps a
 * window to the instant its result became complete. Windows whose
 * result came before @p from (the warm-up) are skipped.
 */
inline std::vector<double>
windowDelaysMs(const std::vector<const std::vector<FillStamp> *> &streams,
               const columnar::WindowSpec &spec,
               const std::map<columnar::WindowId, ProgramClock> &results,
               int64_t from_host_ns)
{
    std::vector<double> out;
    for (const auto &[w, done] : results) {
        if (done.host_ns < from_host_ns)
            continue;
        int64_t complete = 0;
        for (const auto *fills : streams)
            complete = std::max(complete, completingFillNs(*fills, spec, w));
        out.push_back(static_cast<double>(done.programNs() - complete)
                      / 1e6);
    }
    return out;
}

} // namespace pb

#endif // PERFBENCH_DELAY_H
