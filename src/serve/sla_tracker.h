/**
 * @file
 * Per-tenant SLA accounting: watermark latency of every externalized
 * window (emission time minus window end — the paper's output delay,
 * tracked per tenant instead of per engine) as samples reports pool
 * for percentiles, and the violation count against the tenant's delay
 * target.
 *
 * The tracker pulls from the tenant's Pipeline: every externalization
 * the pipeline recorded and the tracker has not yet seen is folded
 * into the sample set, so observe() may be called incrementally while
 * the session runs and once more at drain with identical results.
 *
 * Breach attribution. With the tenant's cumulative stall counters
 * (ingest wait, executor queue wait) passed to observe(), each batch
 * decomposes its latency into recovery replay, ingest wait, scheduler
 * queue, and compute (the residual) — so a breach names what actually
 * made the windows late instead of just that they were. Components
 * always sum exactly to the measured latency: the stall deltas are
 * allocated in fixed priority order, each clamped to the latency
 * still unexplained, and compute absorbs the remainder.
 */

#ifndef SBHBM_SERVE_SLA_TRACKER_H
#define SBHBM_SERVE_SLA_TRACKER_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "pipeline/pipeline.h"

namespace sbhbm::serve {

/** Why a window was late (the attribution components). */
enum class StallCause : uint32_t
{
    kRecovery = 0, //!< crash downtime + replay of lost progress
    kIngest,       //!< source stalled: back-pressure, checkpoint pause
    /** Always 0: no KPA moves after placement. perfbench alone keeps
     *  the slot (its serve.attr.memory_ms row, and kStallCauses == 5);
     *  it goes with ROADMAP direction 1 step 2's benchmark change. */
    kMemory,
    kSched,        //!< ready tasks waiting for an executor slot
    kCompute,      //!< the residual: actually doing the work
};

constexpr uint32_t kStallCauses = 5;

/**
 * The cause explaining the most of @p breach_ns (violating-window
 * latency per StallCause); ties break toward the earlier enum value
 * (recovery before ingest before memory before sched before compute)
 * and a session with no violations reports compute.
 */
inline StallCause
dominantCause(const double (&breach_ns)[kStallCauses])
{
    uint32_t best = static_cast<uint32_t>(StallCause::kCompute);
    double best_v = 0.0;
    for (uint32_t c = 0; c < kStallCauses; ++c) {
        if (breach_ns[c] > best_v) {
            best_v = breach_ns[c];
            best = c;
        }
    }
    return static_cast<StallCause>(best);
}

/** Stable JSON/report name of @p c. */
inline const char *
stallCauseName(StallCause c)
{
    switch (c) {
    case StallCause::kRecovery: return "recovery_replay";
    case StallCause::kIngest: return "ingest_wait";
    case StallCause::kMemory: return "memory_stall";
    case StallCause::kSched: return "sched_queue";
    case StallCause::kCompute: return "compute";
    }
    return "unknown";
}

/**
 * Cumulative per-tenant stall counters, sampled by the serving layer
 * right before observe(). All monotone within one session segment,
 * and zero at its start: each segment runs on a fresh Tenant, on a
 * shard that never ran its stream.
 */
struct StallSnapshot
{
    uint64_t ingest_wait_ns = 0;
    uint64_t queue_wait_ns = 0;
};

/** Watermark-latency percentiles + SLA violations for one tenant. */
class SlaTracker
{
  public:
    /** @param target_delay SLA bound on per-window output latency. */
    explicit SlaTracker(SimTime target_delay)
        : target_delay_(target_delay)
    {
    }

    /**
     * Ignore windows that ended at or before @p t: a session arriving
     * mid-stream flushes the empty windows preceding its start with
     * its first watermark, and those carry no user data to be late.
     */
    void setIgnoreBefore(SimTime t) { ignore_before_ = t; }

    /**
     * Fold in externalizations @p pipe recorded since the last call
     * and attribute their latency. @p s
     * carries the tenant's cumulative stall counters at observation
     * time; the deltas since the previous call are charged against
     * the batch's total latency in fixed order (recovery, ingest,
     * sched — each clamped to what is still unexplained),
     * with compute taking the residual. Per-window attribution
     * follows each window's share of the batch latency, so the
     * breach-only totals name the dominant cause of late windows.
     */
    void
    observe(const pipeline::Pipeline &pipe, const StallSnapshot &s)
    {
        const auto &exts = pipe.externalizations();
        const columnar::WindowSpec &spec = pipe.windows();
        std::vector<SimTime> lats;
        std::vector<bool> late;
        for (; cursor_ < exts.size(); ++cursor_) {
            const auto &e = exts[cursor_];
            const SimTime end = spec.end(e.window);
            if (end <= ignore_before_)
                continue;
            const SimTime lat = e.at > end ? e.at - end : 0;
            latencies_.add(simToSeconds(lat));
            lats.push_back(lat);
            late.push_back(lat > target_delay_);
            violations_ += lat > target_delay_ ? 1 : 0;
        }
        attribute(lats, late, s);
    }

    /** Externalized windows observed so far. */
    uint64_t windows() const { return latencies_.size(); }

    /** Windows whose latency exceeded the target. */
    uint64_t violations() const { return violations_; }

    // ---------------------------------------------------------------
    // Fault-tolerance accounting (filled by the recovery layer).
    // ---------------------------------------------------------------

    /** The session's shard died and it was down for @p downtime. */
    void
    noteOutage(SimTime downtime)
    {
        downtime_ns_ += downtime;
    }

    /** Total virtual time the session spent dead, ns. */
    SimTime downtimeNs() const { return downtime_ns_; }

    const SampleSet &latencies() const { return latencies_; }

    // ---------------------------------------------------------------
    // Attribution results.
    // ---------------------------------------------------------------

    /** Total latency attributed to @p c over all windows, ns. */
    double
    componentNs(StallCause c) const
    {
        return comp_ns_[static_cast<uint32_t>(c)];
    }

    /** Latency attributed to @p c over SLA-violating windows, ns. */
    double
    breachNs(StallCause c) const
    {
        return breach_ns_[static_cast<uint32_t>(c)];
    }

    /** The cause explaining the most violating-window latency. */
    StallCause
    dominantCause() const
    {
        return serve::dominantCause(breach_ns_);
    }

  private:
    /**
     * Decompose one observe() batch. The external counters are
     * cumulative, so deltas vs the previous snapshot are this batch's
     * new stall; recovery uses the tracker's own downtime counter the
     * same way. Each component is clamped to the latency still
     * unexplained (a stall overlapping several windows cannot explain
     * more lateness than there was), compute absorbs the rest, and
     * the batch totals are spread across its windows by latency
     * share.
     */
    void
    attribute(const std::vector<SimTime> &lats,
              const std::vector<bool> &late, const StallSnapshot &s)
    {
        const auto delta = [](uint64_t now, uint64_t prev) {
            return now > prev ? now - prev : 0;
        };
        // Deltas accumulate into pending_: a stall that completes
        // between two window externalizations (an empty batch) must
        // still attribute to the *next* batch, not vanish.
        pending_[static_cast<uint32_t>(StallCause::kRecovery)] +=
            delta(downtime_ns_, recovery_seen_ns_);
        pending_[static_cast<uint32_t>(StallCause::kIngest)] +=
            delta(s.ingest_wait_ns, prev_.ingest_wait_ns);
        pending_[static_cast<uint32_t>(StallCause::kSched)] +=
            delta(s.queue_wait_ns, prev_.queue_wait_ns);
        prev_ = s;
        recovery_seen_ns_ = downtime_ns_;
        if (lats.empty())
            return;

        double total = 0.0;
        for (SimTime l : lats)
            total += static_cast<double>(l);

        double batch[kStallCauses] = {};
        double remaining = total;
        const StallCause order[] = {
            StallCause::kRecovery,
            StallCause::kIngest,
            StallCause::kSched,
        };
        for (StallCause cause : order) {
            const uint32_t c = static_cast<uint32_t>(cause);
            const double take =
                std::min(remaining, static_cast<double>(pending_[c]));
            batch[c] = take;
            remaining -= take;
            pending_[c] -= static_cast<uint64_t>(take);
        }
        batch[static_cast<uint32_t>(StallCause::kCompute)] = remaining;

        for (uint32_t c = 0; c < kStallCauses; ++c) {
            comp_ns_[c] += batch[c];
            if (total <= 0.0)
                continue;
            for (size_t w = 0; w < lats.size(); ++w) {
                if (late[w]) {
                    breach_ns_[c] += batch[c]
                                     * static_cast<double>(lats[w])
                                     / total;
                }
            }
        }
    }

    SimTime target_delay_;
    SimTime ignore_before_ = 0;
    SampleSet latencies_;
    uint64_t violations_ = 0;
    size_t cursor_ = 0;
    SimTime downtime_ns_ = 0;
    StallSnapshot prev_;
    uint64_t recovery_seen_ns_ = 0;
    uint64_t pending_[kStallCauses] = {};
    double comp_ns_[kStallCauses] = {};
    double breach_ns_[kStallCauses] = {};
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_SLA_TRACKER_H
