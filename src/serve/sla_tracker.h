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
 * Breach attribution. When the caller also supplies the tenant's
 * cumulative stall counters (ingest wait, executor queue wait, sweep
 * memory stall), each observe() batch decomposes its latency into
 * five causes — recovery replay, ingest wait, memory stall, scheduler
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
    kIngest,       //!< source stalled: injected, back-pressure, pause
    kMemory,       //!< pressure/emergency sweep copy time
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
 * right before observe(). All monotone within one session segment;
 * primeStalls() re-bases after restart (fresh Tenant, fresh engine
 * counters on the recovery shard).
 */
struct StallSnapshot
{
    uint64_t ingest_wait_ns = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t memory_stall_ns = 0;
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

    /** Fold in externalizations @p pipe recorded since the last call. */
    void
    observe(const pipeline::Pipeline &pipe)
    {
        // No new stall information: deltas are zero and the whole
        // batch stays attributed to compute — the legacy behaviour.
        observe(pipe, prev_);
    }

    /**
     * Fold in new externalizations AND attribute their latency. @p s
     * carries the tenant's cumulative stall counters at observation
     * time; the deltas since the previous call are charged against
     * the batch's total latency in fixed order (recovery, ingest,
     * memory, sched — each clamped to what is still unexplained),
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
            if (lat > target_delay_) {
                ++violations_;
                if (!breached_) {
                    breached_ = true;
                    ++breaches_;
                }
                ok_streak_ = 0;
            } else if (breached_) {
                if (++ok_streak_ >= kRecoveryWindows) {
                    breached_ = false;
                    ok_streak_ = 0;
                }
            }
        }
        attribute(lats, late, s);
    }

    /**
     * Re-base the stall counters without observing: called when the
     * session (re)starts on a shard whose cumulative executor /
     * director counters already carry history from other segments or
     * tenants' past — only growth after this point is this segment's.
     */
    void
    primeStalls(const StallSnapshot &s)
    {
        prev_ = s;
        recovery_seen_ns_ = downtime_ns_;
    }

    /** Externalized windows observed so far. */
    uint64_t windows() const { return latencies_.size(); }

    /** Windows whose latency exceeded the target. */
    uint64_t violations() const { return violations_; }

    // ---------------------------------------------------------------
    // Breach hysteresis (drives serving-layer placement demotion).
    // A violation puts the tenant in breach; it recovers only after
    // kRecoveryWindows consecutive in-target windows — so one bad
    // window demotes decisively while one good window does not
    // flap the placement class right back.
    // ---------------------------------------------------------------

    /** Consecutive in-target windows needed to clear a breach. */
    static constexpr uint32_t kRecoveryWindows = 4;

    /** Currently violating the SLA (with recovery hysteresis). */
    bool breached() const { return breached_; }

    /** Times the tenant *entered* breach (demotion episodes). */
    uint64_t breaches() const { return breaches_; }

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
        pending_[static_cast<uint32_t>(StallCause::kMemory)] +=
            delta(s.memory_stall_ns, prev_.memory_stall_ns);
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
            StallCause::kMemory,
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
    bool breached_ = false;
    uint64_t breaches_ = 0;
    SimTime downtime_ns_ = 0;
    uint32_t ok_streak_ = 0;
    StallSnapshot prev_;
    uint64_t recovery_seen_ns_ = 0;
    uint64_t pending_[kStallCauses] = {};
    double comp_ns_[kStallCauses] = {};
    double breach_ns_[kStallCauses] = {};
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_SLA_TRACKER_H
