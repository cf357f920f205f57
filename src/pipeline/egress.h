/**
 * @file
 * Egress: the pipeline sink. Records per-window output delay
 * (emission time minus window end), advances the pipeline's target
 * watermark, and counts externalized results.
 *
 * For fault tolerance the egress also keeps an order-insensitive
 * checksum per window (summed per-record FNV hashes, so parallel
 * reduce shards may land in any order): a recovered tenant's output
 * is checked window for window against a fault-free run. A recovered
 * tenant never reaches this sink with a window below its resume
 * point — a checkpoint restore replays only records past the cut,
 * whose windows all lie at or past the checkpoint's next_close, and
 * a scratch restart commits nothing before its replay — so the
 * server settles output without deduplicating it.
 */

#ifndef SBHBM_PIPELINE_EGRESS_H
#define SBHBM_PIPELINE_EGRESS_H

#include <map>
#include <utility>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/** Terminal operator: measurement + externalization bookkeeping. */
class EgressOp : public Operator
{
  public:
    explicit EgressOp(Pipeline &pipe, std::string name = "egress")
        : Operator(pipe, std::move(name))
    {
    }

    /** Total result records received. */
    uint64_t outputRecords() const { return output_records_; }

    /** Result record counts per window. */
    const std::map<columnar::WindowId, uint64_t> &
    windowRecords() const
    {
        return window_records_;
    }

    /**
     * Order-insensitive content checksum per window: the sum of each
     * result record's FNV-1a hash, which is what makes recovery
     * verifiable.
     */
    const std::map<columnar::WindowId, uint64_t> &
    windowChecksums() const
    {
        return window_checksums_;
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isBundle(), "EgressOp expects result bundles");
        const columnar::WindowSpec spec = pipe_.windows();
        if (msg.has_window) {
            const columnar::WindowId w = msg.window;
            window_checksums_[w] += bundleChecksum(*msg.bundle);
            if (window_records_.find(w) == window_records_.end()) {
                // First result for this window: its output delay.
                const SimTime now = eng_.machine().now();
                const EventTime end = spec.end(w);
                eng_.reportOutputDelay(now > end ? now - end : 0);
            }
            window_records_[w] += msg.bundle->size();
            pipe_.noteWindowExternalized(w);
        }
        output_records_ += msg.bundle->size();
    }

    void
    onWatermark(Watermark wm) override
    {
        // Windows entirely before the watermark are done even if they
        // produced no results.
        const columnar::WindowSpec spec = pipe_.windows();
        const columnar::WindowId w = spec.windowOf(wm.ts);
        if (w > 0)
            pipe_.noteWindowExternalized(w - 1);
    }

  private:
    /** Sum of per-record FNV-1a hashes (shard-order insensitive). */
    static uint64_t
    bundleChecksum(const columnar::Bundle &b)
    {
        uint64_t sum = 0;
        for (uint32_t r = 0; r < b.size(); ++r) {
            uint64_t h = 1469598103934665603ull;
            const uint64_t *row = b.row(r);
            for (uint32_t c = 0; c < b.cols(); ++c) {
                h ^= row[c];
                h *= 1099511628211ull;
            }
            sum += h;
        }
        return sum;
    }

    uint64_t output_records_ = 0;
    std::map<columnar::WindowId, uint64_t> window_records_;
    std::map<columnar::WindowId, uint64_t> window_checksums_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_EGRESS_H
