/**
 * @file
 * Pipeline container: owns the operator graph and the global
 * scheduling state shared by all operators.
 *
 * The "target watermark" of paper §5 lives here: the next window to
 * be externalized. Tasks touching that window are Urgent, tasks on
 * the following one or two windows are High, younger data is Low.
 */

#ifndef SBHBM_PIPELINE_PIPELINE_H
#define SBHBM_PIPELINE_PIPELINE_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnar/window.h"
#include "runtime/engine.h"
#include "runtime/impact_tag.h"

namespace sbhbm::pipeline {

using runtime::Engine;
using runtime::ImpactTag;

class Operator;

/** Operator graph plus shared pipeline-wide state. */
class Pipeline
{
  public:
    /**
     * @param stream the executor stream (tenant) every task of this
     *        pipeline runs under. Single-pipeline programs keep the
     *        default 0; the serving layer gives each tenant its own.
     */
    Pipeline(Engine &eng, columnar::WindowSpec spec,
             runtime::StreamId stream = 0)
        : eng_(eng), spec_(spec), stream_(stream)
    {
    }

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    Engine &engine() { return eng_; }
    const columnar::WindowSpec &windows() const { return spec_; }

    /** The executor stream (tenant) this pipeline's tasks run under. */
    runtime::StreamId streamId() const { return stream_; }

    /** Construct an operator owned by the pipeline. */
    template <typename Op, typename... Args>
    Op &
    add(Args &&...args)
    {
        auto op = std::make_unique<Op>(std::forward<Args>(args)...);
        Op &ref = *op;
        ops_.push_back(std::move(op));
        return ref;
    }

    /**
     * Impact tag for data with earliest timestamp @p ts (paper §5,
     * "Performance impact tags"): Urgent on the next window to close,
     * High within the following two, Low beyond.
     */
    ImpactTag
    classify(EventTime ts) const
    {
        const columnar::WindowId w = spec_.windowOf(ts);
        if (w <= next_close_)
            return ImpactTag::kUrgent;
        if (w <= next_close_ + 2)
            return ImpactTag::kHigh;
        return ImpactTag::kLow;
    }

    /** The target watermark's window (next to be externalized). */
    columnar::WindowId targetWindow() const { return next_close_; }

    /** One externalization event (for throughput accounting). */
    struct Externalization
    {
        columnar::WindowId window;
        SimTime at;
    };

    /** Egress reports a window fully externalized (idempotent). */
    void
    noteWindowExternalized(columnar::WindowId w)
    {
        if (w < next_close_)
            return;
        const SimTime now = eng_.machine().now();
        for (columnar::WindowId x = next_close_; x <= w; ++x)
            externalizations_.push_back(Externalization{x, now});
        windows_externalized_ += w + 1 - next_close_;
        next_close_ = w + 1;
    }

    uint64_t windowsExternalized() const { return windows_externalized_; }

    /**
     * Recovery: resume the target watermark at window @p next without
     * recording externalizations for the skipped prefix — those
     * windows were externalized by the pre-crash incarnation. A
     * checkpoint restore replays only records past its cut, whose
     * windows all lie at or past @p next, so no replayed data reaches
     * a window below it.
     */
    void
    resumeFrom(columnar::WindowId next)
    {
        next_close_ = std::max(next_close_, next);
    }

    /** The operator graph, in construction order. */
    const std::vector<std::unique_ptr<Operator>> &
    operators() const
    {
        return ops_;
    }

    /** Externalization times, in window order. */
    const std::vector<Externalization> &
    externalizations() const
    {
        return externalizations_;
    }

  private:
    Engine &eng_;
    columnar::WindowSpec spec_;
    runtime::StreamId stream_;
    std::vector<std::unique_ptr<Operator>> ops_;
    columnar::WindowId next_close_ = 0;
    uint64_t windows_externalized_ = 0;
    std::vector<Externalization> externalizations_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_PIPELINE_H
