/**
 * @file
 * Watermark-aligned tenant checkpoints.
 *
 * A TenantCheckpoint is a consistent cut through one session: the
 * source's absolute stream position, the pipeline's
 * externalized-window horizon, and a deep snapshot of every stateful
 * operator's window state — all captured while the
 * session is quiesced (source paused, ingestion stage empty, executor
 * stream idle), so the cut is exact: state(cut) is precisely the
 * result of the first `position` records and nothing else.
 *
 * Restore pairs the snapshot with replay: a recovered session rebuilds
 * its pipeline, reinstalls the operator state, and re-ingests the
 * source from `position` — logical event time makes the replayed
 * records bit-identical to the originals — while the egress
 * deduplicates windows the dead incarnation already externalized.
 *
 * Checkpoints are incremental when the caller passes the previous
 * capture: runs whose KPA touch generation is unchanged share their
 * payload with the prior snapshot and charge no copy traffic. The
 * server keeps each live session's latest cut in a per-session map.
 */

#ifndef SBHBM_SERVE_CHECKPOINT_H
#define SBHBM_SERVE_CHECKPOINT_H

#include <cstdint>
#include <vector>

#include "columnar/window.h"
#include "pipeline/state_snapshot.h"

namespace sbhbm::serve {

/** One session's consistent cut. */
struct TenantCheckpoint
{
    /** Absolute stream offset: records the session had consumed. */
    uint64_t position = 0;

    /** Pipeline's next-to-externalize window at the cut. */
    columnar::WindowId next_close = 0;

    /**
     * Every stateful operator captured its state and the session can
     * restore from this cut (single-stream, logical time, no
     * unsupported operators). Non-restorable sessions recover by
     * scratch-restart instead: full replay, output deduplicated.
     */
    bool restorable = false;

    /** Per-operator captures, in pipeline construction order. */
    std::vector<pipeline::OperatorSnapshot> ops;

    /** Payload bytes newly copied at this cut. */
    uint64_t
    copiedBytes() const
    {
        uint64_t b = 0;
        for (const auto &o : ops)
            b += o.copiedBytes();
        return b;
    }

    /** Payload bytes shared with the previous cut (incremental). */
    uint64_t
    reusedBytes() const
    {
        uint64_t b = 0;
        for (const auto &o : ops)
            b += o.reusedBytes();
        return b;
    }
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_CHECKPOINT_H
