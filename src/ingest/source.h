/**
 * @file
 * Data ingress (paper §6, "Data ingress").
 *
 * A Source models the Sender machine + NIC: bundles of records arrive
 * paced by the NIC's payload bandwidth (40 Gb/s RDMA or 10 GbE
 * ZeroMQ). The RDMA path delivers into pre-allocated bundles with no
 * copy; the ZeroMQ path charges an ingestion copy per bundle. The
 * source stops pulling while the engine is back-pressured (paper §5:
 * "StreamBox-HBM dynamically starts or stops pulling data from data
 * source according to current resource utilization").
 *
 * Event time == delivery time: records are stamped as they arrive, so
 * watermarks follow the stream with no artificial skew. Fig 10b's
 * delayed watermarks are reproduced with bundles_per_watermark.
 *
 * For the serving layer's fault tolerance a source pauses while a
 * checkpoint quiesces its session, halts when its shard crashes, and
 * can start at a record offset under logical event time, which is how
 * a recovered session replays past its last checkpoint.
 */

#ifndef SBHBM_INGEST_SOURCE_H
#define SBHBM_INGEST_SOURCE_H

#include <map>
#include <utility>
#include <vector>

#include "ingest/generator.h"
#include "pipeline/operator.h"
#include "pipeline/pipeline.h"
#include "runtime/engine.h"
#include "sim/cost_model.h"

namespace sbhbm::ingest {

using runtime::Engine;

/** Ingestion configuration. */
struct SourceConfig
{
    /** NIC payload bandwidth, bytes/sec. */
    double nic_bw = 5e9; // 40 Gb/s RDMA

    /** ZeroMQ-style ingestion: copy records into bundles on arrival. */
    bool copy_at_ingest = false;

    /** Records per bundle. */
    uint32_t bundle_records = 100000;

    /** Stop after this many records. */
    uint64_t total_records = 1000000;

    /**
     * Offered record rate (records/sec); 0 means NIC-limited (the
     * sender pushes as fast as the link allows).
     */
    double offered_rate = 0;

    /**
     * Watermark cadence: 0 emits a watermark at every window
     * boundary; k > 0 emits one every k bundles (Fig 10b sweeps
     * this to delay window closure).
     */
    uint32_t bundles_per_watermark = 0;

    /**
     * Open-loop Poisson arrivals: bundle gaps become exponential
     * draws around the offered-rate spacing instead of deterministic
     * ticks, modelling bursty user traffic (the serving layer's load
     * driver). Requires offered_rate > 0; the NIC gap still bounds
     * each draw from below. Deterministic given arrival_seed.
     */
    bool poisson_arrivals = false;
    uint64_t arrival_seed = 1;

    /**
     * Logical event time: stamp record i of the stream at
     * i / offered_rate seconds instead of its delivery time. Delivery
     * *pacing* is unchanged (NIC, back-pressure, Poisson gaps); only
     * the timestamps written into records become a pure function of
     * stream position. That is what makes replay exact: a restored
     * source re-delivering records [k, n) produces bit-identical
     * bundles, window assignments and watermarks no matter when the
     * replay happens. Requires offered_rate > 0. Off by default —
     * every pre-fault-tolerance run keeps delivery-time stamping.
     */
    bool logical_time = false;

    /**
     * Start the stream at this record offset: the generator is
     * fast-forwarded past the prefix and, under logical time, the
     * clock starts at the offset's timestamp. total_records still
     * counts the records *this* source delivers (the recovery layer
     * sets it to the remainder). Replay-from-checkpoint recovery.
     */
    uint64_t start_record = 0;
};

/** Simulated sender + NIC + ingestion loop. */
class Source
{
  public:
    Source(Engine &eng, pipeline::Pipeline &pipe, Generator &gen,
           pipeline::Operator *sink, SourceConfig cfg, int sink_port = 0)
        : eng_(eng), pipe_(pipe), gen_(gen), sink_(sink), cfg_(cfg),
          sink_port_(sink_port), stream_(pipe.streamId()),
          arrival_rng_(cfg.arrival_seed)
    {
        sbhbm_assert(sink != nullptr, "source needs a sink operator");
        sbhbm_assert(cfg_.nic_bw > 0, "NIC bandwidth must be positive");
        sbhbm_assert(!cfg_.poisson_arrivals || cfg_.offered_rate > 0,
                     "poisson arrivals need an offered rate");
        sbhbm_assert(!cfg_.logical_time || cfg_.offered_rate > 0,
                     "logical event time needs an offered rate");
        sbhbm_assert(cfg_.start_record == 0 || cfg_.logical_time,
                     "replay offsets need logical event time");
    }

    Source(const Source &) = delete;
    Source &operator=(const Source &) = delete;

    /** Begin ingesting at the current virtual time. */
    void
    start()
    {
        sbhbm_assert(!started_, "source started twice");
        started_ = true;
        if (cfg_.start_record > 0)
            gen_.skipRecords(cfg_.start_record);
        last_delivery_ = cfg_.logical_time ? logicalTs(cfg_.start_record)
                                           : eng_.machine().now();
        scheduleNext();
    }

    uint64_t recordsIngested() const { return records_ingested_; }
    bool finished() const { return finished_; }

    /**
     * Absolute stream position: records of the underlying stream
     * delivered so far, including the replay offset. This is the
     * offset a checkpoint stores and a restored source passes as
     * start_record.
     */
    uint64_t
    streamPosition() const
    {
        return cfg_.start_record + records_ingested_;
    }

    /**
     * Stop the stream early: cap total_records at what has already
     * been delivered, so the source drains naturally — the next
     * scheduling decision sees end-of-stream and emits the final
     * watermark, closing every open window. A bundle already in
     * flight still lands and is counted, keeping records conservation
     * exact.
     */
    void truncate() { cfg_.total_records = records_ingested_; }

    // ---------------------------------------------------------------
    // Fault-tolerance controls (checkpoint quiesce + shard crash).
    // ---------------------------------------------------------------

    /**
     * Pause delivery (checkpoint quiesce). Already-scheduled
     * deliveries still land; once deliveryIdle() reports true the
     * ingestion stage is empty and no further records will move until
     * resume().
     */
    void pause() { paused_ = true; }

    /** Resume a paused source. */
    void
    resume()
    {
        if (!paused_)
            return;
        paused_ = false;
        if (parked_) {
            parked_ = false;
            ingest_wait_ns_ +=
                eng_.machine().now() - parked_since_;
            if (!halted_)
                scheduleNext();
        }
    }

    /**
     * Stop this source forever (its shard crashed). Unlike truncate()
     * it never emits the final watermark — the stream did not end, it
     * died; the recovery layer replays it elsewhere.
     */
    void
    halt()
    {
        halted_ = true;
        paused_ = false;
    }

    /**
     * True when no delivery is scheduled or in flight and every
     * delivered bundle was forwarded downstream — together with an
     * idle executor stream this is full quiescence.
     */
    bool
    deliveryIdle() const
    {
        return !delivery_pending_ && ready_.empty()
               && next_forward_seq_ == next_deliver_seq_;
    }

    /** One ingestion checkpoint: cumulative records at a sim time. */
    struct Checkpoint
    {
        SimTime t;
        uint64_t records;
    };

    /**
     * Per-bundle ingestion checkpoints. The slope of the middle of
     * this series is the *sustained* ingestion rate: under
     * back-pressure the source paces to the engine's service rate, so
     * excluding the initial burst (in-flight budget filling) and the
     * final drain gives the steady-state throughput the paper plots.
     */
    const std::vector<Checkpoint> &checkpoints() const { return marks_; }

    /** Simulated time at which the final watermark was delivered. */
    SimTime finishedAt() const { return finished_at_; }

    /**
     * Cumulative virtual ns this source spent not delivering for
     * reasons outside the pipeline's compute: back-pressure episodes
     * and checkpoint-quiesce pauses. The ingest-wait component of SLA
     * attribution.
     */
    uint64_t ingestWaitNs() const { return ingest_wait_ns_; }

  private:
    /** Logical timestamp of absolute stream position @p pos. */
    EventTime
    logicalTs(uint64_t pos) const
    {
        return static_cast<EventTime>(static_cast<double>(pos) * 1e9
                                      / cfg_.offered_rate);
    }

    void
    scheduleNext()
    {
        if (halted_)
            return;
        if (paused_) {
            parked_ = true;
            parked_since_ = eng_.machine().now();
            return;
        }
        if (records_ingested_ >= cfg_.total_records) {
            all_delivered_ = true;
            // finish() fires from forward() once the ingestion stage
            // drains; handle the empty-stream edge case here.
            if (next_forward_seq_ == next_deliver_seq_)
                finish();
            return;
        }
        // While the pipeline lags (late output — or no output yet, so
        // lateness cannot be judged) the in-flight budget tightens to
        // the soft cap: backlog stays around a window's worth and
        // ingestion paces itself to the engine's service rate. A
        // pipeline that keeps up gets the full budget.
        const bool conservative =
            outputTooLate() || pipe_.windowsExternalized() == 0;
        const bool over = conservative ? eng_.softBackpressured(stream_)
                                       : eng_.backpressured(stream_);
        if (over) {
            // Poll again shortly; the sender buffers meanwhile. Guard
            // against a stall that can never clear: if the engine has
            // been back-pressured for many window lengths, the
            // in-flight budget is too small to ever close a window
            // (every held bundle waits on a watermark only we can
            // emit) — a configuration error, not a transient.
            const SimTime now = eng_.machine().now();
            if (backpressured_since_ == 0) {
                backpressured_since_ = now;
                if (obs::Telemetry *t = eng_.telemetry()) {
                    t->trace.instant(now, eng_.telemetryShard(),
                                     stream_, "ingest",
                                     "backpressure");
                }
            }
            const SimTime limit =
                std::max<SimTime>(100 * pipe_.windows().width,
                                  10 * kNsPerSec);
            if (now - backpressured_since_ > limit) {
                // Structured wedge diagnostic: name the stuck stream,
                // what it holds, and how far the watermark lags the
                // window it is waiting for — enough to size the
                // budget without re-running under a debugger.
                const auto &spec = pipe_.windows();
                const columnar::WindowId oldest = pipe_.targetWindow();
                const SimTime gap =
                    spec.end(oldest) > emitted_wm_
                        ? spec.end(oldest) - emitted_wm_
                        : 0;
                sbhbm_fatal(
                    "ingestion wedged: stream %u back-pressured for "
                    "%.1f s holding %u in-flight bundles "
                    "(per-stream budget, engine cap %u); oldest open "
                    "window %llu needs watermark %.3f ms but the "
                    "source has only emitted %.3f ms (gap %.3f ms) — "
                    "max_inflight_bundles cannot cover one window; "
                    "raise it or shrink the window",
                    stream_, simToSeconds(now - backpressured_since_),
                    eng_.inflightBundles(stream_),
                    eng_.config().max_inflight_bundles,
                    (unsigned long long)oldest,
                    static_cast<double>(spec.end(oldest)) / kNsPerMs,
                    static_cast<double>(emitted_wm_) / kNsPerMs,
                    static_cast<double>(gap) / kNsPerMs);
            }
            // While the sender is paused no record with an earlier
            // timestamp can ever arrive (event time == delivery
            // time), so the watermark may advance to "now" — exactly
            // the periodic watermarks real sources emit when idle.
            // Without this, a throttled pipeline could never close
            // the window it is being throttled for.
            advanceIdleWatermark();
            eng_.machine().after(kNsPerMs, [this] { scheduleNext(); });
            return;
        }
        if (backpressured_since_ != 0) {
            ingest_wait_ns_ +=
                eng_.machine().now() - backpressured_since_;
            backpressured_since_ = 0;
        }

        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(cfg_.bundle_records,
                               cfg_.total_records - records_ingested_));
        const uint64_t bytes = uint64_t{n} * gen_.cols() * sizeof(uint64_t);
        double dt_sec = static_cast<double>(bytes) / cfg_.nic_bw;
        if (cfg_.offered_rate > 0) {
            double gap = static_cast<double>(n) / cfg_.offered_rate;
            if (cfg_.poisson_arrivals)
                gap *= arrival_rng_.nextExp();
            dt_sec = std::max(dt_sec, gap);
        }
        delivery_pending_ = true;
        eng_.machine().after(secondsToSim(dt_sec),
                             [this, n] { deliver(n); });
    }

    /**
     * Delay-based throttle (paper §5: the engine "dynamically starts
     * or stops pulling data from data source"): stop pulling while
     * the oldest unexternalized window is already running late, so a
     * slower-than-ingress pipeline settles at its service rate
     * instead of queueing unboundedly toward the delay target.
     */
    bool
    outputTooLate() const
    {
        if (eng_.inflightBundles(stream_) == 0)
            return false; // nothing queued; lag cannot be our fault
        const auto &spec = pipe_.windows();
        const SimTime deadline =
            spec.end(pipe_.targetWindow())
            + std::min<SimTime>(
                  static_cast<SimTime>(
                      0.8
                      * static_cast<double>(eng_.config().target_delay)),
                  3 * spec.width);
        return eng_.machine().now() > deadline;
    }

    void
    deliver(uint32_t n)
    {
        delivery_pending_ = false;
        if (halted_)
            return;
        const SimTime now = eng_.machine().now();
        const EventTime t0 = last_delivery_;
        const EventTime t1 = cfg_.logical_time
                                 ? logicalTs(cfg_.start_record
                                             + records_ingested_ + n)
                                 : now;

        columnar::Bundle *b =
            columnar::Bundle::create(eng_.memory(), gen_.cols(), n);
        sbhbm_assert(last_delivery_ >= emitted_wm_,
                     "source would violate its own watermark");
        gen_.fill(*b, n, t0, t1);
        last_delivery_ = t1;
        records_ingested_ += n;
        marks_.push_back(Checkpoint{now, records_ingested_});

        eng_.noteBundleIn(stream_);
        // The bundle can legitimately outlive this Source: operators
        // retain window state (KPAs pinning bundles) until pipeline
        // teardown, and sources are destroyed first. The release hook
        // must therefore not dereference the source — capture the
        // engine and stream by value. (The engine outlives every
        // pipeline object by construction.)
        b->setOnDestroy([eng = &eng_, stream = stream_] {
            eng->noteBundleOut(stream);
        });

        auto handle = columnar::BundleHandle::adopt(b);
        const EventTime min_ts = handle->row(0)[gen_.tsCol()];
        const EventTime end_ts = t1;
        const uint64_t seq = next_deliver_seq_++;

        // The NIC keeps streaming while ingestion bookkeeping runs.
        scheduleNext();

        // One ingestion task per bundle, then hand downstream. The
        // RDMA path pre-allocated the bundle, so it costs just the
        // bookkeeping; the ZeroMQ path (copy_at_ingest) also reads the
        // message and writes the bundle.
        const bool copy = cfg_.copy_at_ingest;
        const uint64_t bytes = handle->dataBytes();
        eng_.exec().spawn(
            runtime::ImpactTag::kHigh,
            [copy, bytes, n](sim::CostLog &log) {
                if (copy)
                    log.seq(sim::Tier::kDram, 2 * bytes);
                log.cpu(sim::cost::kIngestNsPerBundle
                        + (copy ? 2.0 * static_cast<double>(n) : 0.0));
            },
            [this, seq, handle, min_ts, end_ts]() mutable {
                forward(seq, std::move(handle), min_ts, end_ts);
            },
            stream_);
    }

    /**
     * Hand bundles downstream strictly in NIC order, so a watermark
     * can never overtake a bundle still in the ingestion stage.
     */
    void
    forward(uint64_t seq, columnar::BundleHandle handle, EventTime min_ts,
            EventTime end_ts)
    {
        ready_.emplace(seq, Ready{std::move(handle), min_ts, end_ts});
        while (!ready_.empty()
               && ready_.begin()->first == next_forward_seq_) {
            Ready r = std::move(ready_.begin()->second);
            ready_.erase(ready_.begin());
            ++next_forward_seq_;
            ++bundles_forwarded_;
            sink_->receive(
                pipeline::Msg::ofBundle(std::move(r.handle), r.min_ts),
                sink_port_);
            maybeEmitWatermark(r.end_ts);
        }
        if (all_delivered_ && ready_.empty()
            && next_forward_seq_ == next_deliver_seq_) {
            finish();
        }
    }

    /** Watermark progress while the sender is paused. */
    void
    advanceIdleWatermark()
    {
        // Only once every delivered bundle has been forwarded (a
        // watermark must not overtake a bundle inside the ingestion
        // stage), and only in boundary-watermark mode: delayed
        // watermarks (Fig 10b) must stay delayed.
        if (cfg_.bundles_per_watermark > 0)
            return;
        if (!ready_.empty() || next_forward_seq_ != next_deliver_seq_)
            return;
        if (cfg_.logical_time) {
            // Logical clocks advance with stream position, not wall
            // time: everything up to the current position is final.
            maybeEmitWatermark(last_delivery_);
            return;
        }
        const SimTime now = eng_.machine().now();
        maybeEmitWatermark(now);
        // Records delivered after the stall must be stamped after the
        // watermark just emitted: advance the generator's time base
        // past the idle gap (no data arrived during it).
        last_delivery_ = std::max(last_delivery_, now);
    }

    /** @param up_to all forwarded records have timestamps < up_to. */
    void
    maybeEmitWatermark(EventTime up_to)
    {
        if (cfg_.bundles_per_watermark > 0) {
            if (bundles_forwarded_ - last_wm_bundle_
                >= cfg_.bundles_per_watermark) {
                last_wm_bundle_ = bundles_forwarded_;
                emitWatermark(up_to);
            }
            return;
        }
        // Default: watermark at every crossed window boundary.
        const auto &spec = pipe_.windows();
        const columnar::WindowId w = spec.windowOf(up_to);
        if (w > last_wm_window_) {
            last_wm_window_ = w;
            emitWatermark(spec.start(w));
        }
    }

    void
    emitWatermark(EventTime ts)
    {
        if (ts == 0)
            return;
        emitted_wm_ = std::max(emitted_wm_, ts);
        sink_->receiveWatermark(columnar::Watermark{ts}, sink_port_);
    }

    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        finished_at_ = eng_.machine().now();
        // Final watermark: past the end of the last touched window so
        // every open window closes and drains.
        const auto &spec = pipe_.windows();
        emitWatermark(spec.end(spec.windowOf(last_delivery_)) + 1);
    }

    Engine &eng_;
    pipeline::Pipeline &pipe_;
    Generator &gen_;
    pipeline::Operator *sink_;
    SourceConfig cfg_;
    int sink_port_;
    runtime::StreamId stream_;
    Rng arrival_rng_;

    bool started_ = false;
    bool finished_ = false;
    bool all_delivered_ = false;
    bool paused_ = false;
    bool parked_ = false;
    bool halted_ = false;
    bool delivery_pending_ = false;
    SimTime finished_at_ = 0;
    SimTime last_delivery_ = 0;
    SimTime backpressured_since_ = 0;
    SimTime parked_since_ = 0;
    uint64_t ingest_wait_ns_ = 0;
    EventTime emitted_wm_ = 0;
    struct Ready
    {
        columnar::BundleHandle handle;
        EventTime min_ts;
        EventTime end_ts;
    };

    uint64_t records_ingested_ = 0;
    std::vector<Checkpoint> marks_;
    uint64_t next_deliver_seq_ = 0;
    uint64_t next_forward_seq_ = 0;
    uint64_t bundles_forwarded_ = 0;
    std::map<uint64_t, Ready> ready_;
    uint64_t last_wm_bundle_ = 0;
    columnar::WindowId last_wm_window_ = 0;
};

} // namespace sbhbm::ingest

#endif // SBHBM_INGEST_SOURCE_H
