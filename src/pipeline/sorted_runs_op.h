/**
 * @file
 * Base class for statefull grouping operators (Fig 4a):
 *
 *  - as windowed KPAs arrive, swap in the grouping key, sort each
 *    KPA, and save the sorted runs as the window's internal state;
 *  - when the window closes (watermark), merge all saved runs with a
 *    parallel binary merge tree — large merges are sliced at key
 *    boundaries across tasks (paper §4.2) — then run the subclass's
 *    reduction on the fully-sorted KPA.
 *
 * Close work runs Urgent: it is the critical path of pipeline output.
 * Each merge round is chained off the previous round's *simulated*
 * completion, so the tree's span shows up in output delay exactly as
 * it would on the real machine.
 */

#ifndef SBHBM_PIPELINE_SORTED_RUNS_OP_H
#define SBHBM_PIPELINE_SORTED_RUNS_OP_H

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/** Sorted-run accumulation + merge-tree close. */
class SortedRunsOp : public Operator
{
  public:
    SortedRunsOp(Pipeline &pipe, std::string name,
                 columnar::ColumnId key_col, int num_ports = 1)
        : Operator(pipe, std::move(name), num_ports), key_col_(key_col)
    {
    }

    /** Entries above which a pair merge is sliced across tasks. */
    static constexpr uint32_t kSliceThreshold = 1u << 17;

    /** Minimum entries per parallel reduce shard. */
    static constexpr uint32_t kReduceShardMin = 1u << 15;

  protected:
    /**
     * Subclass hook: consume key runs [lo, hi) of the window's
     * fully-merged sorted KPA and emit results. The range boundaries
     * fall on key-run boundaries; shards run as parallel Urgent tasks
     * (paper Fig 4a: every step uses all available threads).
     */
    virtual void reduceWindow(columnar::WindowId w, const kpa::Kpa &merged,
                              uint32_t lo, uint32_t hi, sim::CostLog &log,
                              Emitter &em) = 0;

    /**
     * Parallel shards the reduction may be split into; subclasses
     * whose reduction needs whole-window state return 1.
     */
    virtual uint32_t
    reduceShards(const kpa::Kpa &merged) const
    {
        const uint32_t by_size =
            std::max<uint32_t>(1, merged.size() / kReduceShardMin);
        return std::min(eng_.exec().cores(), by_size);
    }

    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isKpa() && msg.has_window,
                     "%s expects windowed KPAs", name().c_str());
        const columnar::WindowId w = msg.window;
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag,
                     [this, w, msg = std::move(msg)](sim::CostLog &log,
                                                    Emitter &) mutable {
                         // The watermark barrier guarantees no data
                         // for an already-closed window can appear.
                         sbhbm_assert(w >= min_open_,
                                      "%s: late data for closed window"
                                      " %llu",
                                      name().c_str(),
                                      (unsigned long long)w);
                         auto ctx = makeCtx(log, msg.kpa->recordCols());
                         kpa::keySwap(ctx, *msg.kpa, key_col_);
                         kpa::sortKpa(ctx, *msg.kpa);
                         state_[w].push_back(std::move(msg.kpa));
                     });
    }

    void
    onWatermark(Watermark wm) override
    {
        const columnar::WindowSpec spec = pipe_.windows();
        std::vector<columnar::WindowId> ready;
        for (const auto &[w, runs] : state_)
            if (spec.end(w) <= wm.ts)
                ready.push_back(w);
        for (columnar::WindowId w : ready)
            startClose(w);
    }

    bool
    readyToForward(Watermark wm) const override
    {
        const columnar::WindowSpec spec = pipe_.windows();
        for (const auto &[w, runs] : state_)
            if (spec.end(w) <= wm.ts)
                return false;
        for (columnar::WindowId w : closing_)
            if (spec.end(w) <= wm.ts)
                return false;
        return true;
    }

  public:
    /**
     * Checkpoint capture: deep-copy every accumulated run (keys plus
     * the full rows its entries reference) so the snapshot survives
     * the shard. Incremental: a run whose Kpa::touchGen() is
     * unchanged since @p prev reuses the previous payload and charges
     * nothing. Copy traffic is charged DMA-style — entries stream out
     * of their tier, rows out of DRAM, the serialized payload
     * write-allocates in the DRAM staging area.
     */
    SnapshotSupport
    snapshotState(OperatorSnapshot &out, const OperatorSnapshot *prev,
                  sim::CostLog &log) override
    {
        sbhbm_assert(closing_.empty(),
                     "%s: snapshot during an in-flight window close",
                     name().c_str());
        out.support = SnapshotSupport::kSupported;
        out.min_open = min_open_;
        for (const auto &[w, runs] : state_) {
            for (uint32_t i = 0; i < runs.size(); ++i) {
                const kpa::Kpa &k = *runs[i];
                RunSnapshot rs;
                rs.window = w;
                rs.index = i;
                rs.touch_gen = k.touchGen();
                rs.sorted = k.sorted();
                rs.resident_col = k.residentColumn();
                rs.tier = k.tier();
                const RunSnapshot *p =
                    prev != nullptr ? prev->find(w, i) : nullptr;
                if (p != nullptr && p->data != nullptr
                    && p->touch_gen == rs.touch_gen
                    && p->data->keys.size() == k.size()) {
                    rs.data = p->data;
                    rs.reused = true;
                } else {
                    auto d = std::make_shared<RunData>();
                    const uint32_t cols =
                        k.sources().empty() ? 0 : k.recordCols();
                    d->cols = cols;
                    d->keys.resize(k.size());
                    d->rows.resize(uint64_t{k.size()} * cols);
                    for (uint32_t e = 0; e < k.size(); ++e) {
                        const kpa::KpEntry &kp = k.entries()[e];
                        d->keys[e] = kp.key;
                        if (cols > 0)
                            std::memcpy(&d->rows[uint64_t{e} * cols],
                                        kp.row,
                                        cols * sizeof(uint64_t));
                    }
                    const uint64_t entry_bytes = k.bytes();
                    const uint64_t row_bytes =
                        d->rows.size() * sizeof(uint64_t);
                    eng_.memory().charge(
                        log, k.tier(),
                        sim::AccessPattern::kSequential, entry_bytes);
                    eng_.memory().charge(
                        log, mem::Tier::kDram,
                        sim::AccessPattern::kSequential,
                        2 * row_bytes + entry_bytes);
                    rs.data = std::move(d);
                }
                out.runs.push_back(std::move(rs));
            }
        }
        return SnapshotSupport::kSupported;
    }

    /**
     * Restore onto a fresh operator: one synthetic bundle per run
     * holds the materialized rows, and a rebuilt KPA points into it.
     * Restored bundles carry no ingestion credit (they are state, not
     * in-flight data) and are reclaimed normally when the window
     * closes and the KPA drops its reference.
     */
    void
    restoreState(const OperatorSnapshot &snap) override
    {
        sbhbm_assert(state_.empty() && closing_.empty(),
                     "%s: restore into a non-empty operator",
                     name().c_str());
        min_open_ = std::max(min_open_, snap.min_open);
        for (const RunSnapshot &rs : snap.runs) {
            sbhbm_assert(rs.data != nullptr, "run snapshot lost payload");
            const RunData &d = *rs.data;
            const auto n = static_cast<uint32_t>(d.keys.size());
            kpa::Placement place;
            place.tier = rs.tier;
            place.stream = pipe_.streamId();
            if (!eng_.useKpa() && d.cols > 0) {
                place.entry_scale =
                    static_cast<double>(d.cols) * sizeof(uint64_t)
                    / sizeof(kpa::KpEntry);
            }
            kpa::KpaPtr k = kpa::Kpa::create(
                eng_.memory(), std::max<uint32_t>(n, 1), place);
            if (n > 0 && d.cols > 0) {
                columnar::Bundle *b = columnar::Bundle::create(
                    eng_.memory(), d.cols, n);
                uint64_t *rows = b->appendBlockRaw(n);
                std::memcpy(rows, d.rows.data(),
                            d.rows.size() * sizeof(uint64_t));
                for (uint32_t e = 0; e < n; ++e)
                    k->entries()[e] = kpa::KpEntry{
                        d.keys[e], rows + uint64_t{e} * d.cols};
                k->setSizeUnsafe(n);
                k->addSource(b);
                b->release(); // the KPA holds the surviving reference
            } else if (n > 0) {
                for (uint32_t e = 0; e < n; ++e)
                    k->entries()[e] = kpa::KpEntry{d.keys[e], nullptr};
                k->setSizeUnsafe(n);
            }
            k->setSorted(rs.sorted);
            k->setResidentColumn(rs.resident_col);
            state_[rs.window].push_back(std::move(k));
        }
    }

  private:
    using Runs = std::vector<kpa::KpaPtr>;
    using MergeDone = std::function<void(kpa::KpaPtr)>;

    void
    startClose(columnar::WindowId w)
    {
        auto it = state_.find(w);
        sbhbm_assert(it != state_.end(), "closing unknown window");
        auto runs = std::make_shared<Runs>(std::move(it->second));
        state_.erase(it);
        closing_.insert(w);
        min_open_ = std::max(min_open_, w + 1);
        mergeRound(w, runs);
    }

    /** One level of the binary merge tree. */
    void
    mergeRound(columnar::WindowId w, std::shared_ptr<Runs> runs)
    {
        if (runs->size() <= 1) {
            kpa::KpaPtr merged =
                runs->empty() ? nullptr : std::move(runs->front());
            spawnReduce(w, std::move(merged));
            return;
        }

        auto next = std::make_shared<Runs>();
        const size_t pairs = runs->size() / 2;
        next->resize(runs->size() - pairs);
        auto remaining = std::make_shared<size_t>(pairs);

        // Odd run passes through to the next round.
        if (runs->size() % 2 == 1)
            next->back() = std::move(runs->back());

        for (size_t p = 0; p < pairs; ++p) {
            auto a =
                std::make_shared<kpa::KpaPtr>(std::move((*runs)[2 * p]));
            auto b = std::make_shared<kpa::KpaPtr>(
                std::move((*runs)[2 * p + 1]));
            mergePair(std::move(a), std::move(b),
                      [this, w, next, remaining, p](kpa::KpaPtr m) {
                          (*next)[p] = std::move(m);
                          if (--*remaining == 0)
                              mergeRound(w, next);
                      });
        }
    }

    /**
     * Merge two sorted KPAs; @p done fires at simulated completion.
     * Big merges are sliced at key boundaries so every core
     * participates (paper §4.2).
     */
    void
    mergePair(std::shared_ptr<kpa::KpaPtr> a,
              std::shared_ptr<kpa::KpaPtr> b, MergeDone done)
    {
        const uint32_t total = (*a)->size() + (*b)->size();
        if (total <= kSliceThreshold) {
            auto slot = std::make_shared<kpa::KpaPtr>();
            spawnTracked(
                ImpactTag::kUrgent,
                [this, a, b, slot](sim::CostLog &log, Emitter &) {
                    auto ctx = makeCtx(log, recordColsOf(**a));
                    *slot = kpa::merge(
                        ctx, **a, **b,
                        placeKpa(ImpactTag::kUrgent,
                                      uint64_t{(*a)->size() + (*b)->size()}
                                          * sizeof(kpa::KpEntry)));
                },
                [slot, done = std::move(done)] {
                    done(std::move(*slot));
                });
            return;
        }

        // Sliced merge: allocate the output once, then S tasks merge
        // disjoint diagonal ranges; done fires when all S completed.
        const uint32_t slices = std::min<uint32_t>(
            eng_.exec().cores(),
            (total + kSliceThreshold - 1) / kSliceThreshold);
        kpa::Placement out_place = placeKpa(
            ImpactTag::kUrgent, uint64_t{total} * sizeof(kpa::KpEntry));
        if (!eng_.useKpa()) {
            out_place.entry_scale =
                static_cast<double>(recordColsOf(**a))
                * sizeof(uint64_t) / sizeof(kpa::KpEntry);
        }
        auto out = std::make_shared<kpa::KpaPtr>(
            kpa::Kpa::create(eng_.memory(), total, out_place));
        (*out)->setResidentColumn((*a)->residentColumn());
        (*out)->adoptSourcesFrom(**a);
        (*out)->adoptSourcesFrom(**b);

        auto body_left = std::make_shared<uint32_t>(slices);
        auto completion_left = std::make_shared<uint32_t>(slices);
        auto done_shared = std::make_shared<MergeDone>(std::move(done));
        for (uint32_t s = 0; s < slices; ++s) {
            spawnTracked(
                ImpactTag::kUrgent,
                [this, a, b, out, body_left, s, slices,
                 total](sim::CostLog &log, Emitter &) {
                    mergeSliceBody(**a, **b, **out, s, slices, total, log);
                    if (--*body_left == 0) {
                        (*out)->setSizeUnsafe(total);
                        (*out)->setSorted(true);
                    }
                },
                [out, completion_left, done_shared] {
                    if (--*completion_left == 0)
                        (*done_shared)(std::move(*out));
                });
        }
    }

    /** Functional work + cost charging of one merge slice. */
    void
    mergeSliceBody(const kpa::Kpa &ka, const kpa::Kpa &kb, kpa::Kpa &out,
                   uint32_t s, uint32_t slices, uint32_t total,
                   sim::CostLog &log)
    {
        const size_t d0 = uint64_t{total} * s / slices;
        const size_t d1 = uint64_t{total} * (s + 1) / slices;
        const auto [from_a, from_b] = algo::mergeRunsSegment(
            ka.entries(), ka.size(), kb.entries(), kb.size(),
            out.entries(), d0, d1);

        // This slice's share of the merge traffic.
        auto ctx = makeCtx(log, recordColsOf(ka));
        ctx.hm.charge(log, ka.tier(), sim::AccessPattern::kSequential,
                      ctx.scaled(from_a * sizeof(kpa::KpEntry)));
        ctx.hm.charge(log, kb.tier(), sim::AccessPattern::kSequential,
                      ctx.scaled(from_b * sizeof(kpa::KpEntry)));
        ctx.hm.charge(log, out.tier(), sim::AccessPattern::kSequential,
                      ctx.scaled((d1 - d0) * sizeof(kpa::KpEntry)));
        ctx.kernel(sim::cost::kMergeNsPerElem
                   * static_cast<double>(d1 - d0));
        log.cpu(sim::cost::kMergeSliceNsPerChunk);
    }

    /**
     * Final stage: the subclass reduction as parallel shards split at
     * key-run boundaries, then release the window.
     */
    void
    spawnReduce(columnar::WindowId w, kpa::KpaPtr merged)
    {
        auto holder = std::make_shared<kpa::KpaPtr>(std::move(merged));
        if (*holder == nullptr || (*holder)->empty()) {
            spawnTracked(ImpactTag::kUrgent,
                         [](sim::CostLog &, Emitter &) {},
                         [this, w, holder] { releaseWindow(w, holder); });
            return;
        }

        const auto cuts =
            kpa::keyRunCuts(**holder, reduceShards(**holder));
        auto left = std::make_shared<size_t>(cuts.size() - 1);
        for (size_t s = 0; s + 1 < cuts.size(); ++s) {
            const uint32_t lo = cuts[s];
            const uint32_t hi = cuts[s + 1];
            spawnTracked(
                ImpactTag::kUrgent,
                [this, w, holder, lo, hi](sim::CostLog &log,
                                          Emitter &em) {
                    reduceWindow(w, **holder, lo, hi, log, em);
                },
                [this, w, holder, left] {
                    if (--*left == 0)
                        releaseWindow(w, holder);
                });
        }
    }

    void
    releaseWindow(columnar::WindowId w,
                  const std::shared_ptr<kpa::KpaPtr> &holder)
    {
        holder->reset(); // drop KPA: bundles may reclaim
        closing_.erase(w);
        flushWatermarks();
    }

    /** recordCols() tolerant of source-less KPAs. */
    static uint32_t
    recordColsOf(const kpa::Kpa &k)
    {
        return k.sources().empty() ? 1 : k.recordCols();
    }

    columnar::ColumnId key_col_;
    std::map<columnar::WindowId, Runs> state_;
    std::set<columnar::WindowId> closing_;
    columnar::WindowId min_open_ = 0;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_SORTED_RUNS_OP_H
