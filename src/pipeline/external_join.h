/**
 * @file
 * External join (YSB step 3, Fig 5): replace each resident key with a
 * value looked up in an external key-value table — a small hash table
 * resident in HBM (paper §4.3: "a small table in HBM").
 *
 * Mirrors the paper's YSB execution: the operator updates resident
 * keys in place, writes the new keys back to a record column and
 * swaps in another column (the timestamp) for the next grouping
 * stage. Both columns are required; the write-back and the swap run
 * as one pass over the KPA (kpa::writeBackKeys with a swap column),
 * charged as the two separate primitives.
 */

#ifndef SBHBM_PIPELINE_EXTERNAL_JOIN_H
#define SBHBM_PIPELINE_EXTERNAL_JOIN_H

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "algo/hash_table.h"
#include "pipeline/operator.h"
#include "sim/cost_model.h"

namespace sbhbm::pipeline {

/** KPA-in, KPA-out key-mapping join against an external KV table. */
class ExternalJoinOp : public Operator
{
  public:
    /**
     * @param table         key -> mapped-key store (shared; in HBM).
     * @param writeback_col write mapped keys to this record column.
     * @param swap_col      afterwards swap this column in as resident.
     */
    ExternalJoinOp(Pipeline &pipe, std::string name,
                   std::shared_ptr<algo::HashTable<uint64_t>> table,
                   columnar::ColumnId writeback_col,
                   columnar::ColumnId swap_col)
        : Operator(pipe, std::move(name)), table_(std::move(table)),
          writeback_col_(writeback_col), swap_col_(swap_col)
    {
        sbhbm_assert(table_ != nullptr, "external table required");
        sbhbm_assert(writeback_col_ != columnar::kNoColumn
                         && swap_col_ != columnar::kNoColumn,
                     "write-back and swap columns required");
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isKpa(), "ExternalJoinOp expects KPAs");
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.kpa->recordCols());
            kpa::Kpa &k = *msg.kpa;

            // Adaptive probe tuning (host wall clock only — the
            // scalar, prefetched and every-width batched paths return
            // identical keys, and the charges below depend only on
            // sizes). One-shot: pick the batch width B by timing the
            // first bundle's keys at each candidate; steady-state:
            // feed the measured ns/probe into the hysteresis gate
            // that replaces the one-shot sysconf LLC guess.
            runtime::OpAdapt *adapt = opAdapt();
            if (adapt != nullptr && !adapt->probeBatchTuned()
                && k.size() >= 256) {
                std::vector<uint64_t> keys(k.size());
                for (uint32_t i = 0; i < k.size(); ++i)
                    keys[i] = k.entries()[i].key;
                runtime::autotuneProbeBatch(
                    *table_, keys.data(),
                    static_cast<uint32_t>(keys.size()));
                adapt->markProbeBatchTuned();
            }

            // Batched probes: the per-key chain walks overlap their
            // misses (HashTable::findBatch) instead of serializing.
            if (adapt != nullptr && k.size() > 0) {
                const auto t0 = std::chrono::steady_clock::now();
                kpa::updateKeysViaTable(ctx, k, *table_);
                const auto t1 = std::chrono::steady_clock::now();
                const double ns_per_probe =
                    static_cast<double>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(t1 - t0)
                            .count())
                    / static_cast<double>(k.size());
                table_->setPrefetch(adapt->probeTuner().observe(
                    ns_per_probe, table_->prefetchEnabled()));
            } else {
                kpa::updateKeysViaTable(ctx, k, *table_);
            }
            // Table probes: one random line per record into the
            // (HBM-resident, when available) table.
            ctx.hm.charge(log, ctx.hm.smallStateTier(),
                          sim::AccessPattern::kRandom,
                          uint64_t{k.size()} * sim::cost::kLineBytes);
            log.cpu(sim::cost::kHashProbeNs * k.size());

            kpa::writeBackKeys(ctx, k, writeback_col_, swap_col_);

            Msg out = Msg::ofKpa(std::move(msg.kpa), msg.min_ts);
            if (msg.has_window)
                out = std::move(out).withWindow(msg.window);
            em.push(std::move(out));
        });
    }

  private:
    std::shared_ptr<algo::HashTable<uint64_t>> table_;
    columnar::ColumnId writeback_col_;
    columnar::ColumnId swap_col_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_EXTERNAL_JOIN_H
