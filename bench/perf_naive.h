/**
 * @file
 * Reference (pre-rewrite) kernels for the perf-regression harness:
 * the asymptotics and buffering the hot-path rewrite removed, kept so
 * every report carries its own baseline. Compiled in their own
 * translation unit so the optimizer cannot cross-specialize them
 * against the live kernels they are measured against. Do not "fix"
 * these — they are the yardstick.
 */

#ifndef SBHBM_BENCH_PERF_NAIVE_H
#define SBHBM_BENCH_PERF_NAIVE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "columnar/bundle.h"
#include "columnar/record.h"
#include "kpa/primitives.h"

namespace sbhbm::bench {

/** O(n * ranges) counting + O(n * ranges) scatter, as before. */
std::vector<kpa::RangePartition>
naivePartitionByRange(kpa::Ctx ctx, const kpa::Kpa &src,
                      uint64_t range_width, kpa::Placement place);

/** Buffers every match pair before emitting, as before. */
columnar::BundleHandle
naiveJoin(kpa::Ctx ctx, const kpa::Kpa &l, const kpa::Kpa &r,
          const std::vector<columnar::ColumnId> &l_cols,
          const std::vector<columnar::ColumnId> &r_cols);

/**
 * Stable merge with one data-dependent branch per output entry, as
 * mergeRuns ran before its branch-free two-ended loop.
 */
void naiveMergeRuns(const columnar::KpEntry *a, size_t na,
                    const columnar::KpEntry *b, size_t nb,
                    columnar::KpEntry *out);

/** The per-key reductions naiveReduce can run. */
enum class NaiveReducer
{
    kSum,
    kUniqueCount,
};

/**
 * Keyed reduce of a sorted KPA as it ran before typed reducers: a
 * std::function call per key run, a fresh value vector per run for
 * the unique count, one initializer_list push per row into an
 * unreserved buffer, and a row-by-row copy into the output bundle.
 */
columnar::BundleHandle naiveReduce(mem::HybridMemory &hm,
                                   const kpa::Kpa &merged,
                                   NaiveReducer reducer,
                                   columnar::ColumnId value_col);

/**
 * The paper's merge sort as the host ran it before the radix sort:
 * 64-entry bitonic blocks, bottom-up merge passes with a fixed
 * data->scratch ping-pong, an unconditional full sort and a final
 * copy-back.
 */
void naiveSortRun(columnar::KpEntry *data, size_t n,
                  columnar::KpEntry *scratch);

/**
 * Select as FilterOp ran it before its column match: a std::function
 * predicate called per row, and a branch on its result around each
 * store.
 */
kpa::KpaPtr naiveSelect(kpa::Ctx ctx, columnar::Bundle &src,
                        columnar::ColumnId key_col,
                        const std::function<bool(const uint64_t *)> &pred,
                        kpa::Placement place);

/** Per-record row() + push() extract loop, as before. */
kpa::KpaPtr naiveExtract(kpa::Ctx ctx, columnar::Bundle &src,
                         columnar::ColumnId key_col,
                         kpa::Placement place);

/** Per-column append() materialize loop, as before. */
columnar::BundleHandle naiveMaterialize(kpa::Ctx ctx,
                                        const kpa::Kpa &k);

} // namespace sbhbm::bench

#endif // SBHBM_BENCH_PERF_NAIVE_H
