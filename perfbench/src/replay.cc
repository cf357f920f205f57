/**
 * @file
 * Per-layer host time of the KPA kernels. The traced run replays the
 * kernels a workload's operators call, through their public functions,
 * on the workload's own generated bundles (same generators and seeds,
 * same bundle size, same host threads, event time spaced like the
 * measured run's windows). A span is kept in memory around every call
 * and the spans are summed per kernel when the replay ends.
 */

#include <cinttypes>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/worker_pool.h"
#include "ingest/generator.h"
#include "kpa/primitives.h"
#include "pipeline/aggregations.h"
#include "pipeline/pipeline.h"
#include "queries/query.h"
#include "reference.h"
#include "runtime/engine.h"
#include "stats.h"

namespace pb {
namespace {

using columnar::WindowId;
using kpa::KpaPtr;
using queries::QueryId;

enum Kind { kGen, kExtract, kSelect, kKeyUpdate, kPartition, kSort, kMerge,
            kReduce, kJoin, kKinds };

const char *const kKindMetric[kKinds] = {
    "",
    "kpa.extract_ns_per_rec",
    "kpa.select_ns_per_rec",
    "kpa.key_update_ns_per_rec",
    "kpa.partition_ns_per_rec",
    "kpa.sort_ns_per_rec",
    "kpa.merge_ns_per_rec",
    "kpa.reduce_ns_per_rec",
    "kpa.join_ns_per_rec",
};

struct Span
{
    Kind kind;
    int64_t start;
    int64_t end;
};

/** The replay's kernel context and span log. */
class Replayer
{
  public:
    explicit Replayer(unsigned host_threads)
        : hm_(sim::MachineConfig::knl(), sim::MemoryMode::kFlat),
          pool_(host_threads > 1 ? std::make_unique<WorkerPool>(host_threads)
                                 : nullptr)
    {
    }

    /** Run @p fn (given a fresh kernel context) inside a @p kind span. */
    template <typename Fn>
    auto
    timed(Kind kind, Fn &&fn)
    {
        sim::CostLog log;
        kpa::Ctx ctx{hm_, log};
        ctx.pool = pool_.get();
        const int64_t start = hostNs();
        if constexpr (std::is_void_v<decltype(fn(ctx))>) {
            fn(ctx);
            spans_.push_back(Span{kind, start, hostNs()});
        } else {
            auto result = fn(ctx);
            spans_.push_back(Span{kind, start, hostNs()});
            return result;
        }
    }

    mem::HybridMemory &memory() { return hm_; }

    /** Fill one bundle of @p n records at stream position @p pos. */
    columnar::BundleHandle
    generate(ingest::Generator &gen, uint32_t n, uint64_t pos, double ns_per_rec,
             bool join_values)
    {
        columnar::Bundle *b = columnar::Bundle::create(hm_, gen.cols(), n);
        columnar::BundleHandle h = columnar::BundleHandle::adopt(b);
        const auto t0 = static_cast<EventTime>(static_cast<double>(pos)
                                               * ns_per_rec);
        const auto t1 = static_cast<EventTime>(
            static_cast<double>(pos + n) * ns_per_rec);
        const int64_t start = hostNs();
        gen.fill(*b, n, t0, t1);
        if (join_values) {
            using G = ingest::KvGen;
            uint64_t *row = b->data();
            for (uint32_t r = 0; r < n; ++r, row += b->cols())
                row[G::kValueCol] = joinValue(row[G::kKeyCol]);
        }
        spans_.push_back(Span{kGen, start, hostNs()});
        records_ += n;
        return h;
    }

    ReplayResult
    result() const
    {
        int64_t total[kKinds] = {};
        uint64_t calls[kKinds] = {};
        for (const Span &s : spans_) {
            total[s.kind] += s.end - s.start;
            ++calls[s.kind];
        }
        const double n = static_cast<double>(records_);
        ReplayResult r;
        r.gen_ns_per_rec = static_cast<double>(total[kGen]) / n;
        for (int k = kExtract; k < kKinds; ++k) {
            r.kernel_ns_per_rec[kKindMetric[k]] =
                static_cast<double>(total[k]) / n;
            note("replay %-28s %8" PRIu64 " calls %10.3f ms",
                 kKindMetric[k], calls[k],
                 static_cast<double>(total[k]) / 1e6);
        }
        note("replay: %" PRIu64 " records, %zu spans", records_,
             spans_.size());
        return r;
    }

  private:
    mem::HybridMemory hm_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<Span> spans_;
    uint64_t records_ = 0;
};

pipeline::Aggregation
aggregationOf(QueryId id)
{
    using G = ingest::KvGen;
    switch (id) {
      case QueryId::kYsb: return pipeline::aggs::countPerKey();
      case QueryId::kSumPerKey: return pipeline::aggs::sumPerKey(G::kValueCol);
      case QueryId::kAvgPerKey: return pipeline::aggs::avgPerKey(G::kValueCol);
      case QueryId::kUniqueCountPerKey:
        return pipeline::aggs::uniqueCountPerKey(G::kValueCol);
      default: break;
    }
    sbhbm_fatal("no replay for query %d", static_cast<int>(id));
    return {};
}

/**
 * Keyed aggregation (YSB and the serving mix): select + external key
 * map (YSB) or extract, window partition, sort each run, merge a
 * window's runs at close, reduce its key runs.
 */
void
replayKeyed(Replayer &rp, const ReplayStream &s)
{
    using Y = ingest::YsbGen;
    using G = ingest::KvGen;
    const bool ysb = s.qc.id == QueryId::kYsb;
    const columnar::ColumnId key_col = ysb ? Y::kAdCol : G::kKeyCol;
    const columnar::ColumnId ts_col = ysb ? Y::kTsCol : G::kTsCol;
    const columnar::WindowSpec spec{s.qc.window_ns};
    const double ns_per_rec =
        static_cast<double>(s.qc.window_ns) / s.records_per_window;
    const pipeline::Aggregation agg = aggregationOf(s.qc.id);
    auto table = Y::campaignTable();
    QueryGenerators gens(s.qc);
    const kpa::Placement place{};

    std::map<WindowId, std::vector<KpaPtr>> runs;
    auto close = [&](WindowId w) {
        std::vector<KpaPtr> level = std::move(runs[w]);
        runs.erase(w);
        while (level.size() > 1) {
            std::vector<KpaPtr> next;
            for (size_t i = 0; i + 1 < level.size(); i += 2) {
                next.push_back(rp.timed(kMerge, [&](kpa::Ctx ctx) {
                    return kpa::merge(ctx, *level[i], *level[i + 1], place);
                }));
            }
            if (level.size() % 2 == 1)
                next.push_back(std::move(level.back()));
            level = std::move(next);
        }
        if (level.empty())
            return;
        const kpa::Kpa &merged = *level.front();
        rp.timed(kReduce, [&](kpa::Ctx) {
            pipeline::RowSink sink(agg.out_cols);
            kpa::forEachKeyRun(merged, [&](uint64_t key,
                                           const columnar::KpEntry *run,
                                           size_t n) {
                agg.per_key(key, run, n, sink);
            });
            return sink.toBundle(rp.memory());
        });
    };

    for (uint64_t pos = 0; pos < s.records;) {
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(s.bundle_records, s.records - pos));
        columnar::BundleHandle b =
            rp.generate(*gens.built.gen_a, n, pos, ns_per_rec, false);
        pos += n;
        KpaPtr k;
        if (ysb) {
            k = rp.timed(kSelect, [&](kpa::Ctx ctx) {
                return kpa::selectFromBundle(
                    ctx, *b, Y::kAdCol,
                    [](const uint64_t *row) {
                        return row[Y::kEventTypeCol] == Y::kViewEvent;
                    },
                    place);
            });
            rp.timed(kKeyUpdate, [&](kpa::Ctx ctx) {
                kpa::updateKeysViaTable(ctx, *k, *table);
                kpa::writeBackKeys(ctx, *k, Y::kAdCol);
            });
        } else {
            k = rp.timed(kExtract, [&](kpa::Ctx ctx) {
                return kpa::extract(ctx, *b, G::kKeyCol, place);
            });
        }
        rp.timed(kKeyUpdate,
                 [&](kpa::Ctx ctx) { kpa::keySwap(ctx, *k, ts_col); });
        auto parts = rp.timed(kPartition, [&](kpa::Ctx ctx) {
            return kpa::partitionByRange(ctx, *k, spec.width, place);
        });
        for (kpa::RangePartition &p : parts) {
            rp.timed(kKeyUpdate, [&](kpa::Ctx ctx) {
                kpa::keySwap(ctx, *p.part, key_col);
            });
            rp.timed(kSort, [&](kpa::Ctx ctx) { kpa::sortKpa(ctx, *p.part); });
            runs[p.range].push_back(std::move(p.part));
        }
        // A window closes once the stream has moved past its end.
        const EventTime horizon =
            static_cast<EventTime>(static_cast<double>(pos) * ns_per_rec);
        while (!runs.empty() && spec.end(runs.begin()->first) <= horizon)
            close(runs.begin()->first);
    }
    while (!runs.empty())
        close(runs.begin()->first);
}

/**
 * Temporal join: both streams extract, partition by window, sort each
 * run; a run joins the other side's window state, then merges into its
 * own side's state.
 */
void
replayJoin(Replayer &rp, const ReplayStream &s)
{
    using G = ingest::KvGen;
    const columnar::WindowSpec spec{s.qc.window_ns};
    const double ns_per_rec =
        static_cast<double>(s.qc.window_ns) / s.records_per_window;
    QueryGenerators gens(s.qc);
    ingest::Generator *gen[2] = {gens.built.gen_a.get(),
                                 gens.built.gen_b.get()};
    const kpa::Placement place{};
    std::map<WindowId, std::array<KpaPtr, 2>> state;

    for (uint64_t pos = 0; 2 * pos < s.records;) {
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(s.bundle_records, s.records / 2 - pos));
        for (int side = 0; side < 2; ++side) {
            columnar::BundleHandle b =
                rp.generate(*gen[side], n, pos, ns_per_rec, true);
            KpaPtr k = rp.timed(kExtract, [&](kpa::Ctx ctx) {
                return kpa::extract(ctx, *b, G::kKeyCol, place);
            });
            rp.timed(kKeyUpdate,
                     [&](kpa::Ctx ctx) { kpa::keySwap(ctx, *k, G::kTsCol); });
            auto parts = rp.timed(kPartition, [&](kpa::Ctx ctx) {
                return kpa::partitionByRange(ctx, *k, spec.width, place);
            });
            for (kpa::RangePartition &p : parts) {
                rp.timed(kKeyUpdate, [&](kpa::Ctx ctx) {
                    kpa::keySwap(ctx, *p.part, G::kKeyCol);
                });
                rp.timed(kSort,
                         [&](kpa::Ctx ctx) { kpa::sortKpa(ctx, *p.part); });
                std::array<KpaPtr, 2> &ws = state[p.range];
                if (ws[1 - side] != nullptr) {
                    rp.timed(kJoin, [&](kpa::Ctx ctx) {
                        return kpa::join(ctx, *p.part, *ws[1 - side],
                                         {G::kValueCol}, {G::kValueCol});
                    });
                }
                if (ws[side] == nullptr) {
                    ws[side] = std::move(p.part);
                } else {
                    ws[side] = rp.timed(kMerge, [&](kpa::Ctx ctx) {
                        return kpa::merge(ctx, *ws[side], *p.part, place);
                    });
                }
            }
        }
        pos += n;
        const EventTime horizon =
            static_cast<EventTime>(static_cast<double>(pos) * ns_per_rec);
        while (!state.empty() && spec.end(state.begin()->first) <= horizon)
            state.erase(state.begin());
    }
}

} // namespace

ReplayResult
replayKernels(const std::vector<ReplayStream> &streams,
              unsigned host_threads)
{
    Replayer rp(host_threads);
    for (const ReplayStream &s : streams) {
        if (s.qc.id == QueryId::kTemporalJoin)
            replayJoin(rp, s);
        else
            replayKeyed(rp, s);
    }
    return rp.result();
}

} // namespace pb
