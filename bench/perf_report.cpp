/**
 * @file
 * Host-kernel perf-regression harness.
 *
 * Times the rewritten KPA kernels (partitionByRange, join, select,
 * the fused write-back and key swap, sortRun, mergeRuns, the keyed
 * reduce, extract, materialize, keySwap) against reference
 * implementations preserving the pre-rewrite algorithms, the temporal
 * join's keySwap, sortKpa and join on a 2-thread host pool against
 * their serial runs, plus one end-to-end figure-style GroupBy-window
 * pipeline and one fleet shard's dispatch path (executor, run queue
 * and simulator, no kernels), and writes the results to a
 * machine-readable JSON report (BENCH_kernels.json).
 * Unlike the fig* benches this measures *host wall-clock* time — the
 * simulated cost model is exercised but its output is not the metric.
 *
 * Self-contained on purpose (std::chrono, no Google Benchmark) so it
 * builds and runs wherever the test suite does, including CI.
 *
 * Usage: perf_report [--smoke] [--out <path>]
 *   --smoke      small inputs / few reps (CI per-PR signal)
 *   --out        JSON output path (default BENCH_kernels.json)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "algo/sort.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "ingest/generator.h"
#include "kpa/primitives.h"
#include "perf_naive.h"
#include "pipeline/aggregations.h"
#include "runtime/executor.h"
#include "sim/machine.h"
#include "sim/machine_config.h"

using namespace sbhbm;
using bench::BenchResult;
using bench::naiveExtract;
using bench::naiveJoin;
using bench::naiveMaterialize;
using bench::naiveMergeRuns;
using bench::naivePartitionByRange;
using bench::naiveReduce;
using bench::naiveSortRun;
using bench::Table;
using columnar::Bundle;
using columnar::BundleHandle;
using columnar::KpEntry;
using kpa::Ctx;
using kpa::Kpa;
using kpa::KpaPtr;
using kpa::Placement;
using mem::Tier;

namespace {

// -------------------------------------------------------------------
// Harness
// -------------------------------------------------------------------

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Best-of-@p reps wall time of fn() in nanoseconds. */
template <typename Fn>
double
bestNs(int reps, Fn &&fn)
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowNs();
        fn();
        const double t1 = nowNs();
        if (r == 0 || t1 - t0 < best)
            best = t1 - t0;
    }
    return best;
}

struct TimedPair
{
    double ns = 0;           //!< rewritten kernel, best of reps
    double naive_ns = 0;     //!< reference kernel, best of reps
    double median_ratio = 0; //!< median of per-rep naive/new ratios
};

/**
 * Best-of-@p reps for the rewritten kernel and its naive reference,
 * *interleaved* rep by rep so slow machine-load drift hits both sides
 * equally instead of biasing whichever ran second. The speedup is the
 * median of the per-rep back-to-back ratios, which stays meaningful
 * even when ambient load shifts between reps.
 */
template <typename Fn, typename NaiveFn>
TimedPair
bestNsVs(int reps, Fn &&fn, NaiveFn &&naive)
{
    TimedPair t;
    std::vector<double> ratios;
    ratios.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        double t0 = nowNs();
        fn();
        double t1 = nowNs();
        const double mine = t1 - t0;
        if (r == 0 || mine < t.ns)
            t.ns = mine;
        t0 = nowNs();
        naive();
        t1 = nowNs();
        const double theirs = t1 - t0;
        if (r == 0 || theirs < t.naive_ns)
            t.naive_ns = theirs;
        if (mine > 0)
            ratios.push_back(theirs / mine);
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty())
        t.median_ratio = ratios[ratios.size() / 2];
    return t;
}

/**
 * bestNsVs for calls too short to time one at a time: each rep
 * repeats calls until it runs at least 10 ms, and the result is per
 * call. Both sides run the same number of calls.
 */
template <typename Fn, typename NaiveFn>
TimedPair
bestNsVsPerCall(int reps, Fn &&fn, NaiveFn &&naive)
{
    const double call_ns =
        std::max(1.0, std::min(bestNs(3, fn), bestNs(3, naive)));
    const int calls = std::max(1, static_cast<int>(std::ceil(1e7 / call_ns)));
    TimedPair t = bestNsVs(
        reps,
        [&] {
            for (int c = 0; c < calls; ++c)
                fn();
        },
        [&] {
            for (int c = 0; c < calls; ++c)
                naive();
        });
    t.ns /= calls;
    t.naive_ns /= calls;
    return t;
}

struct Env
{
    sim::MachineConfig cfg = sim::MachineConfig::knl();
    mem::HybridMemory hm{cfg, sim::MemoryMode::kFlat};
    sim::CostLog log;
    Placement hbm{Tier::kHbm, false};

    Ctx ctx() { return Ctx{hm, log}; }

    /** (key, value, ts) bundle; keys random in [0, key_range). */
    BundleHandle
    makeBundle(uint32_t rows, uint64_t key_range, uint64_t seed)
    {
        Rng rng(seed);
        BundleHandle b = BundleHandle::adopt(Bundle::create(hm, 3, rows));
        uint64_t *row = b->appendBlockRaw(rows);
        for (uint32_t r = 0; r < rows; ++r, row += 3) {
            row[0] = rng.nextBounded(key_range);
            row[1] = rng.nextBounded(1000);
            row[2] = 1000 + r;
        }
        return b;
    }
};

BenchResult
result(std::string name, double ns, uint64_t items, int reps,
       double baseline_ns = 0)
{
    BenchResult r;
    r.name = std::move(name);
    r.ns_per_op = ns;
    r.items = items;
    r.items_per_sec = ns > 0 ? 1e9 * static_cast<double>(items) / ns : 0;
    r.iters = reps;
    r.baseline_ns_per_op = baseline_ns;
    r.speedup = (baseline_ns > 0 && ns > 0) ? baseline_ns / ns : 0;
    return r;
}

/** Result of a paired bench: speedup is the drift-robust median. */
BenchResult
result(std::string name, const TimedPair &t, uint64_t items, int reps)
{
    BenchResult r = result(std::move(name), t.ns, items, reps,
                           t.naive_ns);
    r.speedup = t.median_ratio;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_kernels.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
            out_path = argv[++a];
        else {
            std::fprintf(stderr,
                         "usage: perf_report [--smoke] [--out <path>]\n");
            return 2;
        }
    }

    const uint32_t n = smoke ? 1u << 16 : 1u << 20;
    const int reps = smoke ? 3 : 9;
    const uint64_t ranges = 64;
    std::printf("perf_report: %u entries per kernel, %d reps (%s)\n", n,
                reps, smoke ? "smoke" : "full");

    bench::JsonReport report;
    Env env;

    // --- partitionByRange, 64 ranges, sorted input ------------------
    {
        BundleHandle b = env.makeBundle(n, ranges * 100, 2);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                auto parts = kpa::partitionByRange(env.ctx(), *k, 100,
                                                   env.hbm);
            },
            [&] {
                auto parts = naivePartitionByRange(env.ctx(), *k, 100,
                                                   env.hbm);
            });
        report.add(result("partitionByRange/64r/sorted", t, n, reps));
    }

    // --- join, ~1:1 matches -----------------------------------------
    {
        BundleHandle lb = env.makeBundle(n, n, 3);
        BundleHandle rb = env.makeBundle(n, n, 4);
        KpaPtr lk = kpa::extract(env.ctx(), *lb, 0, env.hbm);
        KpaPtr rk = kpa::extract(env.ctx(), *rb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *lk);
        kpa::sortKpa(env.ctx(), *rk);
        const std::vector<columnar::ColumnId> cols{1};
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                BundleHandle out =
                    kpa::join(env.ctx(), *lk, *rk, cols, cols);
            },
            [&] {
                BundleHandle out =
                    naiveJoin(env.ctx(), *lk, *rk, cols, cols);
            });
        report.add(result("join/1to1", t, n, reps));
    }

    // --- join, wide payloads with duplicate keys --------------------
    // Exercises the one-memcpy copy of a contiguous payload and the
    // cross product of each duplicate key run (2x2 matches per key, 6
    // payload columns a side).
    {
        const uint32_t rows = n / 2;
        Rng rng(11);
        BundleHandle lb =
            BundleHandle::adopt(Bundle::create(env.hm, 8, rows));
        BundleHandle rb =
            BundleHandle::adopt(Bundle::create(env.hm, 8, rows));
        for (Bundle *b : {lb.get(), rb.get()}) {
            uint64_t *row = b->appendBlockRaw(rows);
            for (uint32_t r = 0; r < rows; ++r, row += 8) {
                row[0] = r / 2; // every key twice per side
                for (uint32_t c = 1; c < 8; ++c)
                    row[c] = rng.next();
            }
        }
        KpaPtr lk = kpa::extract(env.ctx(), *lb, 0, env.hbm);
        KpaPtr rk = kpa::extract(env.ctx(), *rb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *lk);
        kpa::sortKpa(env.ctx(), *rk);
        const std::vector<columnar::ColumnId> cols{1, 2, 3, 4, 5, 6};
        const uint64_t matches = uint64_t{rows / 2} * 4;
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                BundleHandle out =
                    kpa::join(env.ctx(), *lk, *rk, cols, cols);
            },
            [&] {
                BundleHandle out =
                    naiveJoin(env.ctx(), *lk, *rk, cols, cols);
            });
        report.add(result("join/wide-dup", t, matches, reps));
    }

    // --- join, the temporal join's average call ---------------------
    // The `join` workload joins each arriving KPA (43 k entries on
    // average) against the other stream's window state (126 k) over
    // 1 M keys, so about 3% of the scanned entries match. One call
    // takes well under a millisecond, so it is timed per call.
    {
        BundleHandle ab = env.makeBundle(43000, 1000000, 15);
        BundleHandle sb = env.makeBundle(126000, 1000000, 16);
        KpaPtr ak = kpa::extract(env.ctx(), *ab, 0, env.hbm);
        KpaPtr sk = kpa::extract(env.ctx(), *sb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *ak);
        kpa::sortKpa(env.ctx(), *sk);
        const std::vector<columnar::ColumnId> cols{1};
        const TimedPair t = bestNsVsPerCall(
            reps,
            [&] {
                BundleHandle out =
                    kpa::join(env.ctx(), *ak, *sk, cols, cols);
            },
            [&] {
                BundleHandle out =
                    naiveJoin(env.ctx(), *ak, *sk, cols, cols);
            });
        report.add(result("join/stream", t, ak->size(), reps));

        // --- the temporal join's kernels on 2 host threads ----------
        // keySwap, sortKpa and join on the same shapes, each timed on
        // a 2-thread WorkerPool against the same kernel run serially
        // (the baseline column), and the outputs compared. keySwap and
        // sortKpa work on the arriving KPA as the workload extracts
        // it: entries in row order, keys unsorted. Each sortKpa call
        // first restores the unsorted entries, on both sides.
        WorkerPool pool2(2);
        auto ctx2 = [&] {
            Ctx c = env.ctx();
            c.pool = &pool2;
            return c;
        };
        auto two_threads = [](BenchResult r) {
            r.threads = 2;
            return r;
        };

        BundleHandle par_out, ser_out;
        const TimedPair tj = bestNsVsPerCall(
            reps,
            [&] { par_out = kpa::join(ctx2(), *ak, *sk, cols, cols); },
            [&] { ser_out = kpa::join(env.ctx(), *ak, *sk, cols, cols); });
        if (par_out->size() != ser_out->size()
            || std::memcmp(par_out->data(), ser_out->data(),
                           ser_out->dataBytes())
                   != 0) {
            std::fprintf(stderr, "join/stream-2t: rows differ from the "
                                 "serial join\n");
            return 1;
        }
        report.add(two_threads(result("join/stream-2t", tj, ak->size(),
                                      reps)));

        KpaPtr par_k = kpa::extract(env.ctx(), *ab, 0, env.hbm);
        KpaPtr ser_k = kpa::extract(env.ctx(), *ab, 0, env.hbm);
        const std::vector<KpEntry> unsorted(
            ser_k->entries(), ser_k->entries() + ser_k->size());
        const uint64_t kpa_bytes = ser_k->bytes();
        auto sort_from_unsorted = [&](Ctx c, Kpa &k) {
            std::memcpy(k.entries(), unsorted.data(), kpa_bytes);
            k.setSorted(false);
            kpa::sortKpa(c, k);
        };
        const TimedPair ts = bestNsVsPerCall(
            reps, [&] { sort_from_unsorted(ctx2(), *par_k); },
            [&] { sort_from_unsorted(env.ctx(), *ser_k); });
        if (std::memcmp(par_k->entries(), ser_k->entries(), kpa_bytes)
            != 0) {
            std::fprintf(stderr, "sortKpa/stream-2t: entries differ from "
                                 "the serial sort\n");
            return 1;
        }
        report.add(two_threads(result("sortKpa/stream-2t", ts,
                                      ser_k->size(), reps)));

        // Back to the unsorted entries in row order, keyed on column
        // 0. Alternate the key column so no call is a no-op, then swap
        // both KPAs to a third column for the comparison.
        for (Kpa *k : {par_k.get(), ser_k.get()}) {
            std::memcpy(k->entries(), unsorted.data(), kpa_bytes);
            k->setSorted(false);
        }
        columnar::ColumnId par_col = 2, ser_col = 2;
        const TimedPair tk = bestNsVsPerCall(
            reps,
            [&] {
                kpa::keySwap(ctx2(), *par_k, par_col);
                par_col = 2 - par_col;
            },
            [&] {
                kpa::keySwap(env.ctx(), *ser_k, ser_col);
                ser_col = 2 - ser_col;
            });
        kpa::keySwap(ctx2(), *par_k, 1);
        kpa::keySwap(env.ctx(), *ser_k, 1);
        if (std::memcmp(par_k->entries(), ser_k->entries(), kpa_bytes)
            != 0) {
            std::fprintf(stderr, "keySwap/stream-2t: keys differ from the "
                                 "serial swap\n");
            return 1;
        }
        report.add(two_threads(result("keySwap/stream-2t", tk,
                                      ser_k->size(), reps)));
    }

    // --- select, YSB view events ------------------------------------
    // FilterOp's select over one 50 k-record YSB bundle, keeping view
    // events: one record in three, at random, so a branch on the
    // predicate mispredicts often. The reference calls a std::function
    // per row and branches on it. Timed per call.
    {
        using ingest::YsbGen;
        constexpr uint32_t kRows = 50'000;
        BundleHandle b =
            BundleHandle::adopt(Bundle::create(env.hm, 7, kRows));
        YsbGen gen(17);
        gen.fill(*b, kRows, 0, kNsPerSec);
        const std::function<bool(const uint64_t *)> is_view =
            [](const uint64_t *row) {
                return row[YsbGen::kEventTypeCol] == YsbGen::kViewEvent;
            };
        KpaPtr out, naive_out;
        const TimedPair t = bestNsVsPerCall(
            reps,
            [&] {
                out = kpa::selectFromBundle(
                    env.ctx(), *b, YsbGen::kAdCol,
                    [](const uint64_t *row) {
                        return row[YsbGen::kEventTypeCol]
                               == YsbGen::kViewEvent;
                    },
                    env.hbm);
            },
            [&] {
                naive_out = bench::naiveSelect(env.ctx(), *b,
                                               YsbGen::kAdCol, is_view,
                                               env.hbm);
            });
        if (out->size() != naive_out->size()
            || std::memcmp(out->entries(), naive_out->entries(),
                           out->bytes())
                   != 0) {
            std::fprintf(stderr, "select/ysb-views: output differs from "
                                 "the reference\n");
            return 1;
        }
        report.add(result("select/ysb-views", t, kRows, reps));

        // --- write-back fused with the key swap ---------------------
        // ExternalJoinOp's last step on that selection: write the
        // campaign ids back to the ad column and swap in timestamps,
        // one fused pass against writeBackKeys then keySwap. Each
        // side works on its own copy of the bundle and the KPA; both
        // run the same calls, so they must end in the same state.
        BundleHandle b2 =
            BundleHandle::adopt(Bundle::create(env.hm, 7, kRows));
        std::memcpy(b2->appendBlockRaw(kRows), b->data(), b->dataBytes());
        auto campaigns = YsbGen::campaignTable();
        KpaPtr fused = kpa::selectFromBundle(env.ctx(), *b, YsbGen::kAdCol,
                                             is_view, env.hbm);
        KpaPtr two = kpa::selectFromBundle(env.ctx(), *b2, YsbGen::kAdCol,
                                           is_view, env.hbm);
        kpa::updateKeysViaTable(env.ctx(), *fused, *campaigns);
        kpa::updateKeysViaTable(env.ctx(), *two, *campaigns);
        const TimedPair tw = bestNsVsPerCall(
            reps,
            [&] {
                kpa::writeBackKeys(env.ctx(), *fused, YsbGen::kAdCol,
                                   YsbGen::kTsCol);
            },
            [&] {
                kpa::writeBackKeys(env.ctx(), *two, YsbGen::kAdCol);
                kpa::keySwap(env.ctx(), *two, YsbGen::kTsCol);
            });
        bool same = std::memcmp(b->data(), b2->data(), b->dataBytes()) == 0
                    && fused->size() == two->size();
        for (uint32_t i = 0; same && i < fused->size(); ++i)
            same = fused->entries()[i].key == two->entries()[i].key;
        if (!same) {
            std::fprintf(stderr, "writeBack/fused-swap: rows or keys "
                                 "differ from the two calls\n");
            return 1;
        }
        report.add(result("writeBack/fused-swap", tw, fused->size(), reps));
    }

    // --- sortRun, by key width ---------------------------------------
    // The radix sort makes one pass per key byte that varies: 7-bit
    // keys (YSB campaign ids) take one pass, 20-bit keys (up to 1 M
    // distinct) three, and full 64-bit keys eight, its worst case.
    for (const int bits : {7, 20, 64}) {
        Rng rng(5);
        std::vector<KpEntry> input(n);
        for (uint32_t i = 0; i < n; ++i)
            input[i] = KpEntry{bits == 64 ? rng.next()
                                          : rng.nextBounded(
                                              uint64_t{1} << bits),
                               nullptr};
        std::vector<KpEntry> work(n), scratch(n);
        const uint64_t bytes = uint64_t{n} * sizeof(KpEntry);
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                std::memcpy(work.data(), input.data(), bytes);
                algo::sortRun(work.data(), n, scratch.data());
            },
            [&] {
                std::memcpy(work.data(), input.data(), bytes);
                naiveSortRun(work.data(), n, scratch.data());
            });
        char name[32];
        std::snprintf(name, sizeof(name), "sortRun/keys-%dbit", bits);
        report.add(result(name, t, n, reps));
    }

    // --- sortRun, already-sorted input (presorted early-out) --------
    // Streaming pipelines sort timestamp-extracted KPAs that arrive
    // in order; the rewritten kernel detects this in one scan where
    // the reference re-runs every merge pass.
    {
        Rng rng(10);
        std::vector<KpEntry> input(n);
        for (uint32_t i = 0; i < n; ++i)
            input[i] = KpEntry{rng.next(), nullptr};
        std::vector<KpEntry> work(n), scratch(n);
        std::memcpy(work.data(), input.data(),
                    uint64_t{n} * sizeof(KpEntry));
        algo::sortRun(work.data(), n, scratch.data());
        std::memcpy(input.data(), work.data(),
                    uint64_t{n} * sizeof(KpEntry)); // sorted input
        const uint64_t bytes = uint64_t{n} * sizeof(KpEntry);
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                std::memcpy(work.data(), input.data(), bytes);
                algo::sortRun(work.data(), n, scratch.data());
            },
            [&] {
                std::memcpy(work.data(), input.data(), bytes);
                naiveSortRun(work.data(), n, scratch.data());
            });
        report.add(result("sortRun/presorted", t, n, reps));
    }

    // --- mergeRuns, by key width ------------------------------------
    // Two sorted 64 k runs. On 14- and 20-bit keys the reference's
    // "which side is smaller" branch is a coin flip. 7-bit keys (YSB
    // campaign ids) come in long equal-key stretches that predict it
    // well: the duplicate-heavy case, where the branch-free
    // two-ended merge gains least.
    for (const int bits : {7, 14, 20}) {
        constexpr uint32_t kRun = 1u << 16;
        Rng rng(12);
        std::vector<KpEntry> a(kRun), b(kRun), scratch(kRun);
        for (std::vector<KpEntry> *v : {&a, &b}) {
            for (KpEntry &e : *v)
                e = KpEntry{rng.nextBounded(uint64_t{1} << bits), nullptr};
            algo::sortRun(v->data(), kRun, scratch.data());
        }
        std::vector<KpEntry> out(2 * kRun), naive_out(2 * kRun);
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                algo::mergeRuns(a.data(), kRun, b.data(), kRun,
                                out.data());
            },
            [&] {
                naiveMergeRuns(a.data(), kRun, b.data(), kRun,
                               naive_out.data());
            });
        if (std::memcmp(out.data(), naive_out.data(),
                        out.size() * sizeof(KpEntry))
            != 0) {
            std::fprintf(stderr, "mergeRuns/keys-%dbit: output differs "
                                 "from the reference\n",
                         bits);
            return 1;
        }
        char name[32];
        std::snprintf(name, sizeof(name), "mergeRuns/keys-%dbit", bits);
        report.add(result(name, t, 2 * kRun, reps));
    }

    // --- keyed reduce, 10 k keys ------------------------------------
    // The perfbench replay's reduce: Aggregation::per_key once per key
    // run of a merged, key-sorted KPA, then one output bundle. The
    // KPA's rows (24 B each) exceed L2, so the value loads miss. The
    // reference calls a std::function per run and copies rows one by
    // one.
    {
        BundleHandle lb = env.makeBundle(n / 2, 10000, 13);
        BundleHandle rb = env.makeBundle(n - n / 2, 10000, 14);
        KpaPtr lk = kpa::extract(env.ctx(), *lb, 0, env.hbm);
        KpaPtr rk = kpa::extract(env.ctx(), *rb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *lk);
        kpa::sortKpa(env.ctx(), *rk);
        const KpaPtr merged = kpa::merge(env.ctx(), *lk, *rk, env.hbm);
        for (const bool unique : {false, true}) {
            const pipeline::Aggregation agg =
                unique ? pipeline::aggs::uniqueCountPerKey(1)
                       : pipeline::aggs::sumPerKey(1);
            BundleHandle out, naive_out;
            const TimedPair t = bestNsVs(
                reps,
                [&] {
                    pipeline::RowSink sink(agg.out_cols);
                    kpa::forEachKeyRun(
                        *merged,
                        [&](uint64_t key, const KpEntry *run, size_t len) {
                            agg.per_key(key, run, len, sink);
                        });
                    out = sink.toBundle(env.hm);
                },
                [&] {
                    naive_out = naiveReduce(
                        env.hm, *merged,
                        unique ? bench::NaiveReducer::kUniqueCount
                               : bench::NaiveReducer::kSum,
                        1);
                });
            const char *name = unique ? "reduce/unique-10k" : "reduce/sum-10k";
            if (out->size() != naive_out->size()
                || std::memcmp(out->data(), naive_out->data(),
                               out->dataBytes())
                       != 0) {
                std::fprintf(stderr,
                             "%s: output differs from the reference\n",
                             name);
                return 1;
            }
            report.add(result(name, t, merged->size(), reps));
        }
    }

    // --- extract ----------------------------------------------------
    {
        BundleHandle b = env.makeBundle(n, 1000, 6);
        const TimedPair t = bestNsVs(
            reps,
            [&] { KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm); },
            [&] { KpaPtr k = naiveExtract(env.ctx(), *b, 0, env.hbm); });
        report.add(result("extract", t, n, reps));
    }

    // --- materialize (sorted KPA => random row gathers) -------------
    {
        BundleHandle b = env.makeBundle(n, n / 4 + 1, 7);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        const TimedPair t = bestNsVs(
            reps,
            [&] { BundleHandle out = kpa::materialize(env.ctx(), *k); },
            [&] { BundleHandle out = naiveMaterialize(env.ctx(), *k); });
        report.add(result("materialize/sorted", t, n, reps));
    }

    // --- keySwap (sorted KPA => random row reads) -------------------
    {
        BundleHandle b = env.makeBundle(n, n / 4 + 1, 8);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        uint32_t col = 1;
        const double ns = bestNs(reps, [&] {
            kpa::keySwap(env.ctx(), *k, col);
            col = (col == 1) ? 2 : 1; // alternate so no call no-ops
        });
        report.add(result("keySwap/sorted", ns, n, reps));
    }

    // --- end-to-end figure workload: GroupBy over windows -----------
    {
        // Fig-2-style grouping pipeline on KPAs: extract the ts
        // column, range-partition into windows, swap to the group key,
        // sort, reduce each key run, materialize the last window.
        BundleHandle b = env.makeBundle(n, 1000, 9);
        const uint64_t window = (uint64_t{n} + 7) / 8; // ~8 windows
        uint64_t groups = 0;
        const double ns = bestNs(reps, [&] {
            KpaPtr k = kpa::extract(env.ctx(), *b, 2, env.hbm);
            auto windows = kpa::partitionByRange(env.ctx(), *k, window,
                                                 env.hbm);
            groups = 0;
            for (auto &w : windows) {
                kpa::keySwap(env.ctx(), *w.part, 0);
                kpa::sortKpa(env.ctx(), *w.part);
                kpa::forEachKeyRun(
                    *w.part,
                    [&](uint64_t, const KpEntry *, size_t) { ++groups; });
            }
            BundleHandle out =
                kpa::materialize(env.ctx(), *windows.back().part);
        });
        std::printf("e2e groupby: %llu groups over %u records\n",
                    static_cast<unsigned long long>(groups), n);
        report.add(result("e2e/groupby_window", ns, n, reps));
    }

    // --- dispatch: one fleet shard's control path ---------------------
    // No kernel runs here: each task only charges its cost, so the row
    // times spawning, the fair-share run queue, the executor's
    // per-task bookkeeping and the simulator (events, phases, the
    // bandwidth arbiters). The shard is shaped like `fleet`'s: 16
    // cores, 64 streams weighted like its sessions (16 hot at 4, 48 at
    // 1), 79% Urgent tasks, each costing CPU time and flows on both
    // tiers. Every completion spawns its stream's next task, so all 64
    // streams stay backlogged. Reports ns per task, spawn to
    // completion; there is no naive reference.
    {
        const uint32_t tasks = smoke ? 20000 : 200000;
        constexpr uint32_t kStreams = 64;
        constexpr uint32_t kHot = 16;
        constexpr uint32_t kInFlightPerStream = 4;
        uint64_t completed = 0;
        const double ns = bestNs(reps, [&] {
            sim::Machine machine(env.cfg);
            runtime::Executor ex(machine, 16);
            for (uint32_t s = 0; s < kHot; ++s)
                ex.scheduler().setWeight(s, 4.0);
            Rng rng(17);
            uint32_t spawned = 0;
            std::function<void(runtime::StreamId)> spawnOne =
                [&](runtime::StreamId stream) {
                    if (spawned == tasks)
                        return;
                    ++spawned;
                    const uint64_t draw = rng.nextBounded(100);
                    const runtime::ImpactTag tag =
                        draw < 79   ? runtime::ImpactTag::kUrgent
                        : draw < 90 ? runtime::ImpactTag::kHigh
                                    : runtime::ImpactTag::kLow;
                    const double cpu_ns =
                        2000.0 + static_cast<double>(rng.nextBounded(8000));
                    const uint64_t hbm = 16384 + rng.nextBounded(49152);
                    const uint64_t dram = 4096 + rng.nextBounded(28672);
                    const bool rand = rng.nextBounded(4) == 0;
                    ex.spawn(
                        tag,
                        [cpu_ns, hbm, dram, rand](sim::CostLog &log) {
                            log.cpu(cpu_ns);
                            log.seq(Tier::kHbm, hbm);
                            if (rand)
                                log.rand(Tier::kDram, dram);
                            else
                                log.seq(Tier::kDram, dram);
                        },
                        [&spawnOne, stream] { spawnOne(stream); }, stream);
                };
            for (uint32_t k = 0; k < kInFlightPerStream; ++k)
                for (uint32_t s = 0; s < kStreams; ++s)
                    spawnOne(s);
            machine.run();
            completed = ex.completedTasks();
        });
        if (completed != tasks) {
            std::fprintf(stderr,
                         "dispatch/fleet-shard: %llu of %u tasks completed\n",
                         static_cast<unsigned long long>(completed), tasks);
            return 1;
        }
        report.add(result("dispatch/fleet-shard", ns / tasks, 1, reps));
    }

    // --- report -----------------------------------------------------
    Table t("perf_report — host wall clock");
    t.header({"benchmark", "thr", "ns/op", "Mitems/s",
              "baseline ns/op", "speedup"});
    for (const BenchResult &r : report.results()) {
        t.row({r.name, Table::num(static_cast<uint64_t>(r.threads)),
               Table::num(r.ns_per_op, 0),
               Table::num(r.items_per_sec / 1e6, 1),
               r.baseline_ns_per_op > 0
                   ? Table::num(r.baseline_ns_per_op, 0)
                   : "-",
               r.speedup > 0 ? Table::num(r.speedup, 2) + "x" : "-"});
    }
    t.print();

    if (!report.writeTo(out_path)) {
        std::fprintf(stderr, "perf_report: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("\nperf_report: wrote %s (%zu benchmarks)\n",
                out_path.c_str(), report.results().size());
    return 0;
}
