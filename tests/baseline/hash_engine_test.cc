/**
 * @file
 * Tests of the Flink-like record-at-a-time hash engine: functional
 * correctness against an independent reference, cost behaviour and
 * window handling.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "algo/hash_table.h"
#include "baseline/hash_engine.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/egress.h"
#include "pipeline/pipeline.h"

namespace sbhbm::baseline {
namespace {

using ingest::KvGen;
using ingest::YsbGen;
using pipeline::EgressOp;
using pipeline::Msg;
using pipeline::Operator;
using pipeline::Pipeline;

runtime::EngineConfig
engineConfig(unsigned cores = 8)
{
    runtime::EngineConfig cfg;
    cfg.cores = cores;
    cfg.mode = sim::MemoryMode::kCache;
    cfg.use_kpa = false;
    cfg.use_knob = false;
    return cfg;
}

/** Capture all result rows. */
class CaptureSink : public Operator
{
  public:
    explicit CaptureSink(Pipeline &p) : Operator(p, "capture") {}

    std::map<std::pair<columnar::WindowId, uint64_t>, uint64_t> counts;

  protected:
    void
    process(Msg msg, int) override
    {
        ASSERT_TRUE(msg.isBundle());
        ASSERT_TRUE(msg.has_window);
        for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
            const uint64_t *row = msg.bundle->row(r);
            counts[{msg.window, row[0]}] += row[1];
        }
    }
};

TEST(HashEngine, CountPerKeyMatchesReference)
{
    runtime::Engine eng(engineConfig());
    Pipeline pipe(eng, columnar::WindowSpec{50 * kNsPerMs});

    RecordAtATimeAggOp::Config rc;
    rc.key_col = KvGen::kKeyCol;
    rc.ts_col = KvGen::kTsCol;
    rc.keys_hint = 64;
    auto &agg = pipe.add<RecordAtATimeAggOp>(pipe, "agg", rc);
    auto &sink = pipe.add<CaptureSink>(pipe);
    agg.connectTo(&sink);

    KvGen gen(17, 64, 1000);
    ingest::SourceConfig scfg;
    scfg.bundle_records = 5000;
    scfg.total_records = 100000;
    ingest::Source src(eng, pipe, gen, &agg, scfg);
    src.start();
    eng.machine().run();

    // Reference: independent replay counting per (window, key).
    std::map<std::pair<columnar::WindowId, uint64_t>, uint64_t> expect;
    {
        runtime::Engine eng2(engineConfig());
        Pipeline pipe2(eng2, columnar::WindowSpec{50 * kNsPerMs});

        class Replay : public Operator
        {
          public:
            Replay(Pipeline &p, decltype(expect) &m)
                : Operator(p, "replay"), m_(m)
            {
            }

          protected:
            void
            process(Msg msg, int) override
            {
                columnar::WindowSpec spec{50 * kNsPerMs};
                for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
                    const uint64_t *row = msg.bundle->row(r);
                    ++m_[{spec.windowOf(row[KvGen::kTsCol]),
                          row[KvGen::kKeyCol]}];
                }
            }

          private:
            decltype(expect) &m_;
        };
        auto &rep = pipe2.add<Replay>(pipe2, expect);
        KvGen gen2(17, 64, 1000);
        ingest::Source src2(eng2, pipe2, gen2, &rep, scfg);
        src2.start();
        eng2.machine().run();
    }

    EXPECT_EQ(sink.counts, expect);
}

/** Per-window result rows, in the order they were emitted. */
using WindowRows =
    std::map<columnar::WindowId, std::vector<std::pair<uint64_t, uint64_t>>>;

using KeyMap = std::shared_ptr<algo::HashTable<uint64_t>>;

/** Capture result rows per window in emission order. */
class RowLog : public Operator
{
  public:
    explicit RowLog(Pipeline &p) : Operator(p, "row_log") {}

    WindowRows rows;

  protected:
    void
    process(Msg msg, int) override
    {
        ASSERT_TRUE(msg.isBundle());
        ASSERT_TRUE(msg.has_window);
        for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
            const uint64_t *row = msg.bundle->row(r);
            rows[msg.window].emplace_back(row[0], row[1]);
        }
    }
};

const columnar::WindowSpec kYsbWindows{100 * kNsPerMs};

ingest::SourceConfig
ysbSourceConfig()
{
    ingest::SourceConfig scfg;
    scfg.bundle_records = 5000;
    scfg.total_records = 60000;
    return scfg;
}

/** The YSB query on the record-at-a-time engine, keys mapped by @p map. */
WindowRows
runYsbAgg(const KeyMap &map)
{
    runtime::Engine eng(engineConfig());
    Pipeline pipe(eng, kYsbWindows);

    RecordAtATimeAggOp::Config rc;
    rc.filter_col = YsbGen::kEventTypeCol;
    rc.filter_value = YsbGen::kViewEvent;
    rc.key_col = YsbGen::kAdCol;
    rc.ts_col = YsbGen::kTsCol;
    rc.key_map = map;
    rc.keys_hint = YsbGen::kCampaigns;
    auto &agg = pipe.add<RecordAtATimeAggOp>(pipe, "ysb", rc);
    auto &sink = pipe.add<RowLog>(pipe);
    agg.connectTo(&sink);

    YsbGen gen(5);
    ingest::Source src(eng, pipe, gen, &agg, ysbSourceConfig());
    src.start();
    eng.machine().run();
    return sink.rows;
}

/**
 * Reference for runYsbAgg: replay the same stream, keep view events,
 * map each ad through @p map and count it, in record order, in one
 * scalar table per window; a window's rows are its table's slots in
 * order.
 */
WindowRows
ysbReference(const KeyMap &map)
{
    using Table = algo::HashTable<uint64_t>;
    std::map<columnar::WindowId, Table> tables;
    runtime::Engine eng(engineConfig());
    Pipeline pipe(eng, kYsbWindows);

    class Replay : public Operator
    {
      public:
        Replay(Pipeline &p, std::map<columnar::WindowId, Table> &t,
               const KeyMap &map)
            : Operator(p, "replay"), t_(t), map_(map)
        {
        }

      protected:
        void
        process(Msg msg, int) override
        {
            const columnar::WindowSpec w = pipe_.windows();
            for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
                const uint64_t *row = msg.bundle->row(r);
                if (row[YsbGen::kEventTypeCol] != YsbGen::kViewEvent)
                    continue;
                uint64_t key = row[YsbGen::kAdCol];
                if (const uint64_t *c = map_->find(key))
                    key = *c;
                ++t_.try_emplace(w.windowOf(row[YsbGen::kTsCol]),
                                 YsbGen::kCampaigns)
                      .first->second.findOrInsert(key);
            }
        }

      private:
        std::map<columnar::WindowId, Table> &t_;
        KeyMap map_;
    };
    auto &rep = pipe.add<Replay>(pipe, tables, map);
    YsbGen gen(5);
    ingest::Source src(eng, pipe, gen, &rep, ysbSourceConfig());
    src.start();
    eng.machine().run();

    WindowRows rows;
    for (const auto &[w, table] : tables) {
        table.forEach([&rows, w = w](uint64_t key, const uint64_t &n) {
            rows[w].emplace_back(key, n);
        });
    }
    return rows;
}

TEST(HashEngine, FilterAndKeyMapApply)
{
    const WindowRows got = runYsbAgg(YsbGen::campaignTable());
    const WindowRows want = ysbReference(YsbGen::campaignTable());
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want);

    uint64_t total = 0;
    for (const auto &[w, rows] : got) {
        for (const auto &[key, n] : rows) {
            EXPECT_LT(key, YsbGen::kCampaigns)
                << "keys must be campaign ids after the key map";
            total += n;
        }
    }
    // Roughly one third of events are views (3 event types).
    EXPECT_GT(total, 60000 / 4);
    EXPECT_LT(total, 60000 / 2);

    // Campaign ids 0..99 get distinct home slots in a 128-slot table,
    // so their layout cannot show the insertion order. Mapping
    // campaign c to c * 128 sends every key to home slot 0: linear
    // probing then lays a window's keys out in the order their first
    // records arrived, and the emitted rows must follow it.
    auto colliding = std::make_shared<algo::HashTable<uint64_t>>(
        YsbGen::kCampaigns * YsbGen::kAdsPerCampaign);
    for (uint64_t ad = 0; ad < YsbGen::kCampaigns * YsbGen::kAdsPerCampaign;
         ++ad)
        colliding->findOrInsert(ad) = ad / YsbGen::kAdsPerCampaign * 128;
    EXPECT_EQ(runYsbAgg(colliding), ysbReference(colliding));
}

TEST(HashEngine, ChargesMoreCpuThanKpaEngine)
{
    // The record-at-a-time engine must be substantially slower in
    // virtual time than the KPA engine on identical input.
    auto run = [](bool flink) {
        runtime::EngineConfig ecfg = engineConfig(4);
        runtime::Engine eng(ecfg);
        Pipeline pipe(eng, columnar::WindowSpec{50 * kNsPerMs});
        RecordAtATimeAggOp::Config rc;
        rc.key_col = KvGen::kKeyCol;
        rc.ts_col = KvGen::kTsCol;
        rc.pipeline_stages = flink ? 3 : 1;
        auto &agg = pipe.add<RecordAtATimeAggOp>(pipe, "agg", rc);
        auto &sink = pipe.add<EgressOp>(pipe);
        agg.connectTo(&sink);
        KvGen gen(3, 100, 100);
        ingest::SourceConfig scfg;
        scfg.bundle_records = 5000;
        scfg.total_records = 50000;
        scfg.offered_rate = 0;
        ingest::Source src(eng, pipe, gen, &agg, scfg);
        src.start();
        eng.machine().run();
        return eng.machine().now();
    };
    EXPECT_GT(run(true), run(false));
}

} // namespace
} // namespace sbhbm::baseline
