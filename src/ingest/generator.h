/**
 * @file
 * Workload generators (§6, "Benchmarks").
 *
 * All benchmarks process numeric records. The simple pipelines use
 * three columns (key, value, timestamp), benchmarks 8 and 9 add a
 * secondary key, YSB uses seven columns, and Power Grid replays a
 * synthetic version of the DEBS'14 plug-load schema.
 */

#ifndef SBHBM_INGEST_GENERATOR_H
#define SBHBM_INGEST_GENERATOR_H

#include <memory>

#include "algo/hash_table.h"
#include "columnar/bundle.h"
#include "columnar/record.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"

namespace sbhbm::ingest {

/** Produces the records of one input stream. */
class Generator
{
  public:
    virtual ~Generator() = default;

    /** Columns per record. */
    virtual uint32_t cols() const = 0;

    /** Which column holds the event timestamp. */
    virtual columnar::ColumnId tsCol() const = 0;

    /**
     * Append @p n records to @p b with event timestamps spread over
     * [t0, t1) in arrival order.
     */
    virtual void fill(columnar::Bundle &b, uint32_t n, EventTime t0,
                      EventTime t1) = 0;

    /**
     * Advance the generator past @p n records without producing them,
     * leaving it in exactly the state a fill() of @p n records would
     * have: record i + n of a skipped stream is bit-identical to
     * record i + n of a filled one. Replay-from-checkpoint recovery
     * uses this to fast-forward a restored source to its offset.
     */
    virtual void skipRecords(uint64_t n) = 0;

  protected:
    /**
     * Evenly spaced timestamps for records i = 0, 1, ..., n - 1 in
     * [t0, t1): next() returns t0 + (t1 - t0) * i / n exactly, stepping
     * the quotient and remainder instead of dividing per record.
     */
    class TsSteps
    {
      public:
        TsSteps(uint32_t n, EventTime t0, EventTime t1) : ts_(t0), n_(n)
        {
            const uint64_t span = t1 - t0;
            // span * i then never wraps, so each step equals the formula.
            sbhbm_assert(n == 0 || span <= ~uint64_t{0} / n,
                         "timestamp span %llu x %u records overflows",
                         (unsigned long long)span, n);
            step_ = n == 0 ? 0 : span / n;
            carry_ = n == 0 ? 0 : span % n;
        }

        EventTime
        next()
        {
            const EventTime ts = ts_;
            // Invariant: ts_ = t0 + span * i / n, rem_ = span * i % n.
            ts_ += step_;
            rem_ += carry_;
            if (rem_ >= n_) {
                rem_ -= n_;
                ++ts_;
            }
            return ts;
        }

      private:
        EventTime ts_;
        uint64_t n_;
        uint64_t step_ = 0;
        uint64_t carry_ = 0;
        uint64_t rem_ = 0;
    };
};

/**
 * Random key/value records: [key, value, ts] (+ optional secondary
 * key column). Keys and values are uniform 64-bit draws bounded by
 * the configured ranges.
 */
class KvGen : public Generator
{
  public:
    static constexpr columnar::ColumnId kKeyCol = 0;
    static constexpr columnar::ColumnId kValueCol = 1;
    static constexpr columnar::ColumnId kTsCol = 2;
    static constexpr columnar::ColumnId kKey2Col = 3;

    KvGen(uint64_t seed, uint64_t key_range, uint64_t value_range,
          bool secondary_key = false, uint64_t key2_range = 1000)
        : rng_(seed), key_range_(key_range), value_range_(value_range),
          secondary_(secondary_key), key2_range_(key2_range)
    {
    }

    uint32_t cols() const override { return secondary_ ? 4 : 3; }
    columnar::ColumnId tsCol() const override { return kTsCol; }

    void
    fill(columnar::Bundle &b, uint32_t n, EventTime t0,
         EventTime t1) override
    {
        TsSteps ts(n, t0, t1);
        for (uint32_t i = 0; i < n; ++i) {
            uint64_t *row = b.appendRaw();
            row[kKeyCol] = rng_.nextBounded(key_range_);
            row[kValueCol] = rng_.nextBounded(value_range_);
            row[kTsCol] = ts.next();
            if (secondary_)
                row[kKey2Col] = rng_.nextBounded(key2_range_);
        }
    }

    void
    skipRecords(uint64_t n) override
    {
        const uint64_t draws = secondary_ ? 3 : 2;
        for (uint64_t i = 0; i < n * draws; ++i)
            rng_.next();
    }

  private:
    Rng rng_;
    uint64_t key_range_;
    uint64_t value_range_;
    bool secondary_;
    uint64_t key2_range_;
};

/**
 * Yahoo Streaming Benchmark records (numeric encoding per §6):
 * [ts, user_id, page_id, ad_id, ad_type, event_type, ip].
 * ad_id maps to one of kCampaigns campaigns (10 ads each);
 * event_type is one of 3 values with "view" = 0 being filtered for.
 */
class YsbGen : public Generator
{
  public:
    static constexpr columnar::ColumnId kTsCol = 0;
    static constexpr columnar::ColumnId kUserCol = 1;
    static constexpr columnar::ColumnId kPageCol = 2;
    static constexpr columnar::ColumnId kAdCol = 3;
    static constexpr columnar::ColumnId kAdTypeCol = 4;
    static constexpr columnar::ColumnId kEventTypeCol = 5;
    static constexpr columnar::ColumnId kIpCol = 6;

    static constexpr uint64_t kCampaigns = 100;
    static constexpr uint64_t kAdsPerCampaign = 10;
    static constexpr uint64_t kEventTypes = 3;
    static constexpr uint64_t kViewEvent = 0;

    explicit YsbGen(uint64_t seed) : rng_(seed) {}

    uint32_t cols() const override { return 7; }
    columnar::ColumnId tsCol() const override { return kTsCol; }

    void
    fill(columnar::Bundle &b, uint32_t n, EventTime t0,
         EventTime t1) override
    {
        TsSteps ts(n, t0, t1);
        for (uint32_t i = 0; i < n; ++i) {
            uint64_t *row = b.appendRaw();
            row[kTsCol] = ts.next();
            row[kUserCol] = rng_.next();
            row[kPageCol] = rng_.next();
            row[kAdCol] = rng_.nextBounded(kCampaigns * kAdsPerCampaign);
            row[kAdTypeCol] = rng_.nextBounded(5);
            row[kEventTypeCol] = rng_.nextBounded(kEventTypes);
            row[kIpCol] = rng_.next();
        }
    }

    void
    skipRecords(uint64_t n) override
    {
        for (uint64_t i = 0; i < n * 6; ++i)
            rng_.next();
    }

    /** The external ad_id -> campaign_id table (small, HBM). */
    static std::shared_ptr<algo::HashTable<uint64_t>>
    campaignTable()
    {
        auto t = std::make_shared<algo::HashTable<uint64_t>>(
            kCampaigns * kAdsPerCampaign);
        for (uint64_t ad = 0; ad < kCampaigns * kAdsPerCampaign; ++ad)
            t->findOrInsert(ad) = ad / kAdsPerCampaign;
        return t;
    }

  private:
    Rng rng_;
};

/**
 * Synthetic DEBS'14 power-grid stream: [plug_gid, load, ts, house].
 * Plug loads are noisy per-plug baselines, so some plugs are
 * consistently above the global average — the houses that own them
 * are what the query surfaces.
 */
class PowerGridGen : public Generator
{
  public:
    static constexpr columnar::ColumnId kPlugCol = 0;
    static constexpr columnar::ColumnId kLoadCol = 1;
    static constexpr columnar::ColumnId kTsCol = 2;
    static constexpr columnar::ColumnId kHouseCol = 3;

    /**
     * @param houses          number of houses.
     * @param plugs_per_house plugs in each house.
     */
    PowerGridGen(uint64_t seed, uint64_t houses = 40,
                 uint64_t plugs_per_house = 25)
        : rng_(seed), houses_(houses), plugs_per_house_(plugs_per_house)
    {
    }

    uint32_t cols() const override { return 4; }
    columnar::ColumnId tsCol() const override { return kTsCol; }

    void
    fill(columnar::Bundle &b, uint32_t n, EventTime t0,
         EventTime t1) override
    {
        const uint64_t total_plugs = houses_ * plugs_per_house_;
        TsSteps ts(n, t0, t1);
        for (uint32_t i = 0; i < n; ++i) {
            uint64_t *row = b.appendRaw();
            const uint64_t plug = rng_.nextBounded(total_plugs);
            // Per-plug baseline: deterministic in the plug id, so
            // high-load plugs are stable across the stream.
            const uint64_t base = algo::hashKey(plug) % 200;
            row[kPlugCol] = plug;
            row[kLoadCol] = base + rng_.nextBounded(20);
            row[kTsCol] = ts.next();
            row[kHouseCol] = plug / plugs_per_house_;
        }
    }

    void
    skipRecords(uint64_t n) override
    {
        for (uint64_t i = 0; i < n * 2; ++i)
            rng_.next();
    }

  private:
    Rng rng_;
    uint64_t houses_;
    uint64_t plugs_per_house_;
};

} // namespace sbhbm::ingest

#endif // SBHBM_INGEST_GENERATOR_H
