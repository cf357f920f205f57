/**
 * @file
 * Plain reference implementations of the two pipeline queries the
 * benchmark checks: per-window counts and sorted key runs over the
 * generated records, with no KPAs, tiers or simulator.
 * Results are compared with EgressOp's per-window record counts and
 * order-insensitive checksums (the sum of each result row's FNV-1a
 * hash), so the reference hashes its rows the same way.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <vector>

#include "columnar/window.h"
#include "common/units.h"
#include "ingest/generator.h"

namespace pb {

using namespace sbhbm;

/** 64-bit FNV-1a over whole words, as EgressOp hashes result rows. */
struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }
};

/** FNV-1a over one result row, as EgressOp checksums it. */
inline uint64_t
rowChecksum(std::initializer_list<uint64_t> row)
{
    Fnv f;
    for (uint64_t v : row)
        f.mix(v);
    return f.h;
}

/** One window's result: row count and summed row checksums. */
struct WindowOutput
{
    uint64_t records = 0;
    uint64_t checksum = 0;

    bool
    operator==(const WindowOutput &o) const
    {
        return records == o.records && checksum == o.checksum;
    }
};

using WindowOutputs = std::map<columnar::WindowId, WindowOutput>;

/**
 * Windows whose result differs between @p ref and the egress maps
 * (a window present on one side only counts as differing).
 */
inline std::vector<columnar::WindowId>
mismatchedWindows(const WindowOutputs &ref,
                  const std::map<columnar::WindowId, uint64_t> &records,
                  const std::map<columnar::WindowId, uint64_t> &checksums)
{
    std::map<columnar::WindowId, WindowOutput> got;
    for (const auto &[w, n] : records)
        got[w].records = n;
    for (const auto &[w, c] : checksums)
        got[w].checksum = c;
    std::vector<columnar::WindowId> bad;
    for (const auto &[w, out] : ref) {
        auto it = got.find(w);
        if (it == got.end() || !(it->second == out))
            bad.push_back(w);
    }
    for (const auto &[w, out] : got)
        if (ref.find(w) == ref.end())
            bad.push_back(w);
    std::sort(bad.begin(), bad.end());
    return bad;
}

/**
 * YSB: keep "view" events, map ad -> campaign (ads are numbered so
 * that campaign = ad / ads-per-campaign), count per campaign per
 * window. Result rows are {campaign, count}.
 */
class YsbReference
{
  public:
    explicit YsbReference(columnar::WindowSpec spec) : spec_(spec) {}

    void
    add(const uint64_t *row)
    {
        using G = ingest::YsbGen;
        if (row[G::kEventTypeCol] != G::kViewEvent)
            return;
        const columnar::WindowId w = spec_.windowOf(row[G::kTsCol]);
        if (current_ == nullptr || w != current_w_) {
            current_ = &counts_[w];
            current_w_ = w;
            current_->resize(G::kCampaigns);
        }
        current_->at(row[G::kAdCol] / G::kAdsPerCampaign) += 1;
    }

    WindowOutputs
    result() const
    {
        WindowOutputs out;
        for (const auto &[w, per_campaign] : counts_) {
            for (uint64_t campaign = 0; campaign < per_campaign.size();
                 ++campaign) {
                const uint64_t n = per_campaign[campaign];
                if (n == 0)
                    continue;
                WindowOutput &o = out[w];
                ++o.records;
                o.checksum += rowChecksum({campaign, n});
            }
        }
        return out;
    }

  private:
    columnar::WindowSpec spec_;
    /** Per window, view counts indexed by campaign. */
    std::map<columnar::WindowId, std::vector<uint64_t>> counts_;
    std::vector<uint64_t> *current_ = nullptr; //!< counts_[current_w_]
    columnar::WindowId current_w_ = 0;
};

/**
 * The payload the benchmark writes into every temporal-join input
 * record: a fixed function of the key. TemporalJoinOp emits
 * {key, incoming value, stored value}, so which side a pair's row lists
 * first depends on which record reached the operator first, which no
 * outside reference can know. With the value a function of the key,
 * both orders give the same row, and a row built from the wrong record
 * still shows.
 */
inline uint64_t
joinValue(uint64_t key)
{
    return (key * 0x9E3779B97F4A7C15ull) >> 44;
}

/**
 * Temporal join: every pair of records from the two streams with equal
 * key in the same window yields the row {key, joinValue(key),
 * joinValue(key)}. Keys are kept per window and side until
 * finishBefore() says no more input can reach the window; then both
 * sides are sorted and equal-key runs multiplied.
 */
class JoinReference
{
  public:
    explicit JoinReference(columnar::WindowSpec spec) : spec_(spec) {}

    void
    add(int side, uint64_t key, EventTime ts)
    {
        keys_[spec_.windowOf(ts)][side].push_back(key);
    }

    /** Finish every window that ends at or before @p horizon. */
    void
    finishBefore(EventTime horizon)
    {
        while (!keys_.empty() && spec_.end(keys_.begin()->first) <= horizon)
            finishFront();
    }

    /** Finish all windows and return the results. */
    WindowOutputs
    result()
    {
        while (!keys_.empty())
            finishFront();
        return out_;
    }

  private:
    void
    finishFront()
    {
        auto &[w, sides] = *keys_.begin();
        std::vector<uint64_t> &l = sides[0];
        std::vector<uint64_t> &r = sides[1];
        std::sort(l.begin(), l.end());
        std::sort(r.begin(), r.end());
        WindowOutput o;
        size_t i = 0, j = 0;
        while (i < l.size() && j < r.size()) {
            if (l[i] < r[j]) {
                ++i;
            } else if (r[j] < l[i]) {
                ++j;
            } else {
                const uint64_t k = l[i];
                uint64_t nl = 0, nr = 0;
                for (; i < l.size() && l[i] == k; ++i)
                    ++nl;
                for (; j < r.size() && r[j] == k; ++j)
                    ++nr;
                o.records += nl * nr;
                o.checksum +=
                    nl * nr * rowChecksum({k, joinValue(k), joinValue(k)});
            }
        }
        if (o.records > 0)
            out_[w] = o;
        keys_.erase(keys_.begin());
    }

    columnar::WindowSpec spec_;
    std::map<columnar::WindowId, std::array<std::vector<uint64_t>, 2>> keys_;
    WindowOutputs out_;
};

} // namespace pb

#endif // PERFBENCH_REFERENCE_H
