/**
 * @file
 * Power Grid (benchmark 9, derived from the DEBS'14 grand challenge):
 * find the houses with the most high-power plugs.
 *
 * Per window: (1) average power per plug, (2) average power over all
 * plugs, (3) per house, count plugs whose average exceeds the global
 * average, (4) emit the house(s) with the highest count.
 *
 * Record schema: [plug_gid, load, ts, house].
 */

#ifndef SBHBM_PIPELINE_POWER_GRID_H
#define SBHBM_PIPELINE_POWER_GRID_H

#include <map>
#include <utility>
#include <vector>

#include "pipeline/sorted_runs_op.h"

namespace sbhbm::pipeline {

/** The DEBS'14-style multi-step aggregation. */
class PowerGridOp : public SortedRunsOp
{
  public:
    static constexpr columnar::ColumnId kPlugCol = 0;
    static constexpr columnar::ColumnId kLoadCol = 1;
    static constexpr columnar::ColumnId kTsCol = 2;
    static constexpr columnar::ColumnId kHouseCol = 3;

    PowerGridOp(Pipeline &pipe, std::string name)
        : SortedRunsOp(pipe, std::move(name), kPlugCol)
    {
    }

  protected:
    /**
     * The second pass (per-house counts vs the global average) needs
     * whole-window state, so the reduction runs unsharded — part of
     * why Power Grid is the slowest benchmark of Fig 8.
     */
    uint32_t
    reduceShards(const kpa::Kpa &) const override
    {
        return 1;
    }

    void
    reduceWindow(columnar::WindowId w, const kpa::Kpa &merged,
                 uint32_t, uint32_t, sim::CostLog &log,
                 Emitter &em) override
    {
        auto ctx = makeCtx(log, merged.recordCols());

        // Pass 1: per-plug averages + global average (one KPA scan,
        // values loaded through record pointers).
        struct PlugAvg
        {
            uint64_t house;
            double avg;
        };
        std::vector<PlugAvg> plugs;
        double global_sum = 0;
        uint64_t global_cnt = 0;
        kpa::forEachKeyRun(
            merged, [&](uint64_t, const kpa::KpEntry *run, size_t n) {
                uint64_t sum = 0;
                for (size_t i = 0; i < n; ++i)
                    sum += run[i].row[kLoadCol];
                plugs.push_back(
                    PlugAvg{run[0].row[kHouseCol],
                            static_cast<double>(sum)
                                / static_cast<double>(n)});
                global_sum += static_cast<double>(sum);
                global_cnt += n;
            });
        const double global_avg =
            global_cnt ? global_sum / static_cast<double>(global_cnt)
                       : 0.0;

        // Pass 2: per-house counts of above-average plugs.
        std::map<uint64_t, uint64_t> high_per_house;
        for (const PlugAvg &p : plugs)
            if (p.avg > global_avg)
                ++high_per_house[p.house];

        uint64_t best = 0;
        for (const auto &[house, cnt] : high_per_house)
            best = std::max(best, cnt);

        RowSinkRows rows;
        for (const auto &[house, cnt] : high_per_house)
            if (cnt == best && best > 0)
                rows.push_back({house, cnt});

        kpa::chargeKeyedReduce(ctx, merged, merged.size(), merged.size(),
                               rows.size(), 2);
        // The DEBS query is really a second windowed pipeline over
        // the per-plug aggregates (per-house grouping + global
        // average + max); charge it as one more scalar grouping pass
        // over the window (what makes Power Grid the slowest
        // benchmark of Fig 8).
        log.cpu(300.0 * static_cast<double>(merged.size())
                + 2.0 * static_cast<double>(plugs.size()));

        if (!rows.empty()) {
            auto *out = columnar::Bundle::create(
                eng_.memory(), 2, static_cast<uint32_t>(rows.size()));
            for (const auto &r : rows)
                out->append({r[0], r[1]});
            em.push(Msg::ofBundle(BundleHandle::adopt(out),
                                  pipe_.windows().start(w))
                        .withWindow(w));
        }
    }

  private:
    using RowSinkRows = std::vector<std::array<uint64_t, 2>>;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_POWER_GRID_H
