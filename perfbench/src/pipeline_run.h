/**
 * @file
 * One run of a pipeline workload (ysb or join): the query wired as
 * queries::runQuery wires it, driven one simulator event at a time so
 * generator fills and egress results can be stamped on the program's
 * host clock.
 */

#ifndef PERFBENCH_PIPELINE_RUN_H
#define PERFBENCH_PIPELINE_RUN_H

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "delay.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "obs/trace.h"
#include "pipeline/egress.h"
#include "pipeline/pipeline.h"
#include "queries/query.h"
#include "reference.h"
#include "runtime/engine.h"
#include "speed_probe.h"
#include "stats.h"

namespace pb {

inline bool
isJoin(const Workload &wl)
{
    return std::string(wl.name) == "join";
}

/**
 * ysb: the paper's headline query at 2 ms windows (>= 100 windows per
 * run). join: benchmark 7 with 1 M keys and 5 ms windows, so output
 * stays a fraction of input. Both: KNL flat mode, 64 simulated cores,
 * RDMA NIC-rate sources with credit back-pressure, 50,000-record
 * bundles.
 */
inline queries::QueryConfig
queryConfig(const Workload &wl, uint64_t seed, uint64_t records)
{
    queries::QueryConfig cfg;
    cfg.id = isJoin(wl) ? queries::QueryId::kTemporalJoin
                        : queries::QueryId::kYsb;
    cfg.engine = queries::EngineKind::kStreamBoxHbm;
    cfg.machine = sim::MachineConfig::knl();
    cfg.cores = 64;
    cfg.window_ns = (isJoin(wl) ? 5 : 2) * kNsPerMs;
    cfg.total_records = records;
    cfg.bundle_records = 50'000;
    if (isJoin(wl))
        cfg.key_range = 1'000'000;
    cfg.seed = seed;
    return cfg;
}

/**
 * The engine runQuery builds for a StreamBox-HBM query (flat memory,
 * KPAs, balance knob, in-flight budget covering three windows at NIC
 * rate), with the host pool pinned to the workload's thread count.
 */
inline runtime::EngineConfig
engineConfig(const queries::QueryConfig &cfg, unsigned host_threads)
{
    runtime::EngineConfig e;
    e.machine = cfg.machine;
    e.cores = cfg.cores;
    e.target_delay = cfg.target_delay;
    e.seed = cfg.seed;
    e.monitor_period =
        std::max<SimTime>(cfg.window_ns / 100, 100 * kNsPerUs);
    e.mode = sim::MemoryMode::kFlat;
    e.use_kpa = true;
    e.use_knob = true;
    e.host_threads = host_threads;
    const double nic = cfg.machine.nic_rdma_bw;
    const double win_records = simToSeconds(cfg.window_ns) * nic
                               / queries::queryRecordBytes(cfg.id);
    e.max_inflight_bundles = std::max(
        cfg.max_inflight_bundles,
        static_cast<uint32_t>(3.0 * win_records / cfg.bundle_records)
            + cfg.cores + 8);
    return e;
}

/**
 * The benchmark's own host time inside the program's event loop:
 * generator fills, reference counting and speed-probe slices. Program
 * time is host time minus this.
 */
struct BenchTime
{
    int64_t gen_ns = 0;
    int64_t ref_ns = 0;
    int64_t probe_ns = 0;

    int64_t total() const { return gen_ns + ref_ns + probe_ns; }
};

/**
 * Wraps a query's generator: times each fill, stamps it on the program
 * clock and, for the join, writes joinValue(key) into the value column
 * (see reference.h for why). With @p ysb_ref set, every generated YSB
 * record is also counted into the reference before the pipeline sees
 * (and rewrites) it. Each fill is followed by one speed-probe slice.
 */
class TimedGen final : public ingest::Generator
{
  public:
    TimedGen(ingest::Generator &inner, BenchTime &time, SpeedProbe &probe,
             bool join_values, YsbReference *ysb_ref = nullptr)
        : inner_(inner), time_(time), probe_(probe),
          join_values_(join_values), ysb_ref_(ysb_ref)
    {
    }

    uint32_t cols() const override { return inner_.cols(); }
    columnar::ColumnId tsCol() const override { return inner_.tsCol(); }

    void
    fill(columnar::Bundle &b, uint32_t n, EventTime t0,
         EventTime t1) override
    {
        const int64_t start = hostNs();
        const uint32_t first = b.size();
        inner_.fill(b, n, t0, t1);
        if (join_values_) {
            using G = ingest::KvGen;
            uint64_t *row = b.data() + uint64_t{first} * b.cols();
            for (uint32_t r = 0; r < n; ++r, row += b.cols())
                row[G::kValueCol] = joinValue(row[G::kKeyCol]);
        }
        const int64_t generated = hostNs();
        time_.gen_ns += generated - start;
        if (ysb_ref_ != nullptr) {
            const uint64_t *row = b.data() + uint64_t{first} * b.cols();
            for (uint32_t r = 0; r < n; ++r, row += b.cols())
                ysb_ref_->add(row);
            time_.ref_ns += hostNs() - generated;
        }
        time_.probe_ns += probe_.slice();
        records_ += n;
        fills_.push_back(FillStamp{{hostNs(), time_.total()}, t0, t1, n});
    }

    void skipRecords(uint64_t n) override { inner_.skipRecords(n); }

    uint64_t records() const { return records_; }
    const std::vector<FillStamp> &fills() const { return fills_; }

  private:
    ingest::Generator &inner_;
    BenchTime &time_;
    SpeedProbe &probe_;
    bool join_values_;
    YsbReference *ysb_ref_;
    uint64_t records_ = 0;
    std::vector<FillStamp> fills_;
};

/** One run of a pipeline workload: set up, drive, collect. */
class PipelineRun
{
  public:
    PipelineRun(const Workload &wl, uint64_t seed, uint64_t records,
                SpeedProbe &probe, obs::Telemetry *tele)
        : t_start_(hostNs()), cfg_(queryConfig(wl, seed, records)),
          eng_(engineConfig(cfg_, wl.host_threads)),
          pipe_(eng_, columnar::WindowSpec{cfg_.window_ns}),
          built_(queries::buildQueryPipeline(cfg_, pipe_)),
          ysb_ref_(pipe_.windows()),
          gen_a_(*built_.gen_a, bench_, probe, isJoin(wl),
                 isJoin(wl) ? nullptr : &ysb_ref_)
    {
        if (tele != nullptr)
            eng_.setTelemetry(tele);
        // Source set-up as in runQuery (RDMA NIC rate; two-stream
        // queries share the one NIC).
        ingest::SourceConfig scfg;
        scfg.nic_bw = cfg_.machine.nic_rdma_bw;
        if (built_.entry_b != nullptr)
            scfg.nic_bw /= 2;
        scfg.bundle_records = cfg_.bundle_records;
        scfg.total_records = cfg_.total_records;
        src_a_ = std::make_unique<ingest::Source>(
            eng_, pipe_, gen_a_, built_.entry_a, scfg, built_.port_a);
        if (built_.entry_b != nullptr) {
            gen_b_ = std::make_unique<TimedGen>(*built_.gen_b, bench_,
                                                probe, true);
            src_b_ = std::make_unique<ingest::Source>(
                eng_, pipe_, *gen_b_, built_.entry_b, scfg, built_.port_b);
        }
    }

    /**
     * Drive the machine (Machine::run()'s loop, one step at a time).
     * With @p warmup_only the sources are cut off at the first
     * externalized window and the pipeline drained.
     */
    void
    drive(bool warmup_only)
    {
        eng_.monitor().start();
        src_a_->start();
        if (src_b_)
            src_b_->start();
        sim::Machine &m = eng_.machine();
        const pipeline::EgressOp &egress = *built_.egress;
        while (!m.idle() && m.step()) {
            ++events_;
            if (steady_.host_ns == 0 && !pipe_.externalizations().empty()) {
                steady_ = ProgramClock{hostNs(), bench_.total()};
                records_at_steady_ = recordsIn();
                if (warmup_only) {
                    src_a_->truncate();
                    if (src_b_)
                        src_b_->truncate();
                }
            }
            if (egress.outputRecords() != seen_output_)
                noteEgressChange(egress);
        }
        end_ = ProgramClock{hostNs(), bench_.total()};
        sbhbm_assert(src_a_->finished() && (!src_b_ || src_b_->finished()),
                     "sources did not drain");
    }

    const queries::QueryConfig &config() const { return cfg_; }
    runtime::Engine &engine() { return eng_; }
    const pipeline::EgressOp &egress() const { return *built_.egress; }
    columnar::WindowSpec spec() const { return pipe_.windows(); }

    /** The benchmark's own time inside the run. */
    const BenchTime &benchTime() const { return bench_; }

    uint64_t
    recordsIn() const
    {
        return gen_a_.records() + (gen_b_ ? gen_b_->records() : 0);
    }

    /** Program host time from construction to the first result. */
    double
    setupSeconds() const
    {
        return static_cast<double>(steady_.programNs() - t_start_) / 1e9;
    }

    /** Program host time of the steady state. */
    double
    steadyProgramSeconds() const
    {
        return static_cast<double>(end_.programNs() - steady_.programNs())
               / 1e9;
    }

    uint64_t steadyRecords() const { return recordsIn() - records_at_steady_; }

    /** Whole-run program host time (construction to drain). */
    double
    programSeconds() const
    {
        return static_cast<double>(end_.programNs() - t_start_) / 1e9;
    }

    /** Whole-run host time, the benchmark's own time included. */
    double
    wallSeconds() const
    {
        return static_cast<double>(end_.host_ns - t_start_) / 1e9;
    }

    /** Host delays of the windows completed in the steady state. */
    std::vector<double>
    delaysMs() const
    {
        std::vector<const std::vector<FillStamp> *> streams{&gen_a_.fills()};
        if (gen_b_)
            streams.push_back(&gen_b_->fills());
        return windowDelaysMs(streams, pipe_.windows(), results_,
                              steady_.host_ns);
    }

    /** Fill sequences, to regenerate the exact inputs afterwards. */
    const std::vector<FillStamp> &fillsA() const { return gen_a_.fills(); }
    const std::vector<FillStamp> *
    fillsB() const
    {
        return gen_b_ ? &gen_b_->fills() : nullptr;
    }

    uint64_t events() const { return events_; }
    uint64_t windowsExternalized() const { return pipe_.windowsExternalized(); }

    /** YSB reference counted from the generated records. */
    const YsbReference &ysbReference() const { return ysb_ref_; }

    uint64_t
    ingestWaitNs() const
    {
        return src_a_->ingestWaitNs() + (src_b_ ? src_b_->ingestWaitNs() : 0);
    }

    Fingerprint
    fingerprint()
    {
        Fingerprint f;
        f.events = events_;
        f.tasks = eng_.exec().completedTasks();
        for (const auto &[s, st] : eng_.exec().allStreamStats()) {
            f.hbm_bytes += st.hbm_bytes;
            f.dram_bytes += st.dram_bytes;
            f.cpu_ns += st.cpu_ns;
        }
        f.outputs = Fnv{}.h;
        mixWindows(f.outputs, egress().windowRecords(),
                   egress().windowChecksums());
        return f;
    }

  private:
    /**
     * The egress output count moved: find the windows whose result
     * changed (normally among the newest few) and stamp them. A
     * window's result is complete at its last change.
     */
    void
    noteEgressChange(const pipeline::EgressOp &egress)
    {
        const ProgramClock now{hostNs(), bench_.total()};
        const uint64_t delta = egress.outputRecords() - seen_output_;
        seen_output_ = egress.outputRecords();
        const auto &recs = egress.windowRecords();
        uint64_t found = 0;
        int scanned = 0;
        for (auto it = recs.rbegin(); it != recs.rend() && scanned < 16;
             ++it, ++scanned) {
            uint64_t &seen = seen_counts_[it->first];
            if (seen != it->second) {
                found += it->second - seen;
                seen = it->second;
                results_[it->first] = now;
            }
        }
        if (found == delta)
            return;
        for (const auto &[w, n] : recs) {
            uint64_t &seen = seen_counts_[w];
            if (seen != n) {
                seen = n;
                results_[w] = now;
            }
        }
    }

    int64_t t_start_;
    queries::QueryConfig cfg_;
    runtime::Engine eng_;
    pipeline::Pipeline pipe_;
    queries::BuiltQuery built_;
    BenchTime bench_;
    YsbReference ysb_ref_;
    TimedGen gen_a_;
    std::unique_ptr<TimedGen> gen_b_;
    std::unique_ptr<ingest::Source> src_a_;
    std::unique_ptr<ingest::Source> src_b_;

    uint64_t events_ = 0;
    ProgramClock steady_; //!< the first externalized window
    ProgramClock end_;
    uint64_t records_at_steady_ = 0;
    uint64_t seen_output_ = 0;
    std::map<columnar::WindowId, uint64_t> seen_counts_;
    std::map<columnar::WindowId, ProgramClock> results_;
};

} // namespace pb

#endif // PERFBENCH_PIPELINE_RUN_H
