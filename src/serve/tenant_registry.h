/**
 * @file
 * Tenant registry + admission controller.
 *
 * The scarce resource admission guards is HBM capacity: every session
 * declares an HBM reservation (working-set estimate for its windows'
 * KPAs) and the controller admits sessions only while the aggregate
 * *static reservation* of running sessions fits the serving budget (a
 * CapacityGauge over the slice of HBM the operator dedicates to
 * serving). Each session's declared reservation is charged for its
 * whole lifetime, whether it uses the bytes or not. Sessions that do
 * not fit wait in an arrival-ordered queue and are admitted as
 * running sessions drain; sessions that can never fit (reservation
 * larger than a whole shard's budget) or that arrive to a full queue
 * are rejected outright.
 *
 * With shards > 1 the registry is the fleet's placement authority:
 * the global budget divides evenly into per-shard budgets, each
 * admitted session is placed by its load vector (declared HBM
 * reservation x expected record rate) onto the least-loaded shard
 * with headroom, and the wait queue stays global (one arrival order,
 * head-of-line preserved across the fleet). One shard reduces
 * exactly to the single-engine controller.
 *
 * Crash recoveries take the arrivals' path: readmit() takes a crashed
 * shard's sessions off its books and queues them, in id order, behind
 * the recoveries already waiting and ahead of every arrival, so one
 * placement rule (tryAdmit) places both and every release retries a
 * waiting recovery first. A dead shard (setShardDown) never takes a
 * session again; its down flag is the fleet's one record of which
 * shards died.
 *
 * The registry tracks identity and accounting only; instantiating a
 * session's pipeline is the Server's job (via the admission results
 * offer(), release() and readmit() return).
 */

#ifndef SBHBM_SERVE_TENANT_REGISTRY_H
#define SBHBM_SERVE_TENANT_REGISTRY_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/logging.h"
#include "mem/capacity_gauge.h"
#include "serve/tenant.h"

namespace sbhbm::serve {

/** Admission controller limits. */
struct AdmissionConfig
{
    /** Aggregate HBM reservation cap across running sessions. */
    uint64_t hbm_budget_bytes = 1ull << 30;

    /** Concurrent running sessions (global across shards). */
    uint32_t max_active = 64;

    /** Waiting sessions beyond which new arrivals are rejected. */
    uint32_t max_queued = 64;
};

/** Outcome of offering a session to the admission controller. */
enum class Admission {
    kAdmitted, //!< runs now
    kQueued,   //!< waits for running sessions to drain
    kRejected, //!< cannot ever fit, or the wait queue is full
};

constexpr const char *
admissionName(Admission a)
{
    switch (a) {
      case Admission::kAdmitted: return "admitted";
      case Admission::kQueued: return "queued";
      case Admission::kRejected: return "rejected";
    }
    return "?";
}

/** Session bookkeeping + HBM admission accounting + shard placement. */
class TenantRegistry
{
  public:
    /** @param shards engine shards the budget divides into. */
    TenantRegistry(AdmissionConfig cfg, uint32_t shards)
        : cfg_(cfg), shards_(shards)
    {
        sbhbm_assert(cfg.hbm_budget_bytes > 0,
                     "admission needs a positive HBM budget");
        sbhbm_assert(shards >= 1, "admission needs >= 1 shard");
        const uint64_t per_shard = cfg.hbm_budget_bytes / shards;
        sbhbm_assert(per_shard > 0, "budget smaller than shard count");
        gauges_.reserve(shards);
        for (uint32_t s = 0; s < shards; ++s)
            gauges_.emplace_back(per_shard, 0);
        load_.assign(shards, 0.0);
        down_.assign(shards, false);
    }

    TenantRegistry(const TenantRegistry &) = delete;
    TenantRegistry &operator=(const TenantRegistry &) = delete;

    /**
     * Offer a session for admission. Admitted sessions charge their
     * reservation immediately against their placement shard; queued
     * ones wait in arrival order (one global queue).
     */
    Admission
    offer(const TenantSpec &spec)
    {
        sbhbm_assert(spec.id != 0, "tenant id 0 is reserved");
        sbhbm_assert(resident_.find(spec.id) == resident_.end()
                         && !isQueued(spec.id),
                     "tenant id %u offered twice", spec.id);
        if (spec.hbm_reserve_bytes > perShardBudget()) {
            ++rejected_;
            return Admission::kRejected; // can never fit on any shard
        }
        // Arrivals behind a waiting session must wait too, even when
        // they would fit right now — the alternative starves big
        // waiters behind a stream of small arrivals.
        if (queued() == 0 && tryAdmit(spec)) {
            ++ever_admitted_;
            return Admission::kAdmitted;
        }
        if (waiting_.size() >= cfg_.max_queued) {
            ++rejected_;
            return Admission::kRejected;
        }
        waiting_.push_back(spec);
        return Admission::kQueued;
    }

    /**
     * Session @p id drained (or was lost): release its reservation
     * and admit as many waiting sessions (in queue order, head-of-line
     * blocking preserved — admitting around a big waiter would starve
     * it) as now fit. @return the specs admitted by this release.
     */
    std::vector<TenantSpec>
    release(runtime::StreamId id)
    {
        unplace(id);
        return pumpAdmission();
    }

    /**
     * A crashed shard's sessions @p victims (in id order) are ready to
     * restart (the server's failover): release each one's reservation,
     * load and active slot on its dead shard, queue them behind the
     * recoveries already waiting and ahead of every arrival (a full
     * queue never rejects a recovery), and admit what now fits.
     * @return the specs admitted now, in queue order.
     */
    std::vector<TenantSpec>
    readmit(const std::vector<TenantSpec> &victims)
    {
        for (const TenantSpec &v : victims) {
            sbhbm_assert(down_[shardOf(v.id)],
                         "tenant %u readmitted off a live shard", v.id);
            unplace(v.id);
            recoveries_.push_back(v);
        }
        return pumpAdmission();
    }

    /**
     * Shard @p s crashed: stop placing sessions on it. Sessions
     * resident there stay accounted to it until readmit() queues them
     * or release() declares them gone.
     */
    void
    setShardDown(uint32_t s)
    {
        down_[s] = true;
    }

    /** Has shard @p s crashed? */
    bool shardDown(uint32_t s) const { return down_[s]; }

    uint32_t active() const { return active_; }
    size_t queued() const { return recoveries_.size() + waiting_.size(); }
    uint64_t rejected() const { return rejected_; }
    uint64_t everAdmitted() const { return ever_admitted_; }

    /** Per-shard slice of the global budget. */
    uint64_t perShardBudget() const
    {
        return cfg_.hbm_budget_bytes / shards_;
    }

    /** Shard the resident session @p id was placed on. */
    uint32_t
    shardOf(runtime::StreamId id) const
    {
        auto it = resident_.find(id);
        sbhbm_assert(it != resident_.end(), "unknown tenant %u", id);
        return it->second.shard;
    }

    /** Aggregate placement load (reserve x rate) on @p shard. */
    double shardLoad(uint32_t shard) const { return load_[shard]; }

    /** Resident sessions on @p shard. */
    uint32_t
    shardActive(uint32_t shard) const
    {
        uint32_t n = 0;
        for (const auto &[id, r] : resident_)
            n += r.shard == shard ? 1 : 0;
        return n;
    }

    /** The admission gauge of @p shard (reservation accounting). */
    const mem::CapacityGauge &gauge(uint32_t shard) const
    {
        return gauges_[shard];
    }

    /**
     * The placement load one session contributes: declared HBM
     * reservation weighted by its expected record rate (both floored
     * so zero-reserve or closed-loop sessions still register).
     */
    static double
    loadOf(const TenantSpec &spec)
    {
        const double reserve = std::max<double>(
            static_cast<double>(spec.hbm_reserve_bytes), 1.0);
        const double rate = std::max(spec.offered_rate, 1.0);
        return reserve * rate;
    }

  private:
    /** An admitted session's placement + accounting record. */
    struct Resident
    {
        uint64_t reserve = 0;
        uint32_t shard = 0;
        double load = 0;
    };

    /**
     * Admit as many waiting sessions as now fit (queue order,
     * head-of-line blocking preserved). Called on every release and
     * readmit. @return the admitted specs.
     */
    std::vector<TenantSpec>
    pumpAdmission()
    {
        std::vector<TenantSpec> admitted;
        for (;;) {
            // Recoveries lead the queue; a restart is not a new
            // session.
            const bool recovery = !recoveries_.empty();
            std::deque<TenantSpec> &q = recovery ? recoveries_ : waiting_;
            if (q.empty() || !tryAdmit(q.front()))
                return admitted;
            admitted.push_back(q.front());
            q.pop_front();
            ever_admitted_ += recovery ? 0 : 1;
        }
    }

    bool
    tryAdmit(const TenantSpec &spec)
    {
        if (active_ >= cfg_.max_active)
            return false;
        // Shards in (load, index) order: place on the least-loaded
        // shard that has headroom. Ties break on the lowest index, so
        // placement is deterministic and one shard reduces exactly to
        // the single-engine check.
        order_.resize(shards_);
        for (uint32_t s = 0; s < shards_; ++s)
            order_[s] = s;
        std::stable_sort(order_.begin(), order_.end(),
                         [this](uint32_t a, uint32_t b) {
                             return load_[a] < load_[b];
                         });
        for (uint32_t s : order_) {
            if (down_[s])
                continue; // dead shards take no new sessions
            if (!gauges_[s].tryReserve(spec.hbm_reserve_bytes,
                                       /*urgent=*/false))
                continue;
            Resident r;
            r.reserve = spec.hbm_reserve_bytes;
            r.shard = s;
            r.load = loadOf(spec);
            resident_[spec.id] = r;
            load_[s] += r.load;
            ++active_;
            return true;
        }
        return false;
    }

    /** Hand session @p id's reservation, load and active slot back to
     *  its shard. */
    void
    unplace(runtime::StreamId id)
    {
        auto it = resident_.find(id);
        sbhbm_assert(it != resident_.end(),
                     "releasing unknown tenant %u", id);
        const Resident r = it->second;
        gauges_[r.shard].release(r.reserve);
        load_[r.shard] -= r.load;
        resident_.erase(it);
        sbhbm_assert(active_ > 0, "active session underflow");
        --active_;
    }

    bool
    isQueued(runtime::StreamId id) const
    {
        for (const auto &w : waiting_)
            if (w.id == id)
                return true;
        return false;
    }

    AdmissionConfig cfg_;
    uint32_t shards_;
    std::vector<mem::CapacityGauge> gauges_;
    std::map<runtime::StreamId, Resident> resident_;
    std::vector<double> load_;
    std::vector<bool> down_;
    std::deque<TenantSpec> recoveries_; //!< queued ahead of waiting_
    std::deque<TenantSpec> waiting_;    //!< arrivals
    std::vector<uint32_t> order_;
    uint32_t active_ = 0;
    uint64_t rejected_ = 0;
    uint64_t ever_admitted_ = 0;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_TENANT_REGISTRY_H
