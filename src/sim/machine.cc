#include "sim/machine.h"

#include <algorithm>
#include <utility>

namespace sbhbm::sim {

Machine::Machine(MachineConfig cfg)
    : cfg_(std::move(cfg)),
      arbiters_{BandwidthArbiter(cfg_.dram.peak_seq_bw,
                                 cfg_.dram.peak_rand_bw),
                BandwidthArbiter(cfg_.hbm.peak_seq_bw,
                                 cfg_.hbm.peak_rand_bw)}
{
}

void
Machine::at(SimTime when, Callback cb, bool daemon)
{
    events_.schedule(when, std::move(cb), daemon);
}

void
Machine::after(SimTime delay, Callback cb, bool daemon)
{
    events_.schedule(now() + delay, std::move(cb), daemon);
}

void
Machine::atOrNow(SimTime when, Callback cb, bool daemon)
{
    events_.schedule(std::max(when, now()), std::move(cb), daemon);
}

double
Machine::tierRate(Tier tier) const
{
    return arbiters_[tierIndex(tier)].currentRate();
}

double
Machine::tierCumulativeBytes(Tier tier) const
{
    return arbiters_[tierIndex(tier)].cumulativeBytesAt(now());
}

double
Machine::flowCap(Tier tier, AccessPattern pattern) const
{
    const TierSpec &spec = cfg_.tier(tier);
    if (pattern == AccessPattern::kSequential)
        return spec.per_core_seq_bw;
    return spec.perCoreRandBw();
}

void
Machine::execute(CostLog cost, Callback on_done)
{
    const TaskId id = tasks_.take();
    TaskState &task = tasks_[id];
    task.cost = std::move(cost);
    task.phase_idx = 0;
    task.outstanding = 0;
    task.on_done = std::move(on_done);

    for (auto &arb : arbiters_)
        arb.advanceTo(now());
    startPhase(id);
    for (auto &arb : arbiters_)
        arb.recompute();
    armTimer();
}

void
Machine::startPhase(TaskId id)
{
    TaskState &task = tasks_[id];
    const auto &phases = task.cost.phases();

    // Skip empty phases.
    while (task.phase_idx < phases.size()) {
        const Phase &p = phases[task.phase_idx];
        if (p.cpu_ns > 0 || p.cpu_vector_ns > 0 || !p.flows.empty())
            break;
        ++task.phase_idx;
    }

    if (task.phase_idx >= phases.size()) {
        // Defer the completion to an event so callers never observe
        // re-entrant completion from within execute(). The task ends
        // here: its slot is free once the callback has moved out.
        events_.schedule(now(), std::move(task.on_done));
        tasks_.free(id);
        return;
    }

    const Phase &p = phases[task.phase_idx];
    ++task.phase_idx;

    task.outstanding = static_cast<int>(p.flows.size());
    const double cpu_total = p.cpu_ns / cfg_.scalar_speed
                           + p.cpu_vector_ns / cfg_.vector_speed;
    if (cpu_total > 0)
        ++task.outstanding;

    if (cpu_total > 0) {
        const auto dur = static_cast<SimTime>(cpu_total) + 1;
        events_.schedule(now() + dur, [this, id] {
            for (auto &arb : arbiters_)
                arb.advanceTo(now());
            finishPart(id);
            for (auto &arb : arbiters_)
                arb.recompute();
            armTimer();
        });
    }

    for (const Flow &f : p.flows) {
        sbhbm_assert(cfg_.tier(f.tier).peak_seq_bw > 0,
                     "flow on absent tier %s", tierName(f.tier));
        arbiters_[tierIndex(f.tier)].add(static_cast<double>(f.bytes),
                                         flowCap(f.tier, f.pattern),
                                         f.pattern, id);
    }
}

void
Machine::finishPart(TaskId id)
{
    TaskState &task = tasks_[id];
    sbhbm_assert(task.outstanding > 0, "phase part finished twice");
    if (--task.outstanding == 0)
        startPhase(id);
}

void
Machine::pump()
{
    for (auto &arb : arbiters_)
        arb.advanceTo(now());
    for (auto &arb : arbiters_) {
        reaped_.clear();
        arb.reapCompleted(reaped_);
        for (const TaskId id : reaped_)
            finishPart(id);
    }
    for (auto &arb : arbiters_)
        arb.recompute();
    armTimer();
}

void
Machine::armTimer()
{
    SimTime next = kSimTimeNever;
    for (const auto &arb : arbiters_)
        next = std::min(next, arb.nextCompletion());
    if (next == kSimTimeNever)
        return;
    if (timer_at_ <= next && timer_at_ > now())
        return; // an earlier (or equal) check is already pending
    timer_at_ = next;
    events_.schedule(next, [this, when = next] {
        if (timer_at_ == when)
            timer_at_ = kSimTimeNever;
        pump();
    });
}

} // namespace sbhbm::sim
