/**
 * @file
 * Host worker pool: a blocking fork-join parallelFor over persistent
 * threads.
 *
 * The simulated Executor maps tasks onto *simulated* core slots and
 * runs their functional work on the calling host thread; this pool is
 * the orthogonal host-side primitive that lets a kernel's functional
 * work itself use real cores. Hot kernels (kpa::keySwap, kpa::sortKpa,
 * kpa::merge and kpa::join on large inputs, by the one rule of
 * kpa::detail::hostShards) shard their work across it for wall-clock
 * speed while their simulated CostLog charges — which depend only on
 * input sizes — stay bit-identical to the serial path.
 *
 * Waiting spins, then parks. A worker that finishes a job spins for
 * kSpinWindow on the job generation counter before it parks on a
 * condition variable, and the caller of parallelFor spins as long on
 * the done counters before it blocks at the barrier. Waking a parked
 * thread costs tens of microseconds on a VM, so a job that follows
 * the last one within the window reaches a spinning worker with no
 * wake-up, and a short shard's caller never sleeps. The spin is
 * bounded: an idle pool parks every worker within kSpinWindow. The
 * mutex still hands each job over: a worker registers under it, and
 * the caller retires a job under it.
 *
 * Guarantees the kernels rely on:
 *  - parallelFor(shards, fn) returns only after every shard ran
 *    (fork-join barrier), so callers may use results immediately;
 *  - a pool of 1 thread spawns no workers and runs every shard inline
 *    on the caller, byte-for-byte the serial code path;
 *  - a parallelFor issued from inside a running shard (nested
 *    dispatch) executes inline on that thread — never deadlocks on
 *    the pool's own workers;
 *  - exceptions thrown by shards are captured and the one from the
 *    LOWEST shard index is rethrown on the caller after the barrier,
 *    so failure behaviour is deterministic across thread counts and
 *    the pool stays usable afterwards.
 */

#ifndef SBHBM_COMMON_WORKER_POOL_H
#define SBHBM_COMMON_WORKER_POOL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace sbhbm {

/** Persistent host thread pool with a blocking parallelFor. */
class WorkerPool
{
  public:
    /** Shard body: fn(shard) for shard in [0, shards). */
    using ShardFn = std::function<void(uint32_t)>;

    /**
     * @param threads total workers including the calling thread
     *        (1 = fully inline; n uses n-1 std::threads).
     *
     * Construction is free: the worker threads spawn lazily at the
     * first job that actually forks, so plumbing a pool through
     * every context (one per engine) costs nothing for workloads
     * that never cross a kernel's parallel threshold.
     */
    explicit WorkerPool(unsigned threads) : threads_(threads)
    {
        sbhbm_assert(threads >= 1, "pool needs at least one thread");
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
            // A new generation ends the spin of workers still waiting
            // for the next job, as well as the park.
            generation_.fetch_add(1, std::memory_order_relaxed);
        }
        start_cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    /** How long a waiting worker or caller spins before it blocks. */
    static constexpr std::chrono::microseconds kSpinWindow{50};

    unsigned threads() const { return threads_; }

    /** Ceiling on the threads $SBHBM_HOST_THREADS may ask for. */
    static constexpr unsigned kMaxEnvThreads = 256;

    /**
     * Threads a pool should default to: $SBHBM_HOST_THREADS when it
     * is a positive whole number of digits only, clamped to
     * kMaxEnvThreads with a warning; else (unset, or with a warning
     * when it is anything else, 0 included) the hardware concurrency,
     * or 1 when that is unknown.
     */
    static unsigned
    defaultThreads()
    {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        const char *env = std::getenv("SBHBM_HOST_THREADS");
        if (env == nullptr)
            return hw;
        // Saturate just past the ceiling, so no digit string wraps.
        uint64_t v = 0;
        const char *p = env;
        for (; *p >= '0' && *p <= '9'; ++p)
            v = std::min<uint64_t>(v * 10 + static_cast<uint64_t>(*p - '0'),
                                   uint64_t{kMaxEnvThreads} + 1);
        if (p == env || *p != '\0' || v == 0) {
            sbhbm_warn("SBHBM_HOST_THREADS=\"%s\" is not a positive whole "
                       "number; using %u host threads",
                       env, hw);
            return hw;
        }
        if (v > kMaxEnvThreads) {
            sbhbm_warn("SBHBM_HOST_THREADS=%s exceeds %u; using %u host "
                       "threads",
                       env, kMaxEnvThreads, kMaxEnvThreads);
            return kMaxEnvThreads;
        }
        return static_cast<unsigned>(v);
    }

    /** True while the calling thread is executing a shard. */
    static bool inShard() { return in_shard_; }

    /**
     * Run fn(0) .. fn(shards-1), all complete on return. Shards must
     * write disjoint data (no ordering between them). Runs inline
     * when the pool has one thread, shards <= 1, or the caller is
     * itself inside a shard (nested dispatch) — with the same
     * failure semantics as the pooled path: every shard runs even if
     * one throws, and the lowest-indexed shard's exception is
     * rethrown after the loop, so side effects and the propagated
     * error are identical at every thread count.
     */
    void
    parallelFor(uint32_t shards, const ShardFn &fn)
    {
        if (shards == 0)
            return;
        if (threads_ == 1 || shards == 1 || in_shard_) {
            std::exception_ptr first = nullptr;
            for (uint32_t s = 0; s < shards; ++s) {
                try {
                    fn(s);
                } catch (...) {
                    if (first == nullptr)
                        first = std::current_exception();
                }
            }
            if (first != nullptr)
                std::rethrow_exception(first);
            return;
        }

        {
            std::lock_guard<std::mutex> lk(mu_);
            if (workers_.empty()) {
                for (unsigned t = 1; t < threads_; ++t)
                    workers_.emplace_back([this] { workerLoop(); });
            }
            job_fn_ = &fn;
            job_shards_ = shards;
            next_shard_.store(0, std::memory_order_relaxed);
            done_shards_.store(0, std::memory_order_relaxed);
            first_error_shard_ = kNoError;
            error_ = nullptr;
            generation_.fetch_add(1, std::memory_order_relaxed);
        }
        start_cv_.notify_all(); // cheap when no worker is parked

        runShards(fn, shards); // the caller is worker 0

        // Wait for every shard to finish AND every woken worker to
        // leave the pull loop: a straggler that lost the race for the
        // final shard must not observe the next job's reset counters
        // (or this frame's dead fn reference). The spin only saves the
        // block; the decision is made under the mutex, in the same
        // critical section that retires the job.
        auto drained = [this, shards] {
            return done_shards_.load(std::memory_order_acquire) == shards
                   && running_workers_.load(std::memory_order_relaxed)
                          == 0;
        };
        spinUntil(drained);
        {
            std::unique_lock<std::mutex> lk(mu_);
            done_cv_.wait(lk, drained);
            job_fn_ = nullptr;
            if (error_ != nullptr) {
                std::exception_ptr e = error_;
                error_ = nullptr;
                std::rethrow_exception(e);
            }
        }
    }

  private:
    static constexpr uint32_t kNoError = ~uint32_t{0};

    /** Hint to the core that this thread is busy-waiting. */
    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /** Spin until @p ready() holds, for at most kSpinWindow. */
    template <typename Ready>
    static void
    spinUntil(const Ready &ready)
    {
        const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
        do {
            for (int i = 0; i < 16; ++i) {
                if (ready())
                    return;
                cpuRelax();
            }
        } while (std::chrono::steady_clock::now() < deadline);
    }

    /** Pull shards until the job's counter is exhausted. */
    void
    runShards(const ShardFn &fn, uint32_t shards)
    {
        in_shard_ = true;
        for (;;) {
            const uint32_t s =
                next_shard_.fetch_add(1, std::memory_order_relaxed);
            if (s >= shards)
                break;
            try {
                fn(s);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                // Deterministic winner: keep the lowest shard's error
                // no matter which thread reports first.
                if (s < first_error_shard_) {
                    first_error_shard_ = s;
                    error_ = std::current_exception();
                }
            }
            // No notify: a worker that finishes the last shard still
            // counts as running, and its leaving wakes the caller.
            done_shards_.fetch_add(1, std::memory_order_acq_rel);
        }
        in_shard_ = false;
    }

    void
    workerLoop()
    {
        uint64_t seen = 0;
        auto published = [this, &seen] {
            return generation_.load(std::memory_order_relaxed) != seen;
        };
        for (;;) {
            spinUntil(published);
            const ShardFn *fn = nullptr;
            uint32_t shards = 0;
            {
                std::unique_lock<std::mutex> lk(mu_);
                start_cv_.wait(lk, published);
                if (stop_)
                    return;
                seen = generation_.load(std::memory_order_relaxed);
                fn = job_fn_; // null once the job fully drained
                shards = job_shards_;
                if (fn != nullptr)
                    running_workers_.fetch_add(1, std::memory_order_relaxed);
            }
            if (fn != nullptr) {
                runShards(*fn, shards);
                std::lock_guard<std::mutex> lk(mu_);
                running_workers_.fetch_sub(1, std::memory_order_relaxed);
                done_cv_.notify_all();
            }
        }
    }

    const unsigned threads_;
    std::vector<std::thread> workers_;

    // Guarded by mu_. generation_ and running_workers_ change only
    // under it too, and are atomic so the spins may read them without.
    std::mutex mu_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    bool stop_ = false;
    std::atomic<uint64_t> generation_{0};
    const ShardFn *job_fn_ = nullptr;
    uint32_t job_shards_ = 0;
    std::atomic<unsigned> running_workers_{0};
    std::atomic<uint32_t> next_shard_{0};
    std::atomic<uint32_t> done_shards_{0};
    uint32_t first_error_shard_ = kNoError;
    std::exception_ptr error_ = nullptr;

    static thread_local bool in_shard_;
};

// One definition per TU is fine: the flag is queried only by the TU
// that set it (thread_local, inline-variable linkage).
inline thread_local bool WorkerPool::in_shard_ = false;

} // namespace sbhbm

#endif // SBHBM_COMMON_WORKER_POOL_H
