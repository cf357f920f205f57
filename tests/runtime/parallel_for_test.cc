/**
 * @file
 * The fork-join contract of the host WorkerPool and its integration
 * with the executor: deterministic results at every thread count,
 * inline degradation at 1 thread, nested-dispatch safety, exception
 * propagation, and the executor's lazily sized host pool.
 */

#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/executor.h"
#include "sim/machine.h"

namespace sbhbm::runtime {
namespace {

sim::MachineConfig
testConfig(unsigned cores = 4)
{
    auto cfg = sim::MachineConfig::knl();
    cfg.cores = cores;
    return cfg;
}

/** A shard result that depends on the shard id alone. */
uint64_t
shardValue(uint32_t s)
{
    uint64_t v = s + 1;
    for (int i = 0; i < 8; ++i)
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    return v;
}

TEST(WorkerPool, DeterministicAcrossThreadCounts)
{
    constexpr uint32_t kShards = 257; // not a multiple of anything
    std::vector<uint64_t> want(kShards);
    for (uint32_t s = 0; s < kShards; ++s)
        want[s] = shardValue(s);

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        WorkerPool pool(threads);
        std::vector<uint64_t> got(kShards, 0);
        // Several consecutive jobs on one pool: reuse must be clean.
        for (int round = 0; round < 3; ++round) {
            std::fill(got.begin(), got.end(), 0);
            pool.parallelFor(kShards, [&](uint32_t s) {
                got[s] = shardValue(s);
            });
            EXPECT_EQ(got, want) << threads << " threads, round "
                                 << round;
        }
    }
}

TEST(WorkerPool, OneThreadRunsEveryShardInlineOnCaller)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    uint32_t ran = 0;
    pool.parallelFor(17, [&](uint32_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran; // safe: inline means strictly sequential
    });
    EXPECT_EQ(ran, 17u);
}

TEST(WorkerPool, ZeroShardsIsANoop)
{
    WorkerPool pool(4);
    pool.parallelFor(0, [](uint32_t) { FAIL() << "no shards to run"; });
}

TEST(WorkerPool, NestedDispatchRunsInlineAndCompletes)
{
    WorkerPool pool(4);
    constexpr uint32_t kOuter = 8, kInner = 16;
    std::vector<uint64_t> got(kOuter * kInner, 0);
    pool.parallelFor(kOuter, [&](uint32_t o) {
        // A kernel inside a shard may itself call parallelFor (e.g.
        // a sharded reduce whose shards sort): the nested call must
        // run inline rather than deadlock waiting on the pool's own
        // workers.
        EXPECT_TRUE(WorkerPool::inShard());
        const std::thread::id me = std::this_thread::get_id();
        pool.parallelFor(kInner, [&, o, me](uint32_t i) {
            EXPECT_EQ(std::this_thread::get_id(), me);
            got[o * kInner + i] = shardValue(o * kInner + i);
        });
    });
    EXPECT_FALSE(WorkerPool::inShard());
    for (uint32_t x = 0; x < kOuter * kInner; ++x)
        EXPECT_EQ(got[x], shardValue(x));
}

TEST(WorkerPool, RethrowsLowestShardExceptionAndSurvives)
{
    for (unsigned threads : {2u, 4u, 8u}) {
        WorkerPool pool(threads);
        std::atomic<uint32_t> ran{0};
        try {
            pool.parallelFor(32, [&](uint32_t s) {
                ran.fetch_add(1);
                if (s == 7 || s == 13)
                    throw std::runtime_error("shard "
                                             + std::to_string(s));
            });
            FAIL() << "expected a rethrow";
        } catch (const std::runtime_error &e) {
            // Both shards threw on some thread; the winner is the
            // lowest shard index no matter the interleaving.
            EXPECT_STREQ(e.what(), "shard 7");
        }
        EXPECT_EQ(ran.load(), 32u) << "barrier still joins all shards";

        // The pool must stay usable after a failed job.
        std::vector<uint64_t> got(8, 0);
        pool.parallelFor(8, [&](uint32_t s) { got[s] = s + 1; });
        for (uint32_t s = 0; s < 8; ++s)
            EXPECT_EQ(got[s], s + 1);
    }
}

TEST(WorkerPool, InlinePathMatchesPooledFailureSemantics)
{
    // Same contract as the pooled path: every shard still runs, and
    // the lowest-indexed shard's exception is rethrown afterwards —
    // so side effects on the failure path are identical at every
    // thread count.
    WorkerPool pool(1);
    uint32_t ran = 0;
    try {
        pool.parallelFor(4, [&](uint32_t s) {
            ++ran;
            if (s == 2)
                throw std::logic_error("boom");
        });
        FAIL() << "expected a rethrow";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(ran, 4u);
}

/**
 * Thousands of back-to-back tiny jobs. A pause longer than the spin
 * window comes before every 64th, so workers take jobs both while
 * they spin and after they park. Among the jobs are throwing ones and
 * nested dispatches; every shard of every job runs exactly once.
 */
TEST(WorkerPool, BackToBackTinyJobsAcrossSpinAndPark)
{
    constexpr int kJobs = 3000;
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned threads : {2u, 3u, 8u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        WorkerPool pool(threads);
        std::vector<uint32_t> hits(2 * threads + 1);
        std::atomic<uint64_t> off_caller{0};
        for (int j = 0; j < kJobs; ++j) {
            if (j % 64 == 63)
                std::this_thread::sleep_for(4 * WorkerPool::kSpinWindow);
            const auto shards = static_cast<uint32_t>(1 + j % hits.size());
            std::fill(hits.begin(), hits.end(), 0);
            auto ran = [&](uint32_t s) {
                ++hits[s];
                if (std::this_thread::get_id() != caller)
                    off_caller.fetch_add(1, std::memory_order_relaxed);
            };
            if (j % 10 == 3) {
                // Every odd shard throws; shard 1 (or none) wins.
                try {
                    pool.parallelFor(shards, [&](uint32_t s) {
                        ran(s);
                        if (s % 2 == 1)
                            throw std::runtime_error(std::to_string(s));
                    });
                    EXPECT_EQ(shards, 1u) << "job " << j;
                } catch (const std::runtime_error &e) {
                    EXPECT_STREQ(e.what(), "1") << "job " << j;
                }
            } else if (j % 10 == 7) {
                std::vector<uint32_t> inner(shards * 4, 0);
                pool.parallelFor(shards, [&](uint32_t s) {
                    ran(s);
                    pool.parallelFor(4, [&, s](uint32_t i) {
                        ++inner[s * 4 + i];
                    });
                });
                for (const uint32_t h : inner)
                    ASSERT_EQ(h, 1u) << "job " << j;
            } else {
                pool.parallelFor(shards, ran);
            }
            for (uint32_t s = 0; s < hits.size(); ++s)
                ASSERT_EQ(hits[s], s < shards ? 1u : 0u)
                    << "job " << j << " shard " << s;
        }
        EXPECT_GT(off_caller.load(), 0u) << "the workers ran no shard";
    }
}

TEST(WorkerPool, DestroyedRightAfterAJobWhileItsWorkersSpin)
{
    for (unsigned threads : {2u, 3u, 8u}) {
        for (int round = 0; round < 50; ++round) {
            WorkerPool pool(threads);
            std::vector<uint32_t> got(2 * threads, 0);
            pool.parallelFor(static_cast<uint32_t>(got.size()),
                             [&](uint32_t s) { got[s] = s + 1; });
            for (uint32_t s = 0; s < got.size(); ++s)
                ASSERT_EQ(got[s], s + 1) << threads << " threads";
        } // joins workers that are still inside their spin window
    }
}

/**
 * Sets $SBHBM_HOST_THREADS (unsets it for nullptr) for one scope and
 * restores the caller's value after. The tests only read
 * defaultThreads(); none builds a pool from these values.
 */
class HostThreadsEnv
{
  public:
    explicit HostThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv(kVar)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            setenv(kVar, value, 1);
        else
            unsetenv(kVar);
    }

    ~HostThreadsEnv()
    {
        if (had_)
            setenv(kVar, old_.c_str(), 1);
        else
            unsetenv(kVar);
    }

    HostThreadsEnv(const HostThreadsEnv &) = delete;
    HostThreadsEnv &operator=(const HostThreadsEnv &) = delete;

  private:
    static constexpr const char *kVar = "SBHBM_HOST_THREADS";
    bool had_ = false;
    std::string old_;
};

/** defaultThreads() under @p value, and what it wrote to stderr. */
std::pair<unsigned, std::string>
defaultThreadsWith(const char *value)
{
    HostThreadsEnv env(value);
    ::testing::internal::CaptureStderr();
    const unsigned threads = WorkerPool::defaultThreads();
    return {threads, ::testing::internal::GetCapturedStderr()};
}

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(WorkerPool, DefaultThreadsReadsADigitString)
{
    for (const auto &[value, want] :
         {std::pair<const char *, unsigned>{"8", 8}, {"1", 1}, {"007", 7},
          {"256", WorkerPool::kMaxEnvThreads}}) {
        const auto [threads, err] = defaultThreadsWith(value);
        EXPECT_EQ(threads, want) << value;
        EXPECT_EQ(err, "") << value;
    }
    EXPECT_EQ(defaultThreadsWith(nullptr).first, hardwareThreads());
}

TEST(WorkerPool, DefaultThreadsFallsBackToHardwareOnGarbageOrZero)
{
    for (const char *value :
         {"8abc", "", " 8", "8 ", "+8", "-3", "0", "000", "abc", "4.5",
          "0x10"}) {
        const auto [threads, err] = defaultThreadsWith(value);
        EXPECT_EQ(threads, hardwareThreads()) << '"' << value << '"';
        EXPECT_NE(err.find("SBHBM_HOST_THREADS"), std::string::npos)
            << '"' << value << "\" warns";
    }
}

TEST(WorkerPool, DefaultThreadsClampsHugeCountsToTheCeiling)
{
    // 99999999999 used to wrap through unsigned to 1,215,752,191.
    for (const char *value :
         {"257", "99999999999", "18446744073709551617",
          "000000000000000000000000000000000999"}) {
        const auto [threads, err] = defaultThreadsWith(value);
        EXPECT_EQ(threads, WorkerPool::kMaxEnvThreads) << value;
        EXPECT_NE(err.find("exceeds"), std::string::npos) << value;
    }
}

TEST(Executor, HostPoolDefaultsLazilyAndHonorsSetHostThreads)
{
    sim::Machine m(testConfig());
    Executor ex(m, 4);
    ex.setHostThreads(3);
    EXPECT_EQ(ex.hostPool().threads(), 3u);
    uint64_t sum = 0;
    std::vector<uint64_t> per(64, 0);
    ex.hostPool().parallelFor(64, [&](uint32_t s) { per[s] = s; });
    for (uint64_t v : per)
        sum += v;
    EXPECT_EQ(sum, 64u * 63u / 2);
}

} // namespace
} // namespace sbhbm::runtime
