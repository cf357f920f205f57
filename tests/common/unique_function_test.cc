#include "common/unique_function.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

namespace sbhbm {
namespace {

TEST(UniqueFunction, DefaultConstructedIsEmpty)
{
    UniqueFunction<void()> f;
    EXPECT_FALSE(f);
    UniqueFunction<void()> g(nullptr);
    EXPECT_FALSE(g);
}

TEST(UniqueFunction, CallsLambdaAndReturnsValue)
{
    UniqueFunction<int(int, int)> add = [](int a, int b) { return a + b; };
    ASSERT_TRUE(add);
    EXPECT_EQ(add(2, 3), 5);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture)
{
    // std::function cannot hold this target; UniqueFunction must.
    auto p = std::make_unique<int>(99);
    UniqueFunction<int()> f = [p = std::move(p)] { return *p; };
    EXPECT_EQ(f(), 99);
}

TEST(UniqueFunction, MoveTransfersTarget)
{
    UniqueFunction<int()> f = [] { return 7; };
    UniqueFunction<int()> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move): moved-from is empty
    ASSERT_TRUE(g);
    EXPECT_EQ(g(), 7);

    UniqueFunction<int()> h;
    h = std::move(g);
    EXPECT_EQ(h(), 7);
}

TEST(UniqueFunction, IsNotCopyable)
{
    using F = UniqueFunction<void()>;
    static_assert(!std::is_copy_constructible_v<F>);
    static_assert(!std::is_copy_assignable_v<F>);
    static_assert(std::is_move_constructible_v<F>);
    static_assert(std::is_move_assignable_v<F>);
}

TEST(UniqueFunction, MutatesCapturedState)
{
    int calls = 0;
    UniqueFunction<void()> bump = [&calls] { ++calls; };
    bump();
    bump();
    EXPECT_EQ(calls, 2);
}

TEST(UniqueFunction, ResetDestroysTheCapturedPayload)
{
    bool alive = true;
    struct Sentinel
    {
        bool *flag;
        ~Sentinel()
        {
            if (flag)
                *flag = false;
        }
        Sentinel(bool *f) : flag(f) {}
        Sentinel(Sentinel &&o) noexcept : flag(o.flag) { o.flag = nullptr; }
        Sentinel(const Sentinel &) = delete;
    };
    UniqueFunction<void()> f = [s = Sentinel(&alive)] { (void)s; };
    EXPECT_TRUE(alive);
    f.reset();
    EXPECT_FALSE(alive);
    EXPECT_FALSE(f);
}

TEST(UniqueFunction, ForwardsMoveOnlyArguments)
{
    UniqueFunction<int(std::unique_ptr<int>)> f =
        [](std::unique_ptr<int> p) { return *p; };
    EXPECT_EQ(f(std::make_unique<int>(11)), 11);
}

TEST(UniqueFunction, ForwardsReferenceArguments)
{
    UniqueFunction<void(std::string &)> f = [](std::string &s) {
        s += "!";
    };
    std::string s = "hi";
    f(s);
    EXPECT_EQ(s, "hi!");
}

TEST(UniqueFunction, CapturesLargerThanTheInlineBufferWork)
{
    using F = UniqueFunction<uint64_t()>;
    struct Big
    {
        uint64_t w[F::kInlineBytes / sizeof(uint64_t) + 1];
    };
    Big big{};
    for (size_t i = 0; i < std::size(big.w); ++i)
        big.w[i] = i + 1;
    static_assert(sizeof(Big) > F::kInlineBytes);
    F f = [big] {
        uint64_t sum = 0;
        for (uint64_t x : big.w)
            sum += x;
        return sum;
    };
    const uint64_t n = std::size(big.w);
    EXPECT_EQ(f(), n * (n + 1) / 2);
    F g = std::move(f);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_EQ(g(), n * (n + 1) / 2);
}

/** Counts live instances; its size is set by @p Pad. */
template <size_t Pad>
struct Counted
{
    static inline int live = 0;
    static inline int calls = 0;
    char pad[Pad] = {};

    Counted() { ++live; }
    Counted(Counted &&) noexcept { ++live; }
    Counted(const Counted &) = delete;
    ~Counted() { --live; }
    void operator()() { ++calls; }
};

template <typename T>
void
checkLifetime()
{
    T::live = 0;
    T::calls = 0;
    {
        UniqueFunction<void()> f{T{}};
        EXPECT_EQ(T::live, 1);
        UniqueFunction<void()> g = std::move(f);
        EXPECT_EQ(T::live, 1) << "a move relocates, it does not copy";
        EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move)
        g();
        UniqueFunction<void()> h;
        h = std::move(g);
        EXPECT_EQ(T::live, 1);
        EXPECT_FALSE(g); // NOLINT(bugprone-use-after-move)
        h();
        EXPECT_EQ(T::calls, 2);
        h = UniqueFunction<void()>{T{}}; // replaces: the old target dies
        EXPECT_EQ(T::live, 1);
    }
    EXPECT_EQ(T::live, 0) << "every target destroyed exactly once";
}

TEST(UniqueFunction, InlineTargetsAreDestroyedExactlyOnce)
{
    using Small = Counted<8>;
    static_assert(sizeof(Small) <= UniqueFunction<void()>::kInlineBytes);
    checkLifetime<Small>();
}

TEST(UniqueFunction, HeapTargetsAreDestroyedExactlyOnce)
{
    using Large = Counted<UniqueFunction<void()>::kInlineBytes + 8>;
    checkLifetime<Large>();
}

TEST(UniqueFunction, MovedFromStateIsEmptyAndReusable)
{
    auto p = std::make_unique<int>(5);
    UniqueFunction<int()> f = [p = std::move(p)] { return *p; };
    UniqueFunction<int()> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move): moved-from is empty
    f = [] { return 6; };
    EXPECT_EQ(f(), 6);
    EXPECT_EQ(g(), 5);
}

TEST(UniqueFunctionDeath, CallingEmptyPanics)
{
    UniqueFunction<void()> f;
    EXPECT_DEATH(f(), "empty UniqueFunction");
}

} // namespace
} // namespace sbhbm
