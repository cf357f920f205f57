/**
 * @file
 * Move-only type-erased callable (a minimal std::move_only_function,
 * which is C++23; this project targets C++20).
 *
 * Task bodies capture move-only payloads (KPAs are unique_ptrs), so
 * std::function — which requires copy-constructible targets — cannot
 * hold them.
 *
 * A target of up to kInlineBytes that moves without throwing is
 * stored inline, so the simulator's per-event and per-task callbacks
 * (a `[this, id]` capture) never touch the heap; larger targets are
 * heap-allocated. Either way a move transfers the target and leaves
 * the source empty.
 */

#ifndef SBHBM_COMMON_UNIQUE_FUNCTION_H
#define SBHBM_COMMON_UNIQUE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace sbhbm {

template <typename Signature>
class UniqueFunction;

/** Move-only callable wrapper for signature R(Args...). */
template <typename R, typename... Args>
class UniqueFunction<R(Args...)>
{
  public:
    /** Largest target stored without a heap allocation. */
    static constexpr size_t kInlineBytes = 6 * sizeof(void *);

    UniqueFunction() = default;
    UniqueFunction(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, UniqueFunction>
                  && !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    UniqueFunction(F &&f) // NOLINT(google-explicit-constructor)
    {
        using T = std::decay_t<F>;
        if constexpr (fitsInline<T>()) {
            ::new (static_cast<void *>(buf_)) T(std::forward<F>(f));
            ops_ = &kInlineOps<T>;
        } else {
            ::new (static_cast<void *>(buf_)) T *(new T(std::forward<F>(f)));
            ops_ = &kHeapOps<T>;
        }
    }

    UniqueFunction(UniqueFunction &&o) noexcept { take(o); }

    UniqueFunction &
    operator=(UniqueFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    UniqueFunction(const UniqueFunction &) = delete;
    UniqueFunction &operator=(const UniqueFunction &) = delete;

    ~UniqueFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Drop the target (and everything it captured). */
    void
    reset()
    {
        // Empty first, as unique_ptr::reset does: the target's
        // destructor sees an empty wrapper.
        if (const Ops *ops = ops_) {
            ops_ = nullptr;
            ops->destroy(buf_);
        }
    }

    R
    operator()(Args... args) const
    {
        sbhbm_assert(ops_ != nullptr, "calling empty UniqueFunction");
        return ops_->call(buf_, std::forward<Args>(args)...);
    }

  private:
    /** The target's type, erased: one static table per target type. */
    struct Ops
    {
        R (*call)(void *self, Args &&...args);
        /** Move-construct the target at @p dst from @p src, then
         *  destroy @p src's target. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename T>
    static constexpr bool
    fitsInline()
    {
        return sizeof(T) <= kInlineBytes
            && alignof(T) <= alignof(std::max_align_t)
            && std::is_nothrow_move_constructible_v<T>;
    }

    template <typename T>
    static R
    callInline(void *self, Args &&...args)
    {
        return (*static_cast<T *>(self))(std::forward<Args>(args)...);
    }

    template <typename T>
    static void
    relocateInline(void *dst, void *src) noexcept
    {
        T *from = static_cast<T *>(src);
        ::new (dst) T(std::move(*from));
        from->~T();
    }

    template <typename T>
    static void
    destroyInline(void *self) noexcept
    {
        static_cast<T *>(self)->~T();
    }

    template <typename T>
    static R
    callHeap(void *self, Args &&...args)
    {
        return (**static_cast<T **>(self))(std::forward<Args>(args)...);
    }

    template <typename T>
    static void
    relocateHeap(void *dst, void *src) noexcept
    {
        ::new (dst) T *(*static_cast<T **>(src));
    }

    template <typename T>
    static void
    destroyHeap(void *self) noexcept
    {
        delete *static_cast<T **>(self);
    }

    template <typename T>
    static constexpr Ops kInlineOps = {&callInline<T>, &relocateInline<T>,
                                       &destroyInline<T>};

    template <typename T>
    static constexpr Ops kHeapOps = {&callHeap<T>, &relocateHeap<T>,
                                     &destroyHeap<T>};

    void
    take(UniqueFunction &o) noexcept
    {
        if (o.ops_ != nullptr) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    // mutable: a const wrapper still calls its target's non-const
    // operator(), as the heap-only version did through its pointer.
    alignas(std::max_align_t) mutable unsigned char buf_[kInlineBytes];
};

} // namespace sbhbm

#endif // SBHBM_COMMON_UNIQUE_FUNCTION_H
