/**
 * @file
 * Fixed-capacity inline callable family: the simulator's callback
 * types.
 *
 * std::function on the simulator hot path costs an indirect call plus
 * a heap allocation whenever a closure outgrows the implementation's
 * small-buffer (16 bytes on libstdc++). Every simulated nanosecond
 * flows through EventQueue::schedule(), and every simulated request
 * crosses the NIC-deliver, core-completion and messaging callbacks,
 * so those allocations dominate exactly the regime the paper cares
 * about. InlineFunction instead embeds the closure in a fixed inline
 * buffer and *refuses to compile* when a capture list exceeds the
 * budget: the failure surfaces at the offending call site (an
 * unsatisfied constraint on the converting constructor), where the
 * fix -- capture less, or capture narrower types -- is local and
 * obvious.
 *
 * The family is parameterized on signature, capacity and
 * copyability:
 *
 *   InlineFunction<R(Args...), Cap, Copyable>
 *   InlineFn              -- void(), 48 bytes, move-only: the event
 *                            kernel's callback type (PR 4)
 *   InlineCopyFn<Sig>     -- copyable variant, for callbacks that are
 *                            fanned out to many receivers (e.g. the
 *                            service resolver copied to every core)
 *
 * Contract:
 *  - stores any callable F with sizeof(F) <= kCapacity,
 *    alignof(F) <= kAlignment, and a noexcept move constructor
 *    (lambdas, std::function, packaged_task all qualify); the
 *    copyable variant additionally requires copy-constructible;
 *  - move-only by default (so move-only closures, e.g. ones owning a
 *    std::packaged_task or a moved-in vector, are first-class);
 *  - never allocates: construction placement-news into the inline
 *    buffer, moves relocate buffer-to-buffer, copies clone
 *    buffer-to-buffer;
 *  - operator() runs the callable in place and keeps it; consume()
 *    runs it once off the buffer and leaves the object empty, in one
 *    indirect call;
 *  - the constraint (not a static_assert) keeps the size check
 *    SFINAE-visible, so tests can assert
 *    !std::is_constructible_v<InlineFn, TooBigLambda>.
 */

#ifndef ALTOC_COMMON_INLINE_FN_HH
#define ALTOC_COMMON_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace altoc {

inline constexpr std::size_t kInlineFnCapacity = 48;

template <typename Sig, std::size_t Cap = kInlineFnCapacity,
          bool Copyable = false>
class InlineFunction; // primary left undefined; see the partial
                      // specialization below

template <typename R, typename... Args, std::size_t Cap, bool Copyable>
class InlineFunction<R(Args...), Cap, Copyable>
{
  public:
    /** Closure budget. The 48-byte default is sized for the largest
     *  hot-path capture in the tree (hw_messaging's MIGRATE-drain
     *  closure: this + seq + a moved-in descriptor vector + two
     *  packed manager ids). */
    static constexpr std::size_t kCapacity = Cap;
    static constexpr std::size_t kAlignment = alignof(std::max_align_t);

    /** Trait form of the constructor constraint, for static_asserts
     *  and tests. */
    template <typename F>
    static constexpr bool fits =
        sizeof(std::decay_t<F>) <= kCapacity &&
        alignof(std::decay_t<F>) <= kAlignment;

    InlineFunction() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                 std::is_invocable_r_v<R, std::decay_t<F> &, Args...> &&
                 std::is_nothrow_move_constructible_v<std::decay_t<F>> &&
                 (!Copyable ||
                  std::is_copy_constructible_v<std::decay_t<F>>) &&
                 fits<F>)
    InlineFunction(F &&fn) // NOLINT: implicit by design (callback sink)
        noexcept(std::is_nothrow_constructible_v<std::decay_t<F>, F &&>)
    {
        using Fn = std::decay_t<F>;
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &kOps<Fn>;
    }

    InlineFunction(InlineFunction &&other) noexcept : ops_(other.ops_)
    {
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr) {
                ops_ = other.ops_;
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &other)
        requires Copyable
    {
        if (other.ops_ != nullptr) {
            other.ops_->copy(buf_, other.buf_);
            ops_ = other.ops_;
        }
    }

    InlineFunction &
    operator=(const InlineFunction &other)
        requires Copyable
    {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr) {
                other.ops_->copy(buf_, other.buf_);
                ops_ = other.ops_;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &)
        requires(!Copyable)
    = delete;
    InlineFunction &
    operator=(const InlineFunction &)
        requires(!Copyable)
    = delete;

    ~InlineFunction() { reset(); }

    /**
     * Replace the stored callable by constructing @p fn directly in
     * the inline buffer. Equivalent to assigning a freshly converted
     * InlineFunction, minus the temporary and its indirect relocate
     * call -- the event kernel uses this to park closures with zero
     * move hops.
     */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                 std::is_invocable_r_v<R, std::decay_t<F> &, Args...> &&
                 std::is_nothrow_move_constructible_v<std::decay_t<F>> &&
                 (!Copyable ||
                  std::is_copy_constructible_v<std::decay_t<F>>) &&
                 fits<F>)
    void
    emplace(F &&fn) noexcept(
        std::is_nothrow_constructible_v<std::decay_t<F>, F &&>)
    {
        reset();
        using Fn = std::decay_t<F>;
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &kOps<Fn>;
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the stored callable. Undefined when empty. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /**
     * Invoke the stored callable once and leave this object empty, in
     * one indirect call: the callable moves to the stack, its inline
     * copy is destroyed and this object reads empty before the call
     * begins, and the stack copy dies when the call returns. So the
     * callable may reuse, refill or relocate this object while it runs
     * (the event kernel dispatches every event this way; a slot's
     * callback may schedule into its own slot or grow the pool).
     * Undefined when empty.
     */
    R
    consume(Args... args)
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        return ops->consume(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        R (*consume)(void *, Args &&...);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        void (*copy)(void *dst, const void *src);
    };

    template <typename Fn>
    static R
    invokeImpl(void *p, Args &&...args)
    {
        return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static R
    consumeImpl(void *p, Args &&...args)
    {
        Fn *from = static_cast<Fn *>(p);
        Fn fn(std::move(*from));
        from->~Fn();
        return fn(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    relocateImpl(void *dst, void *src) noexcept
    {
        Fn *from = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
    }

    template <typename Fn>
    static void
    destroyImpl(void *p) noexcept
    {
        static_cast<Fn *>(p)->~Fn();
    }

    template <typename Fn>
    static void
    copyImpl(void *dst, const void *src)
    {
        ::new (dst) Fn(*static_cast<const Fn *>(src));
    }

    // copyImpl is only instantiated for the copyable variant, so
    // move-only callables stay storable in the default one.
    template <typename Fn>
    static constexpr Ops kOps{
        &invokeImpl<Fn>, &consumeImpl<Fn>, &relocateImpl<Fn>,
        &destroyImpl<Fn>,
        []() -> void (*)(void *, const void *) {
            if constexpr (Copyable)
                return &copyImpl<Fn>;
            else
                return nullptr;
        }()};

    alignas(kAlignment) unsigned char buf_[kCapacity];
    const Ops *ops_ = nullptr;
};

/** The event-kernel callback type (PR 4's InlineFn, unchanged). */
using InlineFn = InlineFunction<void()>;

/** Copyable variant for callbacks fanned out to many receivers. */
template <typename Sig, std::size_t Cap = kInlineFnCapacity>
using InlineCopyFn = InlineFunction<Sig, Cap, true>;

} // namespace altoc

#endif // ALTOC_COMMON_INLINE_FN_HH
