// Small-buffer-optimized, move-only callable wrapper for simulator events.
//
// The simulator schedules tens of millions of closures per experiment;
// std::function both heap-allocates medium captures and must keep its target
// copyable. InlineFunction stores captures up to kInlineBytes directly in the
// object (no allocation on the Schedule->fire path), falls back to the heap
// for oversized captures, and only requires the target to be movable — so
// closures capturing unique_ptr/latency recorders move straight through the
// event pool.
//
// Semantics: move-only, nullable. Moving from an InlineFunction empties it
// (the target is moved out and destroyed, not left engaged), which is what
// lets Simulator::Step move a closure out of a pooled slot and immediately
// recycle the slot. Converting from an empty std::function yields an empty
// InlineFunction, so `if (fn)` tests keep meaning "the caller wants a
// callback" when a std::function is passed where an InlineFunction is taken.

#ifndef MITTOS_COMMON_INLINE_FUNCTION_H_
#define MITTOS_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mitt {

// Captures up to kInlineBytes live in the object itself. 48 bytes fits the
// common simulator closures (a `this` pointer plus a handful of ints /
// shared_ptr control blocks) while keeping pooled events cache-friendly.
inline constexpr size_t kInlineFunctionBytes = 48;

template <typename Signature>
class InlineFunction;

namespace internal {
template <typename T>
inline constexpr bool kIsStdFunction = false;
template <typename S>
inline constexpr bool kIsStdFunction<std::function<S>> = true;
}  // namespace internal

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (internal::kIsStdFunction<D>) {
      if (!fn) {
        return;  // Empty source: stay empty.
      }
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_.buf)) D(std::forward<F>(fn));
      invoke_ = &InvokeInline<D>;
      manage_ = &ManageInline<D>;
    } else {
      storage_.heap = new D(std::forward<F>(fn));
      invoke_ = &InvokeHeap<D>;
      manage_ = &ManageHeap<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

  // True if a callable of type D would be stored inline (no heap allocation).
  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineFunctionBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

 private:
  union Storage {
    alignas(std::max_align_t) unsigned char buf[kInlineFunctionBytes];
    void* heap;
  };

  enum class Op { kMoveTo, kDestroy };

  using InvokeFn = R (*)(Storage*, Args&&...);
  using ManageFn = void (*)(Storage* self, Storage* dst, Op);

  template <typename D>
  static R InvokeInline(Storage* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(s->buf)))(std::forward<Args>(args)...);
  }
  template <typename D>
  static R InvokeHeap(Storage* s, Args&&... args) {
    return (*static_cast<D*>(s->heap))(std::forward<Args>(args)...);
  }

  template <typename D>
  static void ManageInline(Storage* self, Storage* dst, Op op) {
    D* obj = std::launder(reinterpret_cast<D*>(self->buf));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst->buf)) D(std::move(*obj));
    }
    obj->~D();
  }
  template <typename D>
  static void ManageHeap(Storage* self, Storage* dst, Op op) {
    if (op == Op::kMoveTo) {
      dst->heap = self->heap;  // Steal the allocation; no move of D needed.
    } else {
      delete static_cast<D*>(self->heap);
    }
  }

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) {
      return;
    }
    other.manage_(&other.storage_, &storage_, Op::kMoveTo);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() noexcept {
    if (manage_ != nullptr) {
      manage_(&storage_, nullptr, Op::kDestroy);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  Storage storage_;
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace mitt

#endif  // MITTOS_COMMON_INLINE_FUNCTION_H_
