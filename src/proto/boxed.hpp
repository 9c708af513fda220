// Boxed<T>: a value-semantic heap box for rarely-populated packet fields.
//
// Packets are moved several times per hop (NIC ring -> queue -> link ->
// receive), so every inline byte of header is paid for on every hop of every
// packet. The variable-length lists (SACK/NACK, path feedback, app payload)
// are empty on most packets in flight; Boxed keeps them behind a single
// pointer so an idle field costs 8 bytes and a null check instead of a
// 24-byte std::vector (or worse, five of them).
//
// Semantics: an optional-like value whose null state means "default
// constructed T". Copies are deep, moves steal the box, and equality compares
// contents — a null box equals a box holding a default-constructed value, so
// a parsed header with no list entries equals a built header whose lists
// were touched but left empty.
//
// Recycling: the per-packet path makes and drops boxes at packet rate (every
// ACK carries a SACK entry), so a released box is not freed but parked on a
// per-thread free list of its type, cleared in place: T::clear() when T has
// one (MtpHeader::Lists, std::vector — their buffers keep their capacity),
// otherwise T{} is assigned. The next ensure() or copy on that thread takes a
// parked box before it allocates. The contract:
//   - a recycled box reads exactly as a default-constructed T;
//   - a box released on another thread (a packet handed across shards) joins
//     the releasing thread's list; lists are thread-local and never shared;
//   - at most kMaxParked (256) boxes per type per thread, beyond which
//     release frees. The list only has to absorb the swings between releases
//     and the next takes, not the peak of live boxes: a bound of 16,384 made
//     the same number of allocations on the benchmark workloads, but left
//     thousands of boxes to free when a fabric is torn down;
//   - a thread's lists are freed at its exit, and a release after that (a
//     later thread-local or static destructor) frees directly;
//   - release_parked_boxes() frees the calling thread's lists at once. The
//     owner of a fabric calls it after tearing the fabric down: parked boxes
//     scattered through the heap slow the allocations of the next build;
//   - under AddressSanitizer a parked box is poisoned, so a use after release
//     is still reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mtp::proto {

namespace detail {

/// Marks a parked box unaddressable (no-ops outside AddressSanitizer builds).
inline void poison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}
inline void unpoison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/// The calling thread's free lists that hold boxes, one link per type.
struct ListLink {
  void (*drain)() noexcept;
  ListLink* next;
};
inline thread_local ListLink* t_lists = nullptr;

/// Per-thread free list of boxes holding a T (see the contract above).
template <typename T>
class BoxPool {
 public:
  struct Node {
    Node* next = nullptr;  ///< free-list link, meaningful only while parked
    T value{};
  };
  static constexpr std::uint32_t kMaxParked = 256;

  static Node* acquire() {
    Node* n = head_;
    if (n == nullptr) return new Node;
    head_ = n->next;
    --parked_;
    unpoison(&n->value, sizeof(T));
    return n;
  }

  static void release(Node* n) noexcept {
    if (state_ == State::kDead || parked_ >= kMaxParked) {
      delete n;
      return;
    }
    if (state_ == State::kUnused) {
      static thread_local Reaper reaper;  // links the list, frees it at exit
      (void)reaper;
      state_ = State::kLive;
    }
    if constexpr (requires { n->value.clear(); }) {
      n->value.clear();
    } else {
      n->value = T{};
    }
    poison(&n->value, sizeof(T));
    n->next = head_;
    head_ = n;
    ++parked_;
  }

  /// Boxes parked on the calling thread's list.
  static std::uint32_t parked() { return parked_; }

 private:
  enum class State : std::uint8_t { kUnused, kLive, kDead };

  static void drain() noexcept {
    while (Node* n = head_) {
      head_ = n->next;
      unpoison(&n->value, sizeof(T));
      delete n;
    }
    parked_ = 0;
  }

  // Thread-local destructors run in reverse order of construction, so the
  // list being destroyed is always the head of t_lists.
  struct Reaper {
    ListLink link{&drain, t_lists};
    Reaper() { t_lists = &link; }
    ~Reaper() {
      t_lists = link.next;
      state_ = State::kDead;  // releases from here on free directly
      drain();
    }
  };

  // Trivially destructible, so they stay readable during static destruction.
  static inline thread_local Node* head_ = nullptr;
  static inline thread_local std::uint32_t parked_ = 0;
  static inline thread_local State state_ = State::kUnused;
};

}  // namespace detail

/// Frees every box parked on the calling thread (see the contract above).
inline void release_parked_boxes() noexcept {
  for (const detail::ListLink* l = detail::t_lists; l != nullptr; l = l->next) l->drain();
}

template <typename T>
class Boxed {
  using Pool = detail::BoxPool<T>;
  using Node = typename Pool::Node;

 public:
  // The copying constructors delegate to Boxed(), so a box taken before a
  // throwing copy of T is released by ~Boxed.
  Boxed() = default;
  Boxed(const Boxed& o) : Boxed() {
    if (o.p_) ensure() = o.p_->value;
  }
  Boxed(Boxed&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  Boxed(const T& v) : Boxed() { ensure() = v; }
  Boxed(T&& v) : Boxed() { ensure() = std::move(v); }
  ~Boxed() { reset(); }

  Boxed& operator=(const Boxed& o) {
    if (!o.p_) {
      reset();
    } else if (this != &o) {
      ensure() = o.p_->value;  // a held box is reused, vectors and all
    }
    return *this;
  }
  Boxed& operator=(Boxed&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  Boxed& operator=(const T& v) {
    ensure() = v;
    return *this;
  }
  Boxed& operator=(T&& v) {
    ensure() = std::move(v);
    return *this;
  }

  explicit operator bool() const { return p_ != nullptr; }
  bool has_value() const { return p_ != nullptr; }
  T* operator->() { return &p_->value; }
  const T* operator->() const { return &p_->value; }
  T& operator*() { return p_->value; }
  const T& operator*() const { return p_->value; }

  /// Back to null; the box returns to this thread's free list.
  void reset() noexcept {
    if (p_) Pool::release(std::exchange(p_, nullptr));
  }

  /// Mutable access, taking a box (recycled when one is parked) on first
  /// touch. Read paths must use view(): this one allocates.
  T& ensure() {
    if (!p_) p_ = Pool::acquire();
    return p_->value;
  }

  /// Read access; a null box reads as a default-constructed T.
  const T& view() const { return p_ ? p_->value : empty_value(); }

  /// Contents equality: null compares equal to a default-constructed value.
  friend bool operator==(const Boxed& a, const Boxed& b) {
    return a.view() == b.view();
  }

 private:
  static const T& empty_value() {
    static const T kEmpty{};
    return kEmpty;
  }
  Node* p_ = nullptr;
};

}  // namespace mtp::proto
