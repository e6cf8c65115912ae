#ifndef RESUFORMER_TENSOR_ARENA_H_
#define RESUFORMER_TENSOR_ARENA_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"

namespace resuformer {

/// \brief Process-wide recycling arena for tensor storage.
///
/// Every op output allocates a fresh std::vector<float>; inside an encoder
/// forward that is thousands of short-lived heap round-trips per document.
/// The arena turns them into free-list hits: Acquire(n) hands out a
/// zero-filled vector of size n whose capacity comes from a power-of-two
/// size-class free list, and Release(...) parks a dead buffer for reuse
/// instead of freeing it.
///
/// Ownership rules:
///  * The arena never owns live data — Acquire transfers the buffer to the
///    caller (normally a TensorImpl), Release transfers it back. In between
///    the buffer is a plain std::vector<float> with value semantics.
///  * Only buffers the arena handed out are parked again. A foreign buffer
///    (adopted by Tensor::FromData, a Detach copy, a gradient vector) is
///    freed on release: steady-state demand is served by acquired buffers,
///    so parked foreign buffers would never drain and the cache would fill
///    toward its budget.
///  * Acquired buffers reserve their whole size class, so a released one
///    parks in the class it came from.
///  * Requests larger than the maximum size class bypass the free lists
///    (plain allocation, counted as a miss); tiny buffers below the minimum
///    class are not worth caching and are dropped on release.
///  * The cache is bounded: once cached_bytes exceeds the budget, released
///    buffers are freed instead of parked.
///
/// Thread safety: all public methods are safe to call concurrently (one
/// mutex; the arena is only touched at tensor construction/destruction,
/// never inside kernels).
class TensorArena {
 public:
  /// Process-wide arena used by Tensor factories. Intentionally leaked so
  /// tensors destroyed during static teardown can still release safely.
  static TensorArena& Global();

  /// Counters since the last ResetStats(). `outstanding` tracks buffers
  /// currently held by live tensors (Acquire minus Release of acquired
  /// buffers) — zero once every tensor acquired from the arena is gone.
  /// The values live on the process MetricsRegistry ("arena.hits",
  /// "arena.misses", "arena.bytes_recycled" counters; "arena.outstanding",
  /// "arena.cached_bytes" gauges), so metrics snapshots and this struct
  /// always agree; stats() just reads them back.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t outstanding = 0;
    int64_t bytes_recycled = 0;  // bytes served from the free lists
    int64_t cached_bytes = 0;    // bytes currently parked
  };

  /// Hit/miss tallies of the *calling thread* since thread start (never
  /// reset; diff two reads to scope a window). A pipeline parse runs
  /// entirely on one thread, so diffing around it isolates that document's
  /// arena traffic even while other workers allocate concurrently — the
  /// process-wide Stats counters cannot make that distinction.
  struct ThreadStats {
    int64_t hits = 0;
    int64_t misses = 0;
  };
  static ThreadStats thread_stats();

  /// Zero-filled vector of size n (capacity >= n). Return it via
  /// Release(..., /*was_acquired=*/true) for the outstanding count to
  /// balance.
  [[nodiscard]] std::vector<float> Acquire(int64_t n);

  /// Returns a buffer to the free lists (or frees it when over budget /
  /// below the minimum class). `was_acquired` is true for buffers Acquire
  /// handed out; foreign buffers pass false and are freed, never parked.
  void Release(std::vector<float>&& buffer, bool was_acquired);

  Stats stats() const;
  void ResetStats();

  /// Frees every cached buffer (outstanding buffers are unaffected).
  void Clear();

  /// Cache budget in bytes; releases beyond it are freed. Default 256 MiB.
  void SetBudgetBytes(int64_t bytes);

 private:
  TensorArena();

  // Size classes are powers of two from 2^6 to 2^24 floats.
  static constexpr int kMinClassLog2 = 6;
  static constexpr int kMaxClassLog2 = 24;
  static constexpr int kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;

  mutable std::mutex mu_;
  int64_t budget_bytes_ = 256LL << 20;
  std::vector<std::vector<float>> free_lists_[kNumClasses];

  // Registry-backed instruments (see Stats). Updated under mu_ alongside
  // the free lists; reads are lock-free for metric snapshots.
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* bytes_recycled_;
  metrics::Gauge* outstanding_;
  metrics::Gauge* cached_bytes_;
};

/// \brief RAII scratch buffer drawn from the arena.
///
/// For op-internal workspaces (attention probabilities, backward scratch)
/// that never become tensors: acquires on construction, releases on
/// destruction. Movable so it can be captured into backward closures.
class ArenaBuffer {
 public:
  explicit ArenaBuffer(int64_t n);
  ~ArenaBuffer();
  ArenaBuffer(ArenaBuffer&& other) noexcept;
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept;
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  float* data() { return buffer_.data(); }
  const float* data() const { return buffer_.data(); }
  int64_t size() const { return static_cast<int64_t>(buffer_.size()); }

 private:
  std::vector<float> buffer_;
  bool from_arena_ = false;
};

}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_ARENA_H_
