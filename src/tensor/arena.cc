#include "tensor/arena.h"

#include <utility>

namespace resuformer {

namespace {

/// Index of the smallest class holding >= n floats, or -1 when n exceeds
/// the largest class.
int CeilClassIndex(int64_t n, int min_log2, int max_log2) {
  for (int c = min_log2; c <= max_log2; ++c) {
    if ((int64_t{1} << c) >= n) return c - min_log2;
  }
  return -1;
}

/// Index of the largest class with size <= capacity, or -1 when the buffer
/// is below the minimum class.
int FloorClassIndex(int64_t capacity, int min_log2, int max_log2) {
  int idx = -1;
  for (int c = min_log2; c <= max_log2; ++c) {
    if ((int64_t{1} << c) <= capacity) idx = c - min_log2;
  }
  return idx;
}

/// Per-thread mirrors of the hit/miss counters (see thread_stats()).
/// Plain int64_t: only the owning thread touches them, no lock needed.
thread_local int64_t t_hits = 0;
thread_local int64_t t_misses = 0;

}  // namespace

TensorArena& TensorArena::Global() {
  static TensorArena* arena = new TensorArena();
  return *arena;
}

TensorArena::TensorArena() {
  auto& registry = metrics::MetricsRegistry::Global();
  hits_ = registry.GetCounter("arena.hits");
  misses_ = registry.GetCounter("arena.misses");
  bytes_recycled_ = registry.GetCounter("arena.bytes_recycled");
  outstanding_ = registry.GetGauge("arena.outstanding");
  cached_bytes_ = registry.GetGauge("arena.cached_bytes");
}

std::vector<float> TensorArena::Acquire(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_->Add(1);
  const int cls = CeilClassIndex(n, kMinClassLog2, kMaxClassLog2);
  if (cls >= 0 && !free_lists_[cls].empty()) {
    std::vector<float> buf = std::move(free_lists_[cls].back());
    free_lists_[cls].pop_back();
    cached_bytes_->Add(-static_cast<int64_t>(buf.capacity()) *
                       static_cast<int64_t>(sizeof(float)));
    hits_->Increment();
    ++t_hits;
    bytes_recycled_->Increment(n * static_cast<int64_t>(sizeof(float)));
    // Capacity >= class size >= n, so this fill never reallocates.
    buf.assign(static_cast<size_t>(n), 0.0f);
    return buf;
  }
  misses_->Increment();
  ++t_misses;
  // Reserve the full class so the buffer files back into the same class on
  // release (oversized requests reserve exactly n).
  std::vector<float> buf;
  buf.reserve(static_cast<size_t>(
      cls >= 0 ? int64_t{1} << (cls + kMinClassLog2) : n));
  buf.assign(static_cast<size_t>(n), 0.0f);
  return buf;
}

void TensorArena::Release(std::vector<float>&& buffer, bool was_acquired) {
  std::vector<float> local = std::move(buffer);  // free outside the lock
  if (!was_acquired) return;
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_->Add(-1);
  const int64_t capacity = static_cast<int64_t>(local.capacity());
  const int cls = FloorClassIndex(capacity, kMinClassLog2, kMaxClassLog2);
  if (cls < 0) return;  // below the minimum class: not worth caching
  const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
  if (cached_bytes_->value() + bytes > budget_bytes_) return;
  cached_bytes_->Add(bytes);
  free_lists_[cls].push_back(std::move(local));
}

TensorArena::ThreadStats TensorArena::thread_stats() {
  return ThreadStats{t_hits, t_misses};
}

TensorArena::Stats TensorArena::stats() const {
  Stats out;
  out.hits = hits_->value();
  out.misses = misses_->value();
  out.outstanding = outstanding_->value();
  out.bytes_recycled = bytes_recycled_->value();
  out.cached_bytes = cached_bytes_->value();
  return out;
}

void TensorArena::ResetStats() {
  // outstanding and cached_bytes mirror live state; only the tallies reset.
  hits_->Reset();
  misses_->Reset();
  bytes_recycled_->Reset();
}

void TensorArena::Clear() {
  std::vector<std::vector<float>> graveyard;  // free outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& list : free_lists_) {
      for (auto& buf : list) graveyard.push_back(std::move(buf));
      list.clear();
    }
    cached_bytes_->Set(0);
  }
}

void TensorArena::SetBudgetBytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
}

ArenaBuffer::ArenaBuffer(int64_t n)
    : buffer_(TensorArena::Global().Acquire(n)), from_arena_(true) {}

ArenaBuffer::~ArenaBuffer() {
  if (!buffer_.empty() || from_arena_) {
    TensorArena::Global().Release(std::move(buffer_), from_arena_);
  }
}

ArenaBuffer::ArenaBuffer(ArenaBuffer&& other) noexcept
    : buffer_(std::move(other.buffer_)), from_arena_(other.from_arena_) {
  other.buffer_.clear();
  other.from_arena_ = false;
}

ArenaBuffer& ArenaBuffer::operator=(ArenaBuffer&& other) noexcept {
  if (this != &other) {
    if (!buffer_.empty() || from_arena_) {
      TensorArena::Global().Release(std::move(buffer_), from_arena_);
    }
    buffer_ = std::move(other.buffer_);
    from_arena_ = other.from_arena_;
    other.buffer_.clear();
    other.from_arena_ = false;
  }
  return *this;
}

}  // namespace resuformer
