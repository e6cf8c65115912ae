#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/runtime_options.h"
#include "common/trace.h"

namespace resuformer {

namespace {
// True on threads owned by a pool; forces nested ParallelFor calls inline.
thread_local bool g_in_pool_worker = false;

// Fork-join observability (resolved once; see common/metrics.h): how often
// the pool actually forks, how long workers sit between publish and pickup
// (queue wait), and how long each chunk runs. Wait/run sampling needs the
// clock, so it is gated on MetricsRegistry::Enabled() via job_publish_ns_.
metrics::Counter* DispatchCounter() {
  static metrics::Counter* c = metrics::MetricsRegistry::Global().GetCounter(
      "threadpool.parallel_for.dispatches");
  return c;
}
metrics::Histogram* QueueWaitHistogram() {
  static metrics::Histogram* h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "threadpool.queue_wait_us");
  return h;
}
metrics::Histogram* WorkerRunHistogram() {
  static metrics::Histogram* h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "threadpool.worker_run_us");
  return h;
}
// Counts ParallelFor calls that arrived while another dispatch was in
// flight and therefore ran inline on the caller (see ParallelFor).
metrics::Counter* ContendedInlineCounter() {
  static metrics::Counter* c = metrics::MetricsRegistry::Global().GetCounter(
      "threadpool.parallel_for.contended_inline");
  return c;
}
}  // namespace

int DefaultThreadCount() {
  // Strict parse: malformed or out-of-range RESUFORMER_THREADS falls back
  // to hardware concurrency instead of riding std::atoi's overflow UB.
  const int n = envparse::IntFromEnv("RESUFORMER_THREADS", 0, 1, 256);
  if (n >= 1) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() { StartWorkers(DefaultThreadCount()); }

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::SetNumThreads(int n) {
  // Misuse detector, not a synchronization mechanism: resizing tears the
  // worker set down, so a resize racing a dispatch (or issued from inside a
  // ParallelFor body) is a programming error we fail fast on rather than
  // deadlock or corrupt the job slot. The check is best-effort — a dispatch
  // that starts after the check still races — but it catches the two
  // realistic misuse shapes: calling from a worker and calling while another
  // thread's ParallelFor is visibly in flight.
  RF_CHECK(!g_in_pool_worker)
      << "ThreadPool::SetNumThreads called from inside a ParallelFor body; "
         "configure the pool at startup or between dispatches";
  if (n <= 0) n = DefaultThreadCount();
  {
    std::lock_guard<std::mutex> lock(mu_);
    RF_CHECK(job_fn_ == nullptr)
        << "ThreadPool::SetNumThreads called while a ParallelFor dispatch is "
           "in flight on another thread";
    if (n == num_threads_) return;
  }
  StopWorkers();
  StartWorkers(n);
}

int ThreadPool::NumThreads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_threads_;
}

void ThreadPool::StartWorkers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  num_threads_ = n;
  shutting_down_ = false;
  // The caller of ParallelFor acts as worker 0; spawn the other n-1.
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::Chunk(int64_t count, int workers, int w, int64_t* begin,
                       int64_t* end) {
  const int64_t base = count / workers;
  const int64_t rem = count % workers;
  *begin = w * base + std::min<int64_t>(w, rem);
  *end = *begin + base + (w < rem ? 1 : 0);
}

void ThreadPool::ParallelFor(int64_t count, const RangeFn& fn) {
  if (count <= 0) return;
  // Nested call from a pool worker: always inline (no nested parallelism).
  if (g_in_pool_worker) {
    fn(0, 0, count);
    return;
  }
  const int64_t publish_ns =
      metrics::MetricsRegistry::Enabled() ? trace::NowNs() : 0;
  int workers = 0;
  bool contended = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers = num_threads_;
    if (workers > count) workers = static_cast<int>(count);
    if (workers > 1 && job_fn_ == nullptr) {
      // Claim the pool: the job is published in the same critical section
      // that observed it idle, so two external threads can never co-publish.
      job_fn_ = &fn;
      job_count_ = count;
      job_workers_ = workers;
      job_publish_ns_ = publish_ns;
      pending_ = workers - 1;
      ++generation_;
    } else {
      contended = workers > 1;  // busy pool, not a serial one
      workers = 0;              // run inline below
    }
  }
  if (workers == 0) {
    // Serial pool, or another external thread's dispatch is in flight.
    // Degrade to inline execution on the caller instead of blocking (or
    // crashing, as earlier revisions did): the result is identical — the
    // body observes worker 0 over the full range, the same partitioning a
    // one-worker dispatch would use — and concurrent callers (e.g. two
    // request threads both inside a batched Parse) stay correct. The body
    // is still "inside a ParallelFor" for misuse-detection purposes, so mark
    // the thread pool-owned while it runs (also inlines nested calls).
    if (contended) ContendedInlineCounter()->Increment();
    g_in_pool_worker = true;
    fn(0, 0, count);
    g_in_pool_worker = false;
    return;
  }
  TRACE_SPAN("threadpool.parallel_for");
  DispatchCounter()->Increment();
  work_cv_.notify_all();
  int64_t begin = 0, end = 0;
  Chunk(count, workers, 0, &begin, &end);
  // The driving thread acts as worker 0: mark it pool-owned while it runs
  // its chunk so nested ParallelFor calls inside fn inline (as they do on
  // the resident workers) instead of re-entering the busy pool.
  g_in_pool_worker = true;
  {
    TRACE_SPAN("threadpool.worker_run");
    fn(0, begin, end);
  }
  if (publish_ns != 0) {
    WorkerRunHistogram()->Record((trace::NowNs() - publish_ns) / 1000);
  }
  g_in_pool_worker = false;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this]() { return pending_ == 0; });
  job_fn_ = nullptr;
}

void ThreadPool::WorkerLoop(int index) {
  g_in_pool_worker = true;
  uint64_t seen_generation = 0;
  for (;;) {
    const RangeFn* fn = nullptr;
    int64_t count = 0;
    int workers = 0;
    int64_t publish_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&]() {
        return shutting_down_ || generation_ != seen_generation;
      });
      if (shutting_down_) return;
      seen_generation = generation_;
      fn = job_fn_;
      count = job_count_;
      workers = job_workers_;
      publish_ns = job_publish_ns_;
    }
    if (index < workers && fn != nullptr) {
      int64_t start_ns = 0;
      if (publish_ns != 0) {
        start_ns = trace::NowNs();
        QueueWaitHistogram()->Record((start_ns - publish_ns) / 1000);
      }
      int64_t begin = 0, end = 0;
      Chunk(count, workers, index, &begin, &end);
      {
        TRACE_SPAN("threadpool.worker_run");
        (*fn)(index, begin, end);
      }
      if (publish_ns != 0) {
        WorkerRunHistogram()->Record((trace::NowNs() - start_ns) / 1000);
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace resuformer
