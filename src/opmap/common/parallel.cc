#include "opmap/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "opmap/common/metrics.h"
#include "opmap/common/trace.h"

namespace opmap {

namespace {

// Pool metric handles, resolved once. Tasks are chunk-sized (a parallel
// section submits at most threads*4 of them), so per-task bumps are
// cheap.
Counter* PoolTasksQueued() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("pool.tasks_queued");
  return c;
}
Counter* PoolTasksExecuted() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("pool.tasks_executed");
  return c;
}
Counter* PoolTasksInline() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("pool.tasks_inline");
  return c;
}
Counter* PoolTasksPosted() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("pool.tasks_posted");
  return c;
}
Counter* PoolPostedExceptions() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("pool.posted_exceptions");
  return c;
}

// Set while a thread is executing a pool task; nested parallel sections on
// such a thread run inline instead of re-entering the pool.
thread_local bool tls_in_pool_task = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// OPMAP_THREADS, parsed once. Invalid or unset values fall back to the
// hardware concurrency (a library cannot fail here; the CLI validates its
// own --threads flag loudly).
int DefaultThreads() {
  static const int cached = [] {
    const char* env = std::getenv("OPMAP_THREADS");
    if (env != nullptr) {
      Result<int> parsed = ParseThreadCount(env);
      if (parsed.ok() && *parsed > 0) return *parsed;
    }
    return HardwareThreads();
  }();
  return cached;
}

}  // namespace

Result<int> ParseThreadCount(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("thread count must not be empty");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid thread count '" + text +
                                     "' (expected a non-negative integer)");
    }
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || value > 1024) {
    return Status::InvalidArgument("thread count '" + text +
                                   "' out of range (0..1024)");
  }
  return static_cast<int>(value);
}

int EffectiveThreads(const ParallelOptions& options) {
  const int requested =
      options.num_threads > 0 ? options.num_threads : DefaultThreads();
  return std::clamp(requested, 1, kMaxThreads);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

struct ThreadPool::Impl {
  // One parallel section. Tasks are claimed by atomic increment; the last
  // finished task wakes the submitter.
  struct Job {
    Job(const std::function<void(int)>& f, int n) : fn(f), limit(n) {}

    const std::function<void(int)>& fn;  // submitter outlives the job
    const int limit;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::atomic<bool> failed{false};

    std::mutex mu;
    std::condition_variable all_done;
    std::exception_ptr exception;
    int exception_index = std::numeric_limits<int>::max();

    // Claims and runs tasks until none are left. Returns whether all
    // tasks have settled after this thread's contribution.
    bool Work() {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= limit) return done.load(std::memory_order_acquire) == limit;
        if (!failed.load(std::memory_order_relaxed)) {
          PoolTasksExecuted()->Increment();
          try {
            fn(i);
          } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu);
            if (i < exception_index) {
              exception_index = i;
              exception = std::current_exception();
            }
          }
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == limit) {
          std::lock_guard<std::mutex> lock(mu);
          all_done.notify_all();
          return true;
        }
      }
    }
  };

  std::mutex mu;
  std::condition_variable wake;
  std::deque<std::shared_ptr<Job>> jobs;
  std::deque<std::function<void()>> posted;
  std::vector<std::thread> workers;
  bool stopping = false;

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Job> job;
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        wake.wait(lock,
                  [&] { return stopping || !jobs.empty() || !posted.empty(); });
        if (stopping) return;
        if (!jobs.empty()) {
          // Fan-out jobs first: a blocking Run has a thread waiting on it,
          // a posted task does not.
          job = jobs.front();
          if (job->next.load(std::memory_order_relaxed) >= job->limit) {
            // Fully claimed; retire it from the dispatch queue.
            jobs.pop_front();
            continue;
          }
        } else {
          task = std::move(posted.front());
          posted.pop_front();
        }
      }
      tls_in_pool_task = true;
      if (job != nullptr) {
        job->Work();
      } else {
        // Detached tasks have no submitter to rethrow on; count and drop.
        try {
          task();
        } catch (...) {
          PoolPostedExceptions()->Increment();
        }
      }
      tls_in_pool_task = false;
    }
  }

  // Grows the pool to at least `target` workers (capped).
  void EnsureWorkers(int target) {
    target = std::min(target, kMaxThreads - 1);
    std::lock_guard<std::mutex> lock(mu);
    if (static_cast<int>(workers.size()) >= target) return;
    const int64_t start_us = MonotonicMicros();
    while (static_cast<int>(workers.size()) < target) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    static Histogram* const start_latency =
        MetricsRegistry::Global()->histogram("pool.start_us");
    start_latency->Record(MonotonicMicros() - start_us);
    static Gauge* const size_gauge =
        MetricsRegistry::Global()->gauge("pool.workers");
    size_gauge->SetMax(static_cast<int64_t>(workers.size()));
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    wake.notify_all();
    for (std::thread& t : workers) t.join();
  }
};

ThreadPool* ThreadPool::Shared() {
  static ThreadPool pool;
  return &pool;
}

ThreadPool::Impl* ThreadPool::impl() {
  static std::once_flag once;
  std::call_once(once, [this] { impl_ = new Impl(); });
  return impl_;
}

ThreadPool::~ThreadPool() { delete impl_; }

int ThreadPool::num_workers() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::Run(int num_tasks, const std::function<void(int)>& task) {
  if (num_tasks <= 0) return;
  if (num_tasks == 1 || tls_in_pool_task) {
    // Inline: single task, or a nested section on a pool thread (running
    // it inline is what makes nesting deadlock-free).
    PoolTasksInline()->Increment(num_tasks);
    for (int i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  Impl* pool = impl();
  pool->EnsureWorkers(num_tasks - 1);
  PoolTasksQueued()->Increment(num_tasks);

  auto job = std::make_shared<Impl::Job>(task, num_tasks);
  {
    std::lock_guard<std::mutex> lock(pool->mu);
    pool->jobs.push_back(job);
  }
  pool->wake.notify_all();

  // The submitting thread works too; it may finish the whole job itself
  // when the workers are busy elsewhere.
  const bool finished = job->Work();
  if (!finished) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->all_done.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->limit;
    });
  }
  {
    // Retire the job if no worker got around to it.
    std::lock_guard<std::mutex> lock(pool->mu);
    for (auto it = pool->jobs.begin(); it != pool->jobs.end(); ++it) {
      if (*it == job) {
        pool->jobs.erase(it);
        break;
      }
    }
  }
  // Take the exception out of the job under its lock: a worker may still
  // hold the last reference to the job, and its late drop must not
  // destroy an exception this thread is rethrowing.
  std::exception_ptr exception;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    exception = std::move(job->exception);
  }
  if (exception) std::rethrow_exception(exception);
}

void ThreadPool::Post(std::function<void()> task) {
  Impl* pool = impl();
  pool->EnsureWorkers(1);
  PoolTasksPosted()->Increment();
  {
    std::lock_guard<std::mutex> lock(pool->mu);
    pool->posted.push_back(std::move(task));
  }
  pool->wake.notify_one();
}

void ThreadPool::Reserve(int num_workers) {
  if (num_workers <= 0) return;
  impl()->EnsureWorkers(num_workers);
}

// ---------------------------------------------------------------------------
// Loop primitives
// ---------------------------------------------------------------------------

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn,
                 const ParallelOptions& options) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(grain, 1);
  const int threads = EffectiveThreads(options);
  if (threads <= 1 || n <= grain) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Chunk so every thread has a few tasks to steal (dynamic claiming
  // balances skew) but no chunk drops below the grain.
  const int64_t chunk =
      std::max(grain, (n + static_cast<int64_t>(threads) * 4 - 1) /
                          (static_cast<int64_t>(threads) * 4));
  const int num_chunks = static_cast<int>((n + chunk - 1) / chunk);
  ThreadPool::Shared()->Run(num_chunks, [&](int c) {
    const int64_t lo = begin + static_cast<int64_t>(c) * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    for (int64_t i = lo; i < hi; ++i) fn(i);
  });
}

void ParallelForShards(int64_t begin, int64_t end, int num_shards,
                       const std::function<void(int, int64_t, int64_t)>& fn) {
  num_shards = std::max(num_shards, 1);
  const int64_t n = std::max<int64_t>(end - begin, 0);
  if (num_shards == 1) {
    OPMAP_TRACE_SPAN("parallel.shard");
    fn(0, begin, begin + n);
    return;
  }
  const int64_t shards = num_shards;
  ThreadPool::Shared()->Run(num_shards, [&](int s) {
    OPMAP_TRACE_SPAN("parallel.shard");
    const int64_t lo = begin + n * s / shards;
    const int64_t hi = begin + n * (s + 1) / shards;
    fn(s, lo, hi);
  });
}

}  // namespace opmap
