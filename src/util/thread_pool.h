// Fixed-size thread pool used to simulate the per-fragment "sites" of the
// disconnection set approach. Each site's local transitive closure runs as
// one item of a ParallelFor; the pool gives us the paper's phase-1 property
// for free (no communication until the final joins).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tcf {

/// A work-queue thread pool whose loops are caller-helps: the thread that
/// calls ParallelFor claims indices itself, beside at most
/// min(n - 1, num_threads()) helper workers, from one shared atomic cursor.
/// So a loop always makes progress on its caller, and it is safe to call
/// ParallelFor (or ParallelForRanges) from inside a pool task or from
/// inside another ParallelFor: the nested caller drains its own work even
/// when every worker is busy. Submit is a plain queue and does not help;
/// blocking on a Submit future from inside a pool task can still deadlock
/// once every worker does it.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1). Defaults to the
  /// hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Run fn(i) once for every i in [0, n) and return when all have run.
  /// The caller runs items too; a one-item loop runs inline on it. The
  /// caller waits only for the items a helper has already claimed. If fn
  /// throws, no further items are started and the first exception is
  /// rethrown here once every claimed item has finished. Allocates
  /// nothing per call: the loop state lives on the caller's stack.
  template <typename F>
  void ParallelFor(size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    RunLoop(n, [](void* ctx, size_t i) { (*static_cast<Fn*>(ctx))(i); },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Run fn(begin, end) over a partition of [0, n) into contiguous ranges
  /// (a few per thread, caller included) and return when all have run.
  /// Amortizes the per-item claim when the loop body is cheap — the batch
  /// executor plans tens of thousands of queries this way.
  template <typename F>
  void ParallelForRanges(size_t n, F&& fn) {
    if (n == 0) return;
    // About four ranges per thread, caller included: enough slack to absorb
    // uneven range costs.
    const size_t ranges = std::min(n, (workers_.size() + 1) * 4);
    const size_t chunk = (n + ranges - 1) / ranges;
    ParallelFor((n + chunk - 1) / chunk, [&fn, chunk, n](size_t c) {
      const size_t begin = c * chunk;
      fn(begin, std::min(n, begin + chunk));
    });
  }

 private:
  struct Loop;

  void WorkerLoop();
  void RunLoop(size_t n, void (*invoke)(void*, size_t), void* ctx);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  /// Loops that still want helpers, oldest first. Each entry points at a
  /// Loop on its caller's stack; the caller removes it before returning.
  std::vector<Loop*> loops_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace tcf
