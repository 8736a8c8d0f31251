#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace tcf {

/// One ParallelFor in flight. Lives on its caller's stack; helpers reach it
/// through ThreadPool::loops_ and the caller does not return while one is
/// still inside Work().
struct ThreadPool::Loop {
  Loop(size_t n, void (*invoke)(void*, size_t), void* ctx)
      : n(n), invoke(invoke), ctx(ctx) {}

  /// Claims and runs items until the cursor passes n. The first exception
  /// is kept and pushes the cursor to n, so no further item starts.
  void Work() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        invoke(ctx, i);
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  }

  const size_t n;
  void (*const invoke)(void*, size_t);
  void* const ctx;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  /// Written once, by the thread that set `failed`; read by the caller
  /// after every helper has left (ordered by mutex_).
  std::exception_ptr error;

  // Guarded by ThreadPool::mutex_.
  size_t helper_slots = 0;    // helpers still wanted (listed in loops_)
  size_t active_helpers = 0;  // helpers inside Work()
  std::condition_variable helpers_done;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this]() {
      return shutting_down_ || !loops_.empty() || !queue_.empty();
    });
    if (!loops_.empty()) {
      // Loops first: their callers are blocked on them, Submit's are not.
      Loop* loop = loops_.front();
      if (--loop->helper_slots == 0) loops_.erase(loops_.begin());
      ++loop->active_helpers;
      lock.unlock();
      loop->Work();
      lock.lock();
      // Notify under the lock: the caller cannot see zero, return and
      // destroy `loop` before this call is done with it.
      if (--loop->active_helpers == 0) loop->helpers_done.notify_one();
    } else if (!queue_.empty()) {
      {
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        task();
      }
      lock.lock();
    } else {
      return;  // shutting down and drained
    }
  }
}

void ThreadPool::RunLoop(size_t n, void (*invoke)(void*, size_t), void* ctx) {
  if (n == 0) return;
  if (n == 1) {
    invoke(ctx, 0);
    return;
  }
  Loop loop(n, invoke, ctx);
  const size_t helpers = std::min(n - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    loop.helper_slots = helpers;
    loops_.push_back(&loop);
  }
  if (helpers == workers_.size()) {
    cv_.notify_all();
  } else {
    for (size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }

  loop.Work();

  // The cursor is exhausted. Withdraw the helper slots no worker has taken
  // yet, then wait only for the helpers already inside Work(): each of
  // them finishes the item it claimed, if any, and leaves.
  std::unique_lock<std::mutex> lock(mutex_);
  if (loop.helper_slots > 0) {
    loops_.erase(std::find(loops_.begin(), loops_.end(), &loop));
    loop.helper_slots = 0;
  }
  loop.helpers_done.wait(lock, [&loop]() { return loop.active_helpers == 0; });
  lock.unlock();
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace tcf
