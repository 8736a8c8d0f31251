#include "dsa/service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tcf {

namespace {

void AccumulateBatchStats(BatchStats* into, const BatchStats& stats) {
  into->num_queries += stats.num_queries;
  into->subqueries_requested += stats.subqueries_requested;
  into->subqueries_executed += stats.subqueries_executed;
  into->plan_cache_hits += stats.plan_cache_hits;
  into->plan_cache_misses += stats.plan_cache_misses;
  into->plan_memo_hits += stats.plan_memo_hits;
  into->plan_memo_misses += stats.plan_memo_misses;
  into->interned_plan_hits += stats.interned_plan_hits;
  into->interned_plan_misses += stats.interned_plan_misses;
  into->plan_seconds += stats.plan_seconds;
  into->phase1_seconds += stats.phase1_seconds;
  into->assemble_seconds += stats.assemble_seconds;
  into->wall_seconds += stats.wall_seconds;
}

std::vector<Result<Weight>> CostsOf(const BatchResult& result) {
  std::vector<Result<Weight>> costs;
  costs.reserve(result.answers.size());
  for (const RouteAnswer& answer : result.answers) {
    if (answer.answer.status.ok()) {
      costs.push_back(answer.answer.cost);
    } else {
      // A query that could not read its (paged) storage fails with its
      // Status; the flush worker turns it into a failed future for just
      // that query.
      costs.push_back(answer.answer.status);
    }
  }
  return costs;
}

}  // namespace

uint64_t ServiceBackend::ApplyUpdates(const std::vector<EdgeUpdate>&) {
  TCF_CHECK_MSG(false, "backend does not support updates");
  return 0;
}

std::vector<Result<Weight>> DatabaseBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  BatchResult result = executor_.Execute(queries);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    AccumulateBatchStats(&cumulative_, result.stats);
  }
  return CostsOf(result);
}

BatchStats DatabaseBackend::cumulative_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return cumulative_;
}

std::vector<Result<Weight>> MaintainedBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  // Pin the epoch for the whole micro-batch: a concurrent ApplyEpoch
  // publishes a successor, but this batch keeps the snapshot (and its
  // plan caches, pool, complementary info) it started with. Concurrent
  // flush workers each pin independently — this is the per-batch epoch
  // barrier: a worker picks up a published epoch at its next batch
  // boundary, never mid-batch.
  const DsaSnapshot snap = mdb_->Snapshot();
  BatchExecutor executor(snap.db.get());
  BatchResult result = executor.Execute(queries);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    AccumulateBatchStats(&cumulative_, result.stats);
  }
  last_batch_epoch_.store(result.epoch, std::memory_order_relaxed);
  return CostsOf(result);
}

BatchStats MaintainedBackend::cumulative_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return cumulative_;
}

uint64_t MaintainedBackend::ApplyUpdates(
    const std::vector<EdgeUpdate>& updates) {
  return mdb_->ApplyEpoch(updates).epoch;
}

namespace {

size_t ClampFlushWorkers(size_t requested) {
  if (requested == 0) {
    requested = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::clamp<size_t>(requested, 1, 64);
}

std::exception_ptr ShutDownError() {
  return std::make_exception_ptr(
      std::runtime_error("QueryService is shut down"));
}

}  // namespace

QueryService::QueryService(const DsaDatabase* db, ServiceOptions options)
    : options_(options),
      owned_backend_(std::make_unique<DatabaseBackend>(db)),
      backend_(owned_backend_.get()),
      validate_num_nodes_(db->fragmentation().graph().NumNodes()),
      routes_supported_(db->options().use_complementary) {
  Start();
}

QueryService::QueryService(MaintainedDatabase* mdb, ServiceOptions options)
    : options_(options),
      owned_backend_(std::make_unique<MaintainedBackend>(mdb)),
      backend_(owned_backend_.get()) {
  const DsaSnapshot snap = mdb->Snapshot();
  validate_num_nodes_ = snap.graph->NumNodes();
  routes_supported_ = snap.db->options().use_complementary;
  Start();
}

QueryService::QueryService(ServiceBackend* backend, ServiceOptions options)
    : options_(options), backend_(backend) {
  TCF_CHECK(backend != nullptr);
  Start();
}

void QueryService::Start() {
  TCF_CHECK(options_.max_batch > 0);
  TCF_CHECK(options_.queue_capacity > 0);
  options_.flush_workers = ClampFlushWorkers(options_.flush_workers);
  stats_.latency_seconds = Accumulator(options_.latency_sample_cap);
  stats_.update_latency_seconds = Accumulator(options_.latency_sample_cap);
  stats_.batch_fill = Accumulator(options_.latency_sample_cap);
  start_time_ = std::chrono::steady_clock::now();

  flush_threads_.reserve(options_.flush_workers);
  for (size_t w = 0; w < options_.flush_workers; ++w) {
    flush_threads_.emplace_back([this]() { FlushWorkerLoop(); });
  }
  if (backend_->SupportsUpdates()) {
    update_thread_ = std::thread([this]() { UpdateLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

bool QueryService::FailIfInvalid(const Query& query,
                                 std::promise<Weight>* promise) const {
  // Validate at admission when the domain is known: one bad query must
  // fail its own future, not trip the backend's TCF_CHECK on a flush
  // worker and take the whole service down.
  if (validate_num_nodes_ == 0) return false;
  if (query.from >= validate_num_nodes_ || query.to >= validate_num_nodes_) {
    promise->set_exception(std::make_exception_ptr(
        std::out_of_range("query endpoint out of range")));
    return true;
  }
  if (query.kind == QueryKind::kRoute && !routes_supported_) {
    promise->set_exception(std::make_exception_ptr(std::out_of_range(
        "route queries require complementary information")));
    return true;
  }
  return false;
}

std::optional<std::future<Weight>> QueryService::Admit(Query query,
                                                       bool blocking) {
  Pending pending;
  pending.query = query;
  pending.submit_time = std::chrono::steady_clock::now();
  std::future<Weight> future = pending.promise.get_future();
  if (FailIfInvalid(query, &pending.promise)) return future;

  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (blocking) {
      space_cv_.wait(lock, [this]() {
        return queue_.size() < options_.queue_capacity || stopping_;
      });
      if (stopping_) {
        pending.promise.set_exception(ShutDownError());
        return future;
      }
    } else {
      if (stopping_) return std::nullopt;
      if (queue_.size() >= options_.queue_capacity) {
        ++stats_.rejected;
        return std::nullopt;
      }
    }
    queue_.push_back(std::move(pending));
    ++stats_.submitted;
    // Only two pushes can change a flush decision: the one that makes the
    // queue non-empty (workers may sleep with no deadline) and the one
    // that reaches max_batch (a coalescer may be waiting out max_wait).
    wake = queue_.size() == 1 || queue_.size() == options_.max_batch;
  }
  if (wake) flush_cv_.notify_one();
  return future;
}

std::future<Weight> QueryService::SubmitShortestPath(NodeId from, NodeId to) {
  return *Admit(Query{from, to, QueryKind::kCost}, /*blocking=*/true);
}

std::optional<std::future<Weight>> QueryService::TrySubmit(NodeId from,
                                                           NodeId to) {
  return Admit(Query{from, to, QueryKind::kCost}, /*blocking=*/false);
}

std::vector<std::future<Weight>> QueryService::SubmitBatch(
    const std::vector<Query>& queries) {
  std::vector<std::future<Weight>> futures;
  futures.reserve(queries.size());
  std::vector<Pending> valid;
  valid.reserve(queries.size());
  const auto now = std::chrono::steady_clock::now();
  for (const Query& q : queries) {
    Pending pending;
    pending.query = q;
    pending.submit_time = now;
    futures.push_back(pending.promise.get_future());
    if (!FailIfInvalid(q, &pending.promise)) {
      valid.push_back(std::move(pending));
    }
  }

  // Admit as much of the batch as the queue holds under ONE lock and wake
  // once, so no flush worker sees a partial batch and flushes it early;
  // block only for the remainder when the queue fills. The wake comes
  // before any wait for space, so the workers drain what was admitted.
  std::unique_lock<std::mutex> lock(mutex_);
  size_t next = 0;
  while (next < valid.size()) {
    space_cv_.wait(lock, [this]() {
      return queue_.size() < options_.queue_capacity || stopping_;
    });
    if (stopping_) break;
    const size_t take = std::min(options_.queue_capacity - queue_.size(),
                                 valid.size() - next);
    for (size_t k = 0; k < take; ++k) {
      queue_.push_back(std::move(valid[next++]));
    }
    stats_.submitted += take;
    flush_cv_.notify_one();
  }
  lock.unlock();
  for (; next < valid.size(); ++next) {
    valid[next].promise.set_exception(ShutDownError());
  }
  return futures;
}

std::future<uint64_t> QueryService::SubmitUpdate(EdgeUpdate update) {
  PendingUpdate pending;
  pending.update = update;
  pending.submit_time = std::chrono::steady_clock::now();
  std::future<uint64_t> future = pending.promise.get_future();

  if (!backend_->SupportsUpdates()) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("backend does not support updates")));
    return future;
  }
  // Reject what the maintenance epoch would treat as an invariant: a bad
  // update fails its own future instead of aborting the applier or the
  // next query that reads the edge.
  const char* invalid = nullptr;
  if (validate_num_nodes_ > 0 && (update.src >= validate_num_nodes_ ||
                                  update.dst >= validate_num_nodes_)) {
    invalid = "update endpoint out of range";
  } else if (update.kind != EdgeUpdate::Kind::kDelete &&
             !(std::isfinite(update.weight) && update.weight >= 0.0)) {
    invalid = "update weight must be finite and non-negative";
  }
  if (invalid != nullptr) {
    pending.promise.set_exception(
        std::make_exception_ptr(std::out_of_range(invalid)));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(update_mutex_);
    if (updates_stopping_) {
      pending.promise.set_exception(ShutDownError());
      return future;
    }
    update_queue_.push_back(std::move(pending));
  }
  // Updates wake their own applier thread — they neither wake a flush
  // worker nor cut a coalescing window short; workers pick up the
  // published epoch at their next batch boundary.
  update_cv_.notify_one();
  return future;
}

void QueryService::Shutdown() {
  // Stop the update lane first: an update admitted under
  // `updates_stopping_ == false` is ordered before this flag flip by
  // update_mutex_, so the applier's final drain sees it before exiting.
  {
    std::lock_guard<std::mutex> lock(update_mutex_);
    updates_stopping_ = true;
  }
  update_cv_.notify_all();
  // A submitter that pushed after reading `stopping_ == false` did so
  // under mutex_, before this flip, so the workers' drain sees its entry.
  // Submitters blocked on a full queue are woken here and rejected instead
  // of deadlocking.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  space_cv_.notify_all();
  flush_cv_.notify_all();
  // join() exactly once even when Shutdown races itself (it is documented
  // thread-safe like every other public method); the clock freezes after
  // the joins, so post-Shutdown Stats() reads one stable elapsed_seconds.
  std::call_once(join_once_, [this]() {
    for (std::thread& t : flush_threads_) t.join();
    if (update_thread_.joinable()) update_thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    stop_time_ = std::chrono::steady_clock::now();
  });
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats snapshot = stats_;
  const auto end = stopped_ ? stop_time_ : std::chrono::steady_clock::now();
  snapshot.elapsed_seconds =
      std::chrono::duration<double>(end - start_time_).count();
  return snapshot;
}

std::chrono::steady_clock::time_point QueryService::FlushDeadline(
    std::chrono::steady_clock::time_point oldest,
    std::chrono::microseconds max_wait) {
  using TimePoint = std::chrono::steady_clock::time_point;
  const auto wait = std::chrono::duration_cast<TimePoint::duration>(max_wait);
  if (oldest >= TimePoint::max() - wait) return TimePoint::max();
  return oldest + wait;
}

void QueryService::UpdateLoop() {
  for (;;) {
    std::vector<PendingUpdate> pending;
    {
      std::unique_lock<std::mutex> lock(update_mutex_);
      update_cv_.wait(lock, [this]() {
        return updates_stopping_ || !update_queue_.empty();
      });
      if (update_queue_.empty()) break;  // stopping, and fully drained
      pending.swap(update_queue_);
    }

    // All pending updates become ONE maintenance epoch. The snapshot swap
    // inside ApplyUpdates is the epoch barrier: flush workers executing
    // concurrently keep their pinned snapshots, and every batch collected
    // afterwards pins the new epoch (or a later one).
    std::vector<EdgeUpdate> ops;
    ops.reserve(pending.size());
    for (const PendingUpdate& p : pending) ops.push_back(p.update);
    const uint64_t epoch = backend_->ApplyUpdates(ops);

    // Record stats BEFORE fulfilling the promises, for the same
    // wake-then-snapshot consistency the query path guarantees.
    const auto done = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.update_epochs;
      stats_.updates += pending.size();
      for (const PendingUpdate& p : pending) {
        stats_.update_latency_seconds.Add(
            std::chrono::duration<double>(done - p.submit_time).count());
      }
    }
    for (PendingUpdate& p : pending) p.promise.set_value(epoch);
  }
}

void QueryService::FlushWorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    flush_cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stopping, and every admitted query drained
    // Coalesce behind the batches in progress until the oldest entry has
    // waited max_wait, the queue reaches max_batch, or the last executing
    // batch ends. The deadline is re-read from the current oldest entry on
    // every wake, because another worker may have collected it meanwhile.
    while (!stopping_ && executing_ > 0 && !queue_.empty() &&
           queue_.size() < options_.max_batch) {
      const auto deadline =
          FlushDeadline(queue_.front().submit_time, options_.max_wait);
      if (std::chrono::steady_clock::now() >= deadline) break;
      flush_cv_.wait_until(lock, deadline);
    }
    // Another worker took the queries: sleep again, so that an arrival in
    // the meantime still coalesces.
    if (queue_.empty()) continue;

    std::vector<Pending> admitted;
    admitted.reserve(std::min(options_.max_batch, queue_.size()));
    while (!queue_.empty() && admitted.size() < options_.max_batch) {
      admitted.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++executing_;
    const bool leftover = !queue_.empty();
    lock.unlock();
    space_cv_.notify_all();
    // What is left needs a worker watching its deadline.
    if (leftover) flush_cv_.notify_one();

    std::vector<Query> batch;
    batch.reserve(admitted.size());
    for (const Pending& p : admitted) batch.push_back(p.query);
    const std::vector<Result<Weight>> costs = backend_->ExecuteBatch(batch);
    TCF_CHECK(costs.size() == admitted.size());

    // Record stats BEFORE fulfilling the promises: a client that wakes
    // from future.get() and immediately snapshots Stats() must already
    // see its own query counted.
    const auto done = std::chrono::steady_clock::now();
    std::vector<double> latencies;
    latencies.reserve(admitted.size());
    for (const Pending& p : admitted) {
      latencies.push_back(
          std::chrono::duration<double>(done - p.submit_time).count());
    }
    lock.lock();
    ++stats_.batches;
    stats_.completed += admitted.size();
    stats_.batch_fill.Add(static_cast<double>(admitted.size()));
    stats_.latency_seconds.AddAll(latencies);
    // The last executing batch is done: a worker coalescing behind it
    // flushes now.
    const bool idle = --executing_ == 0 && !queue_.empty();
    lock.unlock();
    if (idle) flush_cv_.notify_one();

    for (size_t i = 0; i < admitted.size(); ++i) {
      if (costs[i].ok()) {
        admitted[i].promise.set_value(costs[i].value());
      } else {
        // One failed query fails its own future; the rest of the batch
        // (and the daemon) are unaffected. The network edge's WriterLoop
        // already turns a future exception into an error frame.
        admitted[i].promise.set_exception(std::make_exception_ptr(
            std::runtime_error(costs[i].status().ToString())));
      }
    }
    lock.lock();
  }
}

}  // namespace tcf
