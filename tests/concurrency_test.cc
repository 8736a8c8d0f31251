// Concurrency hammer for the re-entrant execution core: many threads issue
// single queries and whole batches against ONE DsaDatabase — shared
// thread pool, shared chain-plan cache, shared complementary information —
// while validating every answer against sequentially precomputed expected
// results. Run under TSan in CI (the `sanitize` matrix leg), this suite is
// what turns the "thread-safe for concurrent queries" contract of
// dsa/query_api.h from a comment into a checked property.
//
// Failures are counted atomically per thread and asserted after join:
// GoogleTest assertion bookkeeping is not guaranteed thread-safe, and
// counting keeps the hammer loop free of test-framework synchronization
// that could mask real races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dsa/batch.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "graph/generator.h"

namespace tcf {
namespace {

constexpr size_t kThreads = 8;

struct Fixture {
  explicit Fixture(uint64_t seed, bool cyclic = false) {
    Rng rng(seed);
    TransportationGraphOptions gopts;
    gopts.num_clusters = 3;
    gopts.nodes_per_cluster = 10;
    gopts.target_edges_per_cluster = 40;
    graph = GenerateTransportationGraph(gopts, &rng).graph;
    if (cyclic) {
      CenterBasedOptions copts;
      copts.num_fragments = 4;
      copts.distributed_centers = true;
      frag = std::make_unique<Fragmentation>(
          CenterBasedFragmentation(graph, copts));
    } else {
      LinearOptions lopts;
      lopts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          LinearFragmentation(graph, lopts).fragmentation);
    }
    DsaOptions dopts;
    dopts.num_threads = 4;  // shared pool smaller than the hammer threads
    db = std::make_unique<DsaDatabase>(frag.get(), dopts);
  }

  Graph graph;
  std::unique_ptr<Fragmentation> frag;
  std::unique_ptr<DsaDatabase> db;
};

/// All-pairs query set with sequentially precomputed expected costs.
struct Expected {
  std::vector<Query> queries;
  std::vector<Weight> costs;
};

Expected Precompute(const DsaDatabase& db, size_t num_queries,
                    uint64_t seed) {
  Expected out;
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kHotPair;
  spec.num_queries = num_queries;
  spec.num_hot_pairs = 12;
  Rng rng(seed);
  out.queries = GenerateWorkload(db.fragmentation(), spec, &rng);
  out.costs.reserve(out.queries.size());
  for (const Query& q : out.queries) {
    out.costs.push_back(db.ShortestPath(q.from, q.to).cost);
  }
  return out;
}

TEST(Concurrency, SingleQueriesFromManyThreads) {
  Fixture fx(101);
  const Expected expected = Precompute(*fx.db, 160, 9);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread walks the whole query set from its own offset, so all
      // threads hit the same hot plans at different times.
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        const size_t j = (i + t * 17) % expected.queries.size();
        const Query& q = expected.queries[j];
        const QueryAnswer answer = fx.db->ShortestPath(q.from, q.to);
        if (answer.cost != expected.costs[j]) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, BatchesFromManyThreads) {
  Fixture fx(102, /*cyclic=*/true);
  BatchExecutor executor(fx.db.get());
  const Expected expected = Precompute(*fx.db, 120, 10);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread executes a different rotation of the same query set as
      // one batch, twice, so concurrent batches overlap heavily on specs
      // and plans.
      std::vector<Query> batch;
      batch.reserve(expected.queries.size());
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        batch.push_back(expected.queries[(i + t * 29) %
                                         expected.queries.size()]);
      }
      for (int round = 0; round < 2; ++round) {
        const BatchResult result = executor.Execute(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          const size_t j = (i + t * 29) % expected.queries.size();
          if (result.answers[i].answer.cost != expected.costs[j]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, MixedSinglesBatchesAndRoutes) {
  Fixture fx(103);
  BatchExecutor executor(fx.db.get());
  const Expected expected = Precompute(*fx.db, 90, 11);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      if (t % 2 == 0) {
        // Batch threads, with route reconstruction in the mix.
        std::vector<Query> batch;
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          Query q = expected.queries[i];
          q.kind = (i + t) % 2 == 0 ? QueryKind::kCost : QueryKind::kRoute;
          batch.push_back(q);
        }
        const BatchResult result = executor.Execute(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (result.answers[i].answer.cost != expected.costs[i]) {
            ++mismatches;
          }
        }
      } else {
        // Single-query threads alternating all three entry points.
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          const Query& q = expected.queries[i];
          Weight got = kInfinity;
          switch (i % 3) {
            case 0:
              got = fx.db->ShortestPath(q.from, q.to).cost;
              break;
            case 1:
              got = fx.db->ShortestRoute(q.from, q.to).answer.cost;
              break;
            case 2:
              got = fx.db->IsConnected(q.from, q.to)
                        ? expected.costs[i]
                        : kInfinity;
              break;
          }
          if (got != expected.costs[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, ServiceHammerManyProducers) {
  // N producer threads stream single queries through one QueryService —
  // admission loop, bounded queue, and micro-batched execution all under
  // contention — and every future must carry the sequentially precomputed
  // answer. Producers mix blocking Submit with TrySubmit (retrying
  // rejections), so queue-full paths are exercised too.
  Fixture fx(105, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 120, 12);

  ServiceOptions opts;
  opts.max_batch = 16;
  opts.max_wait = std::chrono::microseconds(200);
  opts.queue_capacity = 64;  // small: backpressure is part of the hammer
  QueryService service(fx.db.get(), opts);

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> retried{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        const size_t j = (i + t * 13) % expected.queries.size();
        const Query& q = expected.queries[j];
        std::future<Weight> future;
        if (t % 2 == 0) {
          future = service.SubmitShortestPath(q.from, q.to);
        } else {
          // Non-blocking path: spin on rejection.
          for (;;) {
            auto maybe = service.TrySubmit(q.from, q.to);
            if (maybe.has_value()) {
              future = std::move(*maybe);
              break;
            }
            retried.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
          }
        }
        if (future.get() != expected.costs[j]) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  service.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, kThreads * expected.queries.size());
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.rejected, retried.load());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
}

TEST(Concurrency, AdmissionHammerAcrossFlushWorkerCounts) {
  // The admission queue and the parallel flush pool under maximum
  // contention: 16 submitter threads (blocking and TrySubmit mixed)
  // against flush_workers {1, 2, 4}. Every future must resolve with the
  // precomputed answer and the ServiceStats totals must be
  // scheduling-independent — identical submitted/completed for every
  // worker count, rejected == observed retries. Runs under TSan in CI,
  // which is what makes the admission locking (one mutex, the space and
  // flush condition variables, multi-popper collection, drain protocol) a
  // checked property.
  Fixture fx(107, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 60, 14);
  constexpr size_t kSubmitters = 16;

  for (size_t workers : {1, 2, 4}) {
    ServiceOptions opts;
    opts.max_batch = 16;
    opts.max_wait = std::chrono::microseconds(200);
    opts.queue_capacity = 32;  // small: backpressure is part of the hammer
    opts.flush_workers = workers;
    QueryService service(fx.db.get(), opts);

    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> retried{0};
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t]() {
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          const size_t j = (i + t * 19) % expected.queries.size();
          const Query& q = expected.queries[j];
          std::future<Weight> future;
          if (t % 2 == 0) {
            future = service.SubmitShortestPath(q.from, q.to);
          } else {
            for (;;) {
              auto maybe = service.TrySubmit(q.from, q.to);
              if (maybe.has_value()) {
                future = std::move(*maybe);
                break;
              }
              retried.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          }
          if (future.get() != expected.costs[j]) ++mismatches;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    service.Shutdown();

    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    EXPECT_EQ(mismatches.load(), 0u);
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.completed, kSubmitters * expected.queries.size());
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.rejected, retried.load());
    EXPECT_GT(stats.batches, 0u);
    EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
  }
}

TEST(Concurrency, CrossBatchPlanCacheUnderConcurrentBatches) {
  // Concurrent batches racing on a COLD cross-batch interned-plan cache:
  // duplicate builds of the same (from, to) plan are allowed (the loser's
  // plan is dropped), but every answer must be right and the accounting
  // must stay consistent: across all batches, interned-plan hits + misses
  // equal the distinct pairs planned per batch summed, and the cache's
  // cumulative counters equal the per-batch sums.
  Fixture fx(108, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 80, 15);

  // A fresh database for the hammer: Precompute's single queries warmed
  // fx.db's plan cache, and this test accounts for every lookup.
  DsaOptions dopts;
  dopts.num_threads = 4;
  DsaDatabase hammer_db(fx.frag.get(), dopts);
  BatchExecutor executor(&hammer_db);

  std::vector<Query> batch = expected.queries;
  constexpr size_t kRounds = 3;
  std::vector<BatchStats> stats(kThreads * kRounds);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t round = 0; round < kRounds; ++round) {
        const BatchResult result = executor.Execute(batch);
        stats[t * kRounds + round] = result.stats;
        for (size_t i = 0; i < batch.size(); ++i) {
          if (result.answers[i].answer.cost != expected.costs[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);

  size_t batch_hits = 0, batch_misses = 0;
  for (const BatchStats& s : stats) {
    EXPECT_EQ(s.interned_plan_hits + s.interned_plan_misses,
              s.plan_memo_misses);
    batch_hits += s.interned_plan_hits;
    batch_misses += s.interned_plan_misses;
  }
  const LruCacheStats cache_stats = hammer_db.plan_cache()->PlanStats();
  EXPECT_EQ(cache_stats.hits, batch_hits);
  EXPECT_EQ(cache_stats.misses, batch_misses);
  // After the first full round every pair is interned; most lookups hit.
  EXPECT_GT(batch_hits, batch_misses);
}

TEST(Concurrency, ServiceShutdownRacesSubmitters) {
  // Shutdown while producers are still submitting: every future must
  // either carry the correct answer (admitted before the stop flag) or
  // throw the shutdown error — never hang, never a wrong answer.
  Fixture fx(106);
  const Expected expected = Precompute(*fx.db, 60, 13);

  ServiceOptions opts;
  opts.max_batch = 8;
  opts.max_wait = std::chrono::microseconds(100);
  QueryService service(fx.db.get(), opts);

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> rejected_after_stop{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t round = 0; round < 4; ++round) {
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          const size_t j = (i + t * 7) % expected.queries.size();
          const Query& q = expected.queries[j];
          std::future<Weight> future =
              service.SubmitShortestPath(q.from, q.to);
          try {
            if (future.get() != expected.costs[j]) ++mismatches;
          } catch (const std::runtime_error&) {
            ++rejected_after_stop;
          }
        }
      }
    });
  }
  // Let some traffic through, then pull the plug mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);  // drained, nothing dropped
}

TEST(Concurrency, PlanCacheUnderContention) {
  // A tiny-capacity cache forces constant eviction while 8 threads look up
  // overlapping fragment pairs; every returned chain list must equal the
  // uncached FindChains answer.
  Fixture fx(104, /*cyclic=*/true);
  const Fragmentation& frag = *fx.frag;
  ChainPlanCache cache(2);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const size_t n = frag.NumFragments();
      for (size_t round = 0; round < 50; ++round) {
        const FragmentId a = static_cast<FragmentId>((round + t) % n);
        const FragmentId b = static_cast<FragmentId>((round * 3 + t) % n);
        auto chains = cache.ChainsBetween(frag, a, b, 64);
        if (*chains != FindChains(frag, a, b, 64)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 50u);
  EXPECT_LE(stats.entries, 2u);
}

}  // namespace
}  // namespace tcf
