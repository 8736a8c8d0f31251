// Tests for the message-passing site simulation: protocol correctness
// (answers equal the oracle), the phase-1 no-communication property, and
// the Channel primitive it is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "dsa/sites.h"
#include "fragment/bond_energy.h"
#include "fragment/linear.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "util/channel.h"

namespace tcf {
namespace {

// ----------------------------------------------------------------- Channel

TEST(Channel, SendReceiveInOrder) {
  Channel<int> ch;
  ch.Send(1);
  ch.Send(2);
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_EQ(ch.Receive(), 2);
}

TEST(Channel, TryReceiveEmpty) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryReceive().has_value());
  ch.Send(7);
  EXPECT_EQ(ch.TryReceive(), 7);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch;
  ch.Send(1);
  ch.Close();
  EXPECT_FALSE(ch.Send(2));  // dropped
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_FALSE(ch.Receive().has_value());
  EXPECT_TRUE(ch.closed());
}

TEST(Channel, BlockingReceiveWakesOnSend) {
  Channel<int> ch;
  std::atomic<int> got{0};
  std::thread receiver([&]() {
    auto v = ch.Receive();
    got = v.value_or(-1);
  });
  ch.Send(42);
  receiver.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(Channel, ManyProducersOneConsumer) {
  Channel<int> ch;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&ch, p]() {
      for (int i = 0; i < 50; ++i) ch.Send(p * 100 + i);
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.size(), 200u);
  int received = 0;
  while (ch.TryReceive().has_value()) ++received;
  EXPECT_EQ(received, 200);
}

// ------------------------------------------------------------- SiteNetwork

TransportationGraph MakeTransport(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 48;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng);
}

TEST(SiteNetwork, SpawnsOneSitePerFragment) {
  auto t = MakeTransport(1);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);
  EXPECT_EQ(net.NumSites(), frag.NumFragments());
}

TEST(SiteNetwork, AnswersMatchOracle) {
  auto t = MakeTransport(2);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  SiteNetwork net(&frag);
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    const Weight got = net.ShortestPathCost(s, u);
    if (oracle == kInfinity) {
      EXPECT_EQ(got, kInfinity);
    } else {
      EXPECT_NEAR(got, oracle, 1e-9) << s << "->" << u;
    }
  }
}

TEST(SiteNetwork, Phase1HasNoInterSiteCommunication) {
  auto t = MakeTransport(3);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);
  SiteTraffic traffic;
  net.ShortestPathCost(0, static_cast<NodeId>(t.graph.NumNodes() - 1),
                       &traffic);
  EXPECT_EQ(traffic.inter_site_messages, 0u);  // the paper's property
  EXPECT_GT(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, traffic.subquery_messages);
}

TEST(SiteNetwork, TrafficIsSmall) {
  // The point of the approach: what crosses the network are the small
  // border-to-border relations, not fragments.
  auto t = MakeTransport(4);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  SiteNetwork net(&frag);
  SiteTraffic traffic;
  net.ShortestPathCost(0, static_cast<NodeId>(t.graph.NumNodes() - 1),
                       &traffic);
  EXPECT_LT(traffic.result_tuples, t.graph.NumEdges() / 4);
}

TEST(SiteNetwork, IntraFragmentQueryUsesOneSite) {
  auto t = MakeTransport(5);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);
  // Two interior nodes of fragment 0.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId v : frag.FragmentNodes(0)) {
    if (frag.IsBorderNode(v)) continue;
    if (a == kInvalidNode) {
      a = v;
    } else {
      b = v;
      break;
    }
  }
  ASSERT_NE(b, kInvalidNode);
  SiteTraffic traffic;
  net.ShortestPathCost(a, b, &traffic);
  EXPECT_EQ(traffic.subquery_messages, 1u);
}

TEST(SiteNetwork, BatchedFanOutHasNoInterSiteCommunication) {
  // The paper's phase-1 property must survive batching: a whole batch is
  // one fan-out of independent subqueries, and sites still never talk to
  // each other — only coordinator -> site and site -> coordinator.
  auto t = MakeTransport(7);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  SiteNetwork net(&frag);

  Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 20; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())));
  }
  queries.emplace_back(3, 3);                  // trivial
  queries.push_back(queries.front());          // exact repeat: pure sharing

  SiteTraffic traffic;
  const std::vector<Weight> got = net.BatchShortestPathCosts(queries, &traffic);
  ASSERT_EQ(got.size(), queries.size());
  EXPECT_EQ(traffic.inter_site_messages, 0u);  // the paper's property
  EXPECT_GT(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, traffic.subquery_messages);

  // Element-wise identical to the single-query protocol, whose fan-outs
  // must also stay phase-1 silent; batching the queries must cost *fewer*
  // messages than issuing them one by one (cross-query dedup).
  size_t single_messages = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SiteTraffic single;
    const Weight want =
        net.ShortestPathCost(queries[i].first, queries[i].second, &single);
    EXPECT_EQ(single.inter_site_messages, 0u) << "query " << i;
    EXPECT_EQ(single.result_messages, single.subquery_messages)
        << "query " << i;
    single_messages += single.subquery_messages;
    if (want == kInfinity) {
      EXPECT_EQ(got[i], kInfinity) << "query " << i;
    } else {
      EXPECT_NEAR(got[i], want, 1e-9) << "query " << i;
    }
  }
  EXPECT_LT(traffic.subquery_messages, single_messages);
}

TEST(SiteNetwork, BatchAnswersMatchOracle) {
  auto t = MakeTransport(8);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);

  Rng rng(13);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 15; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())));
  }
  SiteTraffic traffic;
  const std::vector<Weight> got = net.BatchShortestPathCosts(queries, &traffic);
  EXPECT_EQ(traffic.inter_site_messages, 0u);
  EXPECT_EQ(traffic.result_messages, traffic.subquery_messages);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [s, u] = queries[i];
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    if (oracle == kInfinity) {
      EXPECT_EQ(got[i], kInfinity) << s << "->" << u;
    } else {
      EXPECT_NEAR(got[i], oracle, 1e-9) << s << "->" << u;
    }
  }
}

TEST(SiteNetwork, EmptyBatchIsANoop) {
  auto t = MakeTransport(9);
  LinearOptions lopts;
  lopts.num_fragments = 2;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);
  SiteTraffic traffic;
  EXPECT_TRUE(net.BatchShortestPathCosts({}, &traffic).empty());
  EXPECT_EQ(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, 0u);
  EXPECT_EQ(traffic.inter_site_messages, 0u);
}

TEST(SiteNetwork, SelfAndDisconnected) {
  GraphBuilder gb(4);
  gb.AddSymmetricEdge(0, 1);
  gb.AddSymmetricEdge(2, 3);
  Graph g = gb.Build();
  Fragmentation frag(&g, {0, 0, 1, 1}, 2);
  SiteNetwork net(&frag);
  EXPECT_DOUBLE_EQ(net.ShortestPathCost(1, 1), 0.0);
  EXPECT_EQ(net.ShortestPathCost(0, 3), kInfinity);
}

TEST(SiteNetwork, ConcurrentQueriesFromManyThreads) {
  // The coordinator is mutex-guarded: queries and batches may be issued
  // from any number of threads, and every answer must still match the
  // oracle — no crossed request ids, no inbox mixups.
  auto t = MakeTransport(10);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  SiteNetwork net(&frag);

  // Sequentially precomputed expected answers.
  Rng rng(17);
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<Weight> expected;
  for (int i = 0; i < 24; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    queries.emplace_back(s, u);
    expected.push_back(s == u ? 0.0 : Dijkstra(t.graph, s).distance[u]);
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t th = 0; th < 8; ++th) {
    threads.emplace_back([&, th]() {
      if (th % 2 == 0) {
        // Single-query threads, each walking from its own offset.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t j = (i + th * 5) % queries.size();
          const Weight got =
              net.ShortestPathCost(queries[j].first, queries[j].second);
          if (!(got == expected[j] ||
                std::abs(got - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      } else {
        // Whole-batch threads racing the single-query threads.
        const std::vector<Weight> got = net.BatchShortestPathCosts(queries);
        for (size_t j = 0; j < queries.size(); ++j) {
          if (!(got[j] == expected[j] ||
                std::abs(got[j] - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SiteNetwork, ManySequentialQueries) {
  auto t = MakeTransport(6);
  LinearOptions lopts;
  lopts.num_fragments = 3;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  SiteNetwork net(&frag);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    const Weight got = net.ShortestPathCost(s, u);
    if (oracle == kInfinity) {
      EXPECT_EQ(got, kInfinity);
    } else {
      EXPECT_NEAR(got, oracle, 1e-9);
    }
  }
}

}  // namespace
}  // namespace tcf
