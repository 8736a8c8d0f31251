#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "dsa/workload.h"
#include "fragment/linear.h"
#include "fragment/node_partition.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "util/rng.h"

namespace wirebench {

using tcf::EdgeUpdate;
using tcf::Graph;
using tcf::NodeId;
using tcf::Query;

namespace {

// Large graph: the storage_io shape (8 clusters of 300 nodes, a ring with
// 8 undirected links per edge, ~4 edge tuples per node inside a cluster).
constexpr size_t kLargeClusters = 8;
constexpr size_t kLargeNodesPerCluster = 300;
constexpr size_t kLargeLinksPerRingEdge = 8;

// Churn's update script: the reweight band around each pair's initial
// weight, and how far behind its insert each delete follows.
constexpr double kBandLow = 0.5;
constexpr double kBandHigh = 1.5;
constexpr size_t kScriptPeriod = 10;
constexpr size_t kInsertSlot = 3;
constexpr size_t kDeleteSlot = 8;

constexpr size_t kProbePairs = 200;

// Churn's read stream: the share of queries drawn from the hot pairs and
// the share of those draws sent reversed.
constexpr double kChurnHotFraction = 0.9;
constexpr double kChurnReverseFraction = 0.5;

// Both graphs are fixed: the seed tcfragd and bench/storage_io generate
// them with. The workload seed drives everything sent to the server.
constexpr uint64_t kGraphSeed = 7;

tcf::TransportationGraphOptions GraphOptions(Workload w) {
  tcf::TransportationGraphOptions opts;
  if (!UsesLargeGraph(w)) {
    // tcfragd's defaults: 4 x 25 nodes, 100 edge tuples per cluster, the
    // generator's default ring.
    opts.num_clusters = 4;
    opts.nodes_per_cluster = 25;
    opts.target_edges_per_cluster = 100.0;
    return opts;
  }
  opts.num_clusters = kLargeClusters;
  opts.nodes_per_cluster = kLargeNodesPerCluster;
  opts.target_edges_per_cluster = 4.0 * kLargeNodesPerCluster;
  for (size_t c = 0; c < kLargeClusters; ++c) {
    opts.links.push_back(
        tcf::InterClusterLink{c, (c + 1) % kLargeClusters,
                              kLargeLinksPerRingEdge});
  }
  return opts;
}

uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Smallest initial weight of every (src, dst) pair, in pair order.
std::map<uint64_t, double> BaseWeights(const Graph& g) {
  std::map<uint64_t, double> base;
  for (const tcf::Edge& e : g.edges()) {
    auto [it, inserted] = base.emplace(PairKey(e.src, e.dst), e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }
  return base;
}

/// Stationary update script: per period of ten ops, one insert of a fresh
/// intra-cluster edge, one delete of the edge inserted five ops earlier,
/// and eight reweights of initial pairs inside [0.5, 1.5] x base weight.
std::vector<EdgeUpdate> UpdateScript(const Inputs& in, size_t count,
                                     tcf::Rng* rng) {
  const Graph& g = *in.graph;
  const std::map<uint64_t, double> base = BaseWeights(g);
  const std::vector<std::pair<uint64_t, double>> pairs(base.begin(),
                                                       base.end());
  std::vector<std::vector<NodeId>> members(in.num_clusters);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    members[static_cast<size_t>(in.cluster_of_node[v])].push_back(v);
  }

  std::vector<EdgeUpdate> script;
  script.reserve(count);
  std::set<uint64_t> live_inserts;
  std::vector<EdgeUpdate> pending_deletes;  // FIFO of inserted edges
  for (size_t i = 0; i < count; ++i) {
    const size_t slot = i % kScriptPeriod;
    if (slot == kInsertSlot) {
      while (true) {
        const auto& cluster = members[rng->NextBounded(members.size())];
        const NodeId a = cluster[rng->NextBounded(cluster.size())];
        const NodeId b = cluster[rng->NextBounded(cluster.size())];
        const uint64_t key = PairKey(a, b);
        if (a == b || base.count(key) != 0 || live_inserts.count(key) != 0) {
          continue;
        }
        const double w = tcf::Distance(g.coordinate(a), g.coordinate(b)) *
                         rng->NextDouble(0.8, 1.2);
        script.push_back(EdgeUpdate::Insert(a, b, w));
        live_inserts.insert(key);
        pending_deletes.push_back(EdgeUpdate::Delete(a, b));
        break;
      }
    } else if (slot == kDeleteSlot) {
      const EdgeUpdate del = pending_deletes.front();
      pending_deletes.erase(pending_deletes.begin());
      live_inserts.erase(PairKey(del.src, del.dst));
      script.push_back(del);
    } else {
      const auto& [key, w0] = pairs[rng->NextBounded(pairs.size())];
      script.push_back(EdgeUpdate::Reweight(
          static_cast<NodeId>(key >> 32), static_cast<NodeId>(key),
          w0 * rng->NextDouble(kBandLow, kBandHigh)));
    }
  }
  return script;
}

/// Churn's read stream, the library's hot-pair mix with a stratified hot
/// set: hot pair i joins a node of fragment i mod F to a distinct node of
/// fragment (i / F) mod F, so every ordered fragment pair holds as many
/// hot pairs and every seed gets the same mix of chain lengths. Drawn
/// uniformly instead, the 32 hot pairs of one seed gave a fifth more q/s
/// than those of another, run after run.
std::vector<Query> ChurnStream(const tcf::Fragmentation& frag, size_t count,
                               tcf::Rng* rng) {
  const size_t fragments = frag.NumFragments();
  const auto node_of = [&](size_t f) {
    const std::vector<NodeId>& nodes =
        frag.FragmentNodes(static_cast<tcf::FragmentId>(f % fragments));
    return nodes[rng->NextBounded(nodes.size())];
  };
  std::vector<Query> hot;
  for (size_t i = 0; i < kChurnHotPairs; ++i) {
    const NodeId from = node_of(i);
    NodeId to = node_of(i / fragments);
    while (to == from) to = node_of(i / fragments);
    hot.push_back(Query{from, to});
  }
  const size_t nodes = frag.graph().NumNodes();
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!rng->NextBool(kChurnHotFraction)) {
      const NodeId from = static_cast<NodeId>(rng->NextBounded(nodes));
      queries.push_back(
          Query{from, static_cast<NodeId>(rng->NextBounded(nodes))});
      continue;
    }
    const Query& q = hot[rng->NextBounded(hot.size())];
    queries.push_back(rng->NextBool(kChurnReverseFraction) ? Query{q.to, q.from}
                                                          : q);
  }
  return queries;
}

template <typename T>
void Append(std::string* out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

/// Runs `fn(i)` for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelIndices(size_t n, size_t threads, Fn fn) {
  threads = std::max<size_t>(1, std::min(threads, n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace

std::vector<double> OracleCosts(const Graph& g,
                                const std::vector<Query>& queries,
                                size_t threads) {
  std::map<NodeId, std::vector<size_t>> by_source;
  for (size_t i = 0; i < queries.size(); ++i) {
    by_source[queries[i].from].push_back(i);
  }
  const std::vector<std::pair<NodeId, std::vector<size_t>>> groups(
      by_source.begin(), by_source.end());
  std::vector<double> costs(queries.size(), tcf::kInfinity);
  ParallelIndices(groups.size(), threads, [&](size_t k) {
    const auto& [source, indices] = groups[k];
    const tcf::ShortestPaths paths = tcf::Dijkstra(g, source);
    for (size_t i : indices) costs[i] = paths.distance[queries[i].to];
  });
  return costs;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kTrickle, Workload::kRush, Workload::kChurn,
                     Workload::kPaged}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kTrickle: return "trickle";
    case Workload::kRush: return "rush";
    case Workload::kChurn: return "churn";
    case Workload::kPaged: return "paged";
  }
  return "?";
}

bool UsesLargeGraph(Workload w) {
  return w == Workload::kRush || w == Workload::kPaged;
}

LoadShape ShapeFor(Workload w, double seconds, size_t hardware_threads) {
  // Load threads plus the client library's receive threads (one per
  // connection) stay within the hardware threads, at most four.
  const size_t budget = std::clamp<size_t>(hardware_threads, 2, 4);
  LoadShape shape;
  switch (w) {
    case Workload::kTrickle:
      shape.query_rate = 250.0;
      shape.round_s = 5.0;
      shape.num_queries =
          static_cast<size_t>(std::ceil(shape.query_rate * seconds)) + 1;
      break;
    case Workload::kRush:
    case Workload::kPaged:
      shape.read_connections = budget / 2;
      shape.depth = 128;
      shape.num_queries = static_cast<size_t>(6000.0 * seconds);
      break;
    case Workload::kChurn:
      // One load thread drives two read connections and the update
      // connection; with their three receive threads that makes four.
      // 256 reads in flight keep four full micro-batches queued, as on
      // rush; a shallower pipeline leaves the run at the mercy of thread
      // wake-ups and spread twice as wide between identical runs. A
      // connection answers in order, so with all 256 reads on one, a
      // batch stalled by the host held back every later reply: in
      // alternating runs on a busy host, one connection read 5.6k-11.0k
      // q/s where two read 12.8k-18.2k.
      shape.read_connections = 2;
      shape.depth = 128;
      shape.num_queries = static_cast<size_t>(30000.0 * seconds);
      shape.update_rate = 250.0;
      shape.num_updates =
          static_cast<size_t>(std::ceil(shape.update_rate * seconds)) + 1;
      break;
  }
  return shape;
}

Inputs GenerateInputs(Workload w, uint64_t seed, const LoadShape& shape) {
  tcf::Rng graph_rng(kGraphSeed);
  tcf::Rng root(seed);
  tcf::Rng query_rng = root.Fork();
  tcf::Rng arrival_rng = root.Fork();
  tcf::Rng update_rng = root.Fork();
  tcf::Rng probe_rng = root.Fork();

  Inputs in;
  in.workload = w;
  const tcf::TransportationGraphOptions opts = GraphOptions(w);
  tcf::TransportationGraph t =
      tcf::GenerateTransportationGraph(opts, &graph_rng);
  in.graph = std::make_shared<const Graph>(std::move(t.graph));
  in.cluster_of_node = std::move(t.cluster_of_node);
  in.num_clusters = opts.num_clusters;

  const tcf::Fragmentation frag = FragmentInputs(in);
  if (w == Workload::kChurn) {
    in.queries = ChurnStream(frag, shape.num_queries, &query_rng);
  } else {
    tcf::WorkloadSpec spec;
    spec.num_queries = shape.num_queries;
    in.queries = tcf::GenerateWorkload(frag, spec, &query_rng);
  }
  if (shape.query_rate > 0.0) {
    tcf::WorkloadSpec arrivals;
    arrivals.num_queries = shape.num_queries;
    arrivals.arrival_rate_qps = shape.query_rate;
    in.query_arrivals = tcf::GenerateArrivalTimes(arrivals, &arrival_rng);
  }
  if (shape.num_updates > 0) {
    in.updates = UpdateScript(in, shape.num_updates, &update_rng);
  }
  tcf::WorkloadSpec probes;
  probes.num_queries = kProbePairs;
  in.probe_pairs = tcf::GenerateWorkload(frag, probes, &probe_rng);
  return in;
}

tcf::Fragmentation FragmentInputs(const Inputs& in) {
  if (UsesLargeGraph(in.workload)) {
    return tcf::FragmentationFromNodePartition(*in.graph, in.cluster_of_node,
                                               in.num_clusters);
  }
  tcf::LinearOptions lopts;
  lopts.num_fragments = 4;
  return tcf::LinearFragmentation(*in.graph, lopts).fragmentation;
}

std::string SerializeInputs(const Inputs& in) {
  std::string out;
  Append(&out, static_cast<uint64_t>(in.graph->NumNodes()));
  for (const tcf::Edge& e : in.graph->edges()) {
    Append(&out, e.src);
    Append(&out, e.dst);
    Append(&out, e.weight);
  }
  for (int c : in.cluster_of_node) Append(&out, c);
  for (const std::vector<Query>* qs : {&in.queries, &in.probe_pairs}) {
    Append(&out, static_cast<uint64_t>(qs->size()));
    for (const Query& q : *qs) {
      Append(&out, q.from);
      Append(&out, q.to);
    }
  }
  for (double t : in.query_arrivals) Append(&out, t);
  for (const EdgeUpdate& u : in.updates) {
    Append(&out, static_cast<int>(u.kind));
    Append(&out, u.src);
    Append(&out, u.dst);
    Append(&out, u.weight);
  }
  return out;
}

bool SameCost(double got, double want) {
  return got == want || std::abs(got - want) < 1e-9;
}

Graph ReplayUpdates(const Graph& base, const std::vector<EdgeUpdate>& updates,
                    size_t count) {
  std::vector<tcf::Edge> edges = base.edges();
  for (size_t i = 0; i < count; ++i) {
    const EdgeUpdate& u = updates[i];
    switch (u.kind) {
      case EdgeUpdate::Kind::kInsert:
        edges.push_back(tcf::Edge{u.src, u.dst, u.weight});
        break;
      case EdgeUpdate::Kind::kDelete:
        std::erase_if(edges, [&](const tcf::Edge& e) {
          return e.src == u.src && e.dst == u.dst;
        });
        break;
      case EdgeUpdate::Kind::kReweight:
        for (tcf::Edge& e : edges) {
          if (e.src == u.src && e.dst == u.dst) e.weight = u.weight;
        }
        break;
    }
  }
  tcf::GraphBuilder builder(base.NumNodes());
  for (const tcf::Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return builder.Build();
}

CostBounds ChurnBounds(const Inputs& in, size_t threads) {
  const std::map<uint64_t, double> base = BaseWeights(*in.graph);
  tcf::GraphBuilder lo(in.graph->NumNodes());
  tcf::GraphBuilder hi(in.graph->NumNodes());
  for (const auto& [key, w0] : base) {
    const NodeId src = static_cast<NodeId>(key >> 32);
    const NodeId dst = static_cast<NodeId>(key);
    lo.AddEdge(src, dst, w0 * kBandLow);
    hi.AddEdge(src, dst, w0 * kBandHigh);
  }
  for (const EdgeUpdate& u : in.updates) {
    if (u.kind == EdgeUpdate::Kind::kInsert) lo.AddEdge(u.src, u.dst, u.weight);
  }
  const Graph lo_graph = lo.Build();
  const Graph hi_graph = hi.Build();
  return CostBounds{OracleCosts(lo_graph, in.queries, threads),
                    OracleCosts(hi_graph, in.queries, threads)};
}

}  // namespace wirebench
