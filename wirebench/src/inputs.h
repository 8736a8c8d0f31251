// Workload inputs for wirebench, generated from one seed. Everything the
// program under test receives (graph, query stream, arrival schedule,
// update script) is built here, deterministically: the same (workload,
// seed, seconds) always yields byte-identical inputs (checked by
// self_test.cc). The oracle helpers that check replies live here too,
// because they read the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "fragment/fragmentation.h"
#include "graph/graph.h"

namespace wirebench {

enum class Workload { kTrickle, kRush, kChurn, kPaged };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// trickle/churn serve the tcfragd default graph (4 x 25, linear into 4);
/// rush/paged serve the 8 x 300 natural-cluster ring.
bool UsesLargeGraph(Workload w);

/// Churn's read stream draws 90% of its queries from this many hot pairs
/// (half of the draws reversed), the rest uniformly. Thirty-two pairs
/// repeat within a micro-batch, so the plan memo works as well.
constexpr size_t kChurnHotPairs = 32;

/// Fixed load parameters per workload (see README.md for the reasons).
struct LoadShape {
  /// Open-loop query rate (trickle); 0 = closed loop.
  double query_rate = 0.0;
  /// Closed-loop connections and in-flight requests per connection.
  size_t read_connections = 0;
  size_t depth = 0;
  /// Open-loop update rate on its own connection (churn); 0 = none.
  double update_rate = 0.0;
  /// Target length of one measured round (see main.cc): long enough for
  /// 1,000 latency samples, so each round has its own p99.
  double round_s = 2.0;
  /// Stream lengths: a closed-loop run that exhausts its stream wraps.
  size_t num_queries = 0;
  size_t num_updates = 0;
};

/// `seconds` is the whole driven time (warm-up plus measured window).
LoadShape ShapeFor(Workload w, double seconds, size_t hardware_threads);

struct Inputs {
  Workload workload = Workload::kTrickle;
  std::shared_ptr<const tcf::Graph> graph;
  /// Generator cluster of each node (the natural partition).
  std::vector<int> cluster_of_node;
  size_t num_clusters = 0;

  std::vector<tcf::Query> queries;
  /// Open-loop send offsets in seconds (trickle), else empty.
  std::vector<double> query_arrivals;
  /// Churn's update script, applied in order; stationary by construction.
  std::vector<tcf::EdgeUpdate> updates;
  /// Uniform pairs for the crossover reference and the churn sweep.
  std::vector<tcf::Query> probe_pairs;
};

Inputs GenerateInputs(Workload w, uint64_t seed, const LoadShape& shape);

/// The workload's fragmentation, exactly as the serving stack builds it.
tcf::Fragmentation FragmentInputs(const Inputs& in);

/// Every input field serialized to bytes (for the determinism test).
std::string SerializeInputs(const Inputs& in);

/// The equality the test suites assert for costs.
bool SameCost(double got, double want);

/// Whole-graph Dijkstra cost of every query, one Dijkstra per distinct
/// source, spread over up to `threads` threads.
std::vector<double> OracleCosts(const tcf::Graph& g,
                                const std::vector<tcf::Query>& queries,
                                size_t threads);

/// The graph after applying `updates[0, count)` to `base` in order, with
/// MaintainedDatabase's semantics (reweight/delete touch every (src, dst)
/// tuple; insert appends one).
tcf::Graph ReplayUpdates(const tcf::Graph& base,
                         const std::vector<tcf::EdgeUpdate>& updates,
                         size_t count);

/// Churn reads cannot know which epoch answered them, so each reply is
/// checked against bounds every epoch satisfies: `lo` is the cost with
/// every reweightable pair at its band minimum and every scripted insert
/// present, `hi` with every pair at its band maximum and no insert.
struct CostBounds {
  std::vector<double> lo;
  std::vector<double> hi;
};
CostBounds ChurnBounds(const Inputs& in, size_t threads);

}  // namespace wirebench
