// Relational algebra operators over path relations. These are the physical
// operators the transitive-closure strategies are built from; the
// disconnection set approach additionally uses them directly for the final
// assembly ("a sequence of binary joins between a number of very small
// relations", Sec. 2.1).
#pragma once

#include <functional>
#include <unordered_set>
#include <vector>

#include "relational/relation.h"

namespace tcf {

/// Node-set selection predicate helper.
using NodeSet = std::unordered_set<NodeId>;

/// sigma_{src in set}(r)
Relation SelectBySrc(const Relation& r, const NodeSet& set);
/// sigma_{dst in set}(r)
Relation SelectByDst(const Relation& r, const NodeSet& set);
/// Generic selection.
Relation Select(const Relation& r,
                const std::function<bool(const PathTuple&)>& pred);

/// Min-plus composition join:
///   left ⋈ right = { (l.src, r.dst, l.cost + r.cost) | l.dst = r.src },
/// followed by min-aggregation per (src, dst). This is one expansion step
/// of the shortest-path transitive closure. `join_tuples_out`, if non-null,
/// receives the pre-aggregation join cardinality (workload accounting).
Relation JoinMinPlus(const Relation& left, const Relation& right,
                     size_t* join_tuples_out = nullptr);

/// Max-min composition join (the bottleneck / capacity semiring):
///   left ⋈ right = { (l.src, r.dst, min(l.cost, r.cost)) | l.dst = r.src },
/// followed by max-aggregation per (src, dst). One expansion step of the
/// widest-path transitive closure (the paper, Sec. 2.1: complementary
/// information — and hence the closure itself — "is different for each
/// type of path problem").
Relation JoinMaxMin(const Relation& left, const Relation& right,
                    size_t* join_tuples_out = nullptr);

/// Union with min-aggregation per (src, dst).
Relation UnionMin(const Relation& a, const Relation& b);
/// Union with max-aggregation per (src, dst).
Relation UnionMax(const Relation& a, const Relation& b);

/// Tuples of `candidate` that strictly improve on `best`:
///   - reachability semiring: pairs not present in `best` at all;
///   - min-plus: pairs absent or with a strictly smaller cost.
/// This is the semi-naive delta step. `best` is folded by CostPerPair once
/// per call; it has no error channel, so `best` must be readable — the
/// closure engines pass their resident accumulator.
Relation ImprovingTuples(const Relation& candidate, const Relation& best,
                         bool min_plus);

/// Bottleneck delta step: tuples of `candidate` whose capacity strictly
/// exceeds the best known in `best` (same contract on `best`).
Relation ImprovingTuplesMax(const Relation& candidate, const Relation& best);

}  // namespace tcf
