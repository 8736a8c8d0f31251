#include "dsa/query_api.h"

namespace tcf {

DsaDatabase::DsaDatabase(const Fragmentation* frag, DsaOptions options)
    : frag_(frag), options_(options) {
  TCF_CHECK(frag != nullptr);
  if (options_.use_complementary) {
    complementary_ = PrecomputeComplementary(*frag_);
  } else {
    complementary_.shortcuts.resize(frag_->NumFragments());
  }
  const size_t threads = options_.num_threads > 0 ? options_.num_threads
                                                  : frag_->NumFragments();
  pool_ = std::make_shared<ThreadPool>(threads);
  if (options_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<ChainPlanCache>(
        options_.plan_cache_capacity, options_.interned_plan_cache_capacity);
  }
}

DsaDatabase::DsaDatabase(const Fragmentation* frag, DsaOptions options,
                         EpochCarryover carry)
    : frag_(frag), options_(options), epoch_(carry.epoch) {
  TCF_CHECK(frag != nullptr);
  if (options_.use_complementary) {
    complementary_ = std::move(carry.complementary);
    TCF_CHECK_MSG(complementary_.shortcuts.size() == frag_->NumFragments(),
                  "epoch carryover does not match the fragmentation");
  } else {
    complementary_.shortcuts.resize(frag_->NumFragments());
  }
  if (carry.pool != nullptr) {
    pool_ = std::move(carry.pool);
  } else {
    const size_t threads = options_.num_threads > 0 ? options_.num_threads
                                                    : frag_->NumFragments();
    pool_ = std::make_shared<ThreadPool>(threads);
  }
  if (options_.plan_cache_capacity > 0) {
    if (carry.plan_cache != nullptr) {
      plan_cache_ = std::move(carry.plan_cache);
    } else {
      plan_cache_ = std::make_unique<ChainPlanCache>(
          options_.plan_cache_capacity,
          options_.interned_plan_cache_capacity);
    }
  }
}

QueryPlan DsaDatabase::Plan(NodeId from, NodeId to, SpecSink* specs) const {
  return BuildQueryPlan(*frag_, from, to, options_.max_chains,
                        plan_cache_.get(), specs);
}

QueryAnswer DsaDatabase::ShortestPath(NodeId from, NodeId to,
                                      ExecutionReport* report) const {
  TCF_CHECK(from < frag_->graph().NumNodes());
  TCF_CHECK(to < frag_->graph().NumNodes());
  if (from == to) {
    QueryAnswer answer;
    answer.connected = true;
    answer.cost = 0.0;
    return answer;
  }

  const ComplementaryInfo* comp =
      options_.use_complementary ? &complementary_ : nullptr;
  SpecTable specs;
  QueryPlan plan = Plan(from, to, &specs);
  if (plan.chains.empty()) {
    QueryAnswer answer;
    answer.chains_considered = 0;
    return answer;
  }

  std::vector<LocalQueryResult> results = RunSites(
      *frag_, comp, specs.specs(), options_.engine, pool_.get(), report);
  return AssembleCostAnswer(*frag_, plan, specs.specs(), from, to, results,
                            report);
}

RouteAnswer DsaDatabase::ShortestRoute(NodeId from, NodeId to,
                                       ExecutionReport* report) const {
  TCF_CHECK(from < frag_->graph().NumNodes());
  TCF_CHECK(to < frag_->graph().NumNodes());
  TCF_CHECK_MSG(options_.use_complementary,
                "route reconstruction requires complementary information");
  if (from == to) {
    RouteAnswer out;
    out.answer.connected = true;
    out.answer.cost = 0.0;
    out.route = {from};
    return out;
  }

  SpecTable specs;
  QueryPlan plan = Plan(from, to, &specs);
  if (plan.chains.empty()) return RouteAnswer{};

  std::vector<LocalQueryResult> results =
      RunSites(*frag_, &complementary_, specs.specs(), options_.engine,
               pool_.get(), report);
  return AssembleRouteAnswer(*frag_, complementary_, plan, specs.specs(),
                             from, to, results, report);
}

bool DsaDatabase::IsConnected(NodeId from, NodeId to,
                              ExecutionReport* report) const {
  return ShortestPath(from, to, report).connected;
}

}  // namespace tcf
