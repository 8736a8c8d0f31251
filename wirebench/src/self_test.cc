// The benchmark's own tests: generated inputs are a pure function of the
// seed, and the fragment.* counts repeat exactly. Exits nonzero on the
// first failed check. Run with `python3 wirebench/run.py --self-test`.
#include <cstdio>
#include <string>

#include "fragment/metrics.h"
#include "inputs.h"

using namespace wirebench;

namespace {

int failures = 0;

void Check(bool holds, const std::string& what) {
  std::printf("%s  %s\n", holds ? "ok  " : "FAIL", what.c_str());
  if (!holds) ++failures;
}

}  // namespace

int main() {
  constexpr double kSeconds = 2.0;
  for (Workload w : {Workload::kTrickle, Workload::kRush, Workload::kChurn,
                     Workload::kPaged}) {
    const std::string name = WorkloadName(w);
    const LoadShape shape = ShapeFor(w, kSeconds, 4);
    const std::string a = SerializeInputs(GenerateInputs(w, 1, shape));
    const std::string b = SerializeInputs(GenerateInputs(w, 1, shape));
    const std::string c = SerializeInputs(GenerateInputs(w, 2, shape));
    Check(a == b, name + ": same seed gives byte-identical inputs");
    Check(a != c, name + ": a different seed gives different inputs");

    const Inputs first = GenerateInputs(w, 7, shape);
    const Inputs second = GenerateInputs(w, 7, shape);
    const tcf::FragmentationCharacteristics x =
        tcf::ComputeCharacteristics(FragmentInputs(first));
    const tcf::FragmentationCharacteristics y =
        tcf::ComputeCharacteristics(FragmentInputs(second));
    Check(x.avg_ds_nodes == y.avg_ds_nodes &&
              x.dev_fragment_edges == y.dev_fragment_edges &&
              x.total_border_nodes == y.total_border_nodes &&
              x.num_fragments == y.num_fragments,
          name + ": fragment.* counts repeat exactly");
  }
  // The churn script keeps the graph stationary: replaying the whole
  // script leaves exactly the initial edge count (every insert deleted or
  // still pending, never more than one period's worth).
  {
    const LoadShape shape = ShapeFor(Workload::kChurn, kSeconds, 4);
    const Inputs in = GenerateInputs(Workload::kChurn, 3, shape);
    const size_t full_periods = in.updates.size() / 10 * 10;
    const tcf::Graph replayed =
        ReplayUpdates(*in.graph, in.updates, full_periods);
    Check(replayed.NumEdges() == in.graph->NumEdges(),
          "churn: every scripted insert is deleted within its period");
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
