// The traced run's view into the service: a ServiceBackend that forwards
// to the real MaintainedBackend and records one span per ExecuteBatch call
// and one per maintenance epoch. Spans stay in memory; the harness reads
// them when the run ends. Nothing inside src/ is instrumented: every span
// starts and ends in this file, around a call into a public function.
#pragma once

#include <chrono>
#include <mutex>
#include <vector>

#include "dsa/service.h"

namespace wirebench {

using Clock = std::chrono::steady_clock;

struct BatchSpan {
  Clock::time_point start;
  Clock::time_point end;
  size_t queries = 0;
};

struct EpochSpan {
  Clock::time_point start;
  Clock::time_point end;
  size_t updates = 0;
  tcf::EpochStats stats;
};

class TracedBackend : public tcf::ServiceBackend {
 public:
  /// `mdb` must outlive the backend.
  explicit TracedBackend(tcf::MaintainedDatabase* mdb);

  std::vector<tcf::Result<tcf::Weight>> ExecuteBatch(
      const std::vector<tcf::Query>& queries) override;
  bool SupportsUpdates() const override { return true; }
  /// The call MaintainedBackend::ApplyUpdates makes, keeping its stats.
  uint64_t ApplyUpdates(const std::vector<tcf::EdgeUpdate>& updates) override;

  tcf::BatchStats cumulative_stats() const { return inner_.cumulative_stats(); }
  std::vector<BatchSpan> batch_spans() const;
  std::vector<EpochSpan> epoch_spans() const;

 private:
  tcf::MaintainedBackend inner_;
  tcf::MaintainedDatabase* mdb_;
  mutable std::mutex mutex_;  // guards the two span vectors
  std::vector<BatchSpan> batch_spans_;
  std::vector<EpochSpan> epoch_spans_;
};

}  // namespace wirebench
