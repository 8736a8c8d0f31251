#include "trace.h"

namespace wirebench {

TracedBackend::TracedBackend(tcf::MaintainedDatabase* mdb)
    : inner_(mdb), mdb_(mdb) {
  batch_spans_.reserve(1 << 16);
  epoch_spans_.reserve(1 << 12);
}

std::vector<tcf::Result<tcf::Weight>> TracedBackend::ExecuteBatch(
    const std::vector<tcf::Query>& queries) {
  const Clock::time_point start = Clock::now();
  std::vector<tcf::Result<tcf::Weight>> answers = inner_.ExecuteBatch(queries);
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  batch_spans_.push_back(BatchSpan{start, end, queries.size()});
  return answers;
}

uint64_t TracedBackend::ApplyUpdates(
    const std::vector<tcf::EdgeUpdate>& updates) {
  const Clock::time_point start = Clock::now();
  const tcf::EpochStats stats = mdb_->ApplyEpoch(updates);
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_spans_.push_back(EpochSpan{start, end, updates.size(), stats});
  return stats.epoch;
}

std::vector<BatchSpan> TracedBackend::batch_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batch_spans_;
}

std::vector<EpochSpan> TracedBackend::epoch_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_spans_;
}

}  // namespace wirebench
