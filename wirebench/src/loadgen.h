// The load generator: drives a running Server over loopback through
// net::Client, one thread per connection (churn: one thread for all its
// connections, see DriveChurn). Closed loop keeps `depth`
// requests in flight and sends the next only when the oldest returns;
// open loop sends on a fixed schedule and times each request from when it
// was due, so a stall is charged to every request queued behind it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "net/client.h"
#include "trace.h"

namespace wirebench {

/// Driving runs from `start`; requests sent from `measure_start` on and
/// before `end` are the measured ones (earlier ones are warm-up).
struct Window {
  Clock::time_point start;
  Clock::time_point measure_start;
  Clock::time_point end;
};

/// One request as the client saw it. `due` is the scheduled send time
/// (open loop) or the send time (closed loop).
struct RequestRecord {
  Clock::time_point due;
  Clock::time_point done;
  bool ok = false;
};

struct DriveLog {
  std::vector<RequestRecord> records;
  /// Replies that failed their oracle check.
  size_t mismatches = 0;
  /// Open loop: how late each send left against its schedule, seconds.
  std::vector<double> lateness_s;
  /// Update acks in submission order.
  std::vector<uint64_t> epochs;
  /// The stream ran out and restarted from its first query.
  bool wrapped = false;
};

/// True when `cost` is an acceptable answer to query `index`.
using CostCheck = std::function<bool(size_t index, double cost)>;

/// Closed loop: claims query indices from the shared `cursor` (so several
/// connections walk one stream) and keeps `depth` in flight until `end`.
void DriveClosedLoop(tcf::Client* client,
                     const std::vector<tcf::Query>& queries,
                     std::atomic<size_t>* cursor, size_t depth,
                     const Window& window, const CostCheck& check,
                     DriveLog* log);

/// Open loop from query `first` on: query i is due at `window.start +
/// arrivals[i] - arrivals[first]`. Returns the number of queries sent.
size_t DriveOpenQueries(tcf::Client* client,
                        const std::vector<tcf::Query>& queries,
                        const std::vector<double>& arrivals, size_t first,
                        const Window& window, const CostCheck& check,
                        DriveLog* log);

/// Churn's load from one thread: a closed loop of `depth` reads on each
/// of `readers` (they claim indices from `cursor`, as DriveClosedLoop
/// does) beside an open loop of updates on `updater` from update `first`
/// on, update i due at `window.start + (i - first) / rate`. A connection
/// answers in submission order, so a read stalled in one batch holds back
/// its connection's later replies; the other connection's replies are
/// taken up within kPollInterval meanwhile. Returns the number of updates
/// sent.
size_t DriveChurn(const std::vector<tcf::Client*>& readers,
                  const std::vector<tcf::Query>& queries,
                  std::atomic<size_t>* cursor, size_t depth,
                  tcf::Client* updater,
                  const std::vector<tcf::EdgeUpdate>& updates, size_t first,
                  double rate, const Window& window, const CostCheck& check,
                  std::vector<DriveLog>* read_logs, DriveLog* update_log);

/// Latency summary of the measured requests of one or more logs.
struct LatencySummary {
  std::vector<double> latency_s;  // measured requests that succeeded
  size_t attempted = 0;           // measured requests
  size_t failed = 0;              // measured requests that failed
  size_t replies_in_window = 0;   // replies received in the window
  double mean_all_s = 0.0;        // every successful request, warm-up too
  size_t count_all = 0;
};
LatencySummary Summarize(const std::vector<const DriveLog*>& logs,
                         const Window& window);
/// Pools summaries of several windows (counts add, samples concatenate).
LatencySummary Merge(const std::vector<LatencySummary>& parts);

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double p);

}  // namespace wirebench
