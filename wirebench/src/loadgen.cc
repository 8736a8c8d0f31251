#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <thread>
#include <utility>

namespace wirebench {

namespace {

template <typename T>
struct InFlight {
  size_t index = 0;
  Clock::time_point due;
  std::future<tcf::Result<T>> reply;
};

// How long DriveChurn blocks on one reply before it looks at its other
// connections and at the update schedule again.
constexpr auto kPollInterval = std::chrono::microseconds(100);

template <typename T>
bool Ready(const std::future<tcf::Result<T>>& reply) {
  return reply.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

Clock::time_point At(Clock::time_point base, double offset_s) {
  return base + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
}

/// The open-loop core: request i in [first, n) is due at `window.start +
/// offset_s(i)`; one thread both sends on schedule and collects replies
/// in order between sends, and sleeps until the next send is due when
/// nothing is in flight. Returns the number of requests sent.
template <typename T, typename Offset, typename Submit, typename OnReply>
size_t OpenLoop(size_t first, size_t n, const Window& window, Offset offset_s,
                Submit submit, OnReply on_reply, DriveLog* log) {
  std::deque<InFlight<T>> pending;
  size_t next = first;
  while (true) {
    const bool more = next < n && At(window.start, offset_s(next)) < window.end;
    const Clock::time_point due =
        more ? At(window.start, offset_s(next)) : Clock::time_point{};
    if (more && Clock::now() >= due) {
      log->lateness_s.push_back(
          std::chrono::duration<double>(Clock::now() - due).count());
      pending.push_back(InFlight<T>{next, due, submit(next)});
      ++next;
      continue;
    }
    if (!pending.empty()) {
      InFlight<T>& front = pending.front();
      if (more && front.reply.wait_until(due) != std::future_status::ready) {
        continue;
      }
      tcf::Result<T> reply = front.reply.get();
      log->records.push_back(RequestRecord{front.due, Clock::now(), reply.ok()});
      if (reply.ok()) on_reply(front.index, reply.value());
      pending.pop_front();
      continue;
    }
    if (!more) break;
    std::this_thread::sleep_until(due);
  }
  return next - first;
}

}  // namespace

void DriveClosedLoop(tcf::Client* client,
                     const std::vector<tcf::Query>& queries,
                     std::atomic<size_t>* cursor, size_t depth,
                     const Window& window, const CostCheck& check,
                     DriveLog* log) {
  std::deque<InFlight<tcf::Weight>> pending;
  auto send = [&]() {
    const size_t claimed = cursor->fetch_add(1, std::memory_order_relaxed);
    if (claimed >= queries.size()) log->wrapped = true;
    const size_t i = claimed % queries.size();
    pending.push_back(InFlight<tcf::Weight>{
        i, Clock::now(),
        client->SubmitShortestPath(queries[i].from, queries[i].to)});
  };
  for (size_t d = 0; d < depth; ++d) send();
  while (!pending.empty()) {
    InFlight<tcf::Weight>& front = pending.front();
    tcf::Result<tcf::Weight> reply = front.reply.get();
    const Clock::time_point done = Clock::now();
    log->records.push_back(RequestRecord{front.due, done, reply.ok()});
    if (reply.ok() && !check(front.index, reply.value())) ++log->mismatches;
    pending.pop_front();
    if (done < window.end) send();
  }
}

size_t DriveChurn(const std::vector<tcf::Client*>& readers,
                  const std::vector<tcf::Query>& queries,
                  std::atomic<size_t>* cursor, size_t depth,
                  tcf::Client* updater,
                  const std::vector<tcf::EdgeUpdate>& updates, size_t first,
                  double rate, const Window& window, const CostCheck& check,
                  std::vector<DriveLog>* read_logs, DriveLog* update_log) {
  std::vector<std::deque<InFlight<tcf::Weight>>> reads(readers.size());
  auto send = [&](size_t c) {
    const size_t claimed = cursor->fetch_add(1, std::memory_order_relaxed);
    if (claimed >= queries.size()) (*read_logs)[c].wrapped = true;
    const size_t i = claimed % queries.size();
    reads[c].push_back(InFlight<tcf::Weight>{
        i, Clock::now(),
        readers[c]->SubmitShortestPath(queries[i].from, queries[i].to)});
  };
  for (size_t c = 0; c < readers.size(); ++c) {
    for (size_t d = 0; d < depth; ++d) send(c);
  }
  std::deque<InFlight<uint64_t>> acks;
  size_t next = first;
  const auto due = [&](size_t i) {
    return At(window.start, static_cast<double>(i - first) / rate);
  };
  bool more = next < updates.size() && due(next) < window.end;
  // Takes up the acks that have arrived and sends the updates now due;
  // run between any two read replies, so a burst of replies delays
  // neither by more than one reply's work.
  const auto pump_updates = [&]() {
    while (!acks.empty() && Ready(acks.front().reply)) {
      tcf::Result<uint64_t> reply = acks.front().reply.get();
      update_log->records.push_back(
          RequestRecord{acks.front().due, Clock::now(), reply.ok()});
      if (reply.ok()) update_log->epochs.push_back(reply.value());
      acks.pop_front();
    }
    while (more && Clock::now() >= due(next)) {
      update_log->lateness_s.push_back(
          std::chrono::duration<double>(Clock::now() - due(next)).count());
      acks.push_back(InFlight<uint64_t>{next, due(next),
                                        updater->SubmitUpdate(updates[next])});
      ++next;
      more = next < updates.size() && due(next) < window.end;
    }
  };
  while (true) {
    for (size_t c = 0; c < readers.size(); ++c) {
      DriveLog& log = (*read_logs)[c];
      while (!reads[c].empty() && Ready(reads[c].front().reply)) {
        InFlight<tcf::Weight>& front = reads[c].front();
        tcf::Result<tcf::Weight> reply = front.reply.get();
        const Clock::time_point done = Clock::now();
        log.records.push_back(RequestRecord{front.due, done, reply.ok()});
        if (reply.ok() && !check(front.index, reply.value())) ++log.mismatches;
        reads[c].pop_front();
        if (done < window.end) send(c);
        pump_updates();
      }
    }
    pump_updates();

    // Block until something can have changed: on the pending ack if there
    // is one (so its reply time is exact), else on the oldest read; never
    // past the next update's due time.
    Clock::time_point until = Clock::now() + kPollInterval;
    if (more) until = std::min(until, due(next));
    const InFlight<tcf::Weight>* oldest = nullptr;
    for (const auto& pending : reads) {
      if (!pending.empty() && (oldest == nullptr ||
                               pending.front().due < oldest->due)) {
        oldest = &pending.front();
      }
    }
    if (!acks.empty()) {
      acks.front().reply.wait_until(until);
    } else if (oldest != nullptr) {
      oldest->reply.wait_until(until);
    } else if (more) {
      std::this_thread::sleep_until(until);
    } else {
      break;
    }
  }
  return next - first;
}

size_t DriveOpenQueries(tcf::Client* client,
                        const std::vector<tcf::Query>& queries,
                        const std::vector<double>& arrivals, size_t first,
                        const Window& window, const CostCheck& check,
                        DriveLog* log) {
  const size_t n = std::min(queries.size(), arrivals.size());
  if (first >= n) return 0;
  return OpenLoop<tcf::Weight>(
      first, n, window,
      [&](size_t i) { return arrivals[i] - arrivals[first]; },
      [&](size_t i) {
        return client->SubmitShortestPath(queries[i].from, queries[i].to);
      },
      [&](size_t i, tcf::Weight cost) {
        if (!check(i, cost)) ++log->mismatches;
      },
      log);
}

LatencySummary Summarize(const std::vector<const DriveLog*>& logs,
                         const Window& window) {
  LatencySummary out;
  double sum_all = 0.0;
  for (const DriveLog* log : logs) {
    for (const RequestRecord& r : log->records) {
      const double latency =
          std::chrono::duration<double>(r.done - r.due).count();
      if (r.ok) {
        sum_all += latency;
        ++out.count_all;
      }
      if (r.ok && r.done >= window.measure_start && r.done <= window.end) {
        ++out.replies_in_window;
      }
      if (r.due < window.measure_start || r.due >= window.end) continue;
      ++out.attempted;
      if (r.ok) {
        out.latency_s.push_back(latency);
      } else {
        ++out.failed;
      }
    }
  }
  out.mean_all_s = out.count_all == 0 ? 0.0 : sum_all / out.count_all;
  return out;
}

LatencySummary Merge(const std::vector<LatencySummary>& parts) {
  LatencySummary out;
  double sum_all = 0.0;
  for (const LatencySummary& p : parts) {
    out.latency_s.insert(out.latency_s.end(), p.latency_s.begin(),
                         p.latency_s.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.replies_in_window += p.replies_in_window;
    sum_all += p.mean_all_s * static_cast<double>(p.count_all);
    out.count_all += p.count_all;
  }
  out.mean_all_s = out.count_all == 0 ? 0.0 : sum_all / out.count_all;
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  index = std::clamp<size_t>(index, 1, samples.size());
  return samples[index - 1];
}

}  // namespace wirebench
