// wirebench — the end-to-end benchmark of tcfrag. Each run serves one
// workload through the stack tcfragd builds (MaintainedDatabase ->
// QueryService -> Server), drives it over loopback TCP with net::Client,
// checks every reply against a Dijkstra oracle, and prints one JSON
// object as its last line. See README.md for the workloads and metrics.
//
//   wirebench run --workload W --seed N --seconds S --trace 0|1
//                 [--db PATH] [--trace-out PATH]
//   wirebench prepare --workload paged --seed N --db PATH
//
// `prepare` builds the paged workload's database and saves it (run.py
// calls it in a separate process, so the serving process's peak memory
// never includes the resident build). `run --trace 0` reports the
// end-to-end metrics; `--trace 1` serves through TracedBackend and
// reports the per-layer metrics, the stage budget and the overhead.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fragment/metrics.h"
#include "graph/algorithms.h"
#include "inputs.h"
#include "loadgen.h"
#include "net/server.h"
#include "storage/database_io.h"
#include "trace.h"

using namespace wirebench;

namespace {

// Set-up is repeated until about this much time is spent on it (at least
// kMinSetups, at most kMaxSetups times) and the median is reported.
constexpr double kSetupBudgetSeconds = 0.5;
constexpr size_t kMinSetups = 11;
constexpr size_t kMaxSetups = 401;
// Each round after the first is preceded by this much unmeasured load, so
// a closed loop has refilled its pipeline before measuring starts.
constexpr double kRampSeconds = 0.1;
// Request records each read connection's buffer holds before it grows
// (about 3 s of churn at 40k q/s). The buffers are written once before
// the peak-memory baseline is taken and reused by every untraced round.
constexpr size_t kRecordsPerRound = size_t{1} << 17;

struct Args {
  bool prepare = false;
  Workload workload = Workload::kTrickle;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string db_path;
  std::string trace_out;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "wirebench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Fail("usage: wirebench run|prepare --workload W ...");
  const std::string mode = argv[1];
  if (mode != "run" && mode != "prepare") Fail("unknown mode " + mode);
  args.prepare = mode == "prepare";
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) Fail("bad workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--db") {
      args.db_path = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0)) Fail("--seconds must be positive");
  if (args.workload == Workload::kPaged && args.db_path.empty()) {
    Fail("paged needs --db");
  }
  return args;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A "Vm...:" field of /proc/self/status (e.g. "VmHWM:"), in MiB.
double ProcStatusMiB(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Lowers VmHWM to the current resident set (Linux clear_refs, value 5).
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

size_t FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<size_t>(file.tellg()) : 0;
}

// ---------------------------------------------------------------------
// The serving stack, configured as tcfragd configures it.

struct SetupTiming {
  double fragment_s = 0.0;
  double complementary_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
};

struct Stack {
  std::unique_ptr<tcf::MaintainedDatabase> mdb;
  std::shared_ptr<tcf::PagedFile> paged_file;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<tcf::QueryService> service;
  std::unique_ptr<tcf::Server> server;
  SetupTiming timing;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  // Server first (drains replies onto the wire), service second.
  ~Stack() {
    if (server) server->Stop();
    if (service) service->Shutdown();
  }
};

/// The paged workload's pool budget: a quarter of the shortcut-relation
/// bytes or the pool's two-frame floor, whichever is larger, so the
/// relations the queries stream do not fit in the pool. On the 8x300 graph
/// the floor decides: two 8 KiB pages, about half the relation bytes.
/// Found by an untimed probe open.
size_t PagedBudgetBytes(const std::string& path) {
  tcf::OpenOptions probe;
  probe.mode = tcf::OpenMode::kPaged;
  tcf::Result<tcf::StoredDatabase> opened = tcf::OpenDatabase(path, probe);
  if (!opened.ok()) Fail("open: " + opened.status().ToString());
  const tcf::StoredDatabase& db = opened.value();
  const tcf::ComplementaryInfo& comp = db.db->complementary();
  const size_t relation_bytes =
      comp.total_tuples * 16 + comp.shortcuts.size() * sizeof(uint64_t);
  const size_t page = db.paged_file->page_size();
  const size_t budget = std::max(2 * page, relation_bytes / 4);
  std::printf("paged: file %zu bytes, shortcut relations %zu bytes, pool "
              "budget %zu bytes (%zu pages of %zu bytes)\n",
              FileBytes(path), relation_bytes, budget, budget / page, page);
  return budget;
}

std::unique_ptr<Stack> BuildStack(const Inputs& in, const Args& args,
                                  size_t budget_bytes, bool traced) {
  auto stack = std::make_unique<Stack>();
  const Clock::time_point t0 = Clock::now();
  if (in.workload == Workload::kPaged) {
    tcf::OpenOptions open_opts;
    open_opts.mode = tcf::OpenMode::kPaged;
    open_opts.memory_budget_bytes = budget_bytes;
    tcf::Result<std::unique_ptr<tcf::MaintainedDatabase>> opened =
        tcf::OpenMaintainedDatabase(args.db_path, open_opts,
                                    &stack->paged_file);
    if (!opened.ok()) Fail("open: " + opened.status().ToString());
    stack->mdb = std::move(opened).value();
    stack->timing.open_s = Seconds(Clock::now() - t0);
  } else {
    const tcf::Fragmentation frag = FragmentInputs(in);
    const Clock::time_point t1 = Clock::now();
    tcf::Graph graph_copy = *in.graph;
    stack->mdb = std::make_unique<tcf::MaintainedDatabase>(
        std::move(graph_copy), frag.fragment_of_edge(), frag.NumFragments());
    stack->timing.fragment_s = Seconds(t1 - t0);
    stack->timing.complementary_s = Seconds(Clock::now() - t1);
  }
  tcf::ServiceOptions sopts;
  sopts.max_batch = 64;
  sopts.flush_workers = 0;
  sopts.admission_shards = 4;
  if (traced) {
    stack->traced = std::make_unique<TracedBackend>(stack->mdb.get());
    stack->service =
        std::make_unique<tcf::QueryService>(stack->traced.get(), sopts);
  } else {
    stack->service =
        std::make_unique<tcf::QueryService>(stack->mdb.get(), sopts);
  }
  stack->server = std::make_unique<tcf::Server>(stack->service.get());
  const tcf::Status started = stack->server->Start();
  if (!started.ok()) Fail("server start: " + started.ToString());
  stack->timing.total_s = Seconds(Clock::now() - t0);
  return stack;
}

std::unique_ptr<tcf::Client> Connect(const Stack& stack) {
  tcf::Result<std::unique_ptr<tcf::Client>> client =
      tcf::Client::Connect("127.0.0.1", stack.server->port());
  if (!client.ok()) Fail("connect: " + client.status().ToString());
  return std::move(client).value();
}

// ---------------------------------------------------------------------
// Driving one window.

struct Oracle {
  std::vector<double> expected;  // exact costs (all but churn)
  CostBounds bounds;             // churn reads
};

/// One round: fresh connections (so the server's reader threads, and with
/// them the admission shards they stripe onto, are drawn anew), a lead-in
/// that is driven but not measured, then the measured part. On churn an
/// exact sweep follows (see ChurnSweep). The query figures are computed
/// when the round ends; per-request records are kept only for the traced
/// run, so the harness's own memory does not grow with throughput.
struct Round {
  Window window;
  std::vector<DriveLog> read_logs;
  DriveLog update_log;
  DriveLog sweep_log;  // churn's exact sweep after the round
  LatencySummary queries;  // latency samples dropped once summarized
  LatencySummary updates;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  size_t samples = 0;
  size_t update_samples = 0;
  /// VmHWM when the round ended; it was reset when the round began (the
  /// first round's covers the set-ups too).
  double peak_rss_mib = 0.0;
};

struct WindowResult {
  std::vector<Round> rounds;
  size_t updates_sent = 0;
  /// Pooled over the rounds.
  LatencySummary queries;
  LatencySummary updates;
  tcf::ServerStats server;
  tcf::ServiceStats service;
  tcf::BufferPoolStats pool_before;
  tcf::BufferPoolStats pool_after;
  size_t mismatches = 0;
  bool epochs_ordered = true;
  /// Every round measured at least one reply (and one update on churn).
  bool every_round_measured = true;
};

size_t RoundsIn(const LoadShape& shape, double window_s) {
  return std::max<size_t>(1, static_cast<size_t>(window_s / shape.round_s));
}

/// Where each stream continues from in the next round.
struct Cursors {
  std::atomic<size_t> closed{0};
  size_t open = 0;
  size_t updates = 0;
};

size_t ReadConnections(const LoadShape& shape) {
  return shape.query_rate > 0.0 ? 1 : shape.read_connections;
}

/// Read logs whose record buffers are already resident, so reusing them
/// adds nothing to the process's peak memory.
std::vector<DriveLog> PrefaultedLogs(const LoadShape& shape) {
  std::vector<DriveLog> logs(ReadConnections(shape));
  for (DriveLog& log : logs) {
    log.records.resize(kRecordsPerRound);
    log.records.clear();
  }
  return logs;
}

/// Churn's exact check, made after every round once each update of the
/// round is acknowledged: the hot pairs and the probe pairs, sent over the
/// wire, must match Dijkstra on the graph replayed from the updates sent
/// so far. The replies are logged in `log`, so the stage budget counts
/// them. Returns the mismatch count.
size_t ChurnSweep(Stack& stack, const Inputs& in,
                  const std::vector<tcf::Query>& sweep, size_t updates_sent,
                  DriveLog* log) {
  const tcf::Graph replayed =
      ReplayUpdates(*in.graph, in.updates, updates_sent);
  const std::vector<double> want =
      OracleCosts(replayed, sweep, HardwareThreads());
  std::unique_ptr<tcf::Client> client = Connect(stack);
  const Clock::time_point sent = Clock::now();
  std::vector<std::future<tcf::Result<tcf::Weight>>> replies;
  for (const tcf::Query& q : sweep) {
    replies.push_back(client->SubmitShortestPath(q.from, q.to));
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    tcf::Result<tcf::Weight> got = replies[i].get();
    log->records.push_back(RequestRecord{sent, Clock::now(), got.ok()});
    if (!got.ok() || !SameCost(got.value(), want[i])) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "churn sweep after %zu updates: %u -> %u, want %.17g\n",
                     updates_sent, sweep[i].from, sweep[i].to, want[i]);
      }
    }
  }
  return mismatches;
}

/// `buffers` holds the read logs to drive with (prefaulted and reused
/// when records are not kept); the round takes them over.
Round DriveRound(Stack& stack, const Inputs& in, const LoadShape& shape,
                 const CostCheck& check, const std::vector<tcf::Query>& sweep,
                 double lead_s, double measure_s, bool keep_records,
                 std::vector<DriveLog> buffers, Cursors* cursors) {
  Round round;
  std::vector<std::unique_ptr<tcf::Client>> readers;
  const size_t connections = ReadConnections(shape);
  for (size_t c = 0; c < connections; ++c) readers.push_back(Connect(stack));
  std::unique_ptr<tcf::Client> updater;
  if (shape.update_rate > 0.0) updater = Connect(stack);
  round.read_logs = std::move(buffers);
  round.read_logs.resize(connections);
  for (DriveLog& log : round.read_logs) {
    log.records.clear();
    log.lateness_s.clear();
    log.mismatches = 0;
    log.wrapped = false;
  }

  Window& w = round.window;
  w.start = Clock::now() + std::chrono::milliseconds(20);
  w.measure_start =
      w.start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(lead_s));
  w.end = w.measure_start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(measure_s));

  std::vector<std::thread> threads;
  if (updater) {
    threads.emplace_back([&]() {
      std::vector<tcf::Client*> clients;
      for (const auto& reader : readers) clients.push_back(reader.get());
      std::this_thread::sleep_until(w.start);
      cursors->updates += DriveChurn(
          clients, in.queries, &cursors->closed, shape.depth, updater.get(),
          in.updates, cursors->updates, shape.update_rate, w, check,
          &round.read_logs, &round.update_log);
    });
  }
  for (size_t c = 0; c < connections && !updater; ++c) {
    threads.emplace_back([&, c]() {
      std::this_thread::sleep_until(w.start);
      if (shape.query_rate > 0.0) {
        cursors->open += DriveOpenQueries(readers[c].get(), in.queries,
                                          in.query_arrivals, cursors->open, w,
                                          check, &round.read_logs[c]);
      } else {
        DriveClosedLoop(readers[c].get(), in.queries, &cursors->closed,
                        shape.depth, w, check, &round.read_logs[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  readers.clear();
  updater.reset();
  if (in.workload == Workload::kChurn) {
    round.sweep_log.mismatches = ChurnSweep(stack, in, sweep, cursors->updates,
                                            &round.sweep_log);
  }

  // The sweep's replies come after the window, so they count in the
  // per-query means of the stage budget but in no measured figure.
  std::vector<const DriveLog*> logs{&round.sweep_log};
  for (const DriveLog& log : round.read_logs) logs.push_back(&log);
  round.queries = Summarize(logs, w);
  round.updates = Summarize({&round.update_log}, w);
  round.samples = round.queries.latency_s.size();
  round.update_samples = round.updates.latency_s.size();
  round.p50_ms = Percentile(round.queries.latency_s, 50) * 1e3;
  round.p90_ms = Percentile(round.queries.latency_s, 90) * 1e3;
  round.p99_ms = Percentile(round.queries.latency_s, 99) * 1e3;
  round.qps = static_cast<double>(round.queries.replies_in_window) / measure_s;
  round.queries.latency_s = {};
  if (!keep_records) round.sweep_log.records = {};
  return round;
}

/// What each churn sweep sends: the hot pairs of churn's stream in both
/// orientations (its most frequent pairs; the rest of the stream is
/// uniform), then the uniform probe pairs.
std::vector<tcf::Query> SweepPairs(const Inputs& in) {
  std::vector<tcf::Query> sweep;
  if (in.workload != Workload::kChurn) return sweep;
  std::map<std::pair<tcf::NodeId, tcf::NodeId>, size_t> count;
  for (const tcf::Query& q : in.queries) ++count[{q.from, q.to}];
  std::vector<std::pair<size_t, tcf::Query>> by_count;
  for (const auto& [pair, n] : count) {
    by_count.push_back({n, tcf::Query{pair.first, pair.second}});
  }
  const size_t hot = std::min(by_count.size(), 2 * kChurnHotPairs);
  std::partial_sort(by_count.begin(), by_count.begin() + hot, by_count.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; i < hot; ++i) sweep.push_back(by_count[i].second);
  sweep.insert(sweep.end(), in.probe_pairs.begin(), in.probe_pairs.end());
  return sweep;
}

/// Drives the rounds of one window. Untraced rounds drive with `logs`
/// and hand them back; traced rounds keep their records.
WindowResult DriveWindow(Stack& stack, const Inputs& in,
                         const LoadShape& shape, const Oracle& oracle,
                         double warmup_s, double window_s, bool traced,
                         std::vector<DriveLog>* logs) {
  WindowResult out;
  const CostCheck check = [&](size_t i, double cost) {
    if (in.workload != Workload::kChurn) {
      return SameCost(cost, oracle.expected[i]);
    }
    return cost >= oracle.bounds.lo[i] - 1e-9 &&
           cost <= oracle.bounds.hi[i] + 1e-9;
  };
  if (stack.paged_file) out.pool_before = stack.paged_file->stats();

  const size_t rounds = RoundsIn(shape, window_s);
  const std::vector<tcf::Query> sweep = SweepPairs(in);
  Cursors cursors;
  std::vector<LatencySummary> query_parts, update_parts;
  std::vector<uint64_t> epochs;
  size_t answered = 0;
  for (size_t r = 0; r < rounds; ++r) {
    if (r > 0) ResetPeakRss();
    out.rounds.push_back(DriveRound(
        stack, in, shape, check, sweep, r == 0 ? warmup_s : kRampSeconds,
        window_s / rounds, traced,
        traced ? std::vector<DriveLog>{} : std::move(*logs), &cursors));
    Round& round = out.rounds.back();
    round.peak_rss_mib = ProcStatusMiB("VmHWM:");
    query_parts.push_back(round.queries);
    update_parts.push_back(round.updates);
    answered += round.queries.count_all;
    out.mismatches += round.sweep_log.mismatches;
    for (const DriveLog& log : round.read_logs) {
      out.mismatches += log.mismatches;
      if (log.wrapped) std::printf("note: the query stream wrapped around\n");
    }
    if (round.samples == 0 || round.queries.replies_in_window == 0 ||
        (shape.update_rate > 0.0 && round.update_samples == 0)) {
      std::fprintf(stderr, "round %zu measured no %s\n", r,
                   round.samples == 0 || round.queries.replies_in_window == 0
                       ? "query"
                       : "update");
      out.every_round_measured = false;
    }
    epochs.insert(epochs.end(), round.update_log.epochs.begin(),
                  round.update_log.epochs.end());
    if (!traced) *logs = std::move(round.read_logs);
  }
  out.updates_sent = cursors.updates;
  out.queries = Merge(query_parts);
  out.updates = Merge(update_parts);
  for (size_t i = 0; i < epochs.size(); ++i) {
    // One epoch may carry several updates, so acks never decrease and each
    // names an epoch published after the run began.
    if (epochs[i] == 0 || (i > 0 && epochs[i] < epochs[i - 1])) {
      std::fprintf(stderr, "update %zu acknowledged out of order\n", i);
      out.epochs_ordered = false;
    }
  }
  // A flush worker records its batch's stats just after fulfilling the
  // promises, so the last replies can reach the client first.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  do {
    out.service = stack.service->Stats();
  } while (out.service.completed < answered && Clock::now() < give_up);
  out.server = stack.server->stats();
  if (stack.paged_file) out.pool_after = stack.paged_file->stats();
  return out;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetric(const Metric& m, const std::string& note) {
  std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string SampleNote(size_t n) {
  const size_t beyond = n / 100;
  return "(n=" + std::to_string(n) + ", " + std::to_string(beyond) +
         " beyond p99" + (beyond < 10 ? ", TOO FEW" : "") + ")";
}

double SafeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The end-to-end figures of one window, by metric name.
struct EndToEnd {
  double query_p50_ms = 0.0;
  double query_p90_ms = 0.0;
  double query_p99_ms = 0.0;
  double query_qps = 0.0;
  double update_p50_ms = 0.0;
  double update_p99_ms = 0.0;
  double error_rate = 0.0;
};

/// Query figures are medians over the rounds, so a round disturbed by
/// something outside the program moves them little; update figures pool
/// the rounds, whose samples alone would be too few for a p99.
EndToEnd EndToEndOf(const WindowResult& r) {
  EndToEnd e;
  std::vector<double> p50, p90, p99, qps;
  for (const Round& round : r.rounds) {
    p50.push_back(round.p50_ms);
    p90.push_back(round.p90_ms);
    p99.push_back(round.p99_ms);
    qps.push_back(round.qps);
  }
  e.query_p50_ms = Median(p50);
  e.query_p90_ms = Median(p90);
  e.query_p99_ms = Median(p99);
  e.query_qps = Median(qps);
  e.update_p50_ms = Percentile(r.updates.latency_s, 50) * 1e3;
  e.update_p99_ms = Percentile(r.updates.latency_s, 99) * 1e3;
  e.error_rate =
      SafeDiv(static_cast<double>(r.queries.failed + r.updates.failed),
              static_cast<double>(r.queries.attempted + r.updates.attempted));
  return e;
}

void PrintWindow(const char* label, const WindowResult& r, const EndToEnd& e,
                 bool churn) {
  size_t fewest = r.rounds.front().samples;
  for (const Round& round : r.rounds) fewest = std::min(fewest, round.samples);
  const std::string rounds = "median of " + std::to_string(r.rounds.size()) +
                             " rounds; fewest samples in a round: ";
  std::printf("%s window:\n", label);
  std::printf("  rounds (p50 / p90 / p99 ms, q/s):");
  for (const Round& round : r.rounds) {
    std::printf(" %.3f/%.3f/%.3f %.0f", round.p50_ms, round.p90_ms,
                round.p99_ms, round.qps);
  }
  std::printf("\n");
  PrintMetric({"query_p50_ms", e.query_p50_ms, "ms"},
              "(" + rounds + std::to_string(fewest) + ")");
  PrintMetric({"query_p90_ms", e.query_p90_ms, "ms"},
              "(" + rounds + std::to_string(fewest) +
                  "; not gated: follows the host on trickle)");
  PrintMetric({"query_p99_ms", e.query_p99_ms, "ms"},
              "(" + rounds + SampleNote(fewest) +
                  "; not gated: follows host CPU steal)");
  PrintMetric({"query_qps", e.query_qps, "1/s"},
              "(median of " + std::to_string(r.rounds.size()) + " rounds; " +
                  std::to_string(r.queries.replies_in_window) +
                  " replies in all)");
  if (churn) {
    PrintMetric({"update_p50_ms", e.update_p50_ms, "ms"},
                SampleNote(r.updates.latency_s.size()));
    PrintMetric({"update_p99_ms", e.update_p99_ms, "ms"},
                SampleNote(r.updates.latency_s.size()));
  }
  PrintMetric({"error_rate", e.error_rate, "ratio"},
              "(" + std::to_string(r.queries.failed + r.updates.failed) +
                  " of " +
                  std::to_string(r.queries.attempted + r.updates.attempted) +
                  " requests)");
}

// ---------------------------------------------------------------------
// The traced run.

struct Crossover {
  double dijkstra_us = 0.0;
  double single_us = 0.0;
  size_t mismatches = 0;
};

/// Whole-graph Dijkstra against DsaDatabase::ShortestPath on the probe
/// pairs, each timed alone, before the server takes load.
Crossover MeasureCrossover(const Inputs& in, const Stack& stack) {
  const tcf::DsaSnapshot snap = stack.mdb->Snapshot();
  std::vector<double> dijkstra_us, single_us;
  Crossover out;
  for (const tcf::Query& q : in.probe_pairs) {
    const Clock::time_point t0 = Clock::now();
    const tcf::ShortestPaths paths = tcf::Dijkstra(*in.graph, q.from);
    const Clock::time_point t1 = Clock::now();
    const tcf::QueryAnswer answer = snap.db->ShortestPath(q.from, q.to);
    const Clock::time_point t2 = Clock::now();
    dijkstra_us.push_back(Seconds(t1 - t0) * 1e6);
    single_us.push_back(Seconds(t2 - t1) * 1e6);
    if (!answer.status.ok() ||
        !SameCost(answer.cost, paths.distance[q.to])) {
      ++out.mismatches;
    }
  }
  out.dijkstra_us = Median(dijkstra_us);
  out.single_us = Median(single_us);
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SetupTiming>& setups,
                const WindowResult& r, const TracedBackend& backend) {
  std::ofstream out(path);
  if (!out) return;
  const auto us = [&](Clock::time_point t) {
    return Seconds(t - r.rounds.front().window.start) * 1e6;
  };
  out << "# setup\tfragment_us\tcomplementary_us\topen_us\ttotal_us\n"
      << "# query|sweep|update|batch|epoch\tstart_us\tend_us\tok|size "
         "(times from the start of driving)\n";
  for (const SetupTiming& s : setups) {
    out << "setup\t" << s.fragment_s * 1e6 << '\t' << s.complementary_s * 1e6
        << '\t' << s.open_s * 1e6 << '\t' << s.total_s * 1e6 << '\n';
  }
  for (const Round& round : r.rounds) {
    for (const DriveLog& log : round.read_logs) {
      for (const RequestRecord& q : log.records) {
        out << "query\t" << us(q.due) << '\t' << us(q.done) << '\t' << q.ok
            << '\n';
      }
    }
    for (const RequestRecord& q : round.sweep_log.records) {
      out << "sweep\t" << us(q.due) << '\t' << us(q.done) << '\t' << q.ok
          << '\n';
    }
    for (const RequestRecord& u : round.update_log.records) {
      out << "update\t" << us(u.due) << '\t' << us(u.done) << '\t' << u.ok
          << '\n';
    }
  }
  for (const BatchSpan& b : backend.batch_spans()) {
    out << "batch\t" << us(b.start) << '\t' << us(b.end) << '\t' << b.queries
        << '\n';
  }
  for (const EpochSpan& e : backend.epoch_spans()) {
    out << "epoch\t" << us(e.start) << '\t' << us(e.end) << '\t' << e.updates
        << '\n';
  }
}

struct Budget {
  bool ok = true;
  std::vector<Metric> metrics;
};

/// The per-layer metrics of the traced window, with the stage-budget
/// checks. net.self, service.wait and batch.other are differences, so
/// their sums hold by construction; what is checked is the order of the
/// nested spans, over the same queries: client mean >= service mean >=
/// ExecuteBatch span per query, and span >= plan + phase1 + assemble.
Budget PerLayer(const WindowResult& r, const Stack& stack) {
  Budget b;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    b.metrics.push_back(Metric{name, value, unit});
  };
  const auto check = [&](bool holds, const std::string& what) {
    if (!holds) {
      b.ok = false;
      std::fprintf(stderr, "stage budget: %s does not hold\n", what.c_str());
    }
  };
  constexpr double kSlackS = 2e-6;

  // net / service / batch, per query.
  const std::vector<BatchSpan> spans = stack.traced->batch_spans();
  double span_sum_s = 0.0, span_query_s = 0.0;
  size_t batched = 0;
  for (const BatchSpan& s : spans) {
    const double d = Seconds(s.end - s.start);
    span_sum_s += d;
    span_query_s += d * static_cast<double>(s.queries);
    batched += s.queries;
  }
  const double client_s = r.queries.mean_all_s;
  const double service_s = SafeDiv(r.service.latency_seconds.Sum(),
                                    r.service.latency_seconds.count());
  const double exec_s = SafeDiv(span_query_s, static_cast<double>(batched));
  const double net_self_s = client_s - service_s;
  const double wait_s = service_s - exec_s;
  if (r.queries.failed == 0) {
    check(r.service.latency_seconds.count() == r.queries.count_all &&
              batched == r.queries.count_all,
          "client, service and batch spans cover the same queries");
  }
  check(net_self_s >= -kSlackS, "client mean >= service mean");
  check(wait_s >= -kSlackS, "service mean >= ExecuteBatch span per query");
  std::printf(
      "stage budget (mean per query over %zu queries): client %.1f us >= "
      "service %.1f us >= ExecuteBatch span %.1f us; net.self %.1f us, "
      "service.wait %.1f us\n",
      r.queries.count_all, client_s * 1e6, service_s * 1e6, exec_s * 1e6,
      net_self_s * 1e6, wait_s * 1e6);

  const tcf::BatchStats bs = stack.traced->cumulative_stats();
  const double nb = static_cast<double>(spans.size());
  const double plan_us = SafeDiv(bs.plan_seconds, nb) * 1e6;
  const double phase1_us = SafeDiv(bs.phase1_seconds, nb) * 1e6;
  const double assemble_us = SafeDiv(bs.assemble_seconds, nb) * 1e6;
  const double span_us = SafeDiv(span_sum_s, nb) * 1e6;
  const double other_us = span_us - plan_us - phase1_us - assemble_us;
  check(bs.num_queries == batched, "BatchStats counts every traced query");
  check(other_us >= -kSlackS * 1e6,
        "ExecuteBatch span >= plan + phase1 + assemble");
  std::printf(
      "batch phases (mean per batch over %zu batches): ExecuteBatch span "
      "%.1f us >= plan %.1f + phase1 %.1f + assemble %.1f us; batch.other "
      "%.1f us\n",
      spans.size(), span_us, plan_us, phase1_us, assemble_us, other_us);

  add("net.self_mean_us", net_self_s * 1e6, "us");
  add("net.replies_error", static_cast<double>(r.server.replies_error),
      "count");
  add("net.connections_dropped",
      static_cast<double>(r.server.connections_dropped), "count");
  add("service.wait_mean_us", wait_s * 1e6, "us");
  add("service.batch_fill_mean", SafeDiv(static_cast<double>(batched), nb),
      "queries");
  add("service.batches", nb, "count");

  // The update lane and maintenance epochs.
  const std::vector<EpochSpan> epochs = stack.traced->epoch_spans();
  double epoch_update_s = 0.0;
  size_t epoch_updates = 0, ops = 0, searches = 0, dirty = 0, reused = 0,
         kept = 0, dropped = 0, resets = 0;
  double epoch_sum_us = 0.0;
  std::vector<double> epoch_us;
  for (const EpochSpan& e : epochs) {
    const double d = Seconds(e.end - e.start);
    epoch_us.push_back(d * 1e6);
    epoch_sum_us += d * 1e6;
    epoch_update_s += d * static_cast<double>(e.updates);
    epoch_updates += e.updates;
    ops += e.stats.ops_applied;
    searches += e.stats.complementary_searches;
    dirty += e.stats.dirty_border_nodes;
    reused += e.stats.reused_border_nodes;
    kept += e.stats.plans_kept;
    dropped += e.stats.plans_dropped;
    resets += e.stats.caches_reset ? 1 : 0;
  }
  const double update_wait_s =
      epochs.empty() ? 0.0
                     : r.updates.mean_all_s -
                           epoch_update_s / static_cast<double>(epoch_updates);
  if (!epochs.empty()) {
    check(epoch_updates == r.updates.count_all,
          "epoch spans cover every acknowledged update");
    check(update_wait_s >= -kSlackS,
          "update client mean >= ApplyEpoch span per update");
  }
  add("service.update_wait_mean_us", update_wait_s * 1e6, "us");

  const double queries = static_cast<double>(bs.num_queries);
  add("batch.exec_mean_us", exec_s * 1e6, "us");
  add("batch.plan_us", plan_us, "us");
  add("batch.phase1_us", phase1_us, "us");
  add("batch.assemble_us", assemble_us, "us");
  add("batch.other_us", other_us, "us");
  add("batch.phase1_us_per_subquery",
      SafeDiv(bs.phase1_seconds * 1e6,
              static_cast<double>(bs.subqueries_executed)),
      "us");
  add("batch.subqueries_per_query",
      SafeDiv(static_cast<double>(bs.subqueries_requested), queries), "count");
  add("batch.dedup_savings", bs.DedupSavings(), "ratio");
  add("batch.plan_memo_hit_rate", bs.PlanMemoHitRate(), "ratio");
  add("batch.skeleton_hit_rate", bs.PlanCacheHitRate(), "ratio");
  add("batch.interned_plan_hit_rate", bs.InternedPlanHitRate(), "ratio");

  const double ne = static_cast<double>(epochs.size());
  add("maintenance.epoch_mean_us", SafeDiv(epoch_sum_us, ne), "us");
  add("maintenance.epoch_p99_us", Percentile(epoch_us, 99), "us");
  add("maintenance.ops_per_epoch", SafeDiv(static_cast<double>(ops), ne),
      "count");
  add("maintenance.complementary_searches_per_epoch",
      SafeDiv(static_cast<double>(searches), ne), "count");
  add("maintenance.dirty_border_share",
      SafeDiv(static_cast<double>(dirty), static_cast<double>(dirty + reused)),
      "ratio");
  add("maintenance.plans_dropped_share",
      SafeDiv(static_cast<double>(dropped),
              static_cast<double>(dropped + kept)),
      "ratio");
  add("maintenance.cache_resets", static_cast<double>(resets), "count");

  // The buffer pool, over this window (zero when resident).
  const uint64_t hits = r.pool_after.hits - r.pool_before.hits;
  const uint64_t misses = r.pool_after.misses - r.pool_before.misses;
  const uint64_t evictions = r.pool_after.evictions - r.pool_before.evictions;
  add("storage.pool_hit_rate",
      SafeDiv(static_cast<double>(hits), static_cast<double>(hits + misses)),
      "ratio");
  add("storage.misses_per_query",
      SafeDiv(static_cast<double>(misses), queries), "count");
  add("storage.evictions_per_query",
      SafeDiv(static_cast<double>(evictions), queries), "count");
  add("storage.pin_failures",
      static_cast<double>(r.pool_after.pin_failures -
                          r.pool_before.pin_failures),
      "count");
  add("storage.peak_pinned_pages",
      static_cast<double>(r.pool_after.peak_pinned_frames), "count");
  return b;
}

// ---------------------------------------------------------------------

int Prepare(const Args& args) {
  const LoadShape shape = ShapeFor(args.workload, args.seconds,
                                   HardwareThreads());
  const Inputs in = GenerateInputs(args.workload, args.seed, shape);
  const tcf::Fragmentation frag = FragmentInputs(in);
  tcf::Graph graph_copy = *in.graph;
  const tcf::MaintainedDatabase mdb(std::move(graph_copy),
                                    frag.fragment_of_edge(),
                                    frag.NumFragments());
  const tcf::Status saved = tcf::SaveDatabase(mdb, args.db_path);
  if (!saved.ok()) Fail("save: " + saved.ToString());
  return 0;
}

int Run(const Args& args) {
  const Workload w = args.workload;
  const bool churn = w == Workload::kChurn;
  const size_t threads = HardwareThreads();
  // The traced run drives an untraced and a traced window of half length
  // each, so its overhead is measured on the same inputs.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const double warmup_s = std::min(1.0, 0.2 * window_s);
  // Streams are sized with headroom for the rounds' lead-ins.
  const LoadShape shape = ShapeFor(w, warmup_s + 1.2 * window_s, threads);

  const Inputs in = GenerateInputs(w, args.seed, shape);
  std::printf("wirebench %s seed %llu: %zu nodes, %zu edges, %zu queries "
              "in stream, %zu updates in script\n",
              WorkloadName(w), static_cast<unsigned long long>(args.seed),
              in.graph->NumNodes(), in.graph->NumEdges(), in.queries.size(),
              in.updates.size());
  Oracle oracle;
  if (churn) {
    oracle.bounds = ChurnBounds(in, threads);
  } else {
    oracle.expected = OracleCosts(*in.graph, in.queries, threads);
  }

  const size_t budget_bytes =
      w == Workload::kPaged ? PagedBudgetBytes(args.db_path) : 0;
  std::vector<DriveLog> logs = PrefaultedLogs(shape);

  // peak_rss_mb is what serving adds to the process: the median over the
  // rounds of each round's peak resident set, less what inputs, oracle
  // and the harness's buffers already hold. Heap memory freed while they
  // were built is returned to the system first: left resident, a
  // seed-dependent share of it was reused by serving, and churn's figure
  // moved by 2 MiB between seeds, the same way on every run.
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::printf("note: VmHWM could not be reset; peak_rss_mb includes "
                "input generation\n");
  }
  const double baseline_rss_mib = ProcStatusMiB("VmRSS:");

  // Set-up, repeated; the last stack serves.
  std::vector<SetupTiming> setups;
  std::unique_ptr<Stack> stack;
  double setup_spent_s = 0.0;
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && setup_spent_s < kSetupBudgetSeconds)) {
    stack.reset();
    stack = BuildStack(in, args, budget_bytes, /*traced=*/false);
    setups.push_back(stack->timing);
    setup_spent_s += stack->timing.total_s;
  }
  const auto median_of = [&](double SetupTiming::*field) {
    std::vector<double> v;
    for (const SetupTiming& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const double setup_s = median_of(&SetupTiming::total_s);

  WindowResult plain = DriveWindow(*stack, in, shape, oracle, warmup_s,
                                   window_s, /*traced=*/false, &logs);
  const EndToEnd e = EndToEndOf(plain);
  size_t mismatches = plain.mismatches;
  bool correct = plain.epochs_ordered && plain.every_round_measured;
  size_t attempted = plain.queries.attempted + plain.updates.attempted;
  size_t failed = plain.queries.failed + plain.updates.failed;
  PrintWindow(args.trace ? "untraced" : "measured", plain, e, churn);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> peaks;
    char part[64];
    std::snprintf(part, sizeof(part), "%.2f", baseline_rss_mib);
    std::string rss_note = "(median over rounds of VmHWM less VmRSS ";
    rss_note += part;
    rss_note += " MiB before set-up; rounds:";
    for (const Round& round : plain.rounds) {
      peaks.push_back(round.peak_rss_mib - baseline_rss_mib);
      std::snprintf(part, sizeof(part), " %.2f", peaks.back());
      rss_note += part;
    }
    rss_note += ")";
    const double peak_mib = Median(peaks);
    metrics = {{"setup_s", setup_s, "s"},
               {"query_p50_ms", e.query_p50_ms, "ms"},
               {"query_qps", e.query_qps, "1/s"},
               {"peak_rss_mb", peak_mib, "MiB"}};
    PrintMetric(metrics[0], "(median of " + std::to_string(setups.size()) +
                                " set-ups)");
    PrintMetric(metrics[3], rss_note);
  } else {
    stack.reset();
    stack = BuildStack(in, args, budget_bytes, /*traced=*/true);
    const Crossover cross = MeasureCrossover(in, *stack);
    mismatches += cross.mismatches;
    WindowResult traced = DriveWindow(*stack, in, shape, oracle, warmup_s,
                                      window_s, /*traced=*/true, nullptr);
    const EndToEnd t = EndToEndOf(traced);
    mismatches += traced.mismatches;
    correct = correct && traced.epochs_ordered && traced.every_round_measured;
    attempted += traced.queries.attempted + traced.updates.attempted;
    failed += traced.queries.failed + traced.updates.failed;
    PrintWindow("traced", traced, t, churn);

    Budget budget = PerLayer(traced, *stack);
    correct = correct && budget.ok;
    metrics = std::move(budget.metrics);
    const tcf::FragmentationCharacteristics fc =
        tcf::ComputeCharacteristics(FragmentInputs(in));
    const auto add = [&](const std::string& name, double value,
                         const std::string& unit) {
      metrics.push_back(Metric{name, value, unit});
    };
    add("storage.open_s", median_of(&SetupTiming::open_s), "s");
    add("fragment.build_s", median_of(&SetupTiming::fragment_s), "s");
    add("complementary.build_s", median_of(&SetupTiming::complementary_s),
        "s");
    add("fragment.avg_ds_nodes", fc.avg_ds_nodes, "nodes");
    add("fragment.dev_fragment_edges", fc.dev_fragment_edges, "edges");
    add("fragment.border_nodes", static_cast<double>(fc.total_border_nodes),
        "count");
    add("graph.dijkstra_us", cross.dijkstra_us, "us");
    add("query_api.single_us", cross.single_us, "us");
    add("crossover.dsa_over_dijkstra",
        SafeDiv(cross.single_us, cross.dijkstra_us), "ratio");
    std::vector<double> late;
    for (const Round& round : traced.rounds) {
      for (const DriveLog& log : round.read_logs) {
        late.insert(late.end(), log.lateness_s.begin(), log.lateness_s.end());
      }
      late.insert(late.end(), round.update_log.lateness_s.begin(),
                  round.update_log.lateness_s.end());
    }
    add("loadgen.late_p99_ms", Percentile(late, 99) * 1e3, "ms");
    size_t samples = 0;
    for (const Round& round : traced.rounds) samples += round.samples;
    add("loadgen.samples", static_cast<double>(samples), "count");
    add("client.query_p90_ms", t.query_p90_ms, "ms");
    add("client.query_p99_ms", t.query_p99_ms, "ms");
    add("client.update_p50_ms", t.update_p50_ms, "ms");
    add("client.update_p99_ms", t.update_p99_ms, "ms");
    add("client.error_rate", t.error_rate, "ratio");
    const std::pair<const char*, double EndToEnd::*> overheads[] = {
        {"query_p50", &EndToEnd::query_p50_ms},
        {"query_p90", &EndToEnd::query_p90_ms},
        {"query_p99", &EndToEnd::query_p99_ms},
        {"query_qps", &EndToEnd::query_qps},
        {"update_p50", &EndToEnd::update_p50_ms}};
    std::printf("tracing overhead (traced - untraced, share of untraced):");
    for (const auto& [name, field] : overheads) {
      const double share = SafeDiv(t.*field - e.*field, e.*field);
      add(std::string("trace.overhead.") + name, share, "ratio");
      std::printf(" %s %+.3f", name, share);
    }
    std::printf(
        ". Known difference: the traced service is built over a "
        "ServiceBackend, which skips admission validation.\n");

    std::printf(
        "crossover (base: whole-graph Dijkstra, one thread): "
        "graph.dijkstra_us %.1f, query_api.single_us %.1f, ratio %.2fx\n",
        cross.dijkstra_us, cross.single_us,
        SafeDiv(cross.single_us, cross.dijkstra_us));
    if (!args.trace_out.empty()) {
      WriteSpans(args.trace_out, setups, traced, *stack->traced);
    }
  }
  stack.reset();

  if (mismatches > 0) {
    std::fprintf(stderr, "wirebench: %zu replies differ from the oracle\n",
                 mismatches);
    correct = false;
  }
  if (attempted == 0) {
    std::fprintf(stderr, "wirebench: no request was measured\n");
    correct = false;
  }
  PrintJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  return args.prepare ? Prepare(args) : Run(args);
}
