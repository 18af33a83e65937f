// jps_perfbench: the repository benchmark's load generator.
//
//   jps_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --daemon PATH_TO_JPS_SERVE
//   jps_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics: serve workloads drive fresh
// `jps_serve serve --no-flight-recorder` daemons over loopback TCP, one
// daemon per round, rounds repeated until S seconds have passed;
// offline_sweep runs the planner in process.  --trace 1 measures the
// per-layer metrics: untraced/traced daemon pairs on the same requests,
// the traced daemon's flight recorder drained over TRACE_DUMP, plus
// outside timings of the layers without spans.  README.md lists every
// metric.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 correct, 1 a check failed or the run could not finish,
// 64 usage error.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "layers.h"
#include "load.h"
#include "offline.h"
#include "serve/transport.h"
#include "traces.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// A measured cache-hit share may stray this far from the predicted one.
constexpr double kHitShareTolerance = 0.05;
// A traced round joins at least this share of its OK replies to a trace.
constexpr double kMinJoinedShare = 0.95;
// Requests per untraced/traced round in a --trace 1 run, and pairs run.
constexpr std::size_t kTracedRequests = 4000;
constexpr int kTracedPairs = 3;
constexpr int kConnectProbes = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string daemon;
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::size_t load_connections() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 1, 4);
}

// Metrics in output order with their units, plus the run's verdict.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

// One fresh daemon: warm-up, a timed closed-loop load, counters around the
// timed window, /proc before the drain, and the drain itself.
struct Round {
  double setup_s = 0.0;
  std::vector<jps::serve::PlanReply> warm_replies;
  LoadResult load;
  Counters before;
  Counters after;
  ProcStatus proc;
  std::map<std::string, std::uint64_t> drained;
  std::vector<jps::obs::TraceRecord> warm_traces;
  std::vector<jps::obs::TraceRecord> timed_traces;
  std::vector<double> connect_probe_us;
};

Round run_round(const Options& opt, const Workload& w, bool traced,
                bool probe_connects) {
  Round round;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> flags;
  if (traced) {
    flags = {"--trace-sample-every", "1", "--trace-capacity",
             std::to_string(std::max(w.warmup.size(), w.timed.size()) + 64)};
  } else {
    flags = {"--no-flight-recorder"};
  }
  Daemon daemon(opt.daemon, flags);
  {
    auto control = connect(daemon.port());
    round.warm_replies = run_sequential(*control, w.warmup);
    if (traced) round.warm_traces = drain_traces(*control);
    round.before = scrape_counters(*control);
  }
  round.setup_s = seconds_since(start);
  round.load = run_load(daemon.port(), w.timed, load_connections(), w.churn);
  {
    auto control = connect(daemon.port());
    round.after = scrape_counters(*control);
    if (traced) round.timed_traces = drain_traces(*control);
  }
  round.proc = read_proc_status(daemon.pid());
  if (probe_connects) {
    for (int i = 0; i < kConnectProbes; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto stream = jps::serve::socket_connect("127.0.0.1", daemon.port());
      round.connect_probe_us.push_back(seconds_since(t0) * 1e6);
      stream->close();
    }
  }
  round.drained = daemon.drain();
  return round;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// Measured plan-cache hit share of the timed window: hits over the lookups
// leaders made (coalesced joins make none).
double measured_hit_share(const Round& r) {
  const double requests = delta(r.after, r.before, "serve.requests");
  const double coalesced = delta(r.after, r.before, "serve.coalesce_hits");
  return share(delta(r.after, r.before, "serve.cache_hits"),
               requests - coalesced);
}

// Every check a round must pass; failures land in report.problems.
void check_round(const Workload& w, const Round& r, Verifier& verifier,
                 Report& report) {
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    const std::string bad = r.warm_replies[i].ok()
                                ? verifier.check(w.warmup[i], r.warm_replies[i])
                                : "status not OK";
    if (!bad.empty())
      report.problem("warm-up reply " + std::to_string(i) + ": " + bad);
  }

  const LoadResult& load = r.load;
  if (load.attempted != w.timed.size())
    report.problem("only " + std::to_string(load.attempted) + " of " +
                   std::to_string(w.timed.size()) + " requests were sent");
  for (std::size_t i = 0; i < load.samples.size(); ++i) {
    const Sample& s = load.samples[i];
    if (!s.sent) continue;
    if (!s.ok) {
      report.problem("request " + std::to_string(i) + " failed: " +
                     (s.error.empty() ? jps::serve::status_name(s.reply.status)
                                      : s.error));
      continue;
    }
    const std::string bad = verifier.check(w.timed[i], s.reply);
    if (!bad.empty())
      report.problem("reply " + std::to_string(i) + " (" + w.timed[i].model +
                     "): " + bad);
  }

  // The daemon's own accounting must match the harness's.
  const auto drained = [&](const char* name) {
    const auto it = r.drained.find(name);
    return it == r.drained.end() ? ~std::uint64_t{0} : it->second;
  };
  const std::uint64_t sent = w.warmup.size() + load.attempted;
  if (drained("requests") != sent)
    report.problem("daemon drained requests=" +
                   std::to_string(drained("requests")) + ", harness sent " +
                   std::to_string(sent));
  for (const char* zero : {"shed", "protocol_errors", "deadline_exceeded",
                           "stale_served", "breaker_opens"})
    if (drained(zero) != 0)
      report.problem(std::string("daemon drained ") + zero + "=" +
                     std::to_string(drained(zero)));
  if (drained("cache_hits") + drained("plans_computed") +
          drained("coalesce_hits") != drained("requests"))
    report.problem("daemon counters: cache_hits + plans_computed + "
                   "coalesce_hits != requests");

  const CachePrediction predicted = predict_cache(w);
  const double measured = measured_hit_share(r);
  if (std::abs(measured - predicted.hit_share) > kHitShareTolerance)
    report.problem("serve.cache_hit_share " + std::to_string(measured) +
                   " strays from the predicted " +
                   std::to_string(predicted.hit_share));
}

void serve_end_to_end(const Options& opt, const Workload& w, Report& report) {
  Verifier verifier;
  // Every figure is a per-round value; the run reports the median round, so
  // one round disturbed by the rest of the machine does not move it.
  std::vector<double> setup_s, rps, rss_mb, p50_ms, p99_ms;
  std::size_t samples = 0;
  const Clock::time_point begin = Clock::now();
  while (setup_s.size() < 3 || seconds_since(begin) < opt.seconds) {
    const Round r = run_round(opt, w, false, false);
    check_round(w, r, verifier, report);
    setup_s.push_back(r.setup_s);
    rps.push_back(static_cast<double>(r.load.ok) / r.load.window_s);
    rss_mb.push_back(r.proc.vm_hwm_mb);
    std::vector<double> latency_ms;
    for (const Sample& s : r.load.samples)
      if (s.ok) latency_ms.push_back(s.round_trip_us / 1000.0);
    p50_ms.push_back(jps::util::percentile(latency_ms, 50.0));
    p99_ms.push_back(jps::util::percentile(latency_ms, 99.0));
    samples = latency_ms.size();
    std::printf("round %zu: %.0f ok/s p50 %.4f ms p99 %.4f ms setup %.4f s\n",
                setup_s.size(), rps.back(), p50_ms.back(), p99_ms.back(),
                setup_s.back());
    report.attempted += r.load.attempted;
    report.failed += r.load.failed();
  }
  std::cout << "rounds=" << setup_s.size()
            << " latency_samples_per_round=" << samples << "\n";
  report.add("ops_per_sec", jps::util::median(rps), "1/s");
  report.add("latency_p50_ms", jps::util::median(p50_ms), "ms");
  report.add("latency_p99_ms", jps::util::median(p99_ms), "ms");
  report.add("rss_mb", jps::util::median(rss_mb), "MB");
  report.add("setup_s", jps::util::median(setup_s), "s");
}

void offline_end_to_end(const Options& opt, Report& report) {
  const OfflineResult r = run_offline(opt.seconds);
  if (r.mismatches != 0)
    report.problem(std::to_string(r.mismatches) +
                   " sampled sweep points differ from the scalar path; first: " +
                   r.first_problem);
  report.attempted = r.attempted;
  std::cout << "rounds=" << r.setup_s.size()
            << " latency_samples_per_round=" << r.scalar_calls_per_round
            << "\n";
  report.add("ops_per_sec", jps::util::median(r.sweep_plans_per_sec), "1/s");
  report.add("latency_p50_ms", jps::util::median(r.scalar_p50_ms), "ms");
  report.add("latency_p99_ms", jps::util::median(r.scalar_p99_ms), "ms");
  report.add("rss_mb", read_proc_status().vm_hwm_mb, "MB");
  report.add("setup_s", jps::util::median(r.setup_s), "s");
}

// The span layers of the traced run, by metric name.
const std::vector<std::pair<std::string, std::string>>& span_layers() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"serve.request_us", "serve.request"},
      {"serve.admission_us", "serve.admission"},
      {"serve.plan_wait_us", "serve.plan_wait"},
      {"serve.coalesce_wait_us", "serve.coalesce_wait"},
      {"serve.plan_compute_us", "serve.plan_compute"},
      {"serve.cache_lookup_us", "serve.cache_lookup"},
      {"serve.encode_us", "serve.encode"},
      {"core.plan_us", "planner.plan"},
      {"partition.curve_build_us", "curve.build"},
  };
  return kLayers;
}

// p50, p99, sample count and share of the joined round trips, as metrics
// and as one row of the printed table.
void add_layer(Report& report, const std::string& name,
               const std::vector<double>& us, double layer_share) {
  const double p50 = jps::util::percentile(us, 50.0);
  const double p99 = jps::util::percentile(us, 99.0);
  report.add(name + ".p50", p50, "us");
  report.add(name + ".p99", p99, "us");
  report.add(name + ".n", static_cast<double>(us.size()), "count");
  report.add(name + ".share", layer_share, "ratio");
  std::printf("%-28s %10.2f %10.2f %8zu %7.4f\n", name.c_str(), p50, p99,
              us.size(), layer_share);
}

void per_layer(const Options& opt, const Workload& full, Report& report) {
  Workload w = full;
  w.timed.resize(std::min(w.timed.size(), kTracedRequests));
  Verifier verifier;

  std::vector<double> ratios;
  std::optional<Round> untraced;
  std::optional<Round> traced;
  for (int pair = 0; pair < kTracedPairs; ++pair) {
    const bool last = pair + 1 == kTracedPairs;
    untraced.emplace(run_round(opt, w, false, last));
    traced.emplace(run_round(opt, w, true, false));
    for (const Round* r : {&*untraced, &*traced}) {
      check_round(w, *r, verifier, report);
      report.attempted += r->load.attempted;
      report.failed += r->load.failed();
    }
    ratios.push_back(
        share(static_cast<double>(untraced->load.ok) / untraced->load.window_s,
              static_cast<double>(traced->load.ok) / traced->load.window_s));
  }

  // Traced run: validity, join, and the split.
  const Round& t = *traced;
  std::vector<jps::obs::TraceRecord> all = t.warm_traces;
  all.insert(all.end(), t.timed_traces.begin(), t.timed_traces.end());
  const LayerSplit split = split_layers(t.load.samples, t.timed_traces);
  std::size_t invalid = split.invalid_records;
  for (const jps::obs::TraceRecord& r : t.warm_traces)
    if (!jps::obs::validate_trace(r).empty()) ++invalid;
  if (invalid != 0)
    report.problem(std::to_string(invalid) + " drained traces are invalid");
  const double joined_share = share(static_cast<double>(split.joined),
                                    static_cast<double>(split.ok_samples));
  if (joined_share < kMinJoinedShare)
    report.problem("only " + std::to_string(split.joined) + " of " +
                   std::to_string(split.ok_samples) +
                   " requests joined a server trace");
  if (split.sum_violations != 0)
    report.problem(std::to_string(split.sum_violations) +
                   " joined requests: " + split.first_problem);
  double traces_lost = 0.0;
  for (const char* lost : {"obs.flightrec.evicted",
                           "obs.flightrec.active_evicted",
                           "obs.flightrec.span_drops"})
    traces_lost += delta(t.after, Counters{}, lost);
  if (traces_lost != 0.0)
    report.problem("the flight recorder lost " + std::to_string(traces_lost) +
                   " traces or spans");

  std::vector<double> round_trips;
  for (const Sample& s : t.load.samples)
    if (s.ok) round_trips.push_back(s.round_trip_us);
  double joined_round_trip = jps::util::sum(split.unattributed_us);
  for (const auto& [name, us] : split.self_us)
    joined_round_trip += jps::util::sum(us);

  std::printf("%-28s %10s %10s %8s %7s\n", "layer (self time, us)", "p50",
              "p99", "n", "share");
  double listed = jps::util::sum(split.unattributed_us);
  for (const auto& [metric, span] : span_layers()) {
    const auto it = split.self_us.find(span);
    const std::vector<double> timed_us =
        it == split.self_us.end() ? std::vector<double>{} : it->second;
    listed += jps::util::sum(timed_us);
    // Curve builds happen where a (model, bucket) is first planned: on
    // cold_keys that is the warm-up, so every drained trace counts.
    add_layer(report, metric,
              span == "curve.build" ? span_self_us(all, span) : timed_us,
              share(jps::util::sum(timed_us), joined_round_trip));
  }
  add_layer(report, "serve.unattributed_us", split.unattributed_us,
            share(jps::util::sum(split.unattributed_us), joined_round_trip));
  const double other =
      std::max(0.0, share(joined_round_trip - listed, joined_round_trip));
  std::printf("other spans share %.4f; joined %zu of %zu OK requests; max "
              "|layers - round trip| %.3g us (tolerance %.3g us)\n",
              other, split.joined, split.ok_samples, split.max_sum_error_us,
              kSumToleranceUs);
  report.add("trace.other_spans.share", other, "ratio");
  report.add("trace.round_trip_us.p50",
             jps::util::percentile(round_trips, 50.0), "us");
  report.add("trace.round_trip_us.p99",
             jps::util::percentile(round_trips, 99.0), "us");
  report.add("trace.joined_requests", static_cast<double>(split.joined),
             "count");
  report.add("trace.joined_share", joined_share, "ratio");
  report.add("trace.max_sum_error_us", split.max_sum_error_us, "us");

  // Counters and /proc, from the last untraced round.
  const Round& u = *untraced;
  const CachePrediction predicted = predict_cache(w);
  const double requests = delta(u.after, u.before, "serve.requests");
  report.add("serve.cache_hit_share", measured_hit_share(u), "ratio");
  report.add("serve.coalesce_share",
             share(delta(u.after, u.before, "serve.coalesce_hits"), requests),
             "ratio");
  report.add("util.pool_tasks_per_request",
             share(delta(u.after, u.before, "thread_pool.tasks"), requests),
             "ratio");
  report.add("serve.plans_per_key",
             share(delta(u.after, u.before, "planner.plans"),
                   static_cast<double>(predicted.new_keys)),
             "ratio");
  report.add("serve.daemon_vm_mb", u.proc.vm_size_mb, "MB");
  report.add("serve.daemon_threads", u.proc.threads, "count");

  // Outside timings.
  std::vector<double> connect_us = u.connect_probe_us;
  if (w.churn) {
    connect_us.clear();
    for (const Sample& s : u.load.samples)
      if (s.ok) connect_us.push_back(s.connect_us);
  }
  report.add("serve.connect_us.p50", jps::util::percentile(connect_us, 50.0),
             "us");
  report.add("serve.connect_us.p99", jps::util::percentile(connect_us, 99.0),
             "us");
  std::vector<jps::serve::PlanReply> replies;
  for (const Sample& s : t.load.samples)
    if (s.ok) replies.push_back(s.reply);
  for (const auto& [name, value] : time_layers(w.timed, replies, verifier)) {
    const bool us = name.find("_us") != std::string::npos;
    report.add(name, value, us ? "us" : "ns");
  }

  report.add("obs.tracing_overhead_ratio", jps::util::median(ratios), "ratio");
  report.add("obs.traces_lost", traces_lost, "count");
}

void print_report(const Report& report) {
  for (const std::string& p : report.problems)
    std::cerr << "jps_perfbench: " << p << "\n";
  std::string json = "{\"correct\": ";
  json += report.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : report.metrics) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value_unit.first) ? value_unit.first : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value_unit.second + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

// One seed yields one request sequence; another seed yields another; the
// predictions keep hot_keys hot and cold_keys cold.
int self_test() {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    const std::uint64_t a = sequence_digest(make_workload(name, 7));
    const std::uint64_t b = sequence_digest(make_workload(name, 7));
    const std::uint64_t c = sequence_digest(make_workload(name, 8));
    const CachePrediction p = predict_cache(make_workload(name, 7));
    bool ok = a == b && a != c;
    if ((name == "hot_keys" || name == "conn_churn") && p.hit_share != 1.0)
      ok = false;
    if (name == "cold_keys" && p.hit_share > 0.1) ok = false;
    std::printf("%-14s digest %016llx distinct_keys=%zu "
                "predicted_cache_hit_share=%.4f %s\n",
                name.c_str(), static_cast<unsigned long long>(a),
                p.distinct_keys, p.hit_share, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw UsageError("--trace is 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--daemon") {
        opt.daemon = value;
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value for " + flag + ": " + value);
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                opt.workload) == workload_names().end())
    throw UsageError("unknown --workload '" + opt.workload + "'");
  if (!have_seed || !have_seconds || !have_trace || opt.seconds <= 0.0)
    throw UsageError("--seed, --seconds > 0 and --trace are required");
  if (opt.daemon.empty() || ::access(opt.daemon.c_str(), X_OK) != 0)
    throw UsageError("--daemon must name the jps_serve binary");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test();
  try {
    const Options opt = parse(argc, argv);
    const Workload w = make_workload(opt.workload, opt.seed);
    Report report;
    if (sequence_digest(make_workload(opt.workload, opt.seed)) !=
        sequence_digest(w))
      report.problem("the seed did not reproduce the request sequence");
    const CachePrediction p = predict_cache(w);
    std::cout << "workload=" << w.name << " seed=" << opt.seed
              << " warmup=" << w.warmup.size() << " timed=" << w.timed.size()
              << " distinct_keys=" << p.distinct_keys
              << " predicted_cache_hit_share=" << p.hit_share
              << " connections=" << load_connections() << "\n";
    if (opt.trace)
      per_layer(opt, w, report);
    else if (w.serve)
      serve_end_to_end(opt, w, report);
    else
      offline_end_to_end(opt, report);
    print_report(report);
    return report.problems.empty() ? 0 : 1;
  } catch (const UsageError& e) {
    std::cerr << "jps_perfbench: " << e.what() << "\n";
    return 64;
  } catch (const std::exception& e) {
    std::cerr << "jps_perfbench: " << e.what() << "\n";
    return 1;
  }
}
