#include "load.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <thread>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/trace_context.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using jps::serve::Client;
using jps::serve::PlanReply;
using jps::serve::PlanRequest;
using Clock = std::chrono::steady_clock;

namespace {

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::string bucket_key(const std::string& model, double bucket) {
  return model + '|' + std::to_string(std::bit_cast<std::uint64_t>(bucket));
}

}  // namespace

std::unique_ptr<Client> connect(std::uint16_t port) {
  jps::serve::ClientRetryOptions options;
  options.read_timeout_ms = kReadTimeoutMs;
  return std::make_unique<Client>(jps::serve::socket_connect("127.0.0.1", port),
                                  options);
}

LoadResult run_load(std::uint16_t port, const std::vector<PlanRequest>& requests,
                    std::size_t connections, bool churn) {
  LoadResult result;
  result.samples.resize(requests.size());
  std::vector<std::unique_ptr<Client>> clients(connections);
  if (!churn)
    for (auto& client : clients) client = connect(port);

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<Clock::time_point> finished(connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = c; i < requests.size(); i += connections) {
        Sample& s = result.samples[i];
        const jps::obs::TraceContext context = jps::obs::TraceContext::start();
        const jps::obs::TraceScope scope(context);
        s.trace_hi = context.trace_hi;
        s.trace_lo = context.trace_lo;
        s.sent = true;
        const Clock::time_point t0 = Clock::now();
        try {
          if (churn) {
            clients[c] = connect(port);
            s.connect_us = micros(t0, Clock::now());
          }
          s.reply = clients[c]->plan(requests[i]);
          s.round_trip_us = micros(t0, Clock::now());
          s.ok = s.reply.ok();
          if (churn) clients[c].reset();
        } catch (const std::exception& e) {
          // A broken or timed-out connection is out of sync: stop this
          // connection's loop; its unsent requests stay unattempted.
          s.error = e.what();
          break;
        }
      }
      finished[c] = Clock::now();
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Clock::time_point end = start;
  for (const Clock::time_point t : finished) end = std::max(end, t);
  clients.clear();

  result.window_s = micros(start, end) / 1e6;
  for (const Sample& s : result.samples) {
    result.attempted += s.sent ? 1 : 0;
    result.ok += s.ok ? 1 : 0;
  }
  return result;
}

std::vector<PlanReply> run_sequential(Client& client,
                                      const std::vector<PlanRequest>& requests) {
  std::vector<PlanReply> replies;
  replies.reserve(requests.size());
  for (const PlanRequest& r : requests) replies.push_back(client.plan(r));
  return replies;
}

Counters scrape_counters(Client& client) {
  const jps::serve::StatsReply reply = client.scrape_stats();
  if (reply.status != jps::serve::Status::kOk)
    throw std::runtime_error("STATS scrape failed");
  Counters counters;
  const jps::util::Json json = jps::util::Json::parse(reply.json);
  if (const jps::util::Json* all = json.get("counters"))
    for (const auto& [name, value] : all->members())
      counters[name] = value.as_double();
  return counters;
}

double delta(const Counters& after, const Counters& before,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::vector<jps::serve::CutMix> cut_mix(const std::vector<std::size_t>& cuts) {
  std::map<std::size_t, std::uint32_t> counts;
  for (const std::size_t cut : cuts) ++counts[cut];
  std::vector<jps::serve::CutMix> mix;
  for (const auto& [cut, count] : counts)
    mix.push_back({static_cast<std::uint32_t>(cut), count});
  return mix;
}

const jps::partition::ProfileCurve& Verifier::curve(const std::string& model,
                                                    double bucket_mbps) {
  std::unique_ptr<jps::partition::ProfileCurve>& slot =
      curves_[bucket_key(model, bucket_mbps)];
  if (!slot) {
    std::shared_ptr<const jps::dnn::Graph>& graph = graphs_[model];
    if (!graph)
      graph = std::make_shared<const jps::dnn::Graph>(jps::models::build(model));
    // The daemon's ServerOptions::device default and per-bucket channel.
    const jps::profile::LatencyModel mobile(
        jps::profile::DeviceProfile::raspberry_pi_4b());
    slot = std::make_unique<jps::partition::ProfileCurve>(
        jps::partition::ProfileCurve::build(*graph, mobile,
                                            jps::net::Channel(bucket_mbps)));
  }
  return *slot;
}

std::string Verifier::check(const PlanRequest& request, const PlanReply& reply) {
  const double bucket =
      jps::serve::quantize_bandwidth(request.bandwidth_mbps, kBucketMbps);
  if (reply.bandwidth_bucket_mbps != bucket)
    return "bucket " + std::to_string(reply.bandwidth_bucket_mbps) +
           ", want " + std::to_string(bucket);
  Expected& want = expected_[plan_key(request)];
  if (want.mix.empty()) {
    const jps::core::ExecutionPlan plan =
        jps::core::Planner(curve(request.model, bucket))
            .plan(request.strategy, request.n_jobs);
    std::vector<std::size_t> cuts;
    for (const jps::core::JobAssignment& job : plan.jobs)
      cuts.push_back(job.cut_index);
    want.makespan_ms = plan.predicted_makespan;
    want.mix = cut_mix(cuts);
  }
  if (std::bit_cast<std::uint64_t>(reply.makespan_ms) !=
      std::bit_cast<std::uint64_t>(want.makespan_ms))
    return "makespan differs from Planner::plan";
  if (reply.mix != want.mix) return "cut mix differs from Planner::plan";
  return "";
}

}  // namespace perfbench
