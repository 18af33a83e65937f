#include "workloads.h"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "models/registry.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

using jps::core::Strategy;
using jps::serve::PlanRequest;

namespace {

constexpr std::size_t kHotRequests = 40000;
constexpr std::size_t kColdRequests = 20000;
// Each churned connection leaves an unjoined thread (about 8 MB of virtual
// memory) in the daemon until it drains; see README.md.
constexpr std::size_t kChurnRequests = 2000;
constexpr std::size_t kReplayRequests = 4000;

const char* const kHotModels[] = {"alexnet", "vgg16", "nin", "mobilenet_v2"};
const double kHotUplinks[] = {4.0, 10.0, 25.0, 50.0};

PlanRequest request(const std::string& model, double mbps, Strategy strategy,
                    int n_jobs) {
  PlanRequest r;
  r.tenant = "perfbench";
  r.model = model;
  r.bandwidth_mbps = mbps;
  r.strategy = strategy;
  r.n_jobs = n_jobs;
  return r;
}

double log_uniform(jps::util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

Strategy any_strategy(jps::util::Rng& rng) {
  const auto& all = servable_strategies();
  return all[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))]
      .strategy;
}

const std::string& any_model(jps::util::Rng& rng) {
  const auto& names = jps::models::all_names();
  return names[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
}

// n_jobs log-uniform over [1, 512], the range of the paper's Fig. 11.
int any_jobs(jps::util::Rng& rng) {
  return std::min(512, static_cast<int>(log_uniform(rng, 1.0, 513.0)));
}

// hot_keys / conn_churn: 16 keys; the noise stays inside the uplink's bucket.
void hot_sequence(jps::util::Rng& rng, std::size_t count, Workload& w) {
  for (const char* model : kHotModels)
    for (const double uplink : kHotUplinks)
      w.warmup.push_back(request(model, uplink, Strategy::kJPS, 8));
  for (std::size_t i = 0; i < count; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 15));
    const double noise = rng.uniform(-0.12, 0.12);
    w.timed.push_back(request(kHotModels[k / 4], kHotUplinks[k % 4] + noise,
                              Strategy::kJPS, 8));
  }
}

// cold_keys: ~14.7M keys, so nearly every timed request plans afresh; the
// warm-up builds every (model, bucket) curve once.
void cold_sequence(jps::util::Rng& rng, Workload& w) {
  for (const std::string& model : jps::models::all_names()) {
    for (int k = 4; k <= 400; ++k) {
      w.warmup.push_back(request(model, k * kBucketMbps, any_strategy(rng),
                                 any_jobs(rng)));
    }
  }
  for (std::size_t i = 0; i < kColdRequests; ++i) {
    const std::string& model = any_model(rng);
    const double mbps = log_uniform(rng, 1.0, 100.0);
    const Strategy strategy = any_strategy(rng);
    w.timed.push_back(request(model, mbps, strategy, any_jobs(rng)));
  }
}

// offline_sweep's traced replay: the sweep's own questions (grid rates,
// sweep n_jobs, every strategy and model) asked of a daemon.
void replay_sequence(jps::util::Rng& rng, Workload& w) {
  const std::vector<double> grid = sweep_grid();
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const std::string& model = any_model(rng);
    const double mbps = grid[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(grid.size()) - 1))];
    const Strategy strategy = any_strategy(rng);
    const int n_jobs = kSweepJobs[rng.uniform_int(0, 2)];
    w.timed.push_back(request(model, mbps, strategy, n_jobs));
  }
}

}  // namespace

const std::vector<NamedStrategy>& servable_strategies() {
  static const std::vector<NamedStrategy> kAll = {
      {Strategy::kLocalOnly, "lo"},      {Strategy::kCloudOnly, "co"},
      {Strategy::kPartitionOnly, "po"},  {Strategy::kJPS, "jps"},
      {Strategy::kJPSTuned, "jps_star"}, {Strategy::kJPSHull, "jps_plus"}};
  return kAll;
}

std::vector<double> sweep_grid() {
  std::vector<double> grid(kSweepGridPoints);
  const double step = std::log(100.0) / static_cast<double>(grid.size() - 1);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = std::exp(step * static_cast<double>(i));
  return grid;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"hot_keys", "cold_keys",
                                                  "conn_churn",
                                                  "offline_sweep"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  jps::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  Workload w;
  w.name = name;
  if (name == "hot_keys") {
    hot_sequence(rng, kHotRequests, w);
  } else if (name == "cold_keys") {
    cold_sequence(rng, w);
  } else if (name == "conn_churn") {
    w.churn = true;
    hot_sequence(rng, kChurnRequests, w);
  } else if (name == "offline_sweep") {
    w.serve = false;
    replay_sequence(rng, w);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string plan_key(const PlanRequest& r) {
  const double bucket =
      jps::serve::quantize_bandwidth(r.bandwidth_mbps, kBucketMbps);
  return r.model + '|' + std::to_string(static_cast<int>(r.strategy)) + '|' +
         std::to_string(r.n_jobs) + '|' +
         std::to_string(std::bit_cast<std::uint64_t>(bucket));
}

CachePrediction predict_cache(const Workload& w) {
  std::unordered_set<std::string> planned;
  for (const PlanRequest& r : w.warmup) planned.insert(plan_key(r));
  const std::size_t warm = planned.size();
  std::unordered_set<std::string> distinct;
  std::size_t hits = 0;
  for (const PlanRequest& r : w.timed) {
    std::string key = plan_key(r);
    if (!planned.insert(key).second) ++hits;
    distinct.insert(std::move(key));
  }
  CachePrediction p;
  p.distinct_keys = distinct.size();
  p.new_keys = planned.size() - warm;
  p.hit_share = w.timed.empty() ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(w.timed.size());
  return p;
}

std::uint64_t sequence_digest(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto* list : {&w.warmup, &w.timed}) {
    for (const PlanRequest& r : *list) {
      mix(r.model.data(), r.model.size());
      mix(&r.bandwidth_mbps, sizeof r.bandwidth_mbps);
      mix(&r.strategy, sizeof r.strategy);
      mix(&r.n_jobs, sizeof r.n_jobs);
    }
  }
  return h;
}

}  // namespace perfbench
