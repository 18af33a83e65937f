#include "core/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "check/contracts.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace jps::core {

namespace {

// -0.0 == 0.0 but the two differ in bit pattern, so hashing the raw bits
// would split one logical key across two buckets; NaN is worse — it is
// unequal even to itself, so a NaN-keyed entry could never be found again
// and would silently poison the table.  Both key types funnel their
// bandwidth through here at construction.
double canonical_bandwidth(double mbps) {
  JPS_REQUIRE(std::isfinite(mbps),
              "cache keys need a finite bandwidth: a NaN key is unequal to "
              "itself and would poison the table");
  return mbps == 0.0 ? 0.0 : mbps;
}

}  // namespace

CurveCacheKey::CurveCacheKey(std::string model, std::string device,
                             double bandwidth_mbps)
    : model(std::move(model)),
      device(std::move(device)),
      bandwidth_mbps(canonical_bandwidth(bandwidth_mbps)) {}

PlanCacheKey::PlanCacheKey(std::string model, std::string device,
                           double bandwidth_mbps, Strategy strategy,
                           int n_jobs)
    : model(std::move(model)),
      device(std::move(device)),
      bandwidth_mbps(canonical_bandwidth(bandwidth_mbps)),
      strategy(strategy),
      n_jobs(n_jobs) {}

namespace {

// Registry-side mirrors of the Stats counters so `--metrics` and trace
// dumps see cache behaviour alongside every other subsystem.
obs::Counter& curve_hit_counter() {
  static obs::Counter& c = obs::counter("plan_cache.curve_hits");
  return c;
}
obs::Counter& curve_miss_counter() {
  static obs::Counter& c = obs::counter("plan_cache.curve_misses");
  return c;
}
obs::Counter& plan_hit_counter() {
  static obs::Counter& c = obs::counter("plan_cache.plan_hits");
  return c;
}
obs::Counter& plan_miss_counter() {
  static obs::Counter& c = obs::counter("plan_cache.plan_misses");
  return c;
}

// Distribution of the probe itself (shared-lock find; build time excluded)
// and the live hit ratio across both tables.
obs::Histogram& lookup_histogram() {
  static obs::Histogram& h = obs::histogram("plan_cache.lookup_ms");
  return h;
}
obs::Gauge& hit_ratio_gauge() {
  static obs::Gauge& g = obs::gauge("plan_cache.hit_ratio");
  return g;
}

}  // namespace

namespace {

// splitmix64-style combine; good avalanche for composite keys.
std::size_t hash_combine(std::size_t seed, std::size_t value) {
  value += 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
  value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ull;
  return seed ^ (value ^ (value >> 27));
}

std::size_t hash_double(double x) {
  // Key construction already canonicalized -0.0 and rejected non-finite
  // values; normalize again here so even a key whose field was mutated
  // after construction hashes consistently with operator==.
  if (x == 0.0) x = 0.0;
  return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(x));
}

}  // namespace

std::size_t PlanCache::CurveKeyHash::operator()(
    const CurveCacheKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.model);
  h = hash_combine(h, std::hash<std::string>{}(k.device));
  h = hash_combine(h, hash_double(k.bandwidth_mbps));
  return h;
}

std::size_t PlanCache::PlanKeyHash::operator()(const PlanCacheKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.model);
  h = hash_combine(h, std::hash<std::string>{}(k.device));
  h = hash_combine(h, hash_double(k.bandwidth_mbps));
  h = hash_combine(h, static_cast<std::size_t>(k.strategy));
  h = hash_combine(h, static_cast<std::size_t>(k.n_jobs));
  return h;
}

std::shared_ptr<const partition::ProfileCurve> PlanCache::curve(
    const CurveCacheKey& key, const CurveBuilder& build) {
  {
    obs::ScopedTimer probe(lookup_histogram());
    util::SharedLock lock(mutex_);
    const auto it = curves_.find(key);
    if (it != curves_.end()) {
      curve_hits_.fetch_add(1, std::memory_order_relaxed);
      curve_hit_counter().add();
      hit_ratio_gauge().set(stats().hit_rate());
      return it->second;
    }
  }
  curve_misses_.fetch_add(1, std::memory_order_relaxed);
  curve_miss_counter().add();
  hit_ratio_gauge().set(stats().hit_rate());
  // Build outside the lock: curve construction walks the DNN graph and must
  // not serialize concurrent misses for unrelated keys.
  auto built = std::make_shared<const partition::ProfileCurve>(build());
  util::MutexLock lock(mutex_);
  const auto [it, inserted] = curves_.emplace(key, std::move(built));
  return it->second;  // first insert wins for racing builders
}

std::shared_ptr<const ExecutionPlan> PlanCache::find_plan(
    const PlanCacheKey& key) {
  obs::ScopedTimer probe(lookup_histogram());
  util::SharedLock lock(mutex_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) return nullptr;
  plan_hits_.fetch_add(1, std::memory_order_relaxed);
  plan_hit_counter().add();
  hit_ratio_gauge().set(stats().hit_rate());
  return it->second;
}

std::shared_ptr<const ExecutionPlan> PlanCache::plan(const PlanCacheKey& key,
                                                     const PlanBuilder& build) {
  if (auto hit = find_plan(key)) return hit;
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  plan_miss_counter().add();
  hit_ratio_gauge().set(stats().hit_rate());
  auto built = std::make_shared<const ExecutionPlan>(build());
  util::MutexLock lock(mutex_);
  const auto [it, inserted] = plans_.emplace(key, std::move(built));
  return it->second;
}

void PlanCache::insert_plan(const PlanCacheKey& key,
                            std::shared_ptr<const ExecutionPlan> plan) {
  if (!plan) return;
  util::MutexLock lock(mutex_);
  plans_.emplace(key, std::move(plan));  // first insert wins
}

std::vector<PlanCache::PlanEntry> PlanCache::plan_entries() const {
  util::SharedLock lock(mutex_);
  std::vector<PlanEntry> out;
  out.reserve(plans_.size());
  for (const auto& [key, plan] : plans_) out.emplace_back(key, plan);
  return out;
}

std::shared_ptr<const ExecutionPlan> PlanCache::nearest_plan(
    const PlanCacheKey& want, double* bandwidth_out) const {
  util::SharedLock lock(mutex_);
  std::shared_ptr<const ExecutionPlan> best;
  double best_bw = 0.0;
  for (const auto& [key, plan] : plans_) {
    if (key.model != want.model || key.device != want.device ||
        key.strategy != want.strategy || key.n_jobs != want.n_jobs)
      continue;
    const double diff = std::abs(key.bandwidth_mbps - want.bandwidth_mbps);
    const double best_diff = std::abs(best_bw - want.bandwidth_mbps);
    if (!best || diff < best_diff ||
        (diff == best_diff && key.bandwidth_mbps < best_bw)) {
      best = plan;
      best_bw = key.bandwidth_mbps;
    }
  }
  if (best && bandwidth_out != nullptr) *bandwidth_out = best_bw;
  return best;
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.curve_hits = curve_hits_.load(std::memory_order_relaxed);
  s.curve_misses = curve_misses_.load(std::memory_order_relaxed);
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  return s;
}

void PlanCache::reset_stats() {
  curve_hits_.store(0, std::memory_order_relaxed);
  curve_misses_.store(0, std::memory_order_relaxed);
  plan_hits_.store(0, std::memory_order_relaxed);
  plan_misses_.store(0, std::memory_order_relaxed);
}

void PlanCache::clear() {
  util::MutexLock lock(mutex_);
  curves_.clear();
  plans_.clear();
  lock.unlock();
  reset_stats();
}

std::size_t PlanCache::curve_count() const {
  util::SharedLock lock(mutex_);
  return curves_.size();
}

std::size_t PlanCache::plan_count() const {
  util::SharedLock lock(mutex_);
  return plans_.size();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

ShardedPlanCache::ShardedPlanCache(std::size_t shards) {
  shards_.reserve(std::max<std::size_t>(1, shards));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, shards); ++i)
    shards_.push_back(std::make_unique<PlanCache>());
}

std::size_t ShardedPlanCache::shard_of(const CurveCacheKey& key) const {
  return PlanCache::CurveKeyHash{}(key) % shards_.size();
}

std::size_t ShardedPlanCache::shard_of(const PlanCacheKey& key) const {
  return PlanCache::PlanKeyHash{}(key) % shards_.size();
}

std::shared_ptr<const partition::ProfileCurve> ShardedPlanCache::curve(
    const CurveCacheKey& key, const PlanCache::CurveBuilder& build) {
  return shards_[shard_of(key)]->curve(key, build);
}

std::shared_ptr<const ExecutionPlan> ShardedPlanCache::plan(
    const PlanCacheKey& key, const PlanCache::PlanBuilder& build) {
  return shards_[shard_of(key)]->plan(key, build);
}

std::shared_ptr<const ExecutionPlan> ShardedPlanCache::find_plan(
    const PlanCacheKey& key) {
  return shards_[shard_of(key)]->find_plan(key);
}

void ShardedPlanCache::insert_plan(const PlanCacheKey& key,
                                   std::shared_ptr<const ExecutionPlan> plan) {
  shards_[shard_of(key)]->insert_plan(key, std::move(plan));
}

std::vector<PlanCache::PlanEntry> ShardedPlanCache::plan_entries() const {
  std::vector<PlanCache::PlanEntry> out;
  for (const auto& shard : shards_) {
    auto entries = shard->plan_entries();
    out.insert(out.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  return out;
}

std::shared_ptr<const ExecutionPlan> ShardedPlanCache::nearest_plan(
    const PlanCacheKey& want, double* bandwidth_out) const {
  std::shared_ptr<const ExecutionPlan> best;
  double best_bw = 0.0;
  for (const auto& shard : shards_) {
    double bw = 0.0;
    auto candidate = shard->nearest_plan(want, &bw);
    if (!candidate) continue;
    const double diff = std::abs(bw - want.bandwidth_mbps);
    const double best_diff = std::abs(best_bw - want.bandwidth_mbps);
    if (!best || diff < best_diff || (diff == best_diff && bw < best_bw)) {
      best = std::move(candidate);
      best_bw = bw;
    }
  }
  if (best && bandwidth_out != nullptr) *bandwidth_out = best_bw;
  return best;
}

PlanCache::Stats ShardedPlanCache::stats() const {
  PlanCache::Stats total;
  for (const auto& shard : shards_) {
    const PlanCache::Stats s = shard->stats();
    total.curve_hits += s.curve_hits;
    total.curve_misses += s.curve_misses;
    total.plan_hits += s.plan_hits;
    total.plan_misses += s.plan_misses;
  }
  return total;
}

void ShardedPlanCache::reset_stats() {
  for (const auto& shard : shards_) shard->reset_stats();
}

void ShardedPlanCache::clear() {
  for (const auto& shard : shards_) shard->clear();
}

std::size_t ShardedPlanCache::curve_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->curve_count();
  return n;
}

std::size_t ShardedPlanCache::plan_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->plan_count();
  return n;
}

}  // namespace jps::core
