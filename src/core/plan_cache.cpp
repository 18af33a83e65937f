#include "core/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
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

std::size_t CurveCacheKeyHash::operator()(const CurveCacheKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.model);
  h = hash_combine(h, std::hash<std::string>{}(k.device));
  h = hash_combine(h, hash_double(k.bandwidth_mbps));
  return h;
}

std::size_t PlanCacheKeyHash::operator()(const PlanCacheKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.model);
  h = hash_combine(h, std::hash<std::string>{}(k.device));
  h = hash_combine(h, hash_double(k.bandwidth_mbps));
  h = hash_combine(h, static_cast<std::size_t>(k.strategy));
  h = hash_combine(h, static_cast<std::size_t>(k.n_jobs));
  return h;
}

template <class PlanT>
BasicPlanCache<PlanT>::BasicPlanCache(std::size_t shards) {
  shards_.resize(std::max<std::size_t>(1, shards));
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

template <class PlanT>
std::size_t BasicPlanCache<PlanT>::shard_of(const CurveCacheKey& key) const {
  return CurveKeyHash{}(key) % shards_.size();
}

template <class PlanT>
std::size_t BasicPlanCache<PlanT>::shard_of(const PlanCacheKey& key) const {
  return PlanKeyHash{}(key) % shards_.size();
}

template <class PlanT>
std::shared_ptr<const partition::ProfileCurve> BasicPlanCache<PlanT>::curve(
    const CurveCacheKey& key, const CurveBuilder& build) {
  Shard& shard = *shards_[shard_of(key)];
  {
    obs::ScopedTimer probe(lookup_histogram());
    util::SharedLock lock(shard.mutex);
    const auto it = shard.curves.find(key);
    if (it != shard.curves.end()) {
      shard.curve_hits.fetch_add(1, std::memory_order_relaxed);
      curve_hit_counter().add();
      hit_ratio_gauge().set(shard.stats().hit_rate());
      return it->second;
    }
  }
  shard.curve_misses.fetch_add(1, std::memory_order_relaxed);
  curve_miss_counter().add();
  hit_ratio_gauge().set(shard.stats().hit_rate());
  // Build outside the lock: curve construction walks the DNN graph and must
  // not serialize concurrent misses for unrelated keys.
  auto built = std::make_shared<const partition::ProfileCurve>(build());
  util::MutexLock lock(shard.mutex);
  const auto [it, inserted] = shard.curves.emplace(key, std::move(built));
  return it->second;  // first insert wins for racing builders
}

template <class PlanT>
std::shared_ptr<const PlanT> BasicPlanCache<PlanT>::find_plan(
    const PlanCacheKey& key) const {
  Shard& shard = *shards_[shard_of(key)];
  obs::ScopedTimer probe(lookup_histogram());
  util::SharedLock lock(shard.mutex);
  const auto it = shard.plans.find(key);
  if (it == shard.plans.end()) return nullptr;
  shard.plan_hits.fetch_add(1, std::memory_order_relaxed);
  plan_hit_counter().add();
  hit_ratio_gauge().set(shard.stats().hit_rate());
  return it->second;
}

template <class PlanT>
std::shared_ptr<const PlanT> BasicPlanCache<PlanT>::plan(
    const PlanCacheKey& key, const ValueBuilder& build) {
  if (auto hit = find_plan(key)) return hit;
  Shard& shard = *shards_[shard_of(key)];
  shard.plan_misses.fetch_add(1, std::memory_order_relaxed);
  plan_miss_counter().add();
  hit_ratio_gauge().set(shard.stats().hit_rate());
  auto built = std::make_shared<const PlanT>(build());
  util::MutexLock lock(shard.mutex);
  const auto [it, inserted] = shard.plans.emplace(key, std::move(built));
  return it->second;
}

template <class PlanT>
std::shared_ptr<const PlanT> BasicPlanCache<PlanT>::plan(
    const PlanCacheKey& key, const PlanBuilder& build)
  requires(!std::same_as<PlanT, ExecutionPlan>)
{
  return plan(key, ValueBuilder([&build] { return PlanT::of(build()); }));
}

template <class PlanT>
PlanCacheStats BasicPlanCache<PlanT>::Shard::stats() const {
  Stats s;
  s.curve_hits = curve_hits.load(std::memory_order_relaxed);
  s.curve_misses = curve_misses.load(std::memory_order_relaxed);
  s.plan_hits = plan_hits.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses.load(std::memory_order_relaxed);
  return s;
}

template <class PlanT>
PlanCacheStats BasicPlanCache<PlanT>::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const Stats s = shard->stats();
    total.curve_hits += s.curve_hits;
    total.curve_misses += s.curve_misses;
    total.plan_hits += s.plan_hits;
    total.plan_misses += s.plan_misses;
  }
  return total;
}

template <class PlanT>
void BasicPlanCache<PlanT>::reset_stats() {
  for (const auto& shard : shards_) {
    shard->curve_hits.store(0, std::memory_order_relaxed);
    shard->curve_misses.store(0, std::memory_order_relaxed);
    shard->plan_hits.store(0, std::memory_order_relaxed);
    shard->plan_misses.store(0, std::memory_order_relaxed);
  }
}

template <class PlanT>
void BasicPlanCache<PlanT>::clear() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->curves.clear();
    shard->plans.clear();
  }
  reset_stats();
}

template <class PlanT>
std::size_t BasicPlanCache<PlanT>::curve_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    util::SharedLock lock(shard->mutex);
    n += shard->curves.size();
  }
  return n;
}

template <class PlanT>
std::size_t BasicPlanCache<PlanT>::plan_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    util::SharedLock lock(shard->mutex);
    n += shard->plans.size();
  }
  return n;
}

template <class PlanT>
BasicPlanCache<PlanT>& BasicPlanCache<PlanT>::global()
  requires std::same_as<PlanT, ExecutionPlan>
{
  static BasicPlanCache cache;
  return cache;
}

template class BasicPlanCache<ExecutionPlan>;
template class BasicPlanCache<PlanDecision>;

}  // namespace jps::core
