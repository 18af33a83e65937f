// Memoization of profile curves and execution plans.
//
// Serving traffic means answering the same planning question again and
// again: the fig13/fig14 sweeps ask for one curve per (model, bandwidth)
// and four plans on top of it; a deployment asks for the same (model,
// device, bandwidth, strategy, n) whenever two users share a network
// condition.  Curve construction walks the whole DNN graph and planning
// re-runs Johnson + makespan, so both are worth caching: results are pure
// functions of their keys (deterministic by design — see
// docs/PARALLELISM.md).
//
// Concurrency: reads take a shared lock; a miss builds *outside* any lock
// (concurrent misses for one key may build twice — the first insert wins
// and later builders adopt the cached value, keeping hit pointers stable).
// Values are handed out as shared_ptr<const T> so entries stay alive across
// clear() while a caller still uses them.
//
// Values: the library PlanCache hands out full ExecutionPlans (per-job
// cuts, order and stage lanes: 64 B per job).  The serve cache,
// ShardedPlanCache, hands out fixed-size PlanDecisions: a reply needs only
// the cut mix and makespan.  jps_serve inserts core::decide's decisions
// and never uses the curve table, so the serve cache holds no curves.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "partition/profile_curve.h"
#include "util/mutex.h"

namespace jps::core {

/// Identity of a profile curve: one model on one device over one channel.
///
/// The constructor canonicalizes the bandwidth (-0.0 becomes 0.0, so equal
/// keys hash equally) and rejects non-finite values with a JPS_REQUIRE: a
/// NaN bandwidth would compare unequal to itself, making the entry
/// unreachable while it silently occupies (and poisons) the table.
struct CurveCacheKey {
  std::string model;
  /// Device/profile identity (e.g. DeviceProfile::name, or a lookup-table
  /// path for profiled deployments).
  std::string device;
  double bandwidth_mbps = 0.0;

  CurveCacheKey() = default;
  CurveCacheKey(std::string model, std::string device, double bandwidth_mbps);

  friend bool operator==(const CurveCacheKey&, const CurveCacheKey&) = default;
};

/// Identity of an execution plan: a curve identity plus the planning ask.
/// Bandwidth canonicalization/validation as in CurveCacheKey.
struct PlanCacheKey {
  std::string model;
  std::string device;
  double bandwidth_mbps = 0.0;
  Strategy strategy = Strategy::kJPS;
  int n_jobs = 0;

  PlanCacheKey() = default;
  PlanCacheKey(std::string model, std::string device, double bandwidth_mbps,
               Strategy strategy = Strategy::kJPS, int n_jobs = 0);

  friend bool operator==(const PlanCacheKey&, const PlanCacheKey&) = default;
};

/// Hit/miss counters of a plan cache (both tables).
struct PlanCacheStats {
  std::uint64_t curve_hits = 0;
  std::uint64_t curve_misses = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;

  [[nodiscard]] std::uint64_t hits() const { return curve_hits + plan_hits; }
  [[nodiscard]] std::uint64_t misses() const {
    return curve_misses + plan_misses;
  }
  /// Hits over lookups across both tables (0 when never queried).
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }
};

/// The hashes the tables key on (also shard routing, and any other map
/// that must treat two keys as one exactly when the cache does).
struct CurveCacheKeyHash {
  std::size_t operator()(const CurveCacheKey& k) const;
};
struct PlanCacheKeyHash {
  std::size_t operator()(const PlanCacheKey& k) const;
};

/// Thread-safe memo of curves and plans with hit/miss accounting, striped
/// across N independent shards, each with its own shared_mutex.  A key is
/// routed to a shard by its hash (curve and plan keys with equal (model,
/// device, bandwidth) may land on different shards — the tables are
/// independent, so that is fine).  One shard is enough for a bench loop,
/// but a multi-tenant plan server answers concurrent requests for
/// *different* (model, bandwidth-bucket) keys, and a single writer
/// inserting a miss would stall every reader behind one lock.
///
/// The plan table stores one `PlanT` per key: the full ExecutionPlan
/// (PlanCache) or its PlanDecision (ShardedPlanCache).  Either way plan()
/// takes a builder of the full ExecutionPlan.
template <class PlanT>
class BasicPlanCache {
 public:
  using Stats = PlanCacheStats;
  using CurveKeyHash = CurveCacheKeyHash;
  using PlanKeyHash = PlanCacheKeyHash;
  using CurveBuilder = std::function<partition::ProfileCurve()>;
  using PlanBuilder = std::function<ExecutionPlan()>;
  /// Builds the stored value itself (a PlanBuilder for PlanCache).
  using ValueBuilder = std::function<PlanT()>;

  /// `shards` is clamped to at least 1.
  explicit BasicPlanCache(std::size_t shards = 1);
  BasicPlanCache(const BasicPlanCache&) = delete;
  BasicPlanCache& operator=(const BasicPlanCache&) = delete;

  /// The curve for `key`, building it with `build` on a miss.
  [[nodiscard]] std::shared_ptr<const partition::ProfileCurve> curve(
      const CurveCacheKey& key, const CurveBuilder& build);

  /// The plan for `key`, building it with `build` on a miss.
  [[nodiscard]] std::shared_ptr<const PlanT> plan(const PlanCacheKey& key,
                                                  const ValueBuilder& build);

  /// A PlanDecision table built from full plans: keeps PlanDecision::of
  /// the built plan, which is then freed.
  [[nodiscard]] std::shared_ptr<const PlanT> plan(const PlanCacheKey& key,
                                                  const PlanBuilder& build)
    requires(!std::same_as<PlanT, ExecutionPlan>);

  /// The cached plan for `key`, or nullptr; never builds.  Counts a plan
  /// hit on success and nothing on a miss, so a caller that falls back to
  /// plan() after a nullptr still has that lookup counted exactly once.
  [[nodiscard]] std::shared_ptr<const PlanT> find_plan(
      const PlanCacheKey& key) const;

  /// Counters summed over every shard (monotone since construction or
  /// reset_stats()).
  [[nodiscard]] Stats stats() const;

  /// Zero the hit/miss counters (entries are kept).
  void reset_stats();

  /// Drop all entries and zero the counters.  Outstanding shared_ptrs stay
  /// valid.
  void clear();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t curve_count() const;
  [[nodiscard]] std::size_t plan_count() const;

  /// Shard index a key routes to (exposed so tests can pin the routing).
  [[nodiscard]] std::size_t shard_of(const CurveCacheKey& key) const;
  [[nodiscard]] std::size_t shard_of(const PlanCacheKey& key) const;

  /// The process-wide cache the benches and CLI share.
  [[nodiscard]] static BasicPlanCache& global()
    requires std::same_as<PlanT, ExecutionPlan>;

 private:
  struct Shard {
    // One lock-order name per cache *class*: every shard (and the global
    // cache) is interchangeable in the acquisition graph, and no code path
    // nests two of them.
    mutable util::SharedMutex mutex{"core.plan_cache"};
    std::unordered_map<CurveCacheKey,
                       std::shared_ptr<const partition::ProfileCurve>,
                       CurveKeyHash>
        curves JPS_GUARDED_BY(mutex);
    std::unordered_map<PlanCacheKey, std::shared_ptr<const PlanT>,
                       PlanKeyHash>
        plans JPS_GUARDED_BY(mutex);
    std::atomic<std::uint64_t> curve_hits{0};
    std::atomic<std::uint64_t> curve_misses{0};
    std::atomic<std::uint64_t> plan_hits{0};
    std::atomic<std::uint64_t> plan_misses{0};

    [[nodiscard]] Stats stats() const;
  };

  // unique_ptr: a Shard holds a mutex and atomics, so it cannot move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

extern template class BasicPlanCache<ExecutionPlan>;
extern template class BasicPlanCache<PlanDecision>;

/// The library cache (benches, CLI, simulator hooks): full per-job plans,
/// one shard by default.
using PlanCache = BasicPlanCache<ExecutionPlan>;

/// The serve cache: fixed-size PlanDecisions, so a cached key costs the
/// same at any n_jobs.  Construct with the server's lock-stripe count.
using ShardedPlanCache = BasicPlanCache<PlanDecision>;

}  // namespace jps::core
