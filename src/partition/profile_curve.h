// The (f, g) profile curve over candidate cut-points — the object every
// partition algorithm in the paper operates on.
//
// A cut-point i stands for "compute local_nodes on the mobile device, send
// the cut tensor(s), compute the rest on the cloud".  For a line DNN the
// candidates are layer prefixes; for a general DNN they are prefixes ending
// at trunk (articulation) nodes, or spread cut-sets produced by
// partition/general_dag.  Candidates are ordered by non-decreasing f, and
// virtual-block clustering (§3.2) prunes any candidate whose g is not
// strictly below all cheaper candidates' g — exactly the paper's rule that
// cutting inside a volume-increasing block can never be optimal.
//
// Index 0 is always the cloud-only cut (f = 0, g = input upload) and the
// last index is always the local-only cut (g = 0).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "dnn/graph.h"
#include "net/channel.h"
#include "profile/latency_model.h"
#include "profile/lookup_table.h"
#include "sched/bruteforce.h"

namespace jps::partition {

/// One candidate cut.
struct CutPoint {
  /// Nodes whose outputs cross the cut (the paper's set P_j).  Empty for the
  /// local-only cut.
  std::vector<dnn::NodeId> cut_nodes;
  /// All nodes computed on the mobile device (cut nodes and their ancestors),
  /// in topological order.
  std::vector<dnn::NodeId> local_nodes;
  /// Mobile computation time f(P_j), ms.
  double f = 0.0;
  /// Offload communication time g(P_j), ms.
  double g = 0.0;
  /// Cloud computation time of the remainder, ms (3-stage analyses only).
  double cloud = 0.0;
  /// Total bytes crossing the cut (0 for local-only).
  std::uint64_t offload_bytes = 0;
  /// Display label (e.g. the deepest cut node's label).
  std::string label;
};

/// Returns the mobile execution time of one node, ms.
using NodeTimeFn = std::function<double(dnn::NodeId)>;
/// Returns the uplink transfer time for a payload, ms.
using CommTimeFn = std::function<double(std::uint64_t bytes)>;

/// Virtual-block clustering (§3.2) as a running filter: feed candidates in
/// non-decreasing f order, and keep(g) says whether that candidate survives,
/// i.e. whether its g is strictly below every kept cheaper candidate's g.
/// The one implementation of the rule, shared by
/// ProfileCurve::from_candidates and CandidateLanes::at.
struct VirtualBlockFilter {
  double min_g = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool keep(double g) {
    if (!(g < min_g)) return false;
    min_g = g;
    return true;
  }
};

/// Options for building curves.
struct CurveOptions {
  /// Apply virtual-block clustering (§3.2). Disable only for ablations.
  bool cluster = true;
  /// Also fill CutPoint::cloud with the remainder's cloud-side time.
  bool with_cloud_times = false;
};

class ProfileCurve {
 public:
  ProfileCurve() = default;

  /// Build the trunk-cut curve of `g` (works for line and general DNNs; for
  /// a line DNN the trunk is every node).  `g.infer()` must have run.
  [[nodiscard]] static ProfileCurve build(const dnn::Graph& graph,
                                          const NodeTimeFn& mobile_time,
                                          const CommTimeFn& comm_time,
                                          const CurveOptions& options = {});

  /// Convenience: mobile times from an analytic latency model, comm times
  /// from a channel; cloud times from `cloud_model` when options request it.
  [[nodiscard]] static ProfileCurve build(
      const dnn::Graph& graph, const profile::LatencyModel& mobile_model,
      const net::Channel& channel, const CurveOptions& options = {},
      const profile::LatencyModel* cloud_model = nullptr);

  /// Convenience: mobile times from a profiled lookup table (the deployment
  /// path of §6.1), comm times from a channel.
  [[nodiscard]] static ProfileCurve build(
      const dnn::Graph& graph, const profile::LookupTable& table,
      const net::Channel& channel, const CurveOptions& options = {});

  /// Assemble a curve from explicit candidates: sorts by f, enforces the
  /// cloud-only/local-only endpoints, optionally clusters.  Used by the
  /// general-DAG builder and by tests that craft synthetic curves.
  [[nodiscard]] static ProfileCurve from_candidates(
      std::string model_name, std::vector<CutPoint> candidates,
      const CurveOptions& options = {});

  /// Number of candidate cuts (>= 2 for any non-empty model).
  [[nodiscard]] std::size_t size() const { return cuts_.size(); }

  [[nodiscard]] const CutPoint& cut(std::size_t i) const;

  /// f value of cut i, ms.  Reads the contiguous SoA lane, not the CutPoint.
  [[nodiscard]] double f(std::size_t i) const {
    check_index(i);
    return f_lane_[i];
  }

  /// g value of cut i, ms.  Reads the contiguous SoA lane, not the CutPoint.
  [[nodiscard]] double g(std::size_t i) const {
    check_index(i);
    return g_lane_[i];
  }

  /// The structure-of-arrays view of the curve: one contiguous double per
  /// cut, indexed identically to cut().  These lanes are what the planner's
  /// batched sweeps and makespan kernels iterate — no CutPoint (strings,
  /// node vectors) is touched on the hot path.  Invalidated by destroying
  /// or reassigning the curve, like any internal reference.
  [[nodiscard]] std::span<const double> f_lane() const { return f_lane_; }
  [[nodiscard]] std::span<const double> g_lane() const { return g_lane_; }

  /// Bytes crossing each cut (0 for local-only), same indexing as f_lane().
  /// Batched bandwidth sweeps re-derive g from this lane per rate.
  [[nodiscard]] std::span<const std::uint64_t> offload_bytes_lane() const {
    return bytes_lane_;
  }

  /// Index of the cloud-only cut (always 0).
  [[nodiscard]] std::size_t cloud_only_index() const { return 0; }

  /// Index of the local-only cut (always size()-1).
  [[nodiscard]] std::size_t local_only_index() const { return cuts_.size() - 1; }

  /// Model the curve was built for.
  [[nodiscard]] const std::string& model_name() const { return model_name_; }

  /// True if f is non-decreasing and g non-increasing across indices — the
  /// §3.2 monotonicity that Alg. 2's binary search requires.  Guaranteed
  /// after clustering; exposed for tests and ablations.  O(1): computed once
  /// at construction, so Alg. 2's validation stays O(log k) overall.
  [[nodiscard]] bool is_monotone() const { return monotone_; }

  /// Re-evaluate g of every cut with a different comm-time function while
  /// KEEPING the cut order and indices (no re-sort, no re-clustering): cut i
  /// of the returned curve has the same local/cut node sets as cut i here.
  /// This is the replanning primitive — when the observed bandwidth drifts,
  /// the planner re-decides over the same candidate cuts at the new rate,
  /// and the resulting cut indices remain valid against the original curve
  /// (and hence against work already executing).  Monotonicity is refreshed;
  /// any comm model affine in bytes (net::Channel at any bandwidth)
  /// preserves it.
  [[nodiscard]] ProfileCurve with_comm_times(const CommTimeFn& comm_time) const;

  /// Convenience: with_comm_times at `channel`'s affine model re-based to
  /// `mbps`.
  [[nodiscard]] ProfileCurve with_bandwidth(const net::Channel& channel,
                                            double mbps) const;

  /// Replace g of every offloading cut by the value of a convex exponential
  /// fit at its index (the paper's synthetic AlexNet' of Fig. 11, whose
  /// "communication time is sampled from the fitted curve").  The local-only
  /// cut keeps g = 0.
  [[nodiscard]] ProfileCurve with_fitted_comm() const;

  /// View as the (f, g) option list the brute-force searchers consume.
  [[nodiscard]] std::vector<sched::CutOption> as_cut_options() const;

 private:
  /// Recompute the cached monotonicity flag and rebuild the SoA lanes from
  /// cuts_ (call after any mutation of cuts_).
  void refresh_derived();

  void check_index(std::size_t i) const;

  std::string model_name_;
  /// AoS storage of the full per-cut records (node sets, labels, cloud
  /// times).  The planner's hot paths never touch this; they read the
  /// mirrored lanes below.
  std::vector<CutPoint> cuts_;
  /// SoA mirrors of cuts_[i].f / .g / .offload_bytes, kept in sync by
  /// refresh_derived().
  std::vector<double> f_lane_;
  std::vector<double> g_lane_;
  std::vector<std::uint64_t> bytes_lane_;
  bool monotone_ = true;
};

/// One model's trunk candidates before any channel is applied: the f,
/// offload bytes and local-only flag of each, in ProfileCurve::build's
/// stable f order, unclustered.  at(channel) derives g as build() does and
/// then clusters, so its lanes equal
///   ProfileCurve::build(graph, mobile, channel).f_lane() / g_lane()
/// bit for bit at every bandwidth.  Rebasing one clustered curve
/// (with_bandwidth) is not equivalent: at extreme rates distinct byte
/// counts round to one g, and build() then drops cuts the base curve kept.
class CandidateLanes {
 public:
  /// The trunk candidates of `graph` (`graph.infer()` must have run).
  [[nodiscard]] static CandidateLanes build(
      const dnn::Graph& graph, const profile::LatencyModel& mobile);

  /// The clustered (f, g) lanes at `channel`, written into `f` and `g`
  /// (cleared first): the local-only candidate gets g = 0, every other
  /// candidate channel.time_ms(its bytes), then VirtualBlockFilter.
  void at(const net::Channel& channel, std::vector<double>& f,
          std::vector<double>& g) const;

 private:
  std::vector<double> f_;
  std::vector<std::uint64_t> bytes_;
  std::vector<bool> local_only_;
};

}  // namespace jps::partition
