#include "partition/profile_curve.h"

#include <algorithm>
#include <stdexcept>

#include "check/contracts.h"
#include "obs/obs.h"
#include "util/ols.h"

namespace jps::partition {

const CutPoint& ProfileCurve::cut(std::size_t i) const {
  check_index(i);
  return cuts_[i];
}

void ProfileCurve::check_index(std::size_t i) const {
  if (i >= cuts_.size()) throw std::out_of_range("ProfileCurve::cut");
}

ProfileCurve ProfileCurve::build(const dnn::Graph& graph,
                                 const NodeTimeFn& mobile_time,
                                 const CommTimeFn& comm_time,
                                 const CurveOptions& options) {
  if (!graph.inferred())
    throw std::invalid_argument("ProfileCurve::build: graph not inferred");
  static obs::Counter& builds = obs::counter("curve.builds");
  builds.add();
  obs::Span span("curve.build", "partition");
  span.arg("model", graph.name());

  const std::vector<dnn::NodeId> trunk = graph.articulation_nodes();
  const dnn::NodeId sink = graph.sink();

  // Total cloud time is only needed when cloud stage times are requested;
  // the cloud remainder of cut c is total - prefix(c).
  std::vector<CutPoint> candidates;
  candidates.reserve(trunk.size());
  for (const dnn::NodeId cut_node : trunk) {
    CutPoint c;
    c.local_nodes = dnn::ancestors_inclusive(graph, cut_node);
    for (const dnn::NodeId v : c.local_nodes) c.f += mobile_time(v);
    if (cut_node == sink) {
      // Local-only: nothing crosses the cut.
      c.offload_bytes = 0;
      c.g = 0.0;
    } else {
      c.cut_nodes = {cut_node};
      c.offload_bytes = graph.info(cut_node).output_bytes;
      c.g = comm_time(c.offload_bytes);
    }
    c.label = graph.label(cut_node);
    candidates.push_back(std::move(c));
  }
  ProfileCurve curve =
      from_candidates(graph.name(), std::move(candidates), options);
  span.arg("cuts", std::to_string(curve.size()));
  JPS_ENSURE(curve.size() >= 1,
             "a graph always yields at least one cut (an input-only graph "
             "collapses cloud-only and local-only into one)");
  JPS_ENSURE(!options.cluster || curve.is_monotone(),
             "clustering (3.2) must leave f non-decreasing and g "
             "non-increasing");
  return curve;
}

ProfileCurve ProfileCurve::build(const dnn::Graph& graph,
                                 const profile::LatencyModel& mobile_model,
                                 const net::Channel& channel,
                                 const CurveOptions& options,
                                 const profile::LatencyModel* cloud_model) {
  ProfileCurve curve = build(
      graph, [&](dnn::NodeId id) { return mobile_model.node_time_ms(graph, id); },
      [&](std::uint64_t bytes) { return channel.time_ms(bytes); }, options);
  if (options.with_cloud_times && cloud_model != nullptr) {
    const double total_cloud = cloud_model->graph_time_ms(graph);
    for (auto& c : curve.cuts_) {
      double local_cloud = 0.0;
      for (const dnn::NodeId v : c.local_nodes)
        local_cloud += cloud_model->node_time_ms(graph, v);
      c.cloud = std::max(0.0, total_cloud - local_cloud);
    }
  }
  return curve;
}

ProfileCurve ProfileCurve::build(const dnn::Graph& graph,
                                 const profile::LookupTable& table,
                                 const net::Channel& channel,
                                 const CurveOptions& options) {
  return build(
      graph, [&](dnn::NodeId id) { return table.at(graph.name(), id); },
      [&](std::uint64_t bytes) { return channel.time_ms(bytes); }, options);
}

ProfileCurve ProfileCurve::from_candidates(std::string model_name,
                                           std::vector<CutPoint> candidates,
                                           const CurveOptions& options) {
  if (candidates.empty())
    throw std::invalid_argument("ProfileCurve: no candidates");

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CutPoint& a, const CutPoint& b) { return a.f < b.f; });

  ProfileCurve curve;
  curve.model_name_ = std::move(model_name);

  if (options.cluster) {
    // The local-only cut (g = 0, largest f) always survives.
    VirtualBlockFilter filter;
    for (auto& cand : candidates) {
      if (filter.keep(cand.g)) curve.cuts_.push_back(std::move(cand));
    }
  } else {
    curve.cuts_ = std::move(candidates);
  }
  curve.refresh_derived();
  return curve;
}

void ProfileCurve::refresh_derived() {
  f_lane_.resize(cuts_.size());
  g_lane_.resize(cuts_.size());
  bytes_lane_.resize(cuts_.size());
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    f_lane_[i] = cuts_[i].f;
    g_lane_[i] = cuts_[i].g;
    bytes_lane_[i] = cuts_[i].offload_bytes;
  }
  monotone_ = true;
  for (std::size_t i = 1; i < cuts_.size(); ++i) {
    if (f_lane_[i] < f_lane_[i - 1] || g_lane_[i] > g_lane_[i - 1]) {
      monotone_ = false;
      return;
    }
  }
}

ProfileCurve ProfileCurve::with_comm_times(const CommTimeFn& comm_time) const {
  ProfileCurve rebased = *this;
  for (CutPoint& c : rebased.cuts_) {
    c.g = c.offload_bytes > 0 ? comm_time(c.offload_bytes) : 0.0;
  }
  rebased.refresh_derived();
  return rebased;
}

ProfileCurve ProfileCurve::with_bandwidth(const net::Channel& channel,
                                          double mbps) const {
  const net::Channel rebased = channel.with_bandwidth(mbps);
  return with_comm_times(
      [&rebased](std::uint64_t bytes) { return rebased.time_ms(bytes); });
}

ProfileCurve ProfileCurve::with_fitted_comm() const {
  // Fit g over cut index for the offloading cuts (bytes > 0).
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    if (cuts_[i].offload_bytes > 0) {
      xs.push_back(static_cast<double>(i));
      ys.push_back(cuts_[i].g);
    }
  }
  ProfileCurve smoothed = *this;
  smoothed.model_name_ += "'";
  if (xs.size() < 2) return smoothed;  // nothing to fit
  const util::ExponentialFit fit = util::fit_exponential(xs, ys);
  for (std::size_t i = 0; i < smoothed.cuts_.size(); ++i) {
    if (smoothed.cuts_[i].offload_bytes > 0)
      smoothed.cuts_[i].g = fit(static_cast<double>(i));
  }
  smoothed.refresh_derived();
  return smoothed;
}

std::vector<sched::CutOption> ProfileCurve::as_cut_options() const {
  std::vector<sched::CutOption> options;
  options.reserve(cuts_.size());
  for (const auto& c : cuts_) options.push_back({c.f, c.g});
  return options;
}

CandidateLanes CandidateLanes::build(const dnn::Graph& graph,
                                     const profile::LatencyModel& mobile) {
  // build()'s own candidates, sorted and unclustered.  Their g is derived
  // again in at(), so any channel serves here.
  CurveOptions unclustered;
  unclustered.cluster = false;
  const ProfileCurve curve =
      ProfileCurve::build(graph, mobile, net::Channel(1.0), unclustered);
  CandidateLanes lanes;
  lanes.f_.assign(curve.f_lane().begin(), curve.f_lane().end());
  lanes.bytes_.assign(curve.offload_bytes_lane().begin(),
                      curve.offload_bytes_lane().end());
  for (std::size_t i = 0; i < curve.size(); ++i)
    lanes.local_only_.push_back(curve.cut(i).cut_nodes.empty());
  return lanes;
}

void CandidateLanes::at(const net::Channel& channel, std::vector<double>& f,
                        std::vector<double>& g) const {
  f.clear();
  g.clear();
  f.reserve(f_.size());
  g.reserve(f_.size());
  VirtualBlockFilter filter;
  for (std::size_t i = 0; i < f_.size(); ++i) {
    const double g_i = local_only_[i] ? 0.0 : channel.time_ms(bytes_[i]);
    if (!filter.keep(g_i)) continue;
    f.push_back(f_[i]);
    g.push_back(g_i);
  }
}

}  // namespace jps::partition
