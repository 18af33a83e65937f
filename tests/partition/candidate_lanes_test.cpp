// CandidateLanes: one model's unclustered trunk candidates, re-clustered
// per channel.  Their lanes must be ProfileCurve::build's at that channel,
// bit for bit, because jps_serve decides every miss on them and each reply
// must equal a Planner run on the freshly built curve.
#include "partition/profile_curve.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"

namespace jps::partition {
namespace {

profile::LatencyModel mobile_model() {
  return profile::LatencyModel(profile::DeviceProfile::raspberry_pi_4b());
}

// 10^-2 ... 10^300 Mbps, times {1, 2.5, 7.75}: 909 rates.  From about
// 1e15 Mbps up, distinct byte counts round to the same g and build() drops
// cuts, so the grid covers the rates where clustering depends on the
// bandwidth.
std::vector<double> probe_bandwidths() {
  std::vector<double> out;
  for (int exponent = -2; exponent <= 300; ++exponent) {
    for (const double mantissa : {1.0, 2.5, 7.75})
      out.push_back(mantissa * std::pow(10.0, exponent));
  }
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

TEST(CandidateLanes, EqualBuildsLanesAtEveryProbedBandwidth) {
  const std::vector<double> bandwidths = probe_bandwidths();
  ASSERT_EQ(bandwidths.size(), 909u);
  const profile::LatencyModel mobile = mobile_model();
  std::size_t points = 0;
  std::size_t extreme_points = 0;
  std::size_t rebase_mismatches = 0;
  std::vector<double> f;
  std::vector<double> g;
  for (const std::string& name : models::all_names()) {
    const dnn::Graph graph = models::build(name);
    const CandidateLanes lanes = CandidateLanes::build(graph, mobile);
    const net::Channel base_channel(1.0);
    const ProfileCurve base = ProfileCurve::build(graph, mobile, base_channel);
    for (const double mbps : bandwidths) {
      const net::Channel channel(mbps);
      const ProfileCurve curve = ProfileCurve::build(graph, mobile, channel);
      lanes.at(channel, f, g);
      ASSERT_TRUE(same_bits(f, curve.f_lane()) && same_bits(g, curve.g_lane()))
          << name << " at " << mbps << " Mbps: " << f.size()
          << " lane cuts vs " << curve.size() << " built";
      ++points;
      if (mbps >= 1e15) ++extreme_points;
      // The shortcut this type replaces: one clustered curve, rebased.
      const ProfileCurve rebased = base.with_bandwidth(base_channel, mbps);
      if (!same_bits(rebased.f_lane(), curve.f_lane()) ||
          !same_bits(rebased.g_lane(), curve.g_lane()))
        ++rebase_mismatches;
    }
  }
  EXPECT_EQ(points, 10'908u);
  EXPECT_GT(extreme_points, 0u);
  // The grid must reach rates where rebasing a clustered curve is wrong;
  // otherwise it would not tell the two constructions apart.
  EXPECT_GT(rebase_mismatches, 0u);
}

TEST(VirtualBlockFilter, KeepsOnlyStrictNewMinima) {
  VirtualBlockFilter filter;
  EXPECT_TRUE(filter.keep(5.0));
  EXPECT_FALSE(filter.keep(5.0));  // equal is not strictly below
  EXPECT_FALSE(filter.keep(7.0));
  EXPECT_FALSE(filter.keep(std::nan("")));
  EXPECT_TRUE(filter.keep(1.0));
  EXPECT_TRUE(filter.keep(0.0));
}

}  // namespace
}  // namespace jps::partition
