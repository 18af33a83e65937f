#include "serve/snapshot.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/wire.h"
#include "util/crc32.h"
#include "util/log.h"

namespace jps::serve {

namespace {

using namespace wire;

constexpr char kSnapshotMagic[8] = {'J', 'P', 'S', 'S', 'N', 'A', 'P', '\n'};

SnapshotLoadResult reject(std::string why) {
  SnapshotLoadResult r;
  r.ok = false;
  r.error = std::move(why);
  return r;
}

}  // namespace

std::string encode_cache_snapshot(const core::ShardedPlanCache& cache) {
  auto entries = cache.plan_entries();
  // Deterministic byte stream: sort by the full key so two saves of the
  // same cache are identical (and CI can diff snapshots).
  std::sort(entries.begin(), entries.end(),
            [](const core::ShardedPlanCache::PlanEntry& a,
               const core::ShardedPlanCache::PlanEntry& b) {
              return std::tie(a.first.model, a.first.device,
                              a.first.bandwidth_mbps, a.first.strategy,
                              a.first.n_jobs) <
                     std::tie(b.first.model, b.first.device,
                              b.first.bandwidth_mbps, b.first.strategy,
                              b.first.n_jobs);
            });

  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, decision] : entries) {
    put_str16(out, key.model);
    put_str16(out, key.device);
    put_f64(out, key.bandwidth_mbps);
    put_u8(out, static_cast<std::uint8_t>(key.strategy));
    put_u32(out, static_cast<std::uint32_t>(key.n_jobs));
    put_u32(out, decision->cut_a);
    put_u32(out, decision->cut_b);
    put_u32(out, decision->n_a);
    put_f64(out, decision->predicted_makespan);
  }
  put_u32(out, util::crc32(out));
  return out;
}

SnapshotLoadResult decode_cache_snapshot(const std::string& bytes,
                                         core::ShardedPlanCache& cache) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 12)
    return reject("snapshot shorter than header + trailer");
  if (bytes.compare(0, sizeof(kSnapshotMagic), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
    return reject("bad snapshot magic");

  // CRC gate first: a single flipped or missing byte anywhere rejects the
  // file before any entry is trusted.
  const std::string_view all(bytes);
  const std::string_view body = all.substr(0, all.size() - 4);
  const std::uint32_t stored = Reader(all.substr(body.size())).u32();
  const std::uint32_t actual = util::crc32(body);
  if (stored != actual)
    return reject("snapshot CRC mismatch (stored " + std::to_string(stored) +
                  ", computed " + std::to_string(actual) + ")");

  // Decode everything into a staging list; only a fully-valid snapshot
  // touches the cache.
  Reader reader(body.substr(sizeof(kSnapshotMagic)));
  std::vector<core::ShardedPlanCache::PlanEntry> staged;
  std::uint32_t i = 0;
  try {
    const std::uint32_t version = reader.u32();
    if (version != kSnapshotVersion)
      return reject("unsupported snapshot version " + std::to_string(version));
    for (const std::uint32_t count = reader.u32(); i < count; ++i) {
      std::string model = reader.str16();
      std::string device = reader.str16();
      const double bandwidth = reader.f64();
      const std::uint8_t strategy = reader.u8();
      const std::uint32_t n_jobs = reader.u32();
      // Braced initializers evaluate left to right: the record's order.
      const core::PlanDecision d{reader.u32(), reader.u32(), reader.u32(),
                                 reader.f64()};
      // Admit only keys a request can produce, holding a decision that fits.
      const std::string entry = "snapshot entry " + std::to_string(i);
      if (strategy > static_cast<std::uint8_t>(core::Strategy::kRobust) ||
          !core::servable(static_cast<core::Strategy>(strategy)))
        return reject(entry + " has non-servable strategy code " +
                      std::to_string(strategy));
      if (n_jobs < 1 || n_jobs > static_cast<std::uint32_t>(INT_MAX))
        return reject(entry + " has n_jobs " + std::to_string(n_jobs) +
                      " outside [1, INT_MAX]");
      if (!std::isfinite(bandwidth) || bandwidth <= 0.0)
        return reject(entry + " has a bandwidth that is not finite and > 0");
      if (d.n_a > n_jobs)
        return reject(entry + " puts n_a " + std::to_string(d.n_a) +
                      " > n_jobs " + std::to_string(n_jobs) +
                      " jobs at cut_a");
      if (!std::isfinite(d.predicted_makespan) || d.predicted_makespan < 0.0)
        return reject(entry + " has a makespan that is not finite and >= 0");
      staged.emplace_back(
          core::PlanCacheKey(std::move(model), std::move(device), bandwidth,
                             static_cast<core::Strategy>(strategy),
                             static_cast<int>(n_jobs)),
          std::make_shared<const core::PlanDecision>(d));
    }
    reader.expect_done();
  } catch (const ProtocolError& e) {
    return reject("malformed snapshot at entry " + std::to_string(i) + ": " +
                  e.what());
  }

  for (auto& [key, decision] : staged)
    cache.insert_plan(key, std::move(decision));
  SnapshotLoadResult r;
  r.entries = staged.size();
  return r;
}

void save_cache_snapshot(const core::ShardedPlanCache& cache,
                         const std::string& path) {
  const std::string bytes = encode_cache_snapshot(cache);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("snapshot: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("snapshot: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: rename " + tmp + " -> " + path +
                             " failed");
  }
}

SnapshotLoadResult load_cache_snapshot(core::ShardedPlanCache& cache,
                                       const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};  // no snapshot: a normal cold start
  std::ostringstream buffer;
  buffer << in.rdbuf();
  SnapshotLoadResult result = decode_cache_snapshot(buffer.str(), cache);
  if (!result.ok) {
    // Corrupt snapshots cost warmth, never availability: log and move on.
    util::log_line(util::LogLevel::kWarn,
                   "ignoring corrupt plan-cache snapshot",
                   {{"path", path}, {"reason", result.error}});
  }
  return result;
}

}  // namespace jps::serve
