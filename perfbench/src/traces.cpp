#include "traces.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/json.h"

namespace perfbench {

using jps::obs::SpanRecord;
using jps::obs::TraceRecord;

namespace {

constexpr const char* kRootSpan = "serve.request";

bool is_wait(const std::string& name) {
  return name == "serve.plan_wait" || name == "serve.coalesce_wait";
}

// Self time (ms) of every span of `record` by the rule in traces.h; spans
// are clipped to the root.  `root` receives the root's index, or stays
// record.spans.size() when the trace has no root span.
std::vector<double> self_times_ms(const TraceRecord& record, std::size_t& root) {
  const std::vector<SpanRecord>& spans = record.spans;
  root = spans.size();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == kRootSpan) root = i;
  std::vector<double> self(spans.size(), 0.0);
  if (root == spans.size()) return self;

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t at = i;
    for (int hops = 0; hops <= static_cast<int>(spans.size()); ++hops) {
      const auto parent = by_id.find(spans[at].parent_span_id);
      if (at == root || parent == by_id.end()) break;
      at = parent->second;
      ++depth[i];
    }
  }

  const double lo = spans[root].start_ms;
  const double hi = lo + spans[root].dur_ms;
  std::vector<double> begin(spans.size()), end(spans.size());
  std::vector<double> cuts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    begin[i] = std::clamp(spans[i].start_ms, lo, hi);
    end[i] = std::clamp(spans[i].start_ms + spans[i].dur_ms, lo, hi);
    cuts.push_back(begin[i]);
    cuts.push_back(end[i]);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const double a = cuts[k];
    const double b = cuts[k + 1];
    std::size_t owner = root;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (begin[i] > a || end[i] < b) continue;
      const bool deeper = depth[i] > depth[owner];
      const bool work_over_wait = depth[i] == depth[owner] &&
                                  is_wait(spans[owner].name) &&
                                  !is_wait(spans[i].name);
      if (deeper || work_over_wait) owner = i;
    }
    self[owner] += b - a;
  }
  return self;
}

}  // namespace

std::vector<TraceRecord> drain_traces(jps::serve::Client& client) {
  std::vector<TraceRecord> all;
  while (true) {
    const jps::serve::TraceDumpReply reply = client.trace_dump();
    if (reply.status != jps::serve::Status::kOk)
      throw std::runtime_error("TRACE_DUMP failed");
    std::vector<TraceRecord> batch =
        jps::obs::flight_records_from_json(jps::util::Json::parse(reply.json));
    for (TraceRecord& r : batch) all.push_back(std::move(r));
    if (reply.remaining == 0) return all;
  }
}

LayerSplit split_layers(const std::vector<Sample>& samples,
                        const std::vector<TraceRecord>& records) {
  LayerSplit split;
  split.records = records.size();
  std::map<std::pair<std::uint64_t, std::uint64_t>, const TraceRecord*>
      by_trace;
  for (const TraceRecord& r : records) {
    const std::string verdict = jps::obs::validate_trace(r);
    if (!verdict.empty()) {
      ++split.invalid_records;
      if (split.first_problem.empty())
        split.first_problem = "invalid trace: " + verdict;
    }
    by_trace[{r.trace_hi, r.trace_lo}] = &r;
  }
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ++split.ok_samples;
    const auto it = by_trace.find({s.trace_hi, s.trace_lo});
    if (it == by_trace.end()) continue;
    const TraceRecord& r = *it->second;
    std::size_t root = 0;
    const std::vector<double> self = self_times_ms(r, root);
    if (root == r.spans.size()) continue;
    ++split.joined;
    double sum_us = 0.0;
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      split.self_us[r.spans[i].name].push_back(self[i] * 1000.0);
      sum_us += self[i] * 1000.0;
    }
    const double unattributed = s.round_trip_us - r.spans[root].dur_ms * 1000.0;
    split.unattributed_us.push_back(unattributed);
    const double error = std::abs(sum_us + unattributed - s.round_trip_us);
    split.max_sum_error_us = std::max(split.max_sum_error_us, error);
    if (error > kSumToleranceUs || unattributed < 0.0) {
      ++split.sum_violations;
      if (split.first_problem.empty())
        split.first_problem = "layers do not add up to the round trip";
    }
  }
  return split;
}

std::vector<double> span_self_us(const std::vector<TraceRecord>& records,
                                 const std::string& name) {
  std::vector<double> out;
  for (const TraceRecord& r : records) {
    std::size_t root = 0;
    const std::vector<double> self = self_times_ms(r, root);
    for (std::size_t i = 0; i < r.spans.size(); ++i)
      if (r.spans[i].name == name) out.push_back(self[i] * 1000.0);
  }
  return out;
}

}  // namespace perfbench
