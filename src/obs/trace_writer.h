// Chrome trace-event JSON exporter.
//
// Renders obs spans (and anything else with a start, a duration and a
// track) into the Trace Event Format consumed by about:tracing and
// Perfetto (https://ui.perfetto.dev — "Open trace file").  Only the pieces
// this repo needs are implemented: complete events ("ph":"X"), the
// process/thread-name metadata events that label tracks, and flow events
// ("ph":"s"/"f") that draw arrows between spans of one trace when it hops
// threads (a span's pool task running on a worker).
//
// Convention used throughout the repo:
//   pid 0 — instrumentation spans (one tid per recording thread)
//   pid 1 — simulated timeline (one tid per simulator resource)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace jps::obs {

/// Escape a string for embedding in a JSON string literal (quotes excluded).
[[nodiscard]] std::string json_escape(const std::string& text);

class TraceWriter {
 public:
  /// One complete ("X") trace event, kept in insertion order.
  struct Event {
    std::string name;
    std::string category;
    int pid = 0;
    std::uint64_t tid = 0;
    double start_ms = 0.0;
    double dur_ms = 0.0;
    std::vector<std::pair<std::string, std::string>> args;
  };

  /// Label a process track (rendered as a group header).
  void set_process_name(int pid, const std::string& name);

  /// Label one thread track within a process.
  void set_thread_name(int pid, std::uint64_t tid, const std::string& name);

  /// Append one complete event.
  void add_event(Event event);

  /// One flow arrow endpoint ("s" = start on the producing track, "f" with
  /// bp:"e" = finish on the consuming track).  Chrome joins endpoints by id.
  struct FlowPoint {
    std::uint64_t id = 0;
    std::string name;
    int pid = 0;
    std::uint64_t tid = 0;
    double ts_ms = 0.0;
    bool start = false;
  };

  /// Append every span as a complete event under `pid` (tid = recording
  /// thread index).  For each parent/child span pair of the same trace that
  /// ran on *different* threads, also emit a flow arrow from the parent's
  /// track to the child's so the causal tree stays readable across tracks.
  void add_spans(const std::vector<SpanRecord>& spans, int pid = 0);

  /// Append the registry's counters as one "args" blob on a zero-duration
  /// metadata-ish event so the values travel with the trace file.
  void add_counter_snapshot(
      const std::vector<std::pair<std::string, std::uint64_t>>& counters,
      int pid = 0);

  /// Serialize everything as a Trace Event Format JSON object.
  [[nodiscard]] std::string json() const;

  /// Write json() to `path` (throws std::runtime_error on I/O failure).
  void save(const std::string& path) const;

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<FlowPoint>& flows() const { return flows_; }

 private:
  std::vector<Event> events_;
  std::vector<FlowPoint> flows_;
  std::vector<std::pair<int, std::string>> process_names_;
  std::vector<std::pair<std::pair<int, std::uint64_t>, std::string>>
      thread_names_;
};

}  // namespace jps::obs
