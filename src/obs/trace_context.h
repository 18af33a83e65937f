// Request-scoped trace identity, propagated across threads and the wire.
//
// A TraceContext names one request (128-bit trace id) and one position in
// that request's span tree (64-bit span id).  The context is thread-local:
// obs::Span reads it on construction to stamp its SpanRecord with
// trace/span/parent ids and installs itself as the current context for the
// duration, so nested spans form a causal tree without any explicit
// plumbing.  util::ThreadPool captures the submitter's context and restores
// it inside the worker, so work that hops threads (a parallel_for issued
// under a traced span) still yields one tree.
//
// Across processes the context rides wire protocol v3 as three u64 fields
// on PlanRequest (trace_hi | trace_lo | parent span id); the server adopts
// the client's ids so a fleet-wide trace stays joinable.
//
// Ids are never zero: an all-zero context means "not traced".  This header
// is self-contained and depends on the standard library only (obs.h
// includes it).
#pragma once

#include <cstdint>
#include <string>

namespace jps::obs {

/// Identity of the current request (trace) and span.  Copyable value type;
/// an all-zero trace id means "no trace in progress".
struct TraceContext {
  std::uint64_t trace_hi = 0;  ///< high 64 bits of the 128-bit trace id
  std::uint64_t trace_lo = 0;  ///< low 64 bits of the 128-bit trace id
  std::uint64_t span_id = 0;   ///< current span (parent of new child spans)

  /// True when this context names a real trace.
  [[nodiscard]] bool valid() const { return (trace_hi | trace_lo) != 0; }

  [[nodiscard]] bool operator==(const TraceContext& other) const {
    return trace_hi == other.trace_hi && trace_lo == other.trace_lo &&
           span_id == other.span_id;
  }

  /// The calling thread's current context (invalid when none installed).
  [[nodiscard]] static TraceContext current();

  /// Replace the calling thread's current context.
  static void set_current(const TraceContext& context);

  /// Mint a fresh root context: new random-ish 128-bit trace id, new span
  /// id.  Never returns an invalid context.
  [[nodiscard]] static TraceContext start();

  /// Mint a fresh non-zero span id (process-unique).
  [[nodiscard]] static std::uint64_t next_span_id();
};

/// RAII: install `context` as the calling thread's current context, restore
/// the previous one on destruction.  Used by ThreadPool task wrappers and
/// the serve request handler.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& context)
      : previous_(TraceContext::current()) {
    TraceContext::set_current(context);
  }
  ~TraceScope() { TraceContext::set_current(previous_); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext previous_;
};

/// 32-char lowercase hex rendering of a 128-bit trace id.  JSON carries ids
/// as hex strings because util::Json numbers are doubles (53-bit mantissa).
[[nodiscard]] std::string trace_id_hex(std::uint64_t hi, std::uint64_t lo);

/// 16-char lowercase hex rendering of a 64-bit span id.
[[nodiscard]] std::string span_id_hex(std::uint64_t id);

/// Parse a 16-char hex string back to a u64 (throws std::invalid_argument
/// on malformed input).  Used by the trace-dump JSON reader.
[[nodiscard]] std::uint64_t parse_hex_u64(const std::string& text);

}  // namespace jps::obs
