// Wire protocol of the plan server: length-prefixed binary frames.
//
// Frame layout (all integers little-endian, doubles as IEEE-754 bits):
//
//   frame   := u32 payload_length | payload           (length excludes itself)
//   payload := u8 magic (0x4A 'J') | u8 version (3) | u8 op | body
//
// Ops and bodies:
//
//   kPlan (1) — plan request
//     body := str16 tenant | str16 model | f64 bandwidth_mbps
//             | u8 strategy | u32 n_jobs | f64 deadline_ms
//             | u64 trace_hi | u64 trace_lo | u64 trace_parent_span
//   kPing (2) — liveness probe; empty body
//   kStats (3) — live metrics scrape; empty body
//   kTraceDump (4) — drain the flight recorder
//     body := u32 max_traces                           (0 = server's batch cap)
//   kPlanReply (129)
//     body := u8 status | u8 flags | str16 message
//             | f64 bandwidth_bucket_mbps | f64 makespan_ms
//             | u32 mix_count | mix_count * (u32 cut | u32 count)
//   kPingReply (130) — empty body
//   kStatsReply (131)
//     body := u8 status | str32 json     (a MetricsSnapshot, obs::to_json)
//   kTraceDumpReply (132)
//     body := u8 status | u32 remaining | str32 json
//             (json = obs::flight_records_json; `remaining` traces are still
//              queued server-side — issue further kTraceDump frames to drain)
//
//   str16 := u16 length | bytes (no terminator)
//   str32 := u32 length | bytes (no terminator; bounded by kMaxFrameBytes)
//   flags: bit 0 = coalesced (this reply shared another request's
//          computation), bit 1 = cache_hit (the plan came out of the
//          PlanCache rather than a fresh Planner run); bit 2 is retired
//          and never set.  Decoders ignore unknown flag bits, so a new bit
//          needs no new version.
//
// Versioning: the protocol has one version, kVersion (3).  Every client is
// built from this tree and always speaks it, so a frame carrying any other
// version byte is refused at the header with a ProtocolError; the server
// answers it with one INVALID_ARGUMENT reply naming version 3 and keeps the
// connection.
//
// A payload longer than kMaxFrameBytes is a protocol error: the reader
// refuses it *before* allocating, so a hostile or corrupt length prefix
// cannot balloon memory.  Truncated input (EOF mid-prefix or mid-payload)
// is also a ProtocolError — distinct from a clean EOF at a frame boundary,
// which read_frame reports as nullopt.
//
// Decoders never trust the remote side: every read is bounds-checked and
// malformed payloads throw ProtocolError, which the server maps to an
// error reply (or a connection close when the stream can no longer be
// resynchronized) — never a crash of the connection loop.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.h"
#include "serve/transport.h"

namespace jps::serve {

inline constexpr std::uint8_t kMagic = 0x4A;
/// The one protocol version: every encoder writes it, every decoder
/// accepts only it.
inline constexpr std::uint8_t kVersion = 3;
/// Largest accepted payload.  Plan replies are ~tens of bytes per distinct
/// cut; 1 MiB leaves three orders of magnitude of headroom.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class Op : std::uint8_t {
  kPlan = 1,
  kPing = 2,
  kStats = 3,
  kTraceDump = 4,
  kPlanReply = 129,
  kPingReply = 130,
  kStatsReply = 131,
  kTraceDumpReply = 132,
};

/// Reply status (gRPC-style vocabulary).
enum class Status : std::uint8_t {
  kOk = 0,
  kInvalidArgument = 1,   // malformed request (NaN bandwidth, n_jobs < 1, ...)
  kNotFound = 2,          // unknown model id
  kResourceExhausted = 3, // shed: tenant over rate limit or queue bound hit
  kUnavailable = 4,       // server draining/stopped
  kInternal = 5,          // planning threw (bug; message carries the what())
  kDeadlineExceeded = 6,  // the request's deadline passed server-side
};

[[nodiscard]] const char* status_name(Status status);

/// True for statuses a client may retry (the server's condition is
/// transient): kUnavailable and kDeadlineExceeded.
[[nodiscard]] bool status_is_retryable(Status status);

/// Malformed or truncated wire data.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer vanished mid-conversation: a frame truncated by EOF, or a
/// connection that closed before the expected reply.  A subclass of
/// ProtocolError (every existing catch still works) that callers may treat
/// as retryable — the bytes that DID arrive were well-formed; the failure
/// is the transport's, not the peer's encoder's.
class TransportError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

struct PlanRequest {
  /// Admission-control identity; "" is a valid (anonymous) tenant.
  std::string tenant;
  std::string model;
  /// The device's live uplink estimate; quantized server-side.
  double bandwidth_mbps = 0.0;
  core::Strategy strategy = core::Strategy::kJPS;
  std::int32_t n_jobs = 1;
  /// Relative budget, measured from server-side arrival (no clock sync
  /// needed): the server answers kDeadlineExceeded once the budget is
  /// spent.  0 means no deadline.
  double deadline_ms = 0.0;
  /// Client trace context (obs::TraceContext): the 128-bit trace id plus
  /// the client-side span the server's root span should parent onto.  All
  /// zero means "not traced".
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t trace_parent_span = 0;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// One (cut index, job count) entry of the reply's cut mix.
using CutMix = core::CutMix;

struct PlanReply {
  Status status = Status::kOk;
  /// Human-readable detail for non-OK statuses.
  std::string message;
  /// This reply shared a concurrent identical request's computation.
  bool coalesced = false;
  /// The plan came from the PlanCache (no Planner run for this request).
  bool cache_hit = false;
  /// The quantized bandwidth the plan was actually computed at.
  double bandwidth_bucket_mbps = 0.0;
  double makespan_ms = 0.0;
  /// Scheduled cut mix, ascending by cut index; counts sum to n_jobs.
  std::vector<CutMix> mix;

  /// The reply carries a plan.
  [[nodiscard]] bool ok() const { return status == Status::kOk; }

  friend bool operator==(const PlanReply&, const PlanReply&) = default;
};

/// Reply to kStats: the server's live MetricsSnapshot as obs::to_json text.
struct StatsReply {
  Status status = Status::kOk;
  std::string json;

  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

/// Reply to kTraceDump: one drained batch of flight-recorder traces
/// (obs::flight_records_json) plus how many retained traces remain queued.
struct TraceDumpReply {
  Status status = Status::kOk;
  std::uint32_t remaining = 0;
  std::string json;

  friend bool operator==(const TraceDumpReply&, const TraceDumpReply&) =
      default;
};

/// Payload encoders (everything after the length prefix), at kVersion.
[[nodiscard]] std::string encode_plan_request(const PlanRequest& request);
[[nodiscard]] std::string encode_plan_reply(const PlanReply& reply);
[[nodiscard]] std::string encode_ping();
[[nodiscard]] std::string encode_ping_reply();
[[nodiscard]] std::string encode_stats_request();
[[nodiscard]] std::string encode_stats_reply(const StatsReply& reply);
[[nodiscard]] std::string encode_trace_dump_request(
    std::uint32_t max_traces = 0);
[[nodiscard]] std::string encode_trace_dump_reply(const TraceDumpReply& reply);

/// Payload decoders; throw ProtocolError on bad magic, a version other than
/// kVersion, an unknown or unexpected op, a truncated body, or trailing
/// bytes.
[[nodiscard]] Op peek_op(std::string_view payload);
[[nodiscard]] PlanRequest decode_plan_request(std::string_view payload);
[[nodiscard]] PlanReply decode_plan_reply(std::string_view payload);
/// A kStats request has an empty body; decoding it only validates the frame.
void decode_stats_request(std::string_view payload);
[[nodiscard]] std::uint32_t decode_trace_dump_request(
    std::string_view payload);
[[nodiscard]] StatsReply decode_stats_reply(std::string_view payload);
[[nodiscard]] TraceDumpReply decode_trace_dump_reply(
    std::string_view payload);

/// Write one frame (length prefix + payload).
void write_frame(ByteStream& stream, std::string_view payload);

/// Read one frame's payload.  nullopt on clean EOF (connection ended at a
/// frame boundary); TransportError on truncation mid-frame (the peer died,
/// retryable); plain ProtocolError on an oversized length prefix (the peer
/// is broken, not retryable).  TransportTimeout from a timed stream
/// propagates unchanged.
[[nodiscard]] std::optional<std::string> read_frame(ByteStream& stream);

}  // namespace jps::serve
