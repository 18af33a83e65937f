#include "serve/protocol.h"

#include <cstring>

#include "serve/wire.h"

namespace jps::serve {

namespace {

constexpr std::uint8_t kFlagCoalesced = 1u << 0;
constexpr std::uint8_t kFlagCacheHit = 1u << 1;
constexpr std::uint8_t kFlagStale = 1u << 2;

using namespace wire;

std::string header(Op op) {
  std::string out;
  put_u8(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(op));
  return out;
}

Op check_header(Reader& reader) {
  if (reader.u8() != kMagic) throw ProtocolError("serve: bad magic byte");
  const std::uint8_t version = reader.u8();
  if (version != kVersion)
    throw ProtocolError("serve: unsupported protocol version " +
                        std::to_string(version) + " (expected version " +
                        std::to_string(kVersion) + ")");
  const std::uint8_t op = reader.u8();
  switch (static_cast<Op>(op)) {
    case Op::kPlan:
    case Op::kPing:
    case Op::kStats:
    case Op::kTraceDump:
    case Op::kPlanReply:
    case Op::kPingReply:
    case Op::kStatsReply:
    case Op::kTraceDumpReply:
      return static_cast<Op>(op);
  }
  throw ProtocolError("serve: unknown op " + std::to_string(op));
}

// Read exactly `size` bytes or fail.  `any` reports whether anything had
// been read before EOF — the caller distinguishes clean EOF (nothing) from
// a frame truncated mid-way.
bool read_exact(ByteStream& stream, char* out, std::size_t size, bool* any) {
  std::size_t got = 0;
  while (got < size) {
    const std::size_t n = stream.read(out + got, size - got);
    if (n == 0) {
      if (any != nullptr) *any = got > 0;
      return false;
    }
    got += n;
  }
  if (any != nullptr) *any = got > 0;
  return true;
}

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::kNotFound: return "NOT_FOUND";
    case Status::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case Status::kUnavailable: return "UNAVAILABLE";
    case Status::kInternal: return "INTERNAL";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kOkStale: return "OK_STALE";
  }
  return "UNKNOWN";
}

bool status_is_retryable(Status status) {
  return status == Status::kUnavailable ||
         status == Status::kDeadlineExceeded;
}

std::string encode_plan_request(const PlanRequest& request) {
  std::string out = header(Op::kPlan);
  put_str16(out, request.tenant);
  put_str16(out, request.model);
  put_f64(out, request.bandwidth_mbps);
  put_u8(out, static_cast<std::uint8_t>(request.strategy));
  put_u32(out, static_cast<std::uint32_t>(request.n_jobs));
  put_f64(out, request.deadline_ms);
  put_u64(out, request.trace_hi);
  put_u64(out, request.trace_lo);
  put_u64(out, request.trace_parent_span);
  return out;
}

std::string encode_plan_reply(const PlanReply& reply) {
  std::string out = header(Op::kPlanReply);
  put_u8(out, static_cast<std::uint8_t>(reply.status));
  std::uint8_t flags = 0;
  if (reply.coalesced) flags |= kFlagCoalesced;
  if (reply.cache_hit) flags |= kFlagCacheHit;
  if (reply.stale || reply.status == Status::kOkStale) flags |= kFlagStale;
  put_u8(out, flags);
  put_str16(out, reply.message);
  put_f64(out, reply.bandwidth_bucket_mbps);
  put_f64(out, reply.makespan_ms);
  put_u32(out, static_cast<std::uint32_t>(reply.mix.size()));
  for (const CutMix& m : reply.mix) {
    put_u32(out, m.cut);
    put_u32(out, m.count);
  }
  return out;
}

std::string encode_ping() { return header(Op::kPing); }

std::string encode_ping_reply() { return header(Op::kPingReply); }

std::string encode_stats_request() { return header(Op::kStats); }

std::string encode_stats_reply(const StatsReply& reply) {
  std::string out = header(Op::kStatsReply);
  put_u8(out, static_cast<std::uint8_t>(reply.status));
  put_str32(out, reply.json);
  return out;
}

std::string encode_trace_dump_request(std::uint32_t max_traces) {
  std::string out = header(Op::kTraceDump);
  put_u32(out, max_traces);
  return out;
}

std::string encode_trace_dump_reply(const TraceDumpReply& reply) {
  std::string out = header(Op::kTraceDumpReply);
  put_u8(out, static_cast<std::uint8_t>(reply.status));
  put_u32(out, reply.remaining);
  put_str32(out, reply.json);
  return out;
}

Op peek_op(std::string_view payload) {
  Reader reader(payload);
  return check_header(reader);
}

PlanRequest decode_plan_request(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kPlan)
    throw ProtocolError("serve: payload is not a plan request");
  PlanRequest request;
  request.tenant = reader.str16();
  request.model = reader.str16();
  request.bandwidth_mbps = reader.f64();
  const std::uint8_t strategy = reader.u8();
  if (strategy > static_cast<std::uint8_t>(core::Strategy::kRobust))
    throw ProtocolError("serve: unknown strategy code " +
                        std::to_string(strategy));
  request.strategy = static_cast<core::Strategy>(strategy);
  const std::uint32_t n_jobs = reader.u32();
  if (n_jobs > 0x7FFFFFFFu)
    throw ProtocolError("serve: n_jobs out of range");
  request.n_jobs = static_cast<std::int32_t>(n_jobs);
  request.deadline_ms = reader.f64();
  request.trace_hi = reader.u64();
  request.trace_lo = reader.u64();
  request.trace_parent_span = reader.u64();
  reader.expect_done();
  return request;
}

PlanReply decode_plan_reply(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kPlanReply)
    throw ProtocolError("serve: payload is not a plan reply");
  PlanReply reply;
  const std::uint8_t status = reader.u8();
  if (status > static_cast<std::uint8_t>(Status::kOkStale))
    throw ProtocolError("serve: unknown status code " + std::to_string(status));
  reply.status = static_cast<Status>(status);
  const std::uint8_t flags = reader.u8();
  reply.coalesced = (flags & kFlagCoalesced) != 0;
  reply.cache_hit = (flags & kFlagCacheHit) != 0;
  reply.stale = (flags & kFlagStale) != 0;
  reply.message = reader.str16();
  reply.bandwidth_bucket_mbps = reader.f64();
  reply.makespan_ms = reader.f64();
  const std::uint32_t mix_count = reader.u32();
  // 8 bytes per entry: a count this large cannot fit the bounded payload.
  if (mix_count > kMaxFrameBytes / 8)
    throw ProtocolError("serve: mix count too large");
  reply.mix.reserve(mix_count);
  for (std::uint32_t i = 0; i < mix_count; ++i) {
    CutMix m;
    m.cut = reader.u32();
    m.count = reader.u32();
    reply.mix.push_back(m);
  }
  reader.expect_done();
  return reply;
}

namespace {

Status read_status(Reader& reader) {
  const std::uint8_t status = reader.u8();
  if (status > static_cast<std::uint8_t>(Status::kOkStale))
    throw ProtocolError("serve: unknown status code " + std::to_string(status));
  return static_cast<Status>(status);
}

}  // namespace

void decode_stats_request(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kStats)
    throw ProtocolError("serve: payload is not a stats request");
  reader.expect_done();
}

std::uint32_t decode_trace_dump_request(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kTraceDump)
    throw ProtocolError("serve: payload is not a trace-dump request");
  const std::uint32_t max_traces = reader.u32();
  reader.expect_done();
  return max_traces;
}

StatsReply decode_stats_reply(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kStatsReply)
    throw ProtocolError("serve: payload is not a stats reply");
  StatsReply reply;
  reply.status = read_status(reader);
  reply.json = reader.str32();
  reader.expect_done();
  return reply;
}

TraceDumpReply decode_trace_dump_reply(std::string_view payload) {
  Reader reader(payload);
  if (check_header(reader) != Op::kTraceDumpReply)
    throw ProtocolError("serve: payload is not a trace-dump reply");
  TraceDumpReply reply;
  reply.status = read_status(reader);
  reply.remaining = reader.u32();
  reply.json = reader.str32();
  reader.expect_done();
  return reply;
}

void write_frame(ByteStream& stream, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw ProtocolError("serve: frame exceeds kMaxFrameBytes");
  std::string wire;
  wire.reserve(4 + payload.size());
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire.append(payload);
  stream.write(wire.data(), wire.size());
}

std::optional<std::string> read_frame(ByteStream& stream) {
  char prefix[4];
  bool any = false;
  if (!read_exact(stream, prefix, sizeof(prefix), &any)) {
    if (any) throw TransportError("serve: truncated length prefix");
    return std::nullopt;  // clean EOF at a frame boundary
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i)
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(prefix[i]))
              << (8 * i);
  if (length > kMaxFrameBytes)
    throw ProtocolError("serve: frame length " + std::to_string(length) +
                        " exceeds cap " + std::to_string(kMaxFrameBytes));
  std::string payload(length, '\0');
  if (length > 0 && !read_exact(stream, payload.data(), length, nullptr))
    throw TransportError("serve: truncated frame payload");
  return payload;
}

}  // namespace jps::serve
