// Protocol v3: golden bytes for the plan request grammar, the trace-context
// tail, the introspection ops (STATS / TRACE_DUMP), and the refusal of
// frames at the retired versions 1 and 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.h"

namespace jps::serve {
namespace {

PlanRequest sample_request() {
  PlanRequest request;
  request.tenant = "t";
  request.model = "alexnet";
  request.bandwidth_mbps = 8.0;
  request.strategy = core::Strategy::kJPS;
  request.n_jobs = 4;
  return request;
}

// Little-endian golden-byte builders mirroring the documented grammar, and
// the v1/v2 layouts (v1: no deadline; neither has the trace context) that
// old clients sent.
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}
void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}
void put_str16(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out += s;
}

std::string golden_plan_request(std::uint8_t version,
                                const PlanRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(Op::kPlan));
  put_str16(out, request.tenant);
  put_str16(out, request.model);
  put_f64(out, request.bandwidth_mbps);
  out.push_back(static_cast<char>(request.strategy));
  put_u32(out, static_cast<std::uint32_t>(request.n_jobs));
  if (version >= 2) put_f64(out, request.deadline_ms);
  if (version >= 3) {
    put_u64(out, request.trace_hi);
    put_u64(out, request.trace_lo);
    put_u64(out, request.trace_parent_span);
  }
  return out;
}

TEST(ProtocolV3, V3FrameMatchesTheGrammarAndRoundTrips) {
  PlanRequest request = sample_request();
  request.deadline_ms = 3.0;
  request.trace_hi = 0x1111222233334444ull;
  request.trace_lo = 0x5555666677778888ull;
  request.trace_parent_span = 0x9999AAAABBBBCCCCull;
  const std::string payload = encode_plan_request(request);
  EXPECT_EQ(payload, golden_plan_request(3, request));
  EXPECT_EQ(payload[1], 3);
  EXPECT_EQ(decode_plan_request(payload), request);
}

TEST(ProtocolV3, V1AndV2PlanFramesAreRefused) {
  // An old client's frame, byte for byte as it sent it, is a ProtocolError
  // at the header: it never decodes to a request with a defaulted tail.
  PlanRequest request = sample_request();
  request.deadline_ms = 12.5;
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    const std::string old = golden_plan_request(version, request);
    EXPECT_THROW((void)peek_op(old), ProtocolError) << "v" << int(version);
    EXPECT_THROW((void)decode_plan_request(old), ProtocolError);
  }
}

TEST(ProtocolV3, TruncatedTraceContextThrowsAtEveryPrefix) {
  PlanRequest request = sample_request();
  request.trace_hi = 0x0102030405060708ull;
  request.trace_lo = 0x090A0B0C0D0E0F10ull;
  request.trace_parent_span = 0x1112131415161718ull;
  const std::string payload = encode_plan_request(request);
  // The trace tail is the last 24 bytes; every cut inside it (and at every
  // earlier offset) must throw, never decode garbage.
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_THROW((void)decode_plan_request(payload.substr(0, keep)),
                 ProtocolError)
        << "keep=" << keep;
  }
}

TEST(ProtocolV3, StatsRoundTrip) {
  const std::string request = encode_stats_request();
  EXPECT_EQ(peek_op(request), Op::kStats);
  EXPECT_EQ(request[1], static_cast<char>(kVersion));
  decode_stats_request(request);  // must not throw

  StatsReply reply;
  reply.status = Status::kOk;
  reply.json = R"({"counters":{"serve.requests":3}})";
  const std::string payload = encode_stats_reply(reply);
  EXPECT_EQ(peek_op(payload), Op::kStatsReply);
  EXPECT_EQ(decode_stats_reply(payload), reply);

  reply.json.clear();  // empty bodies are legal
  EXPECT_EQ(decode_stats_reply(encode_stats_reply(reply)), reply);
}

TEST(ProtocolV3, TraceDumpRoundTrip) {
  EXPECT_EQ(decode_trace_dump_request(encode_trace_dump_request(0)), 0u);
  EXPECT_EQ(decode_trace_dump_request(encode_trace_dump_request(77)), 77u);

  TraceDumpReply reply;
  reply.status = Status::kOk;
  reply.remaining = 41;
  reply.json = R"({"traces":[]})";
  const std::string payload = encode_trace_dump_reply(reply);
  EXPECT_EQ(peek_op(payload), Op::kTraceDumpReply);
  EXPECT_EQ(decode_trace_dump_reply(payload), reply);
}

TEST(ProtocolV3, IntrospectionOpsRefusePreV3Versions) {
  // Decoders refuse a hand-built pre-v3 frame claiming an introspection op.
  std::string stats = encode_stats_request();
  stats[1] = 2;  // version byte
  EXPECT_THROW(decode_stats_request(stats), ProtocolError);
  std::string dump = encode_trace_dump_request(5);
  dump[1] = 1;
  EXPECT_THROW((void)decode_trace_dump_request(dump), ProtocolError);
}

TEST(ProtocolV3, IntrospectionNegativePaths) {
  // Wrong op for the decoder.
  EXPECT_THROW(decode_stats_request(encode_trace_dump_request(1)),
               ProtocolError);
  EXPECT_THROW((void)decode_trace_dump_request(encode_stats_request()),
               ProtocolError);
  EXPECT_THROW((void)decode_stats_reply(encode_ping()), ProtocolError);
  EXPECT_THROW((void)decode_trace_dump_reply(encode_ping()), ProtocolError);

  // Truncation at every prefix of a reply with a str32 body.
  StatsReply reply;
  reply.json = "0123456789";
  const std::string payload = encode_stats_reply(reply);
  for (std::size_t keep = 0; keep < payload.size(); ++keep)
    EXPECT_THROW((void)decode_stats_reply(payload.substr(0, keep)),
                 ProtocolError)
        << "keep=" << keep;

  // Trailing garbage.
  EXPECT_THROW(decode_stats_request(encode_stats_request() + "x"),
               ProtocolError);
  EXPECT_THROW((void)decode_trace_dump_reply(
                   encode_trace_dump_reply(TraceDumpReply{}) + "x"),
               ProtocolError);

  // A str32 length promising more bytes than the payload has.
  std::string lying = encode_stats_reply(reply);
  // str32 length field sits right after header (3) + status (1).
  lying[4] = static_cast<char>(0xFF);
  lying[5] = static_cast<char>(0xFF);
  EXPECT_THROW((void)decode_stats_reply(lying), ProtocolError);

  // Unknown status byte.
  std::string bad_status = encode_stats_reply(reply);
  bad_status[3] = 0x7F;
  EXPECT_THROW((void)decode_stats_reply(bad_status), ProtocolError);
}

}  // namespace
}  // namespace jps::serve
