// Wire-protocol codec: round-trips and the negative paths a server facing
// untrusted bytes must survive (truncation, oversized lengths, trailing
// garbage, unknown codes).
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "serve/transport.h"

namespace jps::serve {
namespace {

using namespace std::string_literals;

PlanRequest sample_request() {
  PlanRequest request;
  request.tenant = "tenant-a";
  request.model = "alexnet";
  request.bandwidth_mbps = 7.375;
  request.strategy = core::Strategy::kJPSTuned;
  request.n_jobs = 12;
  return request;
}

PlanReply sample_reply() {
  PlanReply reply;
  reply.status = Status::kOk;
  reply.message = "";
  reply.coalesced = true;
  reply.cache_hit = false;
  reply.bandwidth_bucket_mbps = 7.25;
  reply.makespan_ms = 123.456789;
  reply.mix = {{2, 5}, {3, 7}};
  return reply;
}

TEST(Protocol, PlanRequestRoundTrip) {
  const PlanRequest request = sample_request();
  const std::string payload = encode_plan_request(request);
  EXPECT_EQ(peek_op(payload), Op::kPlan);
  EXPECT_EQ(decode_plan_request(payload), request);
}

TEST(Protocol, PlanReplyRoundTrip) {
  const PlanReply reply = sample_reply();
  const std::string payload = encode_plan_reply(reply);
  EXPECT_EQ(peek_op(payload), Op::kPlanReply);
  EXPECT_EQ(decode_plan_reply(payload), reply);
}

TEST(Protocol, PingRoundTrip) {
  EXPECT_EQ(peek_op(encode_ping()), Op::kPing);
  EXPECT_EQ(peek_op(encode_ping_reply()), Op::kPingReply);
}

TEST(Protocol, NonFiniteBandwidthSurvivesTransit) {
  // NaN/Inf must decode (IEEE bit pattern round-trip) so the SERVER can
  // reject them with a status instead of the codec crashing.
  PlanRequest request = sample_request();
  request.bandwidth_mbps = std::numeric_limits<double>::quiet_NaN();
  const PlanRequest decoded = decode_plan_request(encode_plan_request(request));
  EXPECT_TRUE(std::isnan(decoded.bandwidth_mbps));

  request.bandwidth_mbps = std::numeric_limits<double>::infinity();
  EXPECT_EQ(decode_plan_request(encode_plan_request(request)).bandwidth_mbps,
            std::numeric_limits<double>::infinity());
}

TEST(Protocol, EmptyAndUnicodeStringsRoundTrip) {
  PlanRequest request = sample_request();
  request.tenant = "";
  request.model = std::string("m\xC3\xB6") + "del" + '\0' + 'x';  // UTF-8 +
                                                                  // embedded NUL

  EXPECT_EQ(decode_plan_request(encode_plan_request(request)), request);
}

TEST(Protocol, BadMagicVersionOpThrow) {
  std::string payload = encode_plan_request(sample_request());
  std::string bad = payload;
  bad[0] = 'X';
  EXPECT_THROW((void)peek_op(bad), ProtocolError);
  bad = payload;
  bad[1] = 9;
  EXPECT_THROW((void)peek_op(bad), ProtocolError);
  bad = payload;
  bad[2] = 77;
  EXPECT_THROW((void)peek_op(bad), ProtocolError);
}

TEST(Protocol, TruncatedPayloadThrows) {
  const std::string payload = encode_plan_request(sample_request());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{2},
                                 payload.size() / 2, payload.size() - 1}) {
    EXPECT_THROW((void)decode_plan_request(payload.substr(0, keep)),
                 ProtocolError)
        << "keep=" << keep;
  }
}

TEST(Protocol, TrailingBytesThrow) {
  EXPECT_THROW(
      (void)decode_plan_request(encode_plan_request(sample_request()) + "x"),
      ProtocolError);
  EXPECT_THROW(
      (void)decode_plan_reply(encode_plan_reply(sample_reply()) + "\0"s),
      ProtocolError);
}

TEST(Protocol, WrongOpForDecoderThrows) {
  EXPECT_THROW((void)decode_plan_request(encode_plan_reply(sample_reply())),
               ProtocolError);
  EXPECT_THROW((void)decode_plan_reply(encode_plan_request(sample_request())),
               ProtocolError);
  EXPECT_THROW((void)decode_plan_request(encode_ping()), ProtocolError);
}

TEST(Protocol, UnknownStrategyAndStatusCodesThrow) {
  // v3 tail layout: u8 strategy | u32 n_jobs | f64 deadline_ms
  //                 | u64 trace_hi | u64 trace_lo | u64 trace_parent_span.
  std::string payload = encode_plan_request(sample_request());
  payload[payload.size() - 37] = 0x7F;
  EXPECT_THROW((void)decode_plan_request(payload), ProtocolError);

  std::string reply = encode_plan_reply(sample_reply());
  reply[3] = 0x7F;  // status byte right after the header
  EXPECT_THROW((void)decode_plan_reply(reply), ProtocolError);
}

TEST(Protocol, HostileMixCountRefusedBeforeAllocation) {
  PlanReply reply = sample_reply();
  reply.mix.clear();
  std::string payload = encode_plan_reply(reply);
  // Patch the trailing u32 mix_count to 0xFFFFFFFF with no entries behind it.
  for (std::size_t i = payload.size() - 4; i < payload.size(); ++i)
    payload[i] = static_cast<char>(0xFF);
  EXPECT_THROW((void)decode_plan_reply(payload), ProtocolError);
}

TEST(Versioning, V2RequestCarriesTheDeadline) {
  PlanRequest request = sample_request();
  request.deadline_ms = 12.5;
  const std::string payload = encode_plan_request(request);
  EXPECT_EQ(payload[1], static_cast<char>(kVersion));
  const PlanRequest decoded = decode_plan_request(payload);
  EXPECT_DOUBLE_EQ(decoded.deadline_ms, 12.5);
  EXPECT_EQ(decoded, request);
}

TEST(Versioning, V2ReplyRoundTripsTheNewStatuses) {
  for (const Status s : {Status::kOkStale, Status::kDeadlineExceeded}) {
    PlanReply reply = sample_reply();
    reply.status = s;
    if (s == Status::kOkStale) reply.stale = true;
    EXPECT_EQ(decode_plan_reply(encode_plan_reply(reply)).status, s);
  }
}

TEST(Versioning, OutOfRangeVersionsAreRefused) {
  // kVersion is the only version: older and newer version bytes are both
  // refused at the header, and the error names the version spoken.
  for (const int version : {0, 1, 2, kVersion + 1, 255}) {
    std::string request = encode_plan_request(sample_request());
    request[1] = static_cast<char>(version);
    EXPECT_THROW((void)peek_op(request), ProtocolError) << version;
    EXPECT_THROW((void)decode_plan_request(request), ProtocolError);
    try {
      (void)decode_plan_request(request);
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("expected version 3"),
                std::string::npos)
          << e.what();
    }
    std::string reply = encode_plan_reply(sample_reply());
    reply[1] = static_cast<char>(version);
    EXPECT_THROW((void)decode_plan_reply(reply), ProtocolError) << version;
  }
}

TEST(Protocol, RetryableStatusVocabulary) {
  EXPECT_TRUE(status_is_retryable(Status::kUnavailable));
  EXPECT_TRUE(status_is_retryable(Status::kDeadlineExceeded));
  EXPECT_FALSE(status_is_retryable(Status::kOk));
  EXPECT_FALSE(status_is_retryable(Status::kOkStale));
  EXPECT_FALSE(status_is_retryable(Status::kInvalidArgument));
  EXPECT_FALSE(status_is_retryable(Status::kNotFound));
  EXPECT_FALSE(status_is_retryable(Status::kResourceExhausted));
  EXPECT_FALSE(status_is_retryable(Status::kInternal));
}

TEST(Framing, RoundTripAndCleanEof) {
  StreamPair pair = make_in_process_pair();
  write_frame(*pair.first, "hello");
  write_frame(*pair.first, "");  // empty frames are legal
  pair.first->close();
  EXPECT_EQ(read_frame(*pair.second), "hello");
  EXPECT_EQ(read_frame(*pair.second), "");
  EXPECT_EQ(read_frame(*pair.second), std::nullopt);  // clean EOF
}

TEST(Framing, TruncatedLengthPrefixThrows) {
  StreamPair pair = make_in_process_pair();
  pair.first->write("\x05\x00", 2);  // half a length prefix, then EOF
  pair.first->close();
  EXPECT_THROW((void)read_frame(*pair.second), ProtocolError);
}

TEST(Framing, TruncatedPayloadThrows) {
  StreamPair pair = make_in_process_pair();
  // Split literal: "\x00ab" would parse as one hex escape.
  pair.first->write("\x05\x00\x00\x00" "ab", 6);  // promises 5 bytes, sends 2
  pair.first->close();
  EXPECT_THROW((void)read_frame(*pair.second), ProtocolError);
}

TEST(Framing, OversizedLengthRefusedBeforeAllocation) {
  StreamPair pair = make_in_process_pair();
  pair.first->write("\xFF\xFF\xFF\xFF", 4);  // 4 GiB frame announcement
  EXPECT_THROW((void)read_frame(*pair.second), ProtocolError);
  EXPECT_THROW(write_frame(*pair.first,
                           std::string(kMaxFrameBytes + 1, 'x')),
               ProtocolError);
}

}  // namespace
}  // namespace jps::serve
