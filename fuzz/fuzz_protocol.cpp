// Fuzz the wire-protocol decoders (serve/protocol.h).
//
// The input is interpreted two ways, because the decoders have two layers
// with different contracts:
//
//   1. As a bare payload: peek_op / decode_plan_request /
//      decode_plan_reply must either return or throw ProtocolError — never
//      crash, never read out of bounds (the smoke job runs under
//      ASan+UBSan).  A payload that decodes must carry kVersion (any other
//      version byte, e.g. an old v1/v2 client's frame, is a ProtocolError),
//      and must re-encode and re-decode to the same value (round-trip
//      property).
//
//   2. As a raw byte stream: read_frame must handle hostile length
//      prefixes (oversized => ProtocolError before any allocation),
//      truncation (TransportError), and clean EOF (nullopt) — again
//      without crashing.
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "serve/transport.h"

namespace {

// Minimal in-memory ByteStream: serves the fuzz input as incoming bytes.
class MemoryStream final : public jps::serve::ByteStream {
 public:
  explicit MemoryStream(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t read(char* out, std::size_t max) override {
    const std::size_t n = std::min(max, bytes_.size() - pos_);
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return n;  // 0 == EOF once the input is drained
  }
  void write(const char*, std::size_t) override {}
  void shutdown_read() override { pos_ = bytes_.size(); }
  void close() override { pos_ = bytes_.size(); }
  void set_read_timeout_ms(double) override {}

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

void abort_if(bool broken) {
  if (broken) __builtin_trap();  // surface property violations as crashes
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace jps::serve;
  const std::string_view payload(reinterpret_cast<const char*>(data), size);

  try {
    (void)peek_op(payload);
    abort_if(static_cast<std::uint8_t>(payload[1]) != kVersion);
  } catch (const ProtocolError&) {
  }

  try {
    const PlanRequest request = decode_plan_request(payload);
    const PlanRequest again = decode_plan_request(encode_plan_request(request));
    abort_if(!(again == request));
  } catch (const ProtocolError&) {
  }

  // Introspection decoders: same contract — return or throw ProtocolError,
  // and whatever decodes must round-trip bit-exactly.
  try {
    decode_stats_request(payload);
  } catch (const ProtocolError&) {
  }
  try {
    const std::uint32_t max_traces = decode_trace_dump_request(payload);
    abort_if(decode_trace_dump_request(
                 encode_trace_dump_request(max_traces)) != max_traces);
  } catch (const ProtocolError&) {
  }
  try {
    const StatsReply reply = decode_stats_reply(payload);
    abort_if(!(decode_stats_reply(encode_stats_reply(reply)) == reply));
  } catch (const ProtocolError&) {
  }
  try {
    const TraceDumpReply reply = decode_trace_dump_reply(payload);
    abort_if(!(decode_trace_dump_reply(encode_trace_dump_reply(reply)) ==
               reply));
  } catch (const ProtocolError&) {
  }

  try {
    const PlanReply reply = decode_plan_reply(payload);
    abort_if(!(decode_plan_reply(encode_plan_reply(reply)) == reply));
  } catch (const ProtocolError&) {
  }

  // Layer 2: the same bytes as a framed stream.
  MemoryStream stream(payload);
  try {
    while (read_frame(stream).has_value()) {
    }
  } catch (const ProtocolError&) {
    // TransportError derives from ProtocolError; both are in-contract.
  }
  return 0;
}
