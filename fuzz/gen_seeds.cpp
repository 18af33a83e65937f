// Regenerates the BINARY seed corpus (fuzz/corpus/protocol) from the
// encoders themselves, so the committed seeds never drift from the wire
// format:
//
//   ./fuzz_gen_seeds <path-to-fuzz/corpus>
//
// The text corpora (json, fault_spec, plan_text) are maintained by hand /
// copied from tests/check/corpus and are NOT touched here.  Seeds are
// deterministic: re-running produces byte-identical files.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "serve/protocol.h"
#include "serve/transport.h"

namespace {

namespace fs = std::filesystem;
using namespace jps::serve;

// ByteStream that records everything written (for framed-stream seeds).
class CaptureStream final : public ByteStream {
 public:
  [[nodiscard]] std::size_t read(char*, std::size_t) override { return 0; }
  void write(const char* data, std::size_t size) override {
    bytes.append(data, size);
  }
  void shutdown_read() override {}
  void close() override {}
  void set_read_timeout_ms(double) override {}

  std::string bytes;
};

void put(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), bytes.size());
}

void protocol_seeds(const fs::path& dir) {
  fs::create_directories(dir);

  PlanRequest request;
  request.tenant = "seed-tenant";
  request.model = "alexnet";
  request.bandwidth_mbps = 5.85;
  request.n_jobs = 20;
  request.deadline_ms = 250.0;
  request.trace_hi = 0x0123456789ABCDEFull;
  request.trace_lo = 0xFEDCBA9876543210ull;
  request.trace_parent_span = 42;
  const std::string plan_request = encode_plan_request(request);
  put(dir / "plan_request.bin", plan_request);
  // An old v2 client's frame (no trace context): must decode to a
  // ProtocolError, which fuzz_protocol asserts for every non-kVersion byte.
  std::string v2 = plan_request.substr(0, plan_request.size() - 24);
  v2[1] = 2;
  put(dir / "plan_request_v2_refused.bin", v2);

  PlanReply reply;
  reply.status = Status::kOkStale;
  reply.message = "degraded";
  reply.stale = true;
  reply.cache_hit = true;
  reply.bandwidth_bucket_mbps = 6.0;
  reply.makespan_ms = 1280.5;
  reply.mix = {{6, 12}, {7, 8}};
  put(dir / "plan_reply_stale.bin", encode_plan_reply(reply));
  put(dir / "ping.bin", encode_ping());
  put(dir / "ping_reply.bin", encode_ping_reply());
  put(dir / "stats_request.bin", encode_stats_request());
  put(dir / "stats_reply.bin",
      encode_stats_reply({Status::kOk, R"({"counters":{}})"}));
  put(dir / "trace_dump_request.bin", encode_trace_dump_request(8));
  put(dir / "trace_dump_reply.bin",
      encode_trace_dump_reply({Status::kOk, 3, R"({"traces":[]})"}));

  CaptureStream framed;
  write_frame(framed, encode_plan_request(request));
  write_frame(framed, encode_plan_reply(reply));
  write_frame(framed, encode_ping());
  put(dir / "framed_stream.bin", framed.bytes);
  put(dir / "framed_truncated.bin",
      framed.bytes.substr(0, framed.bytes.size() - 3));

  // Hostile length prefix: kMaxFrameBytes + 1, little-endian, then junk.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::string hostile;
  for (int i = 0; i < 4; ++i)
    hostile.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  hostile += "JJ";
  put(dir / "framed_oversized_prefix.bin", hostile);
  put(dir / "bad_magic.bin", std::string("\x00\x01\x02\x03\x04", 5));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <fuzz/corpus dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  protocol_seeds(root / "protocol");
  return 0;
}
