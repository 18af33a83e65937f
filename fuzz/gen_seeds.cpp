// Regenerates the BINARY seed corpora (fuzz/corpus/protocol,
// fuzz/corpus/snapshot) from the encoders themselves, so the committed
// seeds never drift from the wire format:
//
//   ./fuzz_gen_seeds <path-to-fuzz/corpus>
//
// The text corpora (json, fault_spec, plan_text) are maintained by hand /
// copied from tests/check/corpus and are NOT touched here.  Seeds are
// deterministic: re-running produces byte-identical files (the snapshot
// encoder sorts its entries; plan computation is pure).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
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
  put(dir / "plan_request_v2.bin", encode_plan_request(request));
  put(dir / "plan_request_v1.bin", encode_plan_request(request, 1));

  PlanReply reply;
  reply.status = Status::kOkStale;
  reply.message = "degraded";
  reply.stale = true;
  reply.cache_hit = true;
  reply.bandwidth_bucket_mbps = 6.0;
  reply.makespan_ms = 1280.5;
  reply.mix = {{6, 12}, {7, 8}};
  put(dir / "plan_reply_stale_v2.bin", encode_plan_reply(reply));
  put(dir / "plan_reply_stale_v1.bin", encode_plan_reply(reply, 1));
  put(dir / "ping.bin", encode_ping());
  put(dir / "ping_reply.bin", encode_ping_reply());

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

void snapshot_seeds(const fs::path& dir) {
  fs::create_directories(dir);

  // A real populated cache: run two plans through a Server and encode its
  // cache — the exact bytes save_snapshot_if_configured would write.
  ServerOptions options;
  Server server(options);
  for (const char* model : {"alexnet", "nin"}) {
    PlanRequest request;
    request.model = model;
    request.bandwidth_mbps = 5.85;
    request.n_jobs = 8;
    const PlanReply reply = server.handle_plan(request);
    if (!reply.ok()) {
      std::fprintf(stderr, "seed plan failed: %s\n", reply.message.c_str());
      std::exit(1);
    }
  }
  const std::string valid = encode_cache_snapshot(server.cache());
  server.stop();

  put(dir / "snapshot_valid.bin", valid);
  put(dir / "snapshot_truncated.bin", valid.substr(0, valid.size() / 2));

  std::string flipped = valid;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0xFF);
  put(dir / "snapshot_bitflip.bin", flipped);

  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  put(dir / "snapshot_bad_magic.bin", bad_magic);
  put(dir / "snapshot_empty.bin", std::string());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <fuzz/corpus dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  protocol_seeds(root / "protocol");
  snapshot_seeds(root / "snapshot");
  return 0;
}
