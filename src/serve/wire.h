// Little-endian field codecs shared by the wire protocol (serve/protocol.h)
// and the plan-cache snapshot format (serve/snapshot.h): put_* append a
// field to a byte string, Reader is a bounds-checked cursor that throws
// ProtocolError on a short read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.h"

namespace jps::serve::wire {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_str16(std::string& out, const std::string& s) {
  if (s.size() > 0xFFFF)
    throw ProtocolError("serve: string field exceeds 65535 bytes");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out += s;
}

// Long string (JSON bodies): bounded only by the frame cap, which
// write_frame enforces.
inline void put_str32(std::string& out, const std::string& s) {
  if (s.size() > kMaxFrameBytes)
    throw ProtocolError("serve: string field exceeds frame cap");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// Bounds-checked cursor over a received payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    need(2);
    const auto lo = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[pos_]));
    const auto hi = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[pos_ + 1]));
    pos_ += 2;
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + i]))
              << (8 * i);
    pos_ += 8;
    return bits;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str16() {
    const std::uint16_t len = u16();
    need(len);
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::string str32() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  void expect_done() const {
    if (pos_ != data_.size())
      throw ProtocolError("serve: trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw ProtocolError("serve: truncated payload");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace jps::serve::wire
