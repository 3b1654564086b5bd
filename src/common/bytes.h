// Byte-buffer reader/writer used by all wire-format codecs (IPv4, UDP,
// ICMP, DNS, NTP). All multi-byte integers are network (big-endian) order.
//
// ByteWriter appends into a PacketBuf (common/buffer.h) and reserves
// packet headroom by default, so a codec's output can have lower-layer
// headers prepended in place — `take_buf()` is the zero-copy path the
// netstack rides; `take()` keeps the legacy owned-vector contract for wire
// crafting and persistence code.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"

namespace dnstime {

/// Thrown by codecs on malformed input. Decoders in this library never
/// crash on attacker-controlled bytes; they throw this and the caller
/// (typically a network stack) drops the packet.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential big-endian writer appending to a PacketBuf that keeps
/// kPacketHeadroom bytes free in front for the headers prepended later.
class ByteWriter {
 public:
  ByteWriter() = default;
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void write_u8(u8 v) {
    if (cur_ == cap_end_) grow(1);
    *cur_++ = v;
  }
  void write_u16(u16 v) {
    u8* p = reserve(2);
    p[0] = static_cast<u8>(v >> 8);
    p[1] = static_cast<u8>(v);
  }
  void write_u32(u32 v) {
    u8* p = reserve(4);
    p[0] = static_cast<u8>(v >> 24);
    p[1] = static_cast<u8>(v >> 16);
    p[2] = static_cast<u8>(v >> 8);
    p[3] = static_cast<u8>(v);
  }
  void write_u64(u64 v) {
    write_u32(static_cast<u32>(v >> 32));
    write_u32(static_cast<u32>(v));
  }
  void write_bytes(std::span<const u8> data) {
    if (data.empty()) return;
    u8* p = reserve(data.size());
    std::memcpy(p, data.data(), data.size());
  }
  void write_string(const std::string& s) {
    if (s.empty()) return;
    u8* p = reserve(s.size());
    std::memcpy(p, s.data(), s.size());
  }

  /// Overwrite a previously written 16-bit field (e.g. a length or checksum
  /// computed after the payload is known). `offset` is relative to the
  /// first written byte.
  void patch_u16(std::size_t offset, u16 v) {
    if (offset + 2 > size()) throw DecodeError("patch_u16 out of range");
    buf_.data()[offset] = static_cast<u8>(v >> 8);
    buf_.data()[offset + 1] = static_cast<u8>(v);
  }

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(cur_ - buf_.data());
  }
  /// The bytes written so far.
  [[nodiscard]] std::span<const u8> data() const {
    return {static_cast<const PacketBuf&>(buf_).data(), size()};
  }
  /// Zero-copy: the buffer, window = written bytes, headroom intact.
  [[nodiscard]] PacketBuf take_buf() && {
    buf_.set_size(size());
    cur_ = cap_end_ = nullptr;
    return std::move(buf_);
  }
  /// Legacy owned-vector contract (copies once).
  [[nodiscard]] Bytes take() && {
    Bytes out(data().begin(), data().end());
    buf_ = PacketBuf{};
    cur_ = cap_end_ = nullptr;
    return out;
  }

 private:
  [[nodiscard]] u8* reserve(std::size_t n) {
    if (static_cast<std::size_t>(cap_end_ - cur_) < n) grow(n);
    u8* p = cur_;
    cur_ += n;
    return p;
  }
  void grow(std::size_t need) {
    std::size_t used = size();
    std::size_t cap = used ? used * 2 : 160;
    if (cap < used + need) cap = used + need;
    PacketBuf bigger = PacketBuf::uninitialized(cap, kPacketHeadroom);
    bigger.set_origin(buf_.origin());  // regrowing must keep provenance
    if (used != 0) std::memcpy(bigger.data(), buf_.data(), used);
    buf_ = std::move(bigger);
    // BufferPool::acquire rounds capacity up to a power of two; write into
    // all of it.
    buf_.set_size(buf_.size() + buf_.tailroom());
    cur_ = buf_.data() + used;
    cap_end_ = buf_.data() + buf_.size();
  }

  PacketBuf buf_;
  u8* cur_ = nullptr;
  u8* cap_end_ = nullptr;
};

/// Sequential big-endian reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  [[nodiscard]] u8 read_u8() {
    require(1);
    return data_[pos_++];
  }
  [[nodiscard]] u16 read_u16() {
    require(2);
    u16 v = (u16{data_[pos_]} << 8) | u16{data_[pos_ + 1]};
    pos_ += 2;
    return v;
  }
  [[nodiscard]] u32 read_u32() {
    u32 hi = read_u16();
    return (hi << 16) | read_u16();
  }
  [[nodiscard]] u64 read_u64() {
    u64 hi = read_u32();
    return (hi << 32) | read_u32();
  }
  [[nodiscard]] Bytes read_bytes(std::size_t n) {
    require(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }
  void seek(std::size_t pos) {
    if (pos > data_.size()) throw DecodeError("seek out of range");
    pos_ = pos;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  [[nodiscard]] std::span<const u8> raw() const { return data_; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) throw DecodeError("truncated input");
  }
  std::span<const u8> data_;
  std::size_t pos_ = 0;
};

}  // namespace dnstime
