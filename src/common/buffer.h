// Packet-path memory subsystem: reference-counted byte buffers.
//
// Every simulated packet used to be a `std::vector<u8>` that was allocated,
// copied and freed at each layer boundary (serialize -> fragment -> deliver
// -> reassemble -> parse). The off-path attacks this simulator reproduces
// (fragment sprays, NTP mode-3 floods, rate-limit probes) push millions of
// packets per campaign through exactly that path, so buffer ownership is a
// first-class subsystem here:
//
//  * BufferPool  — takes each block straight from operator new, with its
//    capacity rounded up to a power of two, and counts blocks allocated
//    and blocks live, process-wide.
//  * PacketBuf   — a reference-counted window onto a block, and the one
//    type for packet bytes: UDP handlers receive the delivered datagram's
//    own PacketBuf by const reference. Copying a PacketBuf bumps a
//    (non-atomic) refcount, so a handler keeps bytes by copying it;
//    fragment slicing and header prepend are offset arithmetic on the
//    shared block. Mutating accessors copy-on-write, so aliased slices can
//    never observe writes through another handle (see src/net/README.md
//    for the aliasing rules).
//
// Thread contract: a block may be released on any thread (it goes back to
// operator delete, and the counters are atomics), but a PacketBuf and every
// handle aliasing its block must stay on one thread, because the refcounts
// are plain integers. Nothing in the simulator sends packets across threads
// (trials own their event loop and results carry no buffers).
#pragma once

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/origin.h"
#include "common/types.h"

namespace dnstime {

using Bytes = std::vector<u8>;

/// Headroom reserved in front of freshly built payloads so lower layers can
/// prepend their headers in place (8 UDP + 20 IPv4, rounded up).
inline constexpr std::size_t kPacketHeadroom = 32;

/// Packet-buffer blocks, straight from the heap, with process-wide counts.
class BufferPool {
 public:
  struct Stats {
    /// Always 0 (no block is reused); kept because perfbench reads it.
    u64 pool_hits = 0;
    u64 fresh_allocs = 0;  ///< blocks taken from operator new
    u64 outstanding = 0;   ///< live blocks not yet released
  };

  /// Block header preceding every allocation.
  struct alignas(16) Block {
    u32 refcount;
    u32 capacity;
    [[nodiscard]] u8* data() {
      return reinterpret_cast<u8*>(this) + sizeof(Block);
    }
  };

  BufferPool() = delete;

  /// The process-wide counts. Exact when no other thread is mid-acquire or
  /// mid-release (e.g. after campaign workers joined). `outstanding` is the
  /// leak instrumentation: at trial teardown every PacketBuf must have been
  /// released, so it must match its pre-trial value.
  [[nodiscard]] static Stats aggregate_stats();

  /// Allocate a block with at least `capacity` data bytes: the capacity is
  /// rounded up to a power of two, at least 64 B, so a ByteWriter that
  /// doubles its buffer writes into that slack before it takes a new block.
  [[nodiscard]] static Block* acquire(std::size_t capacity);

  /// Free a block whose refcount reached zero.
  static void release(Block* b);
};

/// Reference-counted window onto a block. Copies alias (refcount++),
/// slices are offset arithmetic, mutation copies-on-write.
class PacketBuf {
 public:
  PacketBuf() = default;

  /// Copy of existing bytes into a new block. Implicit on purpose: it is the
  /// compat bridge that lets legacy `Bytes`-producing code feed the packet
  /// path (at the cost of one copy — the hot paths build their buffers
  /// directly via ByteWriter::take_buf()).
  PacketBuf(const Bytes& bytes)
      : PacketBuf(copy_of(std::span<const u8>(bytes))) {}
  PacketBuf(std::initializer_list<u8> init)
      : PacketBuf(copy_of(std::span<const u8>(init.begin(), init.size()))) {}

  [[nodiscard]] static PacketBuf copy_of(std::span<const u8> data,
                                         std::size_t headroom = 0);
  /// Uninitialised buffer of `n` bytes (callers must write every byte —
  /// reassembly proves contiguous coverage before using this).
  [[nodiscard]] static PacketBuf uninitialized(std::size_t n,
                                               std::size_t headroom = 0);

  ~PacketBuf() { reset(); }

  PacketBuf(const PacketBuf& o)
      : block_(o.block_), data_(o.data_), len_(o.len_), origin_(o.origin_) {
    if (block_) block_->refcount++;
  }
  PacketBuf& operator=(const PacketBuf& o) {
    if (this != &o) {
      if (o.block_) o.block_->refcount++;
      reset();
      block_ = o.block_;
      data_ = o.data_;
      len_ = o.len_;
      origin_ = o.origin_;
    }
    return *this;
  }
  PacketBuf(PacketBuf&& o) noexcept
      : block_(o.block_), data_(o.data_), len_(o.len_), origin_(o.origin_) {
    o.block_ = nullptr;
    o.data_ = nullptr;
    o.len_ = 0;
    o.origin_ = Origin{};
  }
  PacketBuf& operator=(PacketBuf&& o) noexcept {
    if (this != &o) {
      reset();
      block_ = o.block_;
      data_ = o.data_;
      len_ = o.len_;
      origin_ = o.origin_;
      o.block_ = nullptr;
      o.data_ = nullptr;
      o.len_ = 0;
      o.origin_ = Origin{};
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const u8* data() const { return data_; }
  [[nodiscard]] const u8* begin() const { return data_; }
  [[nodiscard]] const u8* end() const { return data_ + len_; }
  [[nodiscard]] const u8& operator[](std::size_t i) const { return data_[i]; }

  /// Mutating accessors copy-on-write: if the block is shared with another
  /// PacketBuf (an aliased fragment slice, a cached reassembly part), the
  /// window is first copied into a fresh block.
  [[nodiscard]] u8* data() {
    ensure_unique();
    return data_;
  }
  [[nodiscard]] u8* begin() {
    ensure_unique();
    return data_;
  }
  [[nodiscard]] u8* end() {
    ensure_unique();
    return data_ + len_;
  }
  [[nodiscard]] u8& operator[](std::size_t i) {
    ensure_unique();
    return data_[i];
  }

  [[nodiscard]] std::span<const u8> span() const { return {data_, len_}; }
  operator std::span<const u8>() const { return span(); }
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Aliasing sub-window [offset, offset+len) — zero copy, refcount++.
  [[nodiscard]] PacketBuf slice(std::size_t offset, std::size_t len) const;

  /// Grow the window `n` bytes to the left and return a pointer to the new
  /// region (header prepend). In place when this handle is unique and the
  /// block has headroom; otherwise the window is copied into a fresh block.
  u8* prepend(std::size_t n);

  /// Writer support: set the window length to `n` bytes from the window
  /// start, which may extend into tailroom (the caller vouches the bytes
  /// were written). Requires a unique handle.
  void set_size(std::size_t n) {
    if (n > len_ && (!unique() || n - len_ > tailroom())) {
      throw std::out_of_range("PacketBuf::set_size");
    }
    len_ = n;
  }

  /// Provenance stamp (common/origin.h). Carried alongside the window
  /// through copies, slices, copy-on-write and the writer's regrow path,
  /// so a reassembled or re-encoded payload still names its emitter.
  [[nodiscard]] const Origin& origin() const { return origin_; }
  void set_origin(const Origin& o) { origin_ = o; }

  [[nodiscard]] bool unique() const {
    return block_ == nullptr || block_->refcount == 1;
  }
  [[nodiscard]] std::size_t headroom() const {
    return block_ ? static_cast<std::size_t>(data_ - block_->data()) : 0;
  }
  [[nodiscard]] std::size_t tailroom() const {
    return block_ ? block_->capacity - headroom() - len_ : 0;
  }

  friend bool operator==(const PacketBuf& a, const PacketBuf& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data_, a.len_) == 0);
  }
  friend bool operator==(const PacketBuf& a, const Bytes& b) {
    return a.len_ == b.size() &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data(), a.len_) == 0);
  }
  friend bool operator==(const Bytes& a, const PacketBuf& b) { return b == a; }

 private:
  PacketBuf(BufferPool::Block* block, u8* data, std::size_t len)
      : block_(block), data_(data), len_(len) {}

  void reset() {
    if (block_ && --block_->refcount == 0) BufferPool::release(block_);
    block_ = nullptr;
    data_ = nullptr;
    len_ = 0;
    origin_ = Origin{};
  }
  void ensure_unique();

  BufferPool::Block* block_ = nullptr;
  u8* data_ = nullptr;
  std::size_t len_ = 0;
  Origin origin_{};
};

}  // namespace dnstime
