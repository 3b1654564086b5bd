#include "common/buffer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <new>

namespace dnstime {
namespace {

constexpr std::size_t kMinBlockBytes = 64;

// Relaxed: these are counts that order nothing. Readers that need exact
// values read them after the threads that acquire and release have joined.
std::atomic<u64> g_allocated{0};
std::atomic<u64> g_live{0};

}  // namespace

BufferPool::Stats BufferPool::aggregate_stats() {
  Stats s;
  s.fresh_allocs = g_allocated.load(std::memory_order_relaxed);
  s.outstanding = g_live.load(std::memory_order_relaxed);
  return s;
}

BufferPool::Block* BufferPool::acquire(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max(capacity, kMinBlockBytes));
  auto* b = static_cast<Block*>(::operator new(sizeof(Block) + cap));
  b->refcount = 1;
  b->capacity = static_cast<u32>(cap);
  g_allocated.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(1, std::memory_order_relaxed);
  return b;
}

void BufferPool::release(Block* b) {
  g_live.fetch_sub(1, std::memory_order_relaxed);
  ::operator delete(b);
}

PacketBuf PacketBuf::copy_of(std::span<const u8> data, std::size_t headroom) {
  if (data.empty() && headroom == 0) return {};
  BufferPool::Block* b = BufferPool::acquire(headroom + data.size());
  u8* dst = b->data() + headroom;
  if (!data.empty()) std::memcpy(dst, data.data(), data.size());
  return PacketBuf{b, dst, data.size()};
}

PacketBuf PacketBuf::uninitialized(std::size_t n, std::size_t headroom) {
  if (n == 0 && headroom == 0) return {};
  BufferPool::Block* b = BufferPool::acquire(headroom + n);
  return PacketBuf{b, b->data() + headroom, n};
}

PacketBuf PacketBuf::slice(std::size_t offset, std::size_t len) const {
  if (offset > len_ || len > len_ - offset) {
    throw std::out_of_range("PacketBuf::slice");
  }
  if (block_) block_->refcount++;
  PacketBuf out{block_, data_ + offset, len};
  out.origin_ = origin_;  // a fragment slice keeps its parent's provenance
  return out;
}

void PacketBuf::ensure_unique() {
  if (block_ == nullptr || block_->refcount == 1) return;
  const Origin origin = origin_;
  *this = copy_of(span(), kPacketHeadroom);
  origin_ = origin;  // copy-on-write must not launder provenance
}

u8* PacketBuf::prepend(std::size_t n) {
  if (block_ && block_->refcount == 1 && headroom() >= n) {
    data_ -= n;
    len_ += n;
    return data_;
  }
  PacketBuf grown = uninitialized(n + len_, kPacketHeadroom);
  grown.origin_ = origin_;
  if (len_ != 0) std::memcpy(grown.data_ + n, data_, len_);
  *this = std::move(grown);
  return data_;
}

}  // namespace dnstime
