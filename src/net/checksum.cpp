#include "net/checksum.h"

namespace dnstime::net {

u16 ones_complement_sum(std::span<const u8> data) {
  // The 32-bit accumulator cannot overflow on an IPv4-sized input: 65,535
  // bytes are 32,768 words of at most 0xFFFF, which sum to under 2^31.
  u32 sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (u32{data[i]} << 8) | u32{data[i + 1]};
  }
  if (i < data.size()) sum += u32{data[i]} << 8;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<u16>(sum);
}

u16 ones_complement_add(u16 a, u16 b) {
  u32 sum = u32{a} + u32{b};
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<u16>(sum);
}

u16 ones_complement_sub(u16 a, u16 b) {
  // a - b == a + ~b in ones' complement arithmetic.
  return ones_complement_add(a, static_cast<u16>(~b));
}

u16 internet_checksum(std::span<const u8> data) {
  return static_cast<u16>(~ones_complement_sum(data));
}

u16 pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst, u8 protocol, u16 length) {
  u16 sum = 0;
  sum = ones_complement_add(sum, static_cast<u16>(src.value() >> 16));
  sum = ones_complement_add(sum, static_cast<u16>(src.value() & 0xFFFF));
  sum = ones_complement_add(sum, static_cast<u16>(dst.value() >> 16));
  sum = ones_complement_add(sum, static_cast<u16>(dst.value() & 0xFFFF));
  sum = ones_complement_add(sum, u16{protocol});
  sum = ones_complement_add(sum, length);
  return sum;
}

}  // namespace dnstime::net
