// NTP packet codec (RFC 5905 48-byte header) plus the mode-6 control
// ("config interface") messages whose exposure the paper measures (§IV-B2c:
// 5.3% of pool servers answer configuration queries).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace dnstime::ntp {

enum class Mode : u8 {
  kSymmetricActive = 1,
  kSymmetricPassive = 2,
  kClient = 3,
  kServer = 4,
  kBroadcast = 5,
  kControl = 6,
};

/// Kiss-o'-Death codes are ASCII refids on stratum-0 packets.
inline constexpr u32 kKodRate = 0x52415445;  // "RATE"

struct NtpPacket {
  u8 leap = 0;
  u8 version = 4;
  Mode mode = Mode::kClient;
  u8 stratum = 0;
  u8 poll = 6;
  i8 precision = -20;
  u32 root_delay = 0;       ///< 16.16 fixed seconds
  u32 root_dispersion = 0;  ///< 16.16 fixed seconds
  u32 refid = 0;  ///< stratum 1: source tag; stratum >=2: upstream IPv4
  double ref_time = 0;  ///< wall seconds, NTP era
  double org_time = 0;  ///< T1: client transmit, echoed by server
  double rx_time = 0;   ///< T2: server receive
  double tx_time = 0;   ///< T3: server transmit

  [[nodiscard]] bool is_kod() const { return stratum == 0 && refid != 0; }
  [[nodiscard]] bool is_rate_kod() const {
    return stratum == 0 && refid == kKodRate;
  }
};

/// Encode with packet headroom, for the send paths (clients, servers,
/// floods).
[[nodiscard]] PacketBuf encode_ntp_buf(const NtpPacket& pkt);
[[nodiscard]] NtpPacket decode_ntp(std::span<const u8> data);

/// Mode-6/7 "configuration interface" messages. Real ntpd exposes peer
/// lists via `ntpq -c peers` / mode 7 `monlist`; we model the information
/// content: a request opcode and a response carrying the server's
/// configured hostname(s) and upstream addresses.
struct ConfigRequest {};

struct ConfigResponse {
  std::vector<Ipv4Addr> upstream_addrs;
  std::string configured_hostname;
};

[[nodiscard]] Bytes encode_config_request();
[[nodiscard]] bool is_config_request(std::span<const u8> data);
[[nodiscard]] PacketBuf encode_config_response_buf(const ConfigResponse& resp);
[[nodiscard]] std::optional<ConfigResponse> decode_config_response(
    std::span<const u8> data);

}  // namespace dnstime::ntp
