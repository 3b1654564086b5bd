// Locale-free JSON formatting helpers shared by every JSON writer: the
// campaign report and diff, the trace and flight recorders, and the
// progress stream. Every function is a pure function of its arguments, so
// the writers built on them stay byte-deterministic across runs, machines
// and thread counts.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/types.h"

namespace dnstime::obs {

/// Append `s` with JSON string escaping (RFC 8259): quote and backslash
/// are backslash-escaped, a newline becomes \n, every other control
/// character (NUL included) a \u escape; other bytes pass through as UTF-8.
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
}

/// ts in microseconds with nanosecond decimals, locale-free: Chrome's
/// trace_event timestamps are doubles in microseconds, and emitting the
/// exact ns remainder keeps the writer byte-deterministic.
inline void append_ts(std::string& out, i64 ts_ns) {
  const bool neg = ts_ns < 0;
  u64 abs_ns = neg ? static_cast<u64>(-(ts_ns + 1)) + 1
                   : static_cast<u64>(ts_ns);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%llu.%03llu", neg ? "-" : "",
                static_cast<unsigned long long>(abs_ns / 1000),
                static_cast<unsigned long long>(abs_ns % 1000));
  out += buf;
}

/// Shortest %.6g rendering, non-finite as null (nan/inf are not JSON and
/// would corrupt every downstream parse).
inline void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

/// append_double as a value, for writers that build by concatenation.
[[nodiscard]] inline std::string json_number(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

}  // namespace dnstime::obs
