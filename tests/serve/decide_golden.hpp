// decide_golden.hpp — the committed decide golden, shared by the tests that
// replay it.
//
// tests/data/decide_golden/frames.txt holds one line per request of a
// fixed grid: the snapshot the request is answered against, then the
// request frame and the response frame decide_server puts on the wire, both
// as lowercase hex.  The "profiles" snapshot serves two facilities: the
// committed calibration golden (tests/data/calibration_report.golden.json,
// facility "golden") and a profile on the local/stream boundary
// (decide_golden/edge.json, facility "edge").  The "empty" snapshot has no
// profiles.  decide_golden_test.cpp rewrites frames.txt when
// SSS_DECIDE_GOLDEN_OUT names an output path.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/registry.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"

namespace sss::serve::golden {

inline constexpr std::uint64_t kProfilesGeneration = 3;
inline constexpr std::uint64_t kEmptyGeneration = 5;

inline std::string data_path(const std::string& name) {
  return std::string(SSS_SOURCE_DIR) + "/tests/data/" + name;
}

inline std::string frames_path() { return data_path("decide_golden/frames.txt"); }

inline FacilityProfile load_profile(const std::string& name, const std::string& fallback) {
  return profile_from_report_json(trace::JsonValue::parse(trace::read_text_file(data_path(name))),
                                  fallback);
}

inline ServiceSnapshot profiles_snapshot() {
  return ServiceSnapshot(kProfilesGeneration,
                         {load_profile("calibration_report.golden.json", "golden"),
                          load_profile("decide_golden/edge.json", "edge")});
}

inline ServiceSnapshot empty_snapshot() { return ServiceSnapshot(kEmptyGeneration, {}); }

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

inline std::string from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw std::runtime_error(std::string("decide golden: bad hex digit '") + c + "'");
  };
  if (hex.size() % 2 != 0) throw std::runtime_error("decide golden: odd hex length");
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return bytes;
}

// One golden line, frames as raw bytes.
struct GoldenFrame {
  std::string snapshot;  // "profiles" or "empty"
  std::string request;   // header + DecideRequest payload
  std::string response;  // header + DecideResponse payload
};

inline std::vector<GoldenFrame> read_frames() {
  std::istringstream in(trace::read_text_file(frames_path()));
  std::vector<GoldenFrame> frames;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string snapshot, request_hex, response_hex;
    if (!(fields >> snapshot >> request_hex >> response_hex)) {
      throw std::runtime_error("decide golden: bad line: " + line);
    }
    frames.push_back({snapshot, from_hex(request_hex), from_hex(response_hex)});
  }
  return frames;
}

}  // namespace sss::serve::golden
