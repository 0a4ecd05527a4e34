// registry.hpp — immutable profile snapshots with atomic hot reload.
//
// decide_server answers queries out of calibrated facility profiles — the
// exact JSON reports the `calibrate` CLI emits (`calibrate --out-dir` writes
// one per facility).  This module owns their lifecycle:
//
//   profile dir (*.json, sss.calibration-report/1)
//     --> load_profile_dir()      one FacilityProfile per file, sorted
//     --> ServiceSnapshot         immutable, carries a generation number
//     --> SnapshotRegistry        atomic shared_ptr swap on reload
//
// Workers load the current snapshot once per request (an atomic shared_ptr
// load) and keep it alive for the duration of that request, so a reload
// can never tear a half-updated profile under an in-flight decision: the
// old snapshot stays valid until its last reader drops it, and the new one
// is observed only as a whole.  The generation number increments on every
// successful swap and is echoed in every DecideResponse, which is how the
// hot-reload tests (and the CI smoke) observe a reload landing without a
// single lost request.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "core/params.hpp"
#include "trace/json.hpp"

namespace sss::serve {

// One facility's calibrated decision inputs, as loaded from a calibration
// report.  `theta_file` is the trace-fitted theta (>= 1): the staged option
// pays it, the streaming option is judged at theta = 1 (pure streaming).
struct FacilityProfile {
  std::string name;
  core::ModelParameters params;        // fitted alpha; theta as fitted
  core::CongestionProfile profile;     // SSS(u) curve from the report
  double operating_utilization = 0.64; // report's calibrated operating point
  std::string source_path;             // file the profile came from
};

// Parse one calibration report (the JSON `calibrate` emits).  `fallback_name`
// names the facility when the report has no "facility" field (the loader
// passes the file stem).  Throws std::runtime_error naming the offending
// field on malformed input.
[[nodiscard]] FacilityProfile profile_from_report_json(const trace::JsonValue& report,
                                                       const std::string& fallback_name);

// Load every *.json in `dir` as a facility profile, sorted by facility
// name.  Throws std::runtime_error when the directory is unreadable, a file
// fails to parse (the error names the file), or two files declare the same
// facility.  An empty directory yields an empty vector (the server starts,
// answers kEmptySnapshot, and serves profiles as soon as a reload finds
// some — the calibrate-then-serve race is not a crash).
[[nodiscard]] std::vector<FacilityProfile> load_profile_dir(const std::string& dir);

// An immutable set of profiles plus the generation that loaded it.
class ServiceSnapshot {
 public:
  ServiceSnapshot(std::uint64_t generation, std::vector<FacilityProfile> profiles);

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const std::vector<FacilityProfile>& profiles() const { return profiles_; }
  // nullptr when the facility is unknown.  The map's transparent comparator
  // looks `name` up in place, without building a std::string.
  [[nodiscard]] const FacilityProfile* find(std::string_view name) const;
  [[nodiscard]] bool empty() const { return profiles_.empty(); }

 private:
  std::uint64_t generation_;
  std::vector<FacilityProfile> profiles_;              // sorted by name
  std::map<std::string, std::size_t, std::less<>> by_name_;
};

// The swap point.  `snapshot()` is wait-free from the caller's perspective
// (one atomic shared_ptr load); `swap()` publishes a new snapshot with the
// next generation and returns it.  Generations are strictly monotonic:
// the registry, not the caller, assigns them.
class SnapshotRegistry {
 public:
  SnapshotRegistry();

  [[nodiscard]] std::shared_ptr<const ServiceSnapshot> snapshot() const;
  // Publish `profiles` as generation current+1; returns the new snapshot.
  std::shared_ptr<const ServiceSnapshot> swap(std::vector<FacilityProfile> profiles);
  [[nodiscard]] std::uint64_t generation() const { return snapshot()->generation(); }

 private:
  std::atomic<std::shared_ptr<const ServiceSnapshot>> current_;
};

}  // namespace sss::serve
