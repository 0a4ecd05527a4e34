#include "serve/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "trace/atomic_io.hpp"
#include "units/units.hpp"

namespace sss::serve {

namespace {

constexpr const char* kReportFormat = "sss.calibration-report/1";

double require_number(const trace::JsonValue& object, const char* key) {
  const trace::JsonValue* value = object.find(key);
  if (value == nullptr || !value->is_number()) {
    throw std::runtime_error(std::string("calibration report: missing numeric field '") +
                             key + "'");
  }
  return value->as_double();
}

}  // namespace

FacilityProfile profile_from_report_json(const trace::JsonValue& report,
                                         const std::string& fallback_name) {
  const trace::JsonValue* format = report.find("format");
  if (format == nullptr || !format->is_string() || format->as_string() != kReportFormat) {
    throw std::runtime_error(std::string("calibration report: expected \"format\": \"") +
                             kReportFormat + "\"");
  }

  FacilityProfile facility;
  if (const trace::JsonValue* name = report.find("facility")) {
    facility.name = name->as_string();
  } else {
    facility.name = fallback_name;
  }
  if (facility.name.empty()) {
    throw std::runtime_error("calibration report: empty facility name");
  }

  const trace::JsonValue* params_json = report.find("model_parameters");
  if (params_json == nullptr || !params_json->is_object()) {
    throw std::runtime_error("calibration report: missing 'model_parameters'");
  }
  core::ModelParameters params;
  params.alpha = require_number(*params_json, "alpha");
  params.theta = require_number(*params_json, "theta");
  params.bandwidth =
      units::DataRate::bytes_per_second(require_number(*params_json, "bandwidth_bytes_per_s"));
  params.s_unit = units::Bytes::of(require_number(*params_json, "s_unit_bytes"));
  params.complexity =
      units::Complexity::flop_per_byte(require_number(*params_json, "complexity_flop_per_byte"));
  params.r_local = units::FlopsRate::flops(require_number(*params_json, "r_local_flop_per_s"));
  params.r_remote = units::FlopsRate::flops(require_number(*params_json, "r_remote_flop_per_s"));
  try {
    params.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("calibration report: invalid model_parameters: ") +
                             e.what());
  }
  facility.params = params;

  facility.operating_utilization = require_number(report, "operating_utilization");
  if (!(facility.operating_utilization > 0.0)) {
    throw std::runtime_error("calibration report: operating_utilization must be > 0");
  }

  const trace::JsonValue* points_json = report.find("profile");
  if (points_json == nullptr || !points_json->is_array()) {
    throw std::runtime_error("calibration report: missing 'profile' array");
  }
  std::vector<core::CongestionPoint> points;
  points.reserve(points_json->as_array().size());
  for (const trace::JsonValue& point_json : points_json->as_array()) {
    core::CongestionPoint point;
    point.utilization = require_number(point_json, "utilization");
    point.sss = require_number(point_json, "sss");
    point.t_worst_s = require_number(point_json, "t_worst_s");
    point.t_theoretical_s = require_number(point_json, "t_theoretical_s");
    point.t_mean_s = require_number(point_json, "t_mean_s");
    point.t_io_s = require_number(point_json, "t_io_s");
    point.measured_utilization = point.utilization;
    points.push_back(point);
  }
  if (points.empty()) {
    throw std::runtime_error("calibration report: empty 'profile' array");
  }
  facility.profile = core::CongestionProfile(std::move(points));
  return facility;
}

std::vector<FacilityProfile> load_profile_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("profile dir " + dir + " is not a directory");
  }

  // Sort paths first so load errors are reported deterministically.
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json" && entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<FacilityProfile> profiles;
  profiles.reserve(files.size());
  for (const fs::path& path : files) {
    try {
      const std::string text = trace::read_text_file(path.string());
      FacilityProfile profile =
          profile_from_report_json(trace::JsonValue::parse(text), path.stem().string());
      profile.source_path = path.string();
      profiles.push_back(std::move(profile));
    } catch (const std::exception& e) {
      throw std::runtime_error("loading profile " + path.string() + ": " + e.what());
    }
  }

  std::sort(profiles.begin(), profiles.end(),
            [](const FacilityProfile& a, const FacilityProfile& b) { return a.name < b.name; });
  for (std::size_t i = 1; i < profiles.size(); ++i) {
    if (profiles[i].name == profiles[i - 1].name) {
      throw std::runtime_error("duplicate facility '" + profiles[i].name + "' in " +
                               profiles[i - 1].source_path + " and " +
                               profiles[i].source_path);
    }
  }
  return profiles;
}

ServiceSnapshot::ServiceSnapshot(std::uint64_t generation,
                                 std::vector<FacilityProfile> profiles)
    : generation_(generation), profiles_(std::move(profiles)) {
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    by_name_.emplace(profiles_[i].name, i);
  }
}

const FacilityProfile* ServiceSnapshot::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &profiles_[it->second];
}

SnapshotRegistry::SnapshotRegistry() {
  current_.store(std::make_shared<const ServiceSnapshot>(0, std::vector<FacilityProfile>{}));
}

std::shared_ptr<const ServiceSnapshot> SnapshotRegistry::snapshot() const {
  return current_.load(std::memory_order_acquire);
}

std::shared_ptr<const ServiceSnapshot> SnapshotRegistry::swap(
    std::vector<FacilityProfile> profiles) {
  // Single-writer by design (the server's accept thread owns reloads), so
  // generation() + 1 cannot race with another swap.
  auto next = std::make_shared<const ServiceSnapshot>(
      current_.load(std::memory_order_acquire)->generation() + 1, std::move(profiles));
  current_.store(next, std::memory_order_release);
  return next;
}

}  // namespace sss::serve
