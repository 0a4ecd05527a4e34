// manifest.hpp — per-cell runtime metrics for a sweep run.
//
// The SweepExecutor knows how long every grid cell took on the host and
// what the simulator did inside it; a RunManifest is that knowledge made
// durable (`scenario_runner --metrics-out metrics.json`).  The schema keeps
// two strictly separated groups per cell:
//
//   "deterministic" — pure functions of (config, seed): events_processed,
//       queue_high_water, arena_reserved_bytes, sim_duration_s.  These are
//       bit-identical across thread counts, shards and hosts, so tests and
//       shard merges can compare them exactly;
//   "timing" — host measurements: wall_ms, and start_ms, the cell's start
//       offset from the start of the sweep's execute() (where it fell in
//       the largest-first dispatch).  Never compared exactly; wall_ms is
//       the measured per-cell cost that cost-aware sharding feeds back into
//       the shard planner.
//
// Cells carry their GLOBAL grid index, so per-shard manifests merge into
// one table (`scenario_runner --merge merged.json shard*.json`) exactly
// like sharded CSVs, and `--cost-report` ranks the merged cells by wall_ms
// and reports how busy the sweep threads were (grid_utilization).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/json.hpp"

namespace sss::obs {

struct CellMetrics {
  std::size_t index = 0;  // GLOBAL grid index (stable across sharding)
  std::string label;      // RunPoint label, e.g. "nic=40g"
  // deterministic
  std::uint64_t events_processed = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t arena_reserved_bytes = 0;
  double sim_duration_s = 0.0;
  // timing (host-dependent; excluded from determinism comparisons)
  double wall_ms = 0.0;
  double start_ms = 0.0;  // offset from the start of execute()
};

struct RunManifest {
  int schema = 1;
  std::string scenario;
  double scale = 1.0;
  std::uint64_t seed = 42;
  int threads = 0;          // requested sweep threads (0 = hardware)
  std::size_t total_cells = 0;  // full grid size (cells.size() unless sharded)
  std::vector<CellMetrics> cells;

  [[nodiscard]] trace::JsonValue to_json() const;
  // to_json() with indent 1 plus trailing newline — the --metrics-out bytes.
  [[nodiscard]] std::string to_json_text() const;
  [[nodiscard]] static RunManifest from_json(const trace::JsonValue& json);
  [[nodiscard]] static RunManifest from_json_text(std::string_view text);
};

// Union of per-shard manifests: cells concatenated and sorted by global
// index.  Throws std::invalid_argument on scenario/scale/seed mismatch,
// duplicate cell indices, or an empty input list.
[[nodiscard]] RunManifest merge_manifests(const std::vector<RunManifest>& parts);

// Cost report: cells ranked by wall_ms, slowest first, capped at `top_n`
// (0 = all).  Header + string rows, ready for trace::ConsoleTable / CSV.
[[nodiscard]] std::vector<std::string> cost_report_header();
[[nodiscard]] std::vector<std::vector<std::string>> cost_report_rows(
    const RunManifest& manifest, std::size_t top_n);

// How busy the sweep threads were: busy_share = busy_ms / (threads x
// span_ms), where busy_ms = sum of wall_ms, span_ms = the latest cell end
// (start_ms + wall_ms), and threads = the most cells in flight at once.
// 1.0 means every thread ran cells from the first dispatch to the last
// completion.  Start offsets are per execute(), so a merged manifest is
// read as if its shards had run side by side.
struct GridUtilization {
  double busy_ms = 0.0;
  double span_ms = 0.0;
  std::size_t threads = 0;
  double busy_share = 0.0;  // 0 for an empty or zero-span grid
};
[[nodiscard]] GridUtilization grid_utilization(const RunManifest& manifest);
// One line for the cost report, e.g. "busy share 0.934: 4832.125 ms of cell
// work on 4 threads over a 1293.500 ms span".
[[nodiscard]] std::string busy_share_line(const RunManifest& manifest);

}  // namespace sss::obs
