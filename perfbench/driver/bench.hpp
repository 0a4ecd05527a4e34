// bench.hpp — the two benchmark drivers behind perfbench_driver.
//
// Each driver runs one workload family, checks the program's outputs, and
// writes one JSON document of raw measurements (per-repetition times,
// latency samples, spans, deterministic counters).  All arithmetic that
// turns raw measurements into the reported metrics lives in
// perfbench/benchlib/metrics.py, where it is self-tested.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// `--key value` command-line options; perfbench/run.py passes every one.
class Options {
 public:
  Options(int argc, char** argv);

  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  // Comma-separated list.
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double process_cpu_s();
// Peak resident set size of this process, in KiB: since the last
// reset_peak_rss() when the kernel supports resetting it, else since start.
[[nodiscard]] long peak_rss_kib();
// Restart the kernel's peak-RSS tracking (VmHWM) for this process.
void reset_peak_rss();

// Sweep workloads (table2_link, facility_contention).  Options:
//   --plans A.json,B.json   plan files, executed as one grid
//   --references A.csv,B.csv  rows of each plan at the golden seed (42)
//   --seed N --seconds S
//   --spot-cells C --phase-cell I (-1 = none)
//   --trace 0|1 --work DIR --out FILE
// Scale, thread count and the repetition scheme are fixed in sweep_bench.cpp.
int run_sweep(const Options& options);

// The serve_mixed workload.  Options:
//   --inputs DIR   holds profiles/ (the served set) and frib_v2.json
//                  (the version the hot reload swaps frib.json with)
//   --mix FILE --seed N --seconds S --trace 0|1 --work DIR --out FILE
// Rates, phase lengths and the reload cadence are fixed in serve_bench.cpp.
int run_serve(const Options& options);

}  // namespace perfbench
