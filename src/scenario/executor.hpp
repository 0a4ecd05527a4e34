// executor.hpp — parallel sweep execution with deterministic seeding.
//
// A scenario's RunPoints are independent simulations, so the executor fans
// them out over a pipeline::ThreadPool.  Determinism contract: for a given
// (base_seed, runs) the results are BIT-IDENTICAL regardless of thread
// count, because
//   1. every run's 64-bit seed is derived up front, in run order, from the
//      jump sequence of one stats::Xoshiro256 rooted at base_seed
//      (stats::derive_stream_seeds); each run then expands its seed into a
//      fresh generator via SplitMix64, so distinct seeds give decorrelated
//      streams;
//   2. results land in a pre-sized vector at their run index, so output
//      order never depends on completion order;
//   3. run_experiment / run_fluid_experiment are pure functions of their
//      WorkloadConfig.
//
// Dispatch order: cells run largest-first.  A grid's wall time is set by
// its stragglers, so the executor sorts the cells by descending estimated
// work (estimated_cell_work: WorkloadConfig::estimated_work for packet
// cells, a token cost for fluid cells, ties broken by run index) and each
// worker claims one cell at a time from that order.  The heaviest cells
// start first and the light ones fill in around them.  Order never reaches
// the results: seeds, results, wall times, start offsets, on_run_start and
// the timeline cell are all keyed by run index.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scenario/spec.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp
}

namespace sss::scenario {

struct SweepOptions {
  // Worker threads; 0 = one per hardware thread, 1 = serial.
  int threads = 0;
  // Base seed for the per-run Xoshiro256 streams.
  std::uint64_t base_seed = 42;
};

// Dispatch priority of one cell: WorkloadConfig::estimated_work() for
// packet cells (hop-packets), a token cost for fluid cells (which take
// well under a millisecond), so fluid cells sort last.
[[nodiscard]] double estimated_cell_work(const RunPoint& run);

// The order execute() dispatches `runs` in: run indices by descending
// estimated_cell_work, ties broken by ascending index.  Deterministic.
[[nodiscard]] std::vector<std::size_t> dispatch_order(const std::vector<RunPoint>& runs);

class SweepExecutor {
 public:
  explicit SweepExecutor(SweepOptions options = {});

  // Derive the per-run seeds for `runs` (run i gets the i-th value of the
  // jump sequence rooted at base_seed).  Exposed for tests and for callers
  // that want to inspect/replay a single run.
  [[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::size_t count) const;

  // Execute every run and return results in run order.  Reseeds each
  // RunPoint whose `reseed` flag is set.  Runs are dispatched in
  // dispatch_order(runs), one per claim.  Blocks until all complete; the
  // first exception from any run propagates.
  [[nodiscard]] std::vector<simnet::ExperimentResult> execute(
      std::vector<RunPoint> runs) const;

  // Optional progress hook, invoked from worker threads as each run
  // completes with (completed_count, total).  Must be thread-safe.
  std::function<void(std::size_t, std::size_t)> on_progress;

  // Optional hook invoked on the worker thread right before run `i`
  // executes (index into the `runs` passed to execute).  Must be
  // thread-safe.  The runner wires ScenarioContext::on_cell_start through
  // this for fault injection.
  std::function<void(std::size_t)> on_run_start;

  // Optional timeline attachment: record run `timeline_index` (an index
  // into the `runs` passed to execute) into `timeline`.  Exactly one cell
  // is recorded, and that cell executes on exactly one worker thread, so
  // the recorder's contents are bit-identical at any thread count.  The
  // packet substrate records live (per-flow phases, per-hop counters); the
  // fluid substrate synthesizes client spans from its results.
  obs::TimelineRecorder* timeline = nullptr;
  std::size_t timeline_index = 0;

  // Threads the executor will actually use for `run_count` runs.
  [[nodiscard]] int effective_threads(std::size_t run_count) const;

  // Host wall time of each run from the latest execute(), in ms, indexed
  // like its results.  This is the "timing" half of the run manifest
  // (obs/manifest.hpp) — host-dependent by nature, never compared exactly.
  [[nodiscard]] const std::vector<double>& last_cell_wall_ms() const {
    return wall_ms_;
  }
  // Start offset of each run from the start of the latest execute(), in
  // ms, indexed like its results — where the run fell in the dispatch.
  [[nodiscard]] const std::vector<double>& last_cell_start_ms() const {
    return start_ms_;
  }

 private:
  SweepOptions options_;
  mutable std::vector<double> wall_ms_;
  mutable std::vector<double> start_ms_;
};

}  // namespace sss::scenario
