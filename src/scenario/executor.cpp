#include "scenario/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/timeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "stats/rng.hpp"

namespace sss::scenario {

namespace {

// Fluid cells cost well under a millisecond; any packet cell outweighs
// them, so they fill in last.
constexpr double kFluidCellWork = 1.0;

simnet::ExperimentResult execute_one(const RunPoint& run,
                                     obs::TimelineRecorder* timeline) {
  switch (run.substrate) {
    case Substrate::kFluid: {
      simnet::ExperimentResult result = simnet::run_fluid_experiment(run.config);
      if (timeline != nullptr) {
        // The fluid substrate has no packet events to sample, so its
        // timeline is synthesized from the result records: the spawn/drain
        // window plus one transfer span per client.
        obs::TimelineRecorder& rec = *timeline;
        const int workload = rec.add_track("workload (fluid)");
        const auto spawn_end =
            static_cast<std::int64_t>(run.config.duration.seconds() * 1e9 + 0.5);
        rec.complete_span(workload, "spawn-window", 0, spawn_end);
        const auto sim_end = static_cast<std::int64_t>(result.sim_duration_s * 1e9 + 0.5);
        if (sim_end > spawn_end) rec.complete_span(workload, "drain", spawn_end, sim_end);
        for (const simnet::ClientRecord& client : result.metrics.clients) {
          const int track = rec.add_track("client " + std::to_string(client.client_id));
          rec.complete_span(track,
                            client.censored ? "transfer (censored)" : "transfer",
                            static_cast<std::int64_t>(client.start_s * 1e9 + 0.5),
                            static_cast<std::int64_t>(client.end_s * 1e9 + 0.5));
        }
      }
      return result;
    }
    case Substrate::kPacket:
      break;
  }
  if (timeline != nullptr) {
    simnet::TimelineProbe probe;
    probe.recorder = timeline;
    return simnet::run_experiment(run.config, probe);
  }
  return simnet::run_experiment(run.config);
}

}  // namespace

double estimated_cell_work(const RunPoint& run) {
  switch (run.substrate) {
    case Substrate::kFluid:
      return kFluidCellWork;
    case Substrate::kPacket:
      break;
  }
  return run.config.estimated_work();
}

std::vector<std::size_t> dispatch_order(const std::vector<RunPoint>& runs) {
  std::vector<double> work(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) work[i] = estimated_cell_work(runs[i]);
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return work[a] > work[b]; });
  return order;
}

SweepExecutor::SweepExecutor(SweepOptions options) : options_(options) {}

std::vector<std::uint64_t> SweepExecutor::derive_seeds(std::size_t count) const {
  return stats::derive_stream_seeds(options_.base_seed, count);
}

int SweepExecutor::effective_threads(std::size_t run_count) const {
  int threads = options_.threads;
  if (threads <= 0) threads = static_cast<int>(pipeline::ThreadPool::default_thread_count());
  return std::max(1, std::min<int>(threads, static_cast<int>(std::max<std::size_t>(run_count, 1))));
}

std::vector<simnet::ExperimentResult> SweepExecutor::execute(
    std::vector<RunPoint> runs) const {
  if (timeline != nullptr && timeline_index >= runs.size() && !runs.empty()) {
    throw std::invalid_argument("timeline cell " + std::to_string(timeline_index) +
                                " out of range (sweep has " +
                                std::to_string(runs.size()) + " cells)");
  }
  const std::vector<std::uint64_t> seeds = derive_seeds(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].reseed) runs[i].config.seed = seeds[i];
  }

  const std::vector<std::size_t> order = dispatch_order(runs);

  std::vector<simnet::ExperimentResult> results(runs.size());
  wall_ms_.assign(runs.size(), 0.0);
  start_ms_.assign(runs.size(), 0.0);
  const int threads = effective_threads(runs.size());
  std::atomic<std::size_t> completed{0};
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  const auto started = Clock::now();
  auto run_claim = [&](std::size_t claim) {
    const std::size_t i = order[claim];
    if (on_run_start) on_run_start(i);
    obs::TimelineRecorder* recorder =
        (timeline != nullptr && i == timeline_index) ? timeline : nullptr;
    const auto t0 = Clock::now();
    results[i] = execute_one(runs[i], recorder);
    start_ms_[i] = ms_between(started, t0);
    wall_ms_[i] = ms_between(t0, Clock::now());
    if (on_progress) on_progress(completed.fetch_add(1) + 1, runs.size());
  };

  if (threads == 1 || runs.size() <= 1) {
    for (std::size_t k = 0; k < runs.size(); ++k) run_claim(k);
  } else {
    pipeline::ThreadPool pool(static_cast<std::size_t>(threads));
    pool.parallel_for(0, runs.size(), run_claim);
  }
  return results;
}

}  // namespace sss::scenario
