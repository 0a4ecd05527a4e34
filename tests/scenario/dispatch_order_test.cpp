// dispatch_order_test.cpp — largest-first sweep dispatch.
//
//   1. ORDER: SweepExecutor dispatches cells in descending order of
//      estimated work, ties broken by run index, the same on every run.
//   2. KEYING: results, wall times, start offsets, on_run_start and the
//      timeline cell stay keyed by run index whatever the dispatch order.
//   3. ESTIMATE: WorkloadConfig::estimated_work is monotone in
//      concurrency, transfer size and hop count, and on the committed
//      fig2a_simultaneous and facility_load_ladder grids it ranks cells in
//      the same order as the simulator's events_processed.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "scenario/executor.hpp"
#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "simnet/workload.hpp"

namespace sss::scenario {
namespace {

// A small single-link cell: 2.5 Gbps, 20 MB per client.
RunPoint small_run(int concurrency, Substrate substrate = Substrate::kPacket) {
  RunPoint run;
  run.config.duration = units::Seconds::of(1.0);
  run.config.concurrency = concurrency;
  run.config.parallel_flows = 2;
  run.config.transfer_size = units::Bytes::megabytes(20.0);
  run.config.link.capacity = units::DataRate::gigabits_per_second(2.5);
  run.config.link.propagation_delay = units::Seconds::millis(8.0);
  run.config.link.buffer = units::Bytes::megabytes(5.0);
  run.substrate = substrate;
  run.label = "c=" + std::to_string(concurrency);
  return run;
}

// Cells whose estimates are out of index order, with two ties (c=3 at 0
// and 6, c=2 at 1 and 5) and a fluid cell at 2 that outranks nothing.
std::vector<RunPoint> shuffled_sweep() {
  std::vector<RunPoint> runs;
  for (const int c : {3, 2, 4, 1, 2, 3}) runs.push_back(small_run(c));
  runs.insert(runs.begin() + 2, small_run(4, Substrate::kFluid));
  return runs;
}

TEST(DispatchOrder, IsEstimateDescendingWithTiesByIndex) {
  const std::vector<RunPoint> runs = shuffled_sweep();
  // Indices: 0 c=3, 1 c=2, 2 fluid, 3 c=4, 4 c=1, 5 c=2, 6 c=3.
  const std::vector<std::size_t> want{3, 0, 6, 1, 5, 4, 2};
  EXPECT_EQ(dispatch_order(runs), want);
  EXPECT_EQ(dispatch_order(runs), dispatch_order(shuffled_sweep()));

  // A serial executor starts cells exactly in that order, on every run.
  SweepOptions options;
  options.threads = 1;
  SweepExecutor executor(options);
  for (int repeat = 0; repeat < 2; ++repeat) {
    std::vector<std::size_t> started;
    executor.on_run_start = [&](std::size_t i) { started.push_back(i); };
    (void)executor.execute(runs);
    EXPECT_EQ(started, want) << "repeat " << repeat;
  }
}

TEST(DispatchOrder, FluidCellsSortAfterEveryPacketCell) {
  std::vector<RunPoint> runs{small_run(8, Substrate::kFluid), small_run(1)};
  runs[1].config.transfer_size = units::Bytes::of(1.0);  // one packet
  EXPECT_EQ(dispatch_order(runs), (std::vector<std::size_t>{1, 0}));
  EXPECT_LT(estimated_cell_work(runs[0]), estimated_cell_work(runs[1]));
}

TEST(DispatchOrder, ResultsAndTimingsStayKeyedByRunIndex) {
  const std::vector<RunPoint> runs = shuffled_sweep();
  const std::vector<std::size_t> order = dispatch_order(runs);
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.threads = threads;
    SweepExecutor executor(options);
    std::mutex mu;
    std::vector<std::size_t> started;
    executor.on_run_start = [&](std::size_t i) {
      const std::lock_guard lock(mu);
      started.push_back(i);
    };
    const auto results = executor.execute(runs);
    ASSERT_EQ(results.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(results[i].config.concurrency, runs[i].config.concurrency) << i;
      EXPECT_EQ(results[i].config.seed, executor.derive_seeds(runs.size())[i]) << i;
    }
    std::sort(started.begin(), started.end());
    std::vector<std::size_t> every(runs.size());
    std::iota(every.begin(), every.end(), std::size_t{0});
    EXPECT_EQ(started, every) << threads << " threads";

    const std::vector<double>& wall = executor.last_cell_wall_ms();
    const std::vector<double>& start = executor.last_cell_start_ms();
    ASSERT_EQ(wall.size(), runs.size());
    ASSERT_EQ(start.size(), runs.size());
    if (threads == 1) {
      // Serial: cell order[k + 1] starts only after order[k] has ended, so
      // each (start, wall) pair must sit at the index of the cell it timed.
      for (std::size_t k = 0; k + 1 < order.size(); ++k) {
        EXPECT_LE(start[order[k]] + wall[order[k]], start[order[k + 1]]) << "claim " << k;
      }
    }
  }
}

TEST(DispatchOrder, TimelineRecordsTheRequestedRunIndex) {
  // The timeline cell is dispatched first here (it is the heaviest); its
  // recording must equal a sweep of that one cell alone, at any thread
  // count.
  const std::vector<RunPoint> runs = shuffled_sweep();
  const std::size_t cell = 3;
  ASSERT_EQ(dispatch_order(runs).front(), cell);

  RunPoint alone = runs[cell];
  alone.reseed = false;
  alone.config.seed = SweepExecutor().derive_seeds(runs.size())[cell];
  obs::TimelineRecorder reference;
  SweepExecutor single;
  single.timeline = &reference;
  single.timeline_index = 0;
  (void)single.execute({alone});

  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.threads = threads;
    SweepExecutor executor(options);
    obs::TimelineRecorder recorder;
    executor.timeline = &recorder;
    executor.timeline_index = cell;
    (void)executor.execute(runs);
    EXPECT_EQ(recorder.to_chrome_json_text(), reference.to_chrome_json_text())
        << threads << " threads";
  }
}

TEST(EstimatedWork, IsMonotoneInConcurrencySizeAndHops) {
  const simnet::WorkloadConfig base = small_run(2).config;
  for (int c = 1; c < 8; ++c) {
    simnet::WorkloadConfig lo = base;
    simnet::WorkloadConfig hi = base;
    lo.concurrency = c;
    hi.concurrency = c + 1;
    EXPECT_LT(lo.estimated_work(), hi.estimated_work()) << "concurrency " << c;
  }
  for (const double mb : {1.0, 8.0, 64.0, 512.0}) {
    simnet::WorkloadConfig lo = base;
    simnet::WorkloadConfig hi = base;
    lo.transfer_size = units::Bytes::megabytes(mb);
    hi.transfer_size = units::Bytes::megabytes(mb * 2.0);
    EXPECT_LT(lo.estimated_work(), hi.estimated_work()) << mb << " MB";
  }
  simnet::WorkloadConfig previous = base;
  for (int hops = 2; hops <= 5; ++hops) {
    simnet::WorkloadConfig more = base;
    more.path_hops.assign(static_cast<std::size_t>(hops), base.link);
    EXPECT_LT(previous.estimated_work(), more.estimated_work()) << hops << " hops";
    previous = more;
  }
}

TEST(EstimatedWork, CountsBackgroundAndHopCrossTraffic) {
  const simnet::WorkloadConfig base = small_run(2).config;
  simnet::WorkloadConfig storm = base;
  storm.background_load = 0.3;
  EXPECT_GT(storm.estimated_work(), base.estimated_work());
  simnet::WorkloadConfig cross = base;
  cross.hop_cross_traffic.push_back(simnet::HopCrossTraffic{});
  EXPECT_GT(cross.estimated_work(), base.estimated_work());
}

// On a committed grid at scale 0.1, every pair of cells whose event counts
// differ by 5% or more must be ranked the same way by the estimate.
void expect_estimate_ranks_like_events(const std::string& scenario) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find(scenario);
  ASSERT_NE(spec, nullptr) << scenario;
  ASSERT_NE(spec->plan, nullptr) << scenario;
  ScenarioContext ctx;
  ctx.scale = 0.1;
  ctx.threads = 4;
  const std::vector<RunPoint> runs = spec->plan->expand(ctx);
  ASSERT_GE(runs.size(), 2u);
  SweepOptions options;
  options.threads = ctx.threads;
  options.base_seed = ctx.seed;
  const auto results = SweepExecutor(options).execute(runs);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = 0; j < runs.size(); ++j) {
      const auto ei = static_cast<double>(results[i].events_processed);
      const auto ej = static_cast<double>(results[j].events_processed);
      if (ei < 1.05 * ej) continue;  // a tie, or j is the heavier cell
      EXPECT_GT(estimated_cell_work(runs[i]), estimated_cell_work(runs[j]))
          << scenario << ": " << runs[i].label << " (" << ei << " events) vs "
          << runs[j].label << " (" << ej << " events)";
    }
  }
}

TEST(EstimatedWork, RanksFig2aCellsLikeEventsProcessed) {
  expect_estimate_ranks_like_events("fig2a_simultaneous");
}

TEST(EstimatedWork, RanksFacilityLoadLadderCellsLikeEventsProcessed) {
  expect_estimate_ranks_like_events("facility_load_ladder");
}

}  // namespace
}  // namespace sss::scenario
