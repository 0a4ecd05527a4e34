// sweep_bench.cpp — the sweep workloads: pinned plan grids through the
// scenario layer's SweepExecutor (timed passes) and through direct
// simnet::Workload calls (the traced pass and the output spot checks).
//
// One timed repetition is what a scenario_runner user waits for:
//   setup   load every plan file, expand it, build the executor;
//   execute SweepExecutor::execute over all plans' cells as ONE grid, so
//           the threads stay busy across plan boundaries;
//   render  render_plan_output + the CSV write per plan, then the run
//           manifest (obs) — the last result rendered ends the wall time.
// Every cell keeps the seed it gets in a single-plan run (the jump stream
// of its index inside its own plan), so each plan's rows equal
// `scenario_runner --plan <file> --scale S --seed N` byte for byte; the
// stored references were produced that way.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/manifest.hpp"
#include "obs/phase_timer.hpp"
#include "pipeline/thread_pool.hpp"
#include "scenario/executor.hpp"
#include "scenario/plan.hpp"
#include "simnet/workload.hpp"
#include "spans.hpp"
#include "trace/atomic_io.hpp"
#include "trace/csv.hpp"
#include "trace/json.hpp"

namespace perfbench {

namespace {

using sss::scenario::ExperimentPlan;
using sss::scenario::RunPoint;
using sss::scenario::ScenarioOutput;
using sss::scenario::SweepExecutor;
using sss::scenario::SweepOptions;
using sss::simnet::ExperimentResult;
using sss::trace::JsonValue;
using Rows = std::vector<std::vector<std::string>>;

// Both sweep workloads run at this scale on this many sweep threads (the
// host's nproc); the stored reference rows were rendered at kGoldenSeed.
constexpr double kScale = 0.25;
constexpr int kThreads = 4;
constexpr std::uint64_t kGoldenSeed = 42;
// Timed repetitions per run at least, and set-up-only samples taken before
// each repetition (so set-up samples span the whole run).
constexpr int kMinReps = 3;
constexpr int kSetupSamplesPerRep = 2;

struct SweepConfig {
  std::vector<std::string> plan_paths;
  std::vector<std::string> reference_paths;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int spot_cells = 0;
  long phase_cell = -1;  // -1 = no phase-timer measurement
  std::string work_dir;
};

// The grid of one repetition: every plan's cells, concatenated.
struct Grid {
  std::vector<ExperimentPlan> plans;
  std::vector<std::size_t> plan_begin;  // first cell of each plan; back() = total
  std::vector<RunPoint> runs;
};

// Plan load + expansion with per-plan seeds (reseed = false, so the
// executor runs exactly these seeds).
Grid build_grid(const SweepConfig& config, std::uint64_t seed, SpanRecorder& spans,
                std::int64_t parent) {
  Grid grid;
  for (const std::string& path : config.plan_paths) {
    const ScopedSpan span(spans, "scenario.load_plan", parent);
    grid.plans.push_back(sss::scenario::load_plan_file(path));
  }
  sss::scenario::ScenarioContext context;
  context.scale = kScale;
  context.seed = seed;
  context.threads = kThreads;
  for (const ExperimentPlan& plan : grid.plans) {
    const ScopedSpan span(spans, "scenario.expand", parent);
    std::vector<RunPoint> runs = plan.expand(context);
    SweepOptions options;
    options.base_seed = seed;
    const std::vector<std::uint64_t> seeds = SweepExecutor(options).derive_seeds(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].reseed) runs[i].config.seed = seeds[i];
      runs[i].reseed = false;
    }
    grid.plan_begin.push_back(grid.runs.size());
    grid.runs.insert(grid.runs.end(), runs.begin(), runs.end());
  }
  grid.plan_begin.push_back(grid.runs.size());
  return grid;
}

SweepExecutor make_executor() {
  SweepOptions options;
  options.threads = kThreads;
  return SweepExecutor(options);
}

// Rows of plan `p` rendered from the grid's results.
Rows render_plan(const Grid& grid, std::size_t p, const std::vector<ExperimentResult>& results,
                 std::vector<std::string>* header) {
  const auto begin = static_cast<std::ptrdiff_t>(grid.plan_begin[p]);
  const auto end = static_cast<std::ptrdiff_t>(grid.plan_begin[p + 1]);
  const std::vector<RunPoint> runs(grid.runs.begin() + begin, grid.runs.begin() + end);
  const std::vector<ExperimentResult> slice(results.begin() + begin, results.begin() + end);
  ScenarioOutput output;
  sss::scenario::render_plan_output(grid.plans[p].output, runs, slice, output);
  if (header != nullptr) *header = output.header;
  return std::move(output.rows);
}

// Render every plan, write its CSV and the run manifest — the tail of a
// repetition.  Returns the rows of all plans, concatenated in cell order.
Rows render_and_write(const SweepConfig& config, const Grid& grid,
                      const std::vector<ExperimentResult>& results,
                      const std::vector<double>& cell_ms, SpanRecorder& spans) {
  Rows all;
  for (std::size_t p = 0; p < grid.plans.size(); ++p) {
    const ScopedSpan render(spans, "scenario.render");
    std::vector<std::string> header;
    Rows rows = render_plan(grid, p, results, &header);
    {
      const ScopedSpan csv(spans, "trace.csv_write", render.index());
      sss::trace::write_csv_file(config.work_dir + "/" + grid.plans[p].scenario + ".csv",
                                 header, rows);
    }
    all.insert(all.end(), rows.begin(), rows.end());
  }
  const ScopedSpan span(spans, "obs.manifest_write");
  sss::obs::RunManifest manifest;
  manifest.scenario = grid.plans.front().scenario;
  manifest.scale = kScale;
  manifest.seed = config.seed;
  manifest.threads = kThreads;
  manifest.total_cells = results.size();
  manifest.cells.resize(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    sss::obs::CellMetrics& cell = manifest.cells[i];
    cell.index = i;
    cell.label = grid.runs[i].label;
    cell.events_processed = results[i].events_processed;
    cell.queue_high_water = results[i].queue_high_water;
    cell.arena_reserved_bytes = results[i].arena_reserved_bytes;
    cell.sim_duration_s = results[i].sim_duration_s;
    cell.wall_ms = i < cell_ms.size() ? cell_ms[i] : 0.0;
  }
  sss::trace::write_text_file_atomic(config.work_dir + "/manifest.json",
                                     manifest.to_json_text());
  return all;
}

// Reference rows of every plan at the golden seed, concatenated.
Rows load_reference(const SweepConfig& config) {
  Rows all;
  for (const std::string& path : config.reference_paths) {
    const sss::trace::CsvTable table = sss::trace::read_csv_file(path);
    all.insert(all.end(), table.rows.begin(), table.rows.end());
  }
  return all;
}

// One cell through the layer calls the executor makes for it, each wrapped
// in its own span.
ExperimentResult run_cell_direct(const RunPoint& run, SpanRecorder& spans,
                                 std::int64_t parent, std::int64_t id) {
  if (run.substrate != sss::scenario::Substrate::kPacket) {
    throw std::invalid_argument("cell '" + run.label + "' is not a packet cell");
  }
  sss::simnet::Workload workload(run.config);
  {
    const ScopedSpan span(spans, "simnet.prepare", parent, id);
    workload.prepare();
  }
  {
    const ScopedSpan span(spans, "simnet.drive", parent, id);
    workload.drive();
  }
  const ScopedSpan span(spans, "simnet.finish", parent, id);
  return workload.finish();
}

JsonValue cell_counters(const ExperimentResult& result) {
  std::uint64_t offered = 0;
  std::uint64_t forwarded = 0;
  for (const sss::simnet::HopMetrics& hop : result.metrics.hops) {
    offered += hop.packets_offered;
    forwarded += hop.packets_forwarded;
  }
  JsonValue cell = JsonValue::object();
  cell["events"] = static_cast<double>(result.events_processed);
  cell["queue_high_water"] = static_cast<double>(result.queue_high_water);
  cell["arena_bytes"] = static_cast<double>(result.arena_reserved_bytes);
  cell["packets_offered"] = static_cast<double>(offered);
  cell["packets_forwarded"] = static_cast<double>(forwarded);
  cell["retransmits"] = static_cast<double>(result.metrics.total_retransmits);
  cell["rto_events"] = static_cast<double>(result.metrics.total_rto_events);
  return cell;
}

bool same_counters(const ExperimentResult& a, const ExperimentResult& b) {
  return a.events_processed == b.events_processed &&
         a.queue_high_water == b.queue_high_water &&
         a.sim_duration_s == b.sim_duration_s &&
         a.metrics.total_retransmits == b.metrics.total_retransmits;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonValue failures = JsonValue::array();

  void check(bool ok, const std::string& what) {
    attempted += 1;
    if (ok) return;
    failed += 1;
    if (failures.as_array().size() < 20) failures.push_back(what);
  }
};

// Compare rendered rows cell by cell; a missing row is a failed cell.
void compare_rows(const Rows& got, const Rows& want, const Grid& grid, const std::string& what,
                  Tally& tally) {
  for (std::size_t i = 0; i < grid.runs.size(); ++i) {
    const bool ok = i < got.size() && i < want.size() && got[i] == want[i];
    tally.check(ok, what + ": cell " + std::to_string(i) + " (" + grid.runs[i].label + ")");
  }
}

}  // namespace

int run_sweep(const Options& options) {
  SweepConfig config;
  config.plan_paths = options.list("plans");
  config.reference_paths = options.list("references");
  config.seed = options.u64("seed");
  config.seconds = options.num("seconds");
  config.spot_cells = static_cast<int>(options.num("spot-cells"));
  config.phase_cell = static_cast<long>(options.num("phase-cell"));
  config.work_dir = options.str("work");
  const bool traced = options.u64("trace") != 0;
  const std::string out_path = options.str("out");
  if (config.plan_paths.empty() || config.plan_paths.size() != config.reference_paths.size()) {
    throw std::invalid_argument("--plans and --references must name one file per plan");
  }
  std::filesystem::create_directories(config.work_dir);

  SpanRecorder off(false);
  Tally tally;
  JsonValue out = JsonValue::object();

  // Set-up (plan load + expansion + executor) is timed with every
  // repetition and kSetupSamplesPerRep more times before it.
  JsonValue setup_s = JsonValue::array();
  auto measure_setups = [&] {
    for (int i = 0; i < kSetupSamplesPerRep; ++i) {
      const std::int64_t t0 = now_ns();
      const Grid grid = build_grid(config, config.seed, off, -1);
      const SweepExecutor executor = make_executor();
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (grid.runs.empty()) throw std::invalid_argument("the plans expand to no cells");
    }
  };

  // Timed repetitions (tracing off): at least min_reps, then until the
  // measuring time is used up.  A traced run times two untraced
  // repetitions as the base of obs.trace_overhead.
  const int min_reps = traced ? 2 : kMinReps;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
  JsonValue reps = JsonValue::array();
  Grid grid;
  Rows first_rows;
  std::vector<ExperimentResult> first_results;
  for (int rep = 0; rep < min_reps || (!traced && now_ns() < deadline); ++rep) {
    measure_setups();
    const std::int64_t t0 = now_ns();
    grid = build_grid(config, config.seed, off, -1);
    const SweepExecutor executor = make_executor();
    const std::int64_t t1 = now_ns();
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    std::vector<ExperimentResult> results;
    Rows rows;
    try {
      results = executor.execute(grid.runs);
      rows = render_and_write(config, grid, results, executor.last_cell_wall_ms(), off);
    } catch (const std::exception& e) {
      tally.check(false, std::string("repetition threw: ") + e.what());
    }
    const std::int64_t t2 = now_ns();
    const double cpu = process_cpu_s() - cpu0;

    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    JsonValue item = JsonValue::object();
    item["wall_s"] = static_cast<double>(t2 - t1) * 1e-9;
    item["cpu_s"] = cpu;
    item["peak_rss_kib"] = static_cast<double>(peak_rss_kib());
    std::uint64_t events = 0;
    for (const ExperimentResult& result : results) events += result.events_processed;
    item["events"] = static_cast<double>(events);
    JsonValue cell_ms = JsonValue::array();
    for (const double ms : executor.last_cell_wall_ms()) cell_ms.push_back(ms);
    item["cell_ms"] = std::move(cell_ms);
    reps.push_back(std::move(item));

    if (rep == 0) {
      first_rows = rows;
      first_results = results;
    } else {
      compare_rows(rows, first_rows, grid, "repetition " + std::to_string(rep), tally);
    }
  }
  out["cells"] = grid.runs.size();
  out["threads"] = kThreads;
  out["setup_s"] = std::move(setup_s);
  out["reps"] = std::move(reps);

  // Output checks on the first repetition.
  const Rows reference = load_reference(config);
  if (config.seed == kGoldenSeed) {
    compare_rows(first_rows, reference, grid, "reference", tally);
  } else if (!traced && config.spot_cells > 0) {
    // Spot check against the stored reference: re-run a few cells, picked
    // by the seed, with their golden-seed streams through direct Workload
    // calls.
    const Grid golden = build_grid(config, kGoldenSeed, off, -1);
    const std::size_t n = golden.runs.size();
    const std::size_t first =
        static_cast<std::size_t>((config.seed * 0x9E3779B97F4A7C15ull) >> 33) % n;
    const std::size_t stride = n / static_cast<std::size_t>(config.spot_cells) + 1;
    for (int k = 0; k < config.spot_cells && k < static_cast<int>(n); ++k) {
      const std::size_t cell = (first + static_cast<std::size_t>(k) * stride) % n;
      std::size_t p = 0;
      while (golden.plan_begin[p + 1] <= cell) ++p;
      Grid one;
      one.plans = {golden.plans[p]};
      one.runs = {golden.runs[cell]};
      one.plan_begin = {0, 1};
      bool ok = false;
      try {
        const Rows rows = render_plan(one, 0, {run_cell_direct(one.runs[0], off, -1, -1)},
                                      nullptr);
        ok = rows.size() == 1 && cell < reference.size() && rows[0] == reference[cell];
      } catch (const std::exception&) {
        ok = false;
      }
      tally.check(ok, "spot check: cell " + std::to_string(cell) + " (" + one.runs[0].label +
                          ")");
    }
  }

  if (traced) {
    // The traced pass: the same cells, seeds and thread count, through
    // direct prepare/drive/finish calls dispatched like the executor.
    SpanRecorder spans(true);
    const std::int64_t setup = spans.open("scenario.setup");
    Grid traced_grid = build_grid(config, config.seed, spans, setup);
    {
      const ScopedSpan span(spans, "scenario.executor", setup);
      (void)make_executor();
    }
    spans.close(setup);
    const std::int64_t t1 = now_ns();
    const std::size_t n = traced_grid.runs.size();
    std::vector<ExperimentResult> results(n);
    std::vector<double> cell_ms(n, 0.0);
    const int threads = make_executor().effective_threads(n);
    Rows rows;
    try {
      {
        const ScopedSpan execute(spans, "scenario.execute");
        auto run_index = [&](std::size_t i) {
          const std::int64_t start = now_ns();
          const std::int64_t cell =
              spans.open("scenario.cell", execute.index(), static_cast<std::int64_t>(i));
          results[i] = run_cell_direct(traced_grid.runs[i], spans, cell,
                                       static_cast<std::int64_t>(i));
          spans.close(cell);
          cell_ms[i] = static_cast<double>(now_ns() - start) * 1e-6;
        };
        sss::pipeline::ThreadPool pool(static_cast<std::size_t>(threads),
                                       std::max<std::size_t>(n, 64));
        pool.parallel_for(0, n, run_index);
      }
      rows = render_and_write(config, traced_grid, results, cell_ms, spans);
    } catch (const std::exception& e) {
      tally.check(false, std::string("traced pass threw: ") + e.what());
    }
    const std::int64_t t2 = now_ns();

    compare_rows(rows, first_rows, traced_grid, "traced pass vs timed pass", tally);
    for (std::size_t i = 0; i < n && i < first_results.size(); ++i) {
      tally.check(same_counters(results[i], first_results[i]),
                  "traced pass counters: cell " + std::to_string(i));
    }

    JsonValue pass = JsonValue::object();
    pass["wall_s"] = static_cast<double>(t2 - t1) * 1e-9;
    pass["threads"] = threads;
    JsonValue cells = JsonValue::array();
    for (const ExperimentResult& result : results) cells.push_back(cell_counters(result));
    pass["cells"] = std::move(cells);

    // Phase-timer cost on one pinned cell: its drive time with the
    // program's phase timers on over the same drive with them off.
    if (config.phase_cell >= 0 && static_cast<std::size_t>(config.phase_cell) < n) {
      const RunPoint& run = traced_grid.runs[static_cast<std::size_t>(config.phase_cell)];
      for (const bool enabled : {false, true}) {
        sss::simnet::Workload workload(run.config);
        workload.prepare();
        sss::obs::set_phase_timing_enabled(enabled);
        {
          const ScopedSpan span(spans, enabled ? "obs.phase_timers_on" : "obs.phase_timers_off",
                                -1, config.phase_cell);
          workload.drive();
        }
        sss::obs::set_phase_timing_enabled(false);
        (void)workload.finish();
      }
    }
    out["traced"] = std::move(pass);
    out["spans"] = spans.to_json();
  }

  out["attempted"] = static_cast<double>(tally.attempted);
  out["failed"] = static_cast<double>(tally.failed);
  out["failures"] = std::move(tally.failures);
  sss::trace::write_text_file_atomic(out_path, out.dump(1) + "\n");
  return 0;
}

}  // namespace perfbench
