#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the driver
(perfbench/CMakeLists.txt, which compiles the checkout's src/) into
.bench_build/perfbench; later runs reuse the build.  Every run:

  - makes its inputs from --seed (the sweep seed; the serve request mix and
    arrival schedule);
  - measures for about --seconds seconds, tracing off (--trace 0) or runs
    the separate traced pass (--trace 1);
  - checks the program's outputs (see BENCHMARK.json and perfbench/README.md);
  - prints, as its last line, one JSON object: correct, attempted, failed and
    the metrics (end-to-end with --trace 0, per-layer with --trace 1).

Progress and build output go to standard error.  The exit code is 0 when a
result was printed, 1 otherwise.

    python3 perfbench/run.py --self-test

runs the self-tests of the benchmark's arithmetic.
"""

import argparse
import array
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Keep the checkout clean: everything a run writes goes under BUILD_ROOT.
sys.dont_write_bytecode = True

from benchlib import metrics as m  # noqa: E402
from benchlib import mix  # noqa: E402

# The default seed; the reference rows (inputs/reference/) were rendered at
# it (the driver knows it too).
GOLDEN_SEED = 42
BUILD_JOBS = 4
DRIVER_TIMEOUT_S = 170
MIX_SIZE = 4096
# Build outputs, work files and span dumps, relative to the checkout root.
BUILD_ROOT = ".bench_build"

SWEEPS = {
    # The paper's Table-2 grid, P in {2,4,8} x c in 1..8 under both spawn
    # modes: 48 small, even cells on the single-link engine.
    "table2_link": {
        "plans": ["fig2a_simultaneous", "fig2b_scheduled"],
        "spot_cells": 2,
        "phase_cell": -1,
    },
    # Shared multi-hop links behind the transfer scheduler: 10 skewed cells
    # on the facility engine.  The phase-timer cost is taken on cell 0.
    "facility_contention": {
        "plans": ["facility_policy_matrix", "facility_load_ladder"],
        "spot_cells": 1,
        "phase_cell": 0,
    },
}

# Latency percentiles are taken per window of this length: at the nominal
# rate the lower quartile over windows is reported (benchlib/metrics.py,
# QUIET_SHARE), on a ladder rung the median over windows decides.  Host
# stalls move the tail diagnostics (serve.p99_us) but not p50_us, p90_us or
# a rung's verdict.
WINDOW_S = 0.1
RUNG_WINDOW_S = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def metric_names(group):
    """(name, unit) of every metric in BENCHMARK.json's `group`."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(item["name"], item["unit"]) for item in spec[group]]


def build(build_dir):
    """Configure (once) and build the driver; returns its path or None."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            return None
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr, check=False)
    driver = build_dir / "perfbench_driver"
    return driver if built.returncode == 0 and driver.exists() else None


def run_driver(command):
    log("perfbench:", " ".join(command))
    with subprocess.Popen(command, stdout=sys.stderr, stderr=sys.stderr) as process:
        try:
            return process.wait(timeout=DRIVER_TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log("perfbench: the driver timed out")
            return False


def read_floats(path):
    """A float32 sample file, in arrival order."""
    values = array.array("f")
    with open(path, "rb") as data:
        values.frombytes(data.read())
    return list(values)


# --- sweeps -----------------------------------------------------------------

def sweep_command(driver, name, args, work):
    spec = SWEEPS[name]
    inputs = HERE / "inputs"
    return [
        str(driver), "sweep",
        "--plans", ",".join(str(inputs / "plans" / f"{p}.json") for p in spec["plans"]),
        "--references", ",".join(str(inputs / "reference" / f"{p}.csv")
                                 for p in spec["plans"]),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--spot-cells", str(spec["spot_cells"]),
        "--phase-cell", str(spec["phase_cell"]), "--trace", str(args.trace),
        "--work", str(work), "--out", str(work / "result.json"),
    ]


def sweep_end_to_end(result):
    reps = result["reps"]
    # Each cell's median time over the repetitions, then a nearest-rank
    # percentile over cells, so p90 is one cell's time rather than a blend
    # of the two slowest cells.
    cell_us = sorted(m.median(times) * 1e3 for times in zip(*(r["cell_ms"] for r in reps)))
    return {
        "wall_s": m.median([r["wall_s"] for r in reps]),
        "cpu_s": m.median([r["cpu_s"] for r in reps]),
        "setup_s": m.median(result["setup_s"]),
        "peak_rss_mb": m.median([r["peak_rss_kib"] for r in reps]) / 1024.0,
        "p50_us": m.nearest_rank(cell_us, 0.5),
        "p90_us": m.nearest_rank(cell_us, 0.9),
        "max_rate_rps": m.median([r["events"] / r["cpu_s"] for r in reps]),
    }


def spans_by_name(spans):
    named = {}
    for index, span in enumerate(spans):
        span = dict(span, index=index)
        named.setdefault(span["name"], []).append(span)
    return named


def duration_s(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def children_of(spans, parent_index):
    return [s for s in spans if s["parent"] == parent_index]


def sweep_per_layer(result):
    spans = result["spans"]
    named = spans_by_name(spans)
    traced = result["traced"]
    cells = traced["cells"]
    cell_spans = named["scenario.cell"]
    execute = named["scenario.execute"][0]
    cell_ms = sorted(duration_s(s) * 1e3 for s in cell_spans)
    total = lambda name: sum(duration_s(s) for s in named.get(name, []))  # noqa: E731
    drive_s = total("simnet.drive")
    events = sum(c["events"] for c in cells)
    offered = sum(c["packets_offered"] for c in cells)
    forwarded = sum(c["packets_forwarded"] for c in cells)
    cell_self = sum(m.self_time(s, children_of(spans, s["index"])) for s in cell_spans) * 1e-9
    render_self = sum(m.self_time(s, children_of(spans, s["index"]))
                      for s in named["scenario.render"]) * 1e-9
    untraced_wall = m.median([r["wall_s"] for r in result["reps"]])
    layer = {
        "scenario.expand_s": total("scenario.expand"),
        "scenario.load_plan_s": total("scenario.load_plan"),
        "scenario.cell_ms_p50": m.percentile(cell_ms, 0.5),
        "scenario.cell_ms_max": cell_ms[-1],
        "scenario.busy_share": m.busy_share([duration_s(s) for s in cell_spans],
                                            traced["threads"], duration_s(execute)),
        "scenario.execute_self_s": m.self_time(execute, cell_spans) * 1e-9,
        "scenario.cell_self_s": cell_self,
        "scenario.render_s": total("scenario.render"),
        "scenario.render_self_s": render_self,
        "trace.csv_write_s": total("trace.csv_write"),
        "simnet.prepare_s": total("simnet.prepare"),
        "simnet.drive_s": drive_s,
        "simnet.finish_s": total("simnet.finish"),
        "simnet.events": events,
        "simnet.ns_per_event": drive_s * 1e9 / events if events else 0.0,
        "simnet.ns_per_packet": drive_s * 1e9 / offered if offered else 0.0,
        "simnet.useful_share": forwarded / offered if offered else 0.0,
        "simnet.retransmits": sum(c["retransmits"] for c in cells),
        "simnet.rto_events": sum(c["rto_events"] for c in cells),
        "simnet.arena_bytes_max": max(c["arena_bytes"] for c in cells),
        "simnet.queue_high_water": max(c["queue_high_water"] for c in cells),
        "obs.manifest_write_s": total("obs.manifest_write"),
        "obs.trace_overhead": traced["wall_s"] / untraced_wall,
    }
    if "obs.phase_timers_on" in named:
        layer["obs.phase_timer_slowdown"] = (duration_s(named["obs.phase_timers_on"][0]) /
                                             duration_s(named["obs.phase_timers_off"][0]))
    return layer


# --- serve ------------------------------------------------------------------

def serve_command(driver, args, work):
    mix_path = work / "mix.csv"
    mix.write(mix_path, mix.generate(args.seed, MIX_SIZE))
    return [
        str(driver), "serve", "--inputs", str(HERE / "inputs"), "--mix", str(mix_path),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--out", str(work / "result.json"),
    ]


def load_phase(phase, work):
    loaded = dict(phase)
    window = phase["duration_s"] - phase["warmup_s"]
    loaded["achieved_rate"] = phase["measured"] / window if window > 0 else 0.0
    loaded["window"] = int(phase["offered_rate"] * RUNG_WINDOW_S)
    if "latency_file" in phase:
        loaded["latency_us"] = read_floats(work / phase["latency_file"])
        loaded["late_us"] = read_floats(work / phase["late_file"])
    return loaded


def serve_phases(result, work):
    return [load_phase(p, work) for p in result["phases"]]


def of_kind(phases, kind):
    return [p for p in phases if p["kind"] == kind]


def windowed(phases, q):
    """Quantile `q` of every WINDOW_S window of every phase's latency."""
    return [v for p in phases
            for v in m.windowed_percentiles(p["latency_us"], int(p["offered_rate"] * WINDOW_S), q)]


def serve_end_to_end(result, phases):
    nominal = of_kind(phases, "nominal")
    rungs = of_kind(phases, "rung")
    rounds = sorted({p["round"] for p in rungs})
    return {
        "wall_s": m.median([p["wall_s"] for p in of_kind(phases, "burst")]),
        "cpu_s": m.median([p["server_cpu_s"] for p in nominal]),
        "setup_s": m.median(result["setup_s"]),
        "peak_rss_mb": result["server_peak_rss_kib"] / 1024.0,
        "p50_us": m.quiet(windowed(nominal, 0.5)),
        "p90_us": m.quiet(windowed(nominal, 0.9)),
        "max_rate_rps": m.max_rate([[r for r in rungs if r["round"] == k] for k in rounds]),
    }


def serve_per_layer(result, phases):
    named = spans_by_name(result["spans"])
    nominal = of_kind(phases, "nominal")[0]
    traced = of_kind(phases, "nominal_traced")[0]
    stats = result["server"]["stats"]
    workers = stats["workers"]
    requests = stats["totals"]["requests"]
    per_worker = [w["requests"] for w in workers]
    reload_ms = sorted(duration_s(s) * 1e3 for s in named.get("serve.reload", []))
    per_call = lambda name: (duration_s(named[name][0]) * 1e9 /  # noqa: E731
                             named[name][0]["count"])
    latency = sorted(nominal["latency_us"])
    late = sorted(nominal["late_us"])
    layer = {
        "serve.start_s": m.median([duration_s(s) for s in named["serve.start"]]),
        "serve.load_profiles_ms": m.median([duration_s(s) * 1e3
                                            for s in named["serve.load_profiles"]]),
        "serve.reload_ms_p50": m.percentile(reload_ms, 0.5) if reload_ms else 0.0,
        "serve.reload_ms_max": reload_ms[-1] if reload_ms else 0.0,
        "serve.decode_ns": per_call("serve.decode"),
        "serve.encode_ns": per_call("serve.encode"),
        "serve.decide_ns": per_call("serve.decide"),
        "serve.requests": requests,
        "serve.request_errors": stats["totals"]["request_errors"],
        "serve.protocol_errors": stats["totals"]["protocol_errors"],
        "serve.bytes_in_per_req": sum(w["bytes_in"] for w in workers) / requests,
        "serve.bytes_out_per_req": sum(w["bytes_out"] for w in workers) / requests,
        "serve.worker_skew": max(per_worker) / (sum(per_worker) / len(per_worker)),
        "serve.gen_late_us_p50": m.percentile(late, 0.5),
        "serve.gen_late_us_max": late[-1],
        "serve.p99_us": m.percentile(latency, 0.99),
        "serve.p999_us": m.percentile(latency, 0.999),
        "serve.samples": len(latency),
        "serve.decisions.stream": nominal["decisions"]["stream"],
        "serve.decisions.stage": nominal["decisions"]["stage"],
        "serve.decisions.local": nominal["decisions"]["local"],
        "obs.trace_overhead": (m.percentile(sorted(traced["latency_us"]), 0.5) /
                               m.percentile(latency, 0.5)),
    }
    return layer


def serve_checks(result, phases):
    """Checks beyond per-response equality; returns a list of problems."""
    problems = []
    nominal = of_kind(phases, "nominal")
    decisions = {d: sum(p["decisions"][d] for p in nominal) for d in ("stream", "stage", "local")}
    for decision in ("stream", "local"):
        if decisions[decision] < 1:
            problems.append(f"no '{decision}' decision answered")
    if decisions["stage"] < 1:
        # serve::decide judges staging at theta_file >= 1 against streaming
        # at theta = 1 with a strict '<', so no request can be answered
        # 'stage'; reported, not failed (see perfbench/README.md).
        log("perfbench: note: no 'stage' decision answered (unreachable in serve::decide)")
    if not result["server"].get("reloads"):
        problems.append("no hot reload happened")
    if any(m.tail_quantile(len(p["latency_us"])) is None for p in nominal):
        problems.append("a nominal phase resolves no percentile")
    return problems


# --- main -------------------------------------------------------------------

def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py",
                                                top_level_dir=str(HERE))
    ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(list(SWEEPS) + ["serve_mixed"]))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    checkout = Path.cwd()
    build_root = checkout / BUILD_ROOT
    driver = build(build_root / "perfbench")
    if driver is None:
        log("perfbench: build failed")
        return 1
    work = build_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload in SWEEPS:
            command = sweep_command(driver, args.workload, args, work)
        else:
            command = serve_command(driver, args, work)
        if not run_driver(command):
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            keep = build_root / "traces" / f"{args.workload}-{args.seed}.spans.json"
            keep.parent.mkdir(parents=True, exist_ok=True)
            keep.write_text(json.dumps(result["spans"]) + "\n", encoding="utf-8")
            log("perfbench: span dump", keep)
        problems = list(result["failures"])
        if args.workload in SWEEPS:
            values = sweep_per_layer(result) if args.trace else sweep_end_to_end(result)
        else:
            phases = serve_phases(result, work)
            problems += serve_checks(result, phases)
            values = serve_per_layer(result, phases) if args.trace else \
                serve_end_to_end(result, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    values["failed_share"] = failed / attempted if attempted else 1.0
    names = metric_names("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    for problem in problems:
        log("perfbench: check failed:", problem)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
