"""The benchmark's arithmetic: percentiles, the rate ladder, busy share and
span self time.  Pure functions over plain lists and dicts, self-tested in
perfbench/test_metrics.py.
"""

import math
import statistics

# A request latency limit and the generator's own lateness limit used by the
# rate ladder, both at p99.  A rung whose generator ran later than
# LATE_LIMIT_US measured the generator, not the server.
P99_LIMIT_US = 1000.0
LATE_LIMIT_US = 250.0
MIN_ACHIEVED_RATIO = 0.95
# Other tenants of a shared host stall this one's CPUs for seconds at a
# time, moving serve latency tails by 10-50x.  Serve latency figures are
# therefore taken over many short windows spread through the run and
# reported at the lower quartile of the windows, and a ladder rate counts as
# met when it passes in at least this share of the rounds: the program's
# figures, as long as a quarter of the run is free of interference.
QUIET_SHARE = 0.25
# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(sorted_values, q):
    """Linear-interpolated quantile (numpy's default) of a sorted list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile outside [0, 1]")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction


def nearest_rank(sorted_values, q):
    """The nearest-rank quantile of a sorted list: the smallest value with
    at least a share `q` of the values at or below it.  Always a sample,
    never a blend of two."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile outside (0, 1]")
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[rank - 1]


def tail_quantile(count, candidates=(0.999, 0.99, 0.9, 0.5)):
    """The highest candidate quantile with at least MIN_BEYOND samples
    beyond it in a sample of `count`, or None when none qualifies."""
    for q in sorted(candidates, reverse=True):
        # Round before flooring: (1 - 0.999) * 10000 is 9.9999999 in floats.
        if math.floor(round(count * (1.0 - q), 9)) >= MIN_BEYOND:
            return q
    return None


def windowed_tail_met(values, window, limit, q=0.99):
    """True when the median over full windows of `window` consecutive
    samples of each window's `q` quantile is within `limit`.

    A window must resolve `q` (at least MIN_BEYOND samples beyond it), so
    it holds at least MIN_BEYOND / (1 - q) samples.  A sample shorter than
    one window is judged as a single window; one that resolves `q` in no
    way fails.
    """
    window = max(window, math.ceil(round(MIN_BEYOND / (1.0 - q), 9)))
    tails = windowed_percentiles(values, window, q)
    if not tails:
        if tail_quantile(len(values), (q,)) is None:
            return False
        tails = [percentile(sorted(values), q)]
    return median(tails) <= limit


def rung_passes(rung):
    """Whether one ladder rung meets the rate criteria.

    `rung` holds offered_rate, achieved_rate, failed, window (samples per
    window), latency_us and late_us (the generator's send lateness), both in
    arrival order.  Latency and lateness are judged per window, so a host
    stall of a few ms inside the rung does not fail it; sustained queueing
    does.
    """
    if rung["failed"] != 0:
        return False
    if rung["achieved_rate"] < MIN_ACHIEVED_RATIO * rung["offered_rate"]:
        return False
    if not windowed_tail_met(rung["latency_us"], rung["window"], P99_LIMIT_US):
        return False
    return windowed_tail_met(rung["late_us"], rung["window"], LATE_LIMIT_US)


def max_rate(rounds):
    """The rate ladder's result over several passes (`rounds`, each a list
    of rungs).

    An offered rate counts as met when its rung passes in at least
    QUIET_SHARE of the rounds (and at least one), so rounds spoilt by host
    interference do not pull the result down while a single lucky pass
    above the knee does not lift it once there are five rounds or more.
    Returns the median achieved rate of the highest met rate's passing
    rungs; 0 when no rate is met.
    """
    passes = {}
    for rungs in rounds:
        for rung in rungs:
            if rung_passes(rung):
                passes.setdefault(rung["offered_rate"], []).append(rung["achieved_rate"])
    needed = max(1, math.ceil(round(QUIET_SHARE * len(rounds), 9)))
    met = [rate for rate, achieved in passes.items() if len(achieved) >= needed]
    return median(passes[max(met)]) if met else 0.0


def quiet(values):
    """The lower quartile (nearest rank) of per-window figures: see
    QUIET_SHARE."""
    return nearest_rank(sorted(values), QUIET_SHARE)


def busy_share(cell_durations, threads, execute_duration):
    """Sum of cell times over (threads x the execute phase's wall time)."""
    if threads < 1 or execute_duration <= 0.0:
        raise ValueError("busy share needs threads >= 1 and a positive duration")
    return sum(cell_durations) / (threads * execute_duration)


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(span, children):
    """A span's duration minus the part of it its child spans cover."""
    start, end = span["start_ns"], span["end_ns"]
    return (end - start) - covered([(c["start_ns"], c["end_ns"]) for c in children],
                                   start, end)


def windowed_percentiles(values, window, q):
    """Quantile `q` of each full window of `window` consecutive samples."""
    if window < 1:
        raise ValueError("window must hold at least one sample")
    return [percentile(sorted(values[i:i + window]), q)
            for i in range(0, len(values) - window + 1, window)]


def median(values):
    return statistics.median(values)
