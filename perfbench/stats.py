"""The benchmark's own arithmetic: percentiles, spreads, span self
time, failure accounting and the metric-name rules.

Everything here is a pure function of its arguments, so
perfbench/tests/test_stats.py can check it without building confsim.
"""

import math
import re
import statistics

# Metric names and units as BENCHMARK.json allows them.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a latency report may use, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-th percentile
    of n samples."""
    return n - math.ceil(n * p / 100.0)


def highest_percentile(n, candidates=PERCENTILES, beyond=MIN_BEYOND):
    """The highest candidate percentile that has at least `beyond`
    samples above it among n samples, or None when none has."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Children may overlap each other
    (parallel tasks) and are clipped to the parent's interval.

    spans: iterable of (name, start, end, id, parent, run) tuples.
    Returns {id: self time} in the spans' time unit."""
    spans = list(spans)
    by_id = {s[3]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] in by_id:
            children.setdefault(s[4], []).append(s)
    result = {}
    for s in spans:
        start, end = s[1], s[2]
        covered = _union_length(
            (max(c[1], start), min(c[2], end))
            for c in children.get(s[3], ())
            if min(c[2], end) > max(c[1], start))
        result[s[3]] = (end - start) - covered
    return result


def self_time_by_name(spans):
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s[0]] = totals.get(s[0], 0) + own[s[3]]
    return totals


class OpCounter:
    """Operations attempted and failed. An operation fails when it
    errors, is refused, or returns a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def check_metric_names(names):
    """Raise ValueError unless every name is well formed and unique."""
    seen = set()
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def check_benchmark(doc):
    """Raise ValueError unless BENCHMARK.json's metric lists are well
    formed: names, units, direction and end-to-end bounds."""
    metrics = doc["end_to_end"] + doc["per_layer"]
    check_metric_names([w["name"] for w in doc["workloads"]]
                       + [m["name"] for m in metrics])
    for m in metrics:
        if not UNIT_RE.match(m["unit"]):
            raise ValueError(f"bad unit {m['unit']!r} for {m['name']}")
        if m["better"] not in ("higher", "lower"):
            raise ValueError(f"bad direction for {m['name']}")
    for m in doc["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            raise ValueError(f"bound of {m['name']} outside (0, 0.25]")
