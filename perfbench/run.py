#!/usr/bin/env python3
"""confsim end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a confsim source tree. The first run builds
confsim (Release) and the per-layer probe under .bench_build/. A run
sets its workload up, checks every output against a reference, times
passes of the workload's confsim command for S seconds and prints one
JSON result line last: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import grids  # noqa: E402
import served  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

BUILD_DIR = ".bench_build"
STATE_DIR = os.path.join(BUILD_DIR, "perfbench")
SETUP_REPEATS = 3
MIN_PASSES = 3
CMD_TIMEOUT_S = 120
DRY_RUNS = 5
PINGS = 50
ENV_KNOBS = ("CONFSIM_FORCE_SCALAR", "CONFSIM_KERNEL", "CONFSIM_FAULT_PLAN")
GOLDEN_GRID = "tests/golden/grids/gshare.json"
GOLDEN_EXPECTED = "tests/golden/expected/sweep_gshare.json"
MB = 1e6


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line)."""


def now():
    return time.perf_counter()


def run_cmd(argv, out_path=None, log=None, timeout=CMD_TIMEOUT_S):
    """Run argv to completion; return (exit code, wall s, peak RSS KiB).
    The peak RSS is the child's own (os.wait4), not the whole tree's."""
    with open(out_path or os.devnull, "wb") as out:
        t0 = now()
        proc = subprocess.Popen(argv, stdout=out,
                                stderr=log or subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def read_cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def optimisation_level(flags):
    """The -O level the last -O flag selects ('' when none)."""
    levels = re.findall(r"(?:^|\s)-O(\S*)", flags)
    return levels[-1] if levels else ""


class Build:
    """confsim and the per-layer probe, built from this checkout."""

    def __init__(self, root, log):
        self.root = root
        self.log = log
        self.confsim_dir = os.path.join(root, BUILD_DIR, "confsim")
        self.layers_dir = os.path.join(root, BUILD_DIR, "layers")
        self.confsim = os.path.join(self.confsim_dir, "tools", "confsim")
        self.layers = os.path.join(self.layers_dir, "perfbench_layers")

    def _step(self, argv):
        rc = subprocess.call(argv, stdout=self.log, stderr=self.log)
        if rc != 0:
            raise BenchError(f"build step failed ({rc}): {' '.join(argv)}"
                             f"; see {self.log.name}")

    def build(self, jobs):
        for name in ("CMakeLists.txt", "src", "tools"):
            if not os.path.exists(os.path.join(self.root, name)):
                raise BenchError(f"no confsim sources here (missing {name})")
        if not os.path.exists(os.path.join(self.confsim_dir,
                                           "CMakeCache.txt")):
            self._step(["cmake", "-S", self.root, "-B", self.confsim_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
        self._step(["cmake", "--build", self.confsim_dir, "--target",
                    "confsim", "-j", str(jobs)])
        if not os.path.exists(os.path.join(self.layers_dir,
                                           "CMakeCache.txt")):
            self._step(["cmake", "-S",
                        os.path.join(self.root, "perfbench", "layers"),
                        "-B", self.layers_dir, "-DCMAKE_BUILD_TYPE=Release",
                        f"-DCONFSIM_SOURCE_DIR={self.root}",
                        f"-DCONFSIM_BUILD_DIR={self.confsim_dir}"])
        self._step(["cmake", "--build", self.layers_dir, "-j", str(jobs)])

    def guard(self):
        """Build facts for the record; refuses unoptimised builds, as
        bench/run_benchmarks.sh does for the microbenchmarks."""
        info = {}
        for name, build_dir in (("confsim", self.confsim_dir),
                                ("layers", self.layers_dir)):
            cache = read_cmake_cache(build_dir)
            build_type = cache.get("CMAKE_BUILD_TYPE", "")
            flags = (cache.get("CMAKE_CXX_FLAGS", "") + " "
                     + cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
            level = optimisation_level(flags)
            if build_type.lower() not in ("release", "relwithdebinfo") \
                    or level not in ("2", "3"):
                raise BenchError(
                    f"{name} build in {build_dir} is {build_type or 'untyped'}"
                    f" at -O{level}: refusing to time an unoptimised build;"
                    f" delete it and rerun to rebuild as Release")
            info[f"{name}_build_type"] = build_type
            info[f"{name}_opt_level"] = f"-O{level}"
        compiler = glob.glob(os.path.join(self.confsim_dir, "CMakeFiles",
                                          "*", "CMakeCXXCompiler.cmake"))
        if compiler:
            text = open(compiler[0]).read()
            ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            info["compiler"] = " ".join(
                m.group(1) for m in (ident, version) if m)
        return info


class Bench:
    """Shared state of one run."""

    def __init__(self, root, build, seed, seconds, trace, log):
        self.root = root
        self.build = build
        self.seed = seed
        self.seconds = seconds
        self.log = log
        self.nproc = len(os.sched_getaffinity(0))
        self.ops = stats.OpCounter()
        self.tracer = Tracer(trace)
        self.layers = {}
        self.work = os.path.join(STATE_DIR, f"work-{os.getpid()}")
        os.makedirs(self.work)

    def path(self, name):
        return os.path.join(self.work, name)

    def write_json(self, name, doc):
        with open(self.path(name), "w") as f:
            json.dump(doc, f, indent=1)
        return self.path(name)

    def sweep(self, grid_path, jobs, artifact_dir=None):
        """One `confsim --sweep`; returns (ok, wall s, RSS KiB, stdout)."""
        argv = [self.build.confsim, "--sweep", grid_path, "--jobs", str(jobs)]
        if artifact_dir:
            argv += ["--artifact-dir", artifact_dir]
        out = self.path("stdout")
        rc, wall, rss = run_cmd(argv, out, self.log)
        with open(out, "rb") as f:
            data = f.read()
        return rc == 0, wall, rss, data

    def check(self, ok, what):
        """Count one operation; False (and a log line) when it failed."""
        if not ok:
            print(f"perfbench: FAILED: {what}", file=sys.stderr)
        return self.ops.record(ok, what)


def lane_branches(doc):
    """Branches replayed x configurations of a full-replay sweep
    result: the sum of every configuration's all-branch quadrants."""
    return sum(sum(c["quadrants"]["all"].values())
               for w in doc["workloads"] for c in w["configs"])


def remove_journals(artifact_dir):
    for path in glob.glob(os.path.join(artifact_dir, "sweep-*.journal")):
        os.remove(path)


class SweepWorkload:
    """A workload whose pass is one `confsim --sweep` command, checked
    byte for byte against a serial `--jobs 0` reference made in set-up."""

    artifact_dir = None

    def __init__(self, bench, grid):
        self.b = bench
        self.grid = bench.write_json(f"{self.name}.json", grid)
        self.reference = None

    def setup(self):
        """One set-up: the serial reference (into a fresh artifact
        directory when the workload has one). Returns its wall time."""
        if self.artifact_dir:
            shutil.rmtree(self.artifact_dir, ignore_errors=True)
        t0 = now()
        ok, _, _, out = self.b.sweep(self.grid, 0, self.artifact_dir)
        wall = now() - t0
        if self.reference is None and ok:
            self.reference = out
        self.b.check(ok and out == self.reference,
                     f"{self.name}: serial reference run")
        return wall

    def timed_pass(self):
        if self.artifact_dir:
            remove_journals(self.artifact_dir)
        ok, wall, rss, out = self.b.sweep(self.grid, self.b.nproc,
                                          self.artifact_dir)
        self.b.check(ok and out == self.reference,
                     f"{self.name}: --jobs {self.b.nproc} output differs "
                     f"from the serial reference")
        return wall, rss

    def digest(self):
        return hashlib.sha256(self.reference or b"").hexdigest()

    def grid_key(self):
        with open(self.grid, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()[:16]

    def lane_branches(self):
        return lane_branches(json.loads(self.reference))


class ColdSweep(SweepWorkload):
    name = "cold_sweep"

    def __init__(self, bench):
        super().__init__(bench, grids.paper_grid(bench.seed))


class WarmSweep(SweepWorkload):
    name = "warm_sweep"

    def __init__(self, bench):
        self.artifact_dir = bench.path("warm_artifacts")
        super().__init__(bench, grids.paper_grid(bench.seed))


class SampledSynthetic(SweepWorkload):
    name = "sampled_synthetic"

    def __init__(self, bench):
        self.doc = grids.sampled_grid(bench.seed)
        super().__init__(bench, self.doc)

    def lane_branches(self):
        """Population branches x configurations, as BM_SampledSweep
        counts them (not just the sampled windows)."""
        return (sum(s["branches"] for s in self.doc["synthetic"])
                * len(self.doc["estimators"]))


class ServedSweeps:
    """Closed-loop clients against `confsim serve` (see served.py)."""

    name = "served_sweeps"

    def __init__(self, bench):
        self.b = bench
        self.artifact_dir = bench.path("served_artifacts")
        self.grid = bench.write_json(
            "served_prebuild.json", grids.served_prebuild_grid(bench.seed))
        self.grids, self.order = grids.served_jobs(bench.seed, bench.nproc)
        self.references = None
        self.passes = []

    def setup(self):
        """One set-up: pre-build every artifact the served grids use."""
        shutil.rmtree(self.artifact_dir, ignore_errors=True)
        t0 = now()
        ok, _, _, _ = self.b.sweep(self.grid, self.b.nproc,
                                   self.artifact_dir)
        remove_journals(self.artifact_dir)
        wall = now() - t0
        self.b.check(ok, "served: artifact pre-build")
        return wall

    def make_references(self):
        """`--sweep` of every distinct served grid over the same
        artifacts (untimed; the gate compares every result to these)."""
        self.references, self.ref_docs = [], []
        for i, grid in enumerate(self.grids):
            path = self.b.write_json(f"served_{i}.json", grid)
            ok, _, _, out = self.b.sweep(path, 0, self.artifact_dir)
            self.b.check(ok, f"served: --sweep reference of grid {i}")
            self.references.append(served.canonical(out.decode())
                                   if ok else None)
            self.ref_docs.append(json.loads(out) if ok else None)
        served.clear_state(self.artifact_dir)

    def start_daemon(self):
        leftovers = served.leftover_state(self.artifact_dir)
        self.b.check(not leftovers,
                     f"served: state left before a pass: {leftovers[:3]}")
        served.clear_state(self.artifact_dir)
        return served.Daemon(self.b.build.confsim, self.b.path("s.sock"),
                             self.artifact_dir, self.b.nproc, self.b.log)

    def timed_pass(self):
        if self.references is None:
            self.make_references()
        daemon = self.start_daemon()
        try:
            result = served.run_pass(daemon, self.grids, self.order,
                                        self.references, self.b.nproc,
                                        self.b.ops, self.b.tracer)
        finally:
            result_rss = daemon.stop()
        expected = len(self.order) - len(self.grids)
        self.b.check(result.deduped == expected,
                     f"served: {result.deduped} submissions deduped, "
                     f"{expected} planned")
        self.passes.append(result)
        served.clear_state(self.artifact_dir)
        return result.wall_s, result_rss

    def ping_rtt(self):
        daemon = self.start_daemon()
        try:
            rtts = []
            for _ in range(PINGS):
                t0 = now()
                daemon.request({"op": "ping"})
                rtts.append(now() - t0)
        finally:
            daemon.stop()
        served.clear_state(self.artifact_dir)
        return statistics.median(rtts)

    def digest(self):
        h = hashlib.sha256()
        for ref in self.references or []:
            h.update(served.canonical_text(ref).encode())
        return h.hexdigest()

    def grid_key(self):
        text = json.dumps(self.grids, sort_keys=True).encode()
        return hashlib.sha256(text).hexdigest()[:16]

    def lane_branches(self):
        return sum(lane_branches(d) for d in self.ref_docs if d)


WORKLOADS = {w.name: w for w in
             (ColdSweep, WarmSweep, SampledSynthetic, ServedSweeps)}


def check_golden(b):
    """The default-seed, scale-1 gshare grid must match the golden
    expected output byte for byte."""
    ok, _, _, out = b.sweep(os.path.join(b.root, GOLDEN_GRID), 0)
    with open(os.path.join(b.root, GOLDEN_EXPECTED), "rb") as f:
        b.check(ok and out == f.read(), "golden gshare sweep")


def check_digest(b, key, digest):
    """Workloads that sweep the same grid must agree across runs: the
    first run to see a (grid, seed) records its digest."""
    path = os.path.join(STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        b.check(known[key] == digest, f"output digest of {key} changed")
    else:
        known[key] = digest
        with open(path + ".tmp", "w") as f:
            json.dump(known, f, indent=1)
        os.replace(path + ".tmp", path)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def measure(b, wl):
    """Timed passes for b.seconds (at least MIN_PASSES), after one
    untimed warm-up pass: the first multi-threaded pass after the
    serial set-up runs slower on a VM whose idle vCPUs must wake."""
    wl.timed_pass()
    walls, rss = [], []
    end = now() + b.seconds
    while len(walls) < MIN_PASSES or now() < end:
        wall, peak = wl.timed_pass()
        walls.append(wall)
        rss.append(peak)
    return walls, rss


def dry_run(b, grid_path):
    """`--dry-run` plan of a grid: (wall s, kernel tier, virtual share)."""
    rc, wall, _ = run_cmd([b.build.confsim, "--sweep", grid_path, "--dry-run",
                           "--jobs", str(b.nproc)], b.path("plan"), b.log)
    with open(b.path("plan")) as f:
        plan = f.read()
    b.check(rc == 0, "--dry-run plan")
    kernel = re.search(r"kernel dispatch: (\S+)", plan)
    lanes = re.search(r"lanes per shard pass: (.*)", plan)
    counts = dict((k, int(v)) for v, k in
                  re.findall(r"(\d+) (\w+)", lanes.group(1))) if lanes else {}
    share = counts.get("virtual", 0) / max(1, sum(counts.values()))
    return wall, kernel.group(1) if kernel else "unknown", share


def end_to_end(b, wl, setup_walls, walls, rss):
    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall, "s"),
        "lane_branches_per_s": (wl.lane_branches() / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss) * 1024 / MB, "MB"),
    }


def traced_layers(b, wl):
    """Every per-layer metric (see README.md for what each should
    move). Layers a workload bypasses are measured on the same seed's
    inputs of the workload that crosses them."""
    m = {}
    # Tracing overhead on this workload: alternate untraced and traced
    # passes of its own command, after the same warm-up pass as measure().
    wl.timed_pass()
    untraced, traced = [], []
    end = now() + b.seconds
    while len(traced) < MIN_PASSES or now() < end:
        b.tracer.enabled = False
        untraced.append(wl.timed_pass()[0])
        b.tracer.enabled = True
        b.tracer.new_run()
        with b.tracer.span(f"perfbench.{wl.name}.pass"):
            traced.append(wl.timed_pass()[0])
    m["perfbench.trace_overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")

    paper = b.write_json("layers_paper.json", grids.paper_grid(b.seed))
    sampled_doc = grids.sampled_grid(b.seed)
    sampled = b.write_json("layers_sampled.json", sampled_doc)

    walls, shares = [], []
    for _ in range(DRY_RUNS):
        b.tracer.new_run()
        with b.tracer.span("tools.startup"):
            wall, _, share = dry_run(b, paper)
        walls.append(wall)
        shares.append(share)
    m["tools.startup_s"] = (statistics.median(walls), "s")
    m["sweep.virtual_lane_share"] = (shares[0], "share")

    layers_out = b.path("layers.json")
    rc, _, _ = run_cmd([b.build.layers, "--grid", paper, "--synthetic",
                        sampled, "--work", b.path("layers_work"),
                        "--jobs", str(b.nproc)], layers_out, b.log, 170)
    shutil.rmtree(b.path("layers_work"), ignore_errors=True)
    if not b.check(rc == 0, "per-layer probe"):
        raise BenchError("per-layer probe failed")
    with open(layers_out) as f:
        layers = json.load(f)
    if not layers["optimized"]:
        raise BenchError("per-layer probe built without optimisation")
    b.layers = layers
    m.update(layer_metrics(layers))

    # Sampled-path quality and work split, from a real sampled sweep.
    if isinstance(wl, SampledSynthetic):
        out = wl.reference
    else:
        ok, _, _, out = b.sweep(sampled, b.nproc)
        b.check(ok, "sampled sweep for the per-layer metrics")
    doc = json.loads(out)
    ops = [w["configs"][0]["sampled"] for w in doc["workloads"]]
    m["sweep.sampled_ops_share"] = (
        sum(o["ops_detailed"] + o["ops_warmup"] for o in ops)
        / sum(o["ops_total"] for o in ops), "share")
    m["sweep.ci99_halfwidth_max"] = (max(
        metric["ci99"] for w in doc["workloads"] for c in w["configs"]
        for metric in c["sampled"]["metrics"].values()
        if metric.get("ci99") is not None), "share")

    m.update(service_metrics(b, wl))
    return m


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(layers):
    spans = [tuple(s) for s in layers["spans"]]
    own = stats.self_time_by_name(spans)
    c = layers["counts"]
    sec = 1e-9

    def total(name):
        return own.get(name, 0) * sec

    cold = [s for s in spans if s[0] == "harness.runner.cold"][0]
    cold_tasks = [s for s in spans
                  if s[0] == "harness.task" and s[4] == cold[3]]
    cold_durations = [(s[2] - s[1]) * sec for s in cold_tasks]
    ideal = sum(cold_durations) / layers["jobs"]
    m = {
        "workloads.build_s": (total("workloads.build"), "s"),
        "harness.profile_s": (total("harness.profile"), "s"),
        "pipeline.record_s": (total("pipeline.record"), "s"),
        "pipeline.sim_insts_per_s": (
            ratio(c["sim_all_insts"], total("pipeline.record")), "1/s"),
        "trace.bytes_per_branch": (
            ratio(c["trace_bytes"], c["branches"]), "B/branch"),
        "sweep.decode_s": (total("sweep.decode"), "s"),
        "sweep.task_s": (total("sweep.task"), "s"),
        "sweep.lane_branches_per_s": (
            ratio(c["task_lane_branches"], total("sweep.task")), "1/s"),
        "harness.emit_s": (total("harness.emit"), "s"),
        "harness.artifact_write_s": (total("harness.artifact_write"), "s"),
        "harness.artifact_write_mb": (c["artifact_write_bytes"] / MB, "MB"),
        "harness.artifact_load_s": (total("harness.artifact_load"), "s"),
        "harness.artifact_bytes_per_branch": (
            ratio(c["artifact_load_bytes"], c["branches"]), "B/branch"),
        "common.checksum_gb_per_s": (
            ratio(c["artifact_load_bytes"] / 1e9, total("common.checksum")),
            "GB/s"),
        "harness.artifact_hit_ratio": (
            ratio(c["warm_artifact_hits"], c["warm_artifact_loads"]),
            "share"),
        "harness.artifact_mb": (c["store_bytes"] / MB, "MB"),
        "harness.task_max_s": (max(cold_durations), "s"),
        "harness.task_mean_s": (statistics.mean(cold_durations), "s"),
        "harness.runner_imbalance": (
            ratio((cold[2] - cold[1]) * sec, ideal), "ratio"),
        "harness.synthetic_branches_per_s": (
            ratio(c["synthetic_branches"],
                  total("harness.synthetic_generate")), "1/s"),
    }
    for phase in ("cold", "warm"):
        cache = c[f"{phase}_cache"]
        for tier in ("program", "profile", "recorded", "decoded"):
            hits, misses = cache[f"{tier}_hits"], cache[f"{tier}_misses"]
            if phase == "warm" and tier == "recorded":
                continue  # the warm path never looks this tier up
            m[f"harness.cache_hit_ratio.{phase}.{tier}"] = (
                ratio(hits, hits + misses), "share")
    return m


def service_metrics(b, wl):
    """Served-path metrics from passes of enough submissions that p90
    has at least ten samples beyond it."""
    svc = wl if isinstance(wl, ServedSweeps) else ServedSweeps(b)
    if not isinstance(wl, ServedSweeps):
        svc.setup()
    b.tracer.enabled = False
    rtt = svc.ping_rtt()
    b.tracer.enabled = True
    latencies = [x for p in svc.passes for x in p.latencies]
    while (stats.highest_percentile(len(latencies)) or 0) < 90:
        b.tracer.new_run()
        svc.timed_pass()
        latencies = [x for p in svc.passes for x in p.latencies]
    queue = [x for p in svc.passes for x in p.queue_waits]
    run = [x for p in svc.passes for x in p.run_times]
    jobs = sum(len(p.latencies) for p in svc.passes)
    return {
        "harness.service_rtt_s": (rtt, "s"),
        "harness.service_queue_wait_s": (statistics.median(queue), "s"),
        "harness.service_run_s": (statistics.median(run), "s"),
        "harness.service_dedupe_share": (
            sum(p.deduped for p in svc.passes) / jobs, "share"),
        "harness.service_job_latency_p50_s": (
            statistics.median(latencies), "s"),
        "harness.service_job_latency_p90_s": (
            stats.percentile(latencies, 90), "s"),
        "harness.service_jobs_per_s": (
            jobs / sum(p.wall_s for p in svc.passes), "1/s"),
    }


def clean_stale_work():
    for path in glob.glob(os.path.join(STATE_DIR, "work-*")):
        try:
            os.kill(int(path.rsplit("-", 1)[1]), 0)
        except (ProcessLookupError, ValueError):
            shutil.rmtree(path, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its daemon and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    os.makedirs(STATE_DIR, exist_ok=True)
    clean_stale_work()
    log = open(os.path.join(STATE_DIR, "log.txt"), "a")
    try:
        build = Build(root, log)
        build.build(len(os.sched_getaffinity(0)))
        info = build.guard()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    b = Bench(root, build, args.seed, args.seconds, bool(args.trace), log)
    try:
        wl = WORKLOADS[args.workload](b)
        check_golden(b)
        _, kernel, _ = dry_run(b, wl.grid)
        if args.trace:
            setup_walls = [wl.setup()]
            metrics = traced_layers(b, wl)
        else:
            setup_walls = [wl.setup() for _ in range(SETUP_REPEATS)]
            steal0, total0 = cpu_ticks()
            walls, rss = measure(b, wl)
            steal1, total1 = cpu_ticks()
            metrics = end_to_end(b, wl, setup_walls, walls, rss)
            info["host_steal_share"] = round(
                (steal1 - steal0) / max(1, total1 - total0), 4)
            info["pass_walls_s"] = [round(w, 4) for w in walls]
        info["setup_walls_s"] = [round(w, 4) for w in setup_walls]
        check_digest(b, wl.grid_key(), wl.digest())
        info.update({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "nproc": b.nproc, "kernel": kernel,
            "env": {k: os.environ[k] for k in ENV_KNOBS if k in os.environ},
            "output_digest": wl.digest(),
            "failed_share": b.ops.failed_share,
            "failures": b.ops.reasons[:10],
        })
        if args.trace:
            with open(os.path.join(
                    STATE_DIR, f"trace-{args.workload}-{args.seed}.json"),
                    "w") as f:
                json.dump({"benchmark": b.tracer.spans,
                           "layers": b.layers.get("spans", []),
                           "layer_counts": b.layers.get("counts", {})}, f)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(b.work, ignore_errors=True)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    stats.check_metric_names(metrics)
    if set(metrics) != {m["name"] for m in declared}:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": b.ops.failed == 0,
        "attempted": b.ops.attempted,
        "failed": b.ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
