#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/check_spread.py --workload cold_sweep --seeds 1-10

Run from the repository root. The spread is the distance between the
first and third quartile of the per-seed values as a share of their
median (statistics.quantiles(n=4)); the benchmark aims to keep it
below a third of the metric's bound. Exits 1 if any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in args.workload:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds),
                                    "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            steal = json.loads(lines[-2])["perfbench"].get("host_steal_share")
            ok = ok and result["correct"] and result["failed"] == 0
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items())
                + f" steal={steal}", flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            spread = stats.quartile_spread(vals)
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"{workload} {m['name']}: median {statistics.median(vals):.6g}"
                  f" {m['unit']} spread {spread:.4f} bound {m['bound']}"
                  f" [{flag}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
