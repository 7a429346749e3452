"""Seeded sweep grids for the benchmark's workloads.

The benchmark seed decides every input: the workload-data seed of the
recorded analogs, the synthetic stream seeds, the sampling phase and
the served grid variants. confsim only ever sees the grid files these
functions produce.
"""

import json
import random

PREDICTORS = ["gshare", "mcfarling", "sag"]
WORKLOADS = ["compress", "gcc", "perl", "go", "m88ksim", "xlisp",
             "vortex", "ijpeg"]
ESTIMATORS = ["jrs", "jrs-base", "satcnt", "satcnt-both", "satcnt-either",
              "pattern", "static", "distance", "cir-ones", "cir-table",
              "mcf-jrs", "boost2", "boost3", "always-high", "always-low"]
THRESHOLDS = [1, 4, 8, 15]

# Workload scale of the paper grid (cold and warm sweeps). At scale 2
# the grid runs about 2x faster at --jobs 4 than serially on a 4-CPU
# host, so runner balance shows; at scale 1 it barely parallelises.
PAPER_SCALE = 2
# Served jobs are small grids over scale-1 artifacts.
SERVED_SCALE = 1
SERVED_DISTINCT = 30
SERVED_REPEATS = 10
# Population branches per synthetic stream of the sampled sweep.
SYNTHETIC_BRANCHES = 100_000_000
SYNTHETIC_PRESETS = ["mixed", "phased"]
SAMPLING = {"window_ops": 8192, "stride_ops": 1048576, "warmup_ops": 2048}
# Two configurations per shard: 14 tasks keep all workers busy, where
# the default 8 gives 4 uneven tasks whose slowest sets the wall time.
SAMPLED_SHARD_SIZE = 2


def _rng(seed, stream):
    """An independent generator per input family, so adding one
    family never shifts the values of another."""
    return random.Random(f"{seed}/{stream}")


def workload_seed(seed, stream):
    return _rng(seed, stream).randrange(1, 2**31)


def paper_grid(seed):
    """The paper grid: 3 predictors x 15 estimators x 4 thresholds x 8
    SPECint95 analogs."""
    return {
        "predictors": PREDICTORS,
        "workload_config": {"scale": PAPER_SCALE,
                            "seed": workload_seed(seed, "paper")},
        "thresholds": THRESHOLDS,
        "estimators": [{"estimator": e} for e in ESTIMATORS],
    }


def sampled_grid(seed):
    """A sampled sweep over two contrasting 10^8-branch synthetic
    streams. 'static' needs a program profile, which synthetic streams
    lack, so it is left out."""
    rng = _rng(seed, "sampled")
    return {
        "predictor": "gshare",
        "thresholds": THRESHOLDS,
        "estimators": [{"estimator": e} for e in ESTIMATORS
                       if e != "static"],
        "synthetic": [{"preset": p, "branches": SYNTHETIC_BRANCHES,
                       "seed": rng.randrange(1, 2**31)}
                      for p in SYNTHETIC_PRESETS],
        "sampling": dict(SAMPLING, seed=rng.randrange(1, 2**31)),
        "shard_size": SAMPLED_SHARD_SIZE,
    }


def served_prebuild_grid(seed):
    """A cheap grid whose only purpose is to leave recorded and decoded
    artifacts for every (predictor, analog) a served grid can use."""
    return {
        "predictors": PREDICTORS,
        "workload_config": {"scale": SERVED_SCALE,
                            "seed": workload_seed(seed, "served")},
        "estimators": [{"estimator": "satcnt"}],
    }


def _served_variant(rng, predictor, workloads, wcfg):
    entries = rng.choice([1024, 2048, 4096, 8192])
    thr = rng.randint(8, 15)
    enhanced = rng.random() < 0.5
    base_entries = rng.choice([1024, 2048, 4096])
    base_thr = rng.randint(8, 15)
    dist = rng.randint(1, 8)
    static = rng.choice([0.8, 0.85, 0.9, 0.95])
    return {
        "predictor": predictor,
        "workloads": sorted(workloads, key=WORKLOADS.index),
        "workload_config": wcfg,
        "thresholds": sorted(rng.sample(range(1, 16), 3)),
        "estimators": [
            {"label": f"jrs-{entries}-{thr}{'e' if enhanced else ''}",
             "estimator": "jrs",
             "jrs": {"table_entries": entries, "counter_bits": 4,
                     "threshold": thr, "enhanced": enhanced}},
            {"label": f"jrs-base-{base_entries}-{base_thr}",
             "estimator": "jrs-base",
             "jrs": {"table_entries": base_entries, "counter_bits": 4,
                     "threshold": base_thr, "enhanced": False}},
            {"label": f"distance-{dist}", "estimator": "distance",
             "distance_threshold": dist},
            {"label": f"static-{static}", "estimator": "static",
             "static_threshold": static},
            {"estimator": "satcnt"},
            {"estimator": "pattern"},
        ],
    }


def served_jobs(seed, clients):
    """The served submissions of one pass: (distinct grids, order),
    where order lists indices into the distinct grids. Each of the
    SERVED_REPEATS repeats names a grid submitted earlier, at least
    `clients` submissions before it, so admission must dedupe it.

    Grids come in pairs that share a predictor and split a shuffled
    list of the 8 analogs between them, with the predictors in equal
    turns, so every (predictor, analog) is replayed equally often and a
    pass does the same work whatever the seed."""
    rng = _rng(seed, "served")
    wcfg = {"scale": SERVED_SCALE, "seed": workload_seed(seed, "served")}
    grids, seen = [], set()
    predictors = PREDICTORS * (SERVED_DISTINCT // (2 * len(PREDICTORS)))
    rng.shuffle(predictors)
    for predictor in predictors:
        analogs = rng.sample(WORKLOADS, len(WORKLOADS))
        for half in (analogs[:4], analogs[4:]):
            grid = _served_variant(rng, predictor, half, wcfg)
            while json.dumps(grid, sort_keys=True) in seen:
                grid = _served_variant(rng, predictor, half, wcfg)
            seen.add(json.dumps(grid, sort_keys=True))
            grids.append(grid)
    order = list(range(SERVED_DISTINCT))
    for _ in range(SERVED_REPEATS):
        pos = rng.randrange(clients + 1, len(order) + 1)
        order.insert(pos, order[rng.randrange(pos - clients)])
    return grids, order
