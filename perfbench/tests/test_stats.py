"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import grids  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


class PercentileChoiceTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(120), 90)
        self.assertEqual(stats.highest_percentile(200), 95)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_too_few_samples_fall_back_or_none(self):
        self.assertEqual(stats.highest_percentile(99), 75)
        self.assertEqual(stats.highest_percentile(40), 75)
        self.assertEqual(stats.highest_percentile(20), 50)
        self.assertIsNone(stats.highest_percentile(19))
        self.assertIsNone(stats.highest_percentile(0))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_quartile_spread(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / 14.5)
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)


def span(name, start, end, sid, parent=0, run=1):
    return (name, start, end, sid, parent, run)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 5, 12, 1)]), {1: 7})

    def test_overlapping_children_count_once(self):
        spans = [span("runner", 0, 100, 1),
                 span("task", 10, 50, 2, parent=1),
                 span("task", 30, 70, 3, parent=1),   # overlaps task 2
                 span("task", 80, 90, 4, parent=1)]
        own = stats.self_times(spans)
        # Children cover [10, 70) and [80, 90): 70 of 100.
        self.assertEqual(own[1], 30)
        self.assertEqual(own[2], 40)

    def test_children_clipped_to_parent(self):
        spans = [span("p", 10, 20, 1), span("c", 5, 15, 2, parent=1),
                 span("c", 18, 40, 3, parent=1)]
        self.assertEqual(stats.self_times(spans)[1], 3)

    def test_nested_children_and_grandchildren(self):
        spans = [span("a", 0, 100, 1), span("b", 0, 60, 2, parent=1),
                 span("c", 10, 30, 3, parent=2)]
        own = stats.self_times(spans)
        self.assertEqual((own[1], own[2], own[3]), (40, 40, 20))

    def test_self_time_by_name_sums(self):
        spans = [span("a", 0, 10, 1), span("a", 20, 25, 2),
                 span("b", 0, 4, 3, parent=1)]
        self.assertEqual(stats.self_time_by_name(spans), {"a": 11, "b": 4})

    def test_tracer_nests_spans_and_numbers_runs(self):
        t = Tracer(True)
        t.new_run()
        with t.span("outer"):
            with t.span("inner"):
                pass
        t.new_run()
        with t.span("next"):
            pass
        by_name = {s[0]: s for s in t.spans}
        self.assertEqual(by_name["inner"][4], by_name["outer"][3])
        self.assertEqual(by_name["outer"][4], 0)
        self.assertEqual((by_name["outer"][5], by_name["next"][5]), (1, 2))
        self.assertLessEqual(by_name["outer"][1], by_name["inner"][1])
        self.assertLessEqual(by_name["inner"][2], by_name["outer"][2])

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(False)
        with t.span("a"):
            pass
        self.assertEqual(t.spans, [])


class FailedShareTest(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        ops = stats.OpCounter()
        self.assertEqual(ops.failed_share, 0.0)
        for ok in (True, True, False, True):
            ops.record(ok, "wrong output" if not ok else "")
        self.assertEqual((ops.attempted, ops.failed), (4, 1))
        self.assertEqual(ops.failed_share, 0.25)
        self.assertEqual(ops.reasons, ["wrong output"])

    def test_record_returns_the_outcome(self):
        ops = stats.OpCounter()
        self.assertTrue(ops.record(True))
        self.assertFalse(ops.record(False, "refused"))


class NameCharsetTest(unittest.TestCase):
    def test_good_and_bad_names(self):
        stats.check_metric_names(["wall_s", "harness.cache_hit_ratio.cold.program",
                                  "9lives", "a-b.c_d"])
        for bad in ("", "_lead", ".lead", "has space", "x" * 65, "a/b",
                    "ünï"):
            with self.assertRaises(ValueError, msg=bad):
                stats.check_metric_names([bad])
        with self.assertRaises(ValueError):
            stats.check_metric_names(["twice", "twice"])

    def test_units(self):
        for unit in ("s", "1/s", "MB", "B/branch", "GB/s", "share", "%"):
            self.assertTrue(stats.UNIT_RE.match(unit), unit)
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(stats.UNIT_RE.match(unit), unit)

    def test_benchmark_json_is_well_formed(self):
        with open(BENCHMARK_JSON) as f:
            doc = json.load(f)
        stats.check_benchmark(doc)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


class GridsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (grids.paper_grid, grids.sampled_grid,
                     grids.served_prebuild_grid):
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))
        self.assertEqual(grids.served_jobs(7, 4), grids.served_jobs(7, 4))

    def test_served_repeats_follow_their_originals(self):
        distinct, order = grids.served_jobs(3, 4)
        self.assertEqual(len(distinct), grids.SERVED_DISTINCT)
        self.assertEqual(len(order),
                         grids.SERVED_DISTINCT + grids.SERVED_REPEATS)
        first = {}
        for pos, g in enumerate(order):
            if g in first:
                self.assertGreater(pos - first[g], 4)
            else:
                first[g] = pos
        self.assertEqual(sorted(first), list(range(len(distinct))))
        texts = {json.dumps(g, sort_keys=True) for g in distinct}
        self.assertEqual(len(texts), len(distinct))
        # p90 of a traced served run needs 100 submissions: 3 passes.
        self.assertGreaterEqual(stats.highest_percentile(3 * len(order)), 90)


class CanonicalTest(unittest.TestCase):
    def test_whitespace_only_differences_compare_equal(self):
        a = served.canonical('{"a": [1, 2.50, {"b": -0.0}], "c": {}}')
        b = served.canonical('{"a":[1,2.50,{"b":-0.0}],"c":{}}')
        self.assertEqual(a, b)
        self.assertEqual(served.canonical_text(a),
                         '{"a":[1,2.50,{"b":-0.0}],"c":{}}')

    def test_number_spelling_and_key_order_matter(self):
        base = served.canonical('{"a": 2.5, "b": 1}')
        self.assertNotEqual(base, served.canonical('{"a": 2.50, "b": 1}'))
        self.assertNotEqual(base, served.canonical('{"b": 1, "a": 2.5}'))
        self.assertNotEqual(served.canonical("{}"), served.canonical("[]"))


class BuildGuardTest(unittest.TestCase):
    def guard(self, build_type, flags, type_flags):
        with tempfile.TemporaryDirectory() as root:
            build = run.Build(root, None)
            for d in (build.confsim_dir, build.layers_dir):
                os.makedirs(d)
                with open(os.path.join(d, "CMakeCache.txt"), "w") as f:
                    f.write(f"CMAKE_BUILD_TYPE:STRING={build_type}\n"
                            f"CMAKE_CXX_FLAGS:STRING={flags}\n"
                            f"CMAKE_CXX_FLAGS_{build_type.upper()}:STRING="
                            f"{type_flags}\n")
            return build.guard()

    def test_release_passes_and_is_recorded(self):
        info = self.guard("Release", "", "-O3 -DNDEBUG")
        self.assertEqual(info["confsim_build_type"], "Release")
        self.assertEqual(info["confsim_opt_level"], "-O3")

    def test_unoptimised_builds_are_refused(self):
        for build_type, flags, type_flags in (
                ("Debug", "", "-g"), ("", "", ""),
                ("Release", "", "-O0"), ("Release", "-O3", "-O0"),
                ("RelWithDebInfo", "", "-g")):
            with self.assertRaises(run.BenchError, msg=build_type):
                self.guard(build_type, flags, type_flags)

    def test_last_optimisation_flag_wins(self):
        self.assertEqual(run.optimisation_level("-O0 -g -O2"), "2")
        self.assertEqual(run.optimisation_level("-g"), "")


if __name__ == "__main__":
    unittest.main()
