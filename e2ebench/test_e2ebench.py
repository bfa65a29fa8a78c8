"""Tests of the benchmark's own logic: the trace fold and pass accounting.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fold_trace  # noqa: E402
import run  # noqa: E402


def span(name, ts, dur, tid=1, cat="axf"):
    return {"name": name, "cat": cat, "ph": "X", "pid": 1, "tid": tid, "ts": ts, "dur": dur}


# Main thread: a pass covering a program span and a benchmark probe that
# itself wraps a program span; a pool worker runs a task for the phase.
SYNTHETIC_TRACE = [
    span("e2e/pass", 0.0, 1000.0),
    span("build_library", 100.0, 500.0),
    span("e2e/probe", 650.0, 250.0),
    span("characterize", 700.0, 100.0),
    span("build_library", 150.0, 400.0, tid=2, cat="task"),
    span("characterize", 200.0, 100.0, tid=2),
]


class FoldTest(unittest.TestCase):
    def setUp(self):
        self.folded = fold_trace.fold(SYNTHETIC_TRACE)
        self.spans = self.folded["spans"]

    def test_self_time_subtracts_direct_children(self):
        self.assertAlmostEqual(self.spans["e2e/pass"]["total_s"], 1000e-6)
        self.assertAlmostEqual(self.spans["e2e/pass"]["self_s"], 250e-6)
        self.assertAlmostEqual(self.spans["e2e/probe"]["self_s"], 150e-6)
        self.assertAlmostEqual(self.spans["build_library"]["self_s"], 500e-6)

    def test_worker_tasks_fold_apart_from_the_phase(self):
        task = self.spans["task:build_library"]
        self.assertEqual(task["calls"], 1)
        self.assertAlmostEqual(task["total_s"], 400e-6)
        self.assertAlmostEqual(task["self_s"], 300e-6)
        self.assertEqual(self.spans["characterize"]["calls"], 2)
        self.assertAlmostEqual(self.spans["characterize"]["total_s"], 200e-6)

    def test_coverage_counts_program_spans_through_benchmark_spans(self):
        # build_library (500) + characterize inside the probe (100) of 1000.
        self.assertAlmostEqual(self.folded["coverage"], 0.6)

    def test_no_root_means_no_coverage(self):
        self.assertIsNone(fold_trace.fold(SYNTHETIC_TRACE[1:])["coverage"])

    def test_table_lists_every_span(self):
        table = fold_trace.format_table(self.folded)
        for name in self.spans:
            self.assertIn(name, table)
        self.assertIn("60.0%", table)


class JudgeTest(unittest.TestCase):
    def test_matching_passes_are_correct(self):
        verdict = run.judge([{"fingerprint": "ab"}, {"fingerprint": "ab"}], "ab")
        self.assertEqual(verdict, {"attempted": 2, "failed": 0, "failed_ratio": 0.0,
                                   "correct": True})

    def test_mismatch_and_throw_count_as_failed(self):
        passes = [{"fingerprint": "ab"}, {"fingerprint": "cd"}, {"error": "boom"},
                  {"fingerprint": "ab"}]
        verdict = run.judge(passes, "ab")
        self.assertEqual(verdict["attempted"], 4)
        self.assertEqual(verdict["failed"], 2)
        self.assertAlmostEqual(verdict["failed_ratio"], 0.5)
        self.assertFalse(verdict["correct"])

    def test_no_pass_is_not_correct(self):
        verdict = run.judge([], "ab")
        self.assertFalse(verdict["correct"])
        self.assertEqual(verdict["failed_ratio"], 1.0)

    def test_driver_death_fails_the_pass_it_was_running(self):
        verdict = run.judge([{"fingerprint": "ab"}, {"fingerprint": "ab"}], "ab", died=True)
        self.assertEqual((verdict["attempted"], verdict["failed"]), (3, 1))
        self.assertAlmostEqual(verdict["failed_ratio"], 1 / 3)
        self.assertFalse(verdict["correct"])

    def test_death_in_set_up_is_one_failed_attempt(self):
        verdict = run.judge([], "ab", died=True)
        self.assertEqual((verdict["attempted"], verdict["failed"]), (1, 1))

    def test_samples_of_a_dead_driver_are_partial(self):
        lines = [{"kind": "setup", "seconds": 0.5, "steal": 0.0},
                 {"kind": "pass", "seconds": 2.0, "steal": 0.0, "fingerprint": "ab",
                  "circuits": 10, "configs": 10}]
        samples = run.end_to_end_samples(lines)
        self.assertEqual(samples["wall_s"], [2.0])
        self.assertEqual(samples["circuits_per_s"], [5.0])
        self.assertEqual(samples["peak_rss_mb"], [])
        self.assertEqual(samples["front_coverage"], [])


class InputSeedTest(unittest.TestCase):
    def test_seeds_wrap_onto_the_stored_table(self):
        table = {str(s): {} for s in run.REFERENCE_SEEDS}
        self.assertEqual(run.input_seed(7, table), 7)
        self.assertEqual(run.input_seed(len(table) + 7, table), 7)

    def test_every_stored_input_set_has_every_workload(self):
        table = run.load_reference()
        self.assertEqual(sorted(map(int, table)), list(run.REFERENCE_SEEDS))
        for entry in table.values():
            self.assertEqual(set(entry), set(run.WORKLOADS))


class UndisturbedTest(unittest.TestCase):
    def test_keeps_passes_under_the_steal_limit(self):
        timings = [{"seconds": 1.0, "steal": 0.01}, {"seconds": 3.0, "steal": 0.30},
                   {"seconds": 1.1, "steal": 0.04}]
        self.assertEqual([t["seconds"] for t in run.undisturbed(timings)], [1.0, 1.1])

    def test_busy_host_keeps_the_least_disturbed_third(self):
        timings = [{"seconds": s, "steal": f} for s, f in
                   [(2.0, 0.30), (1.4, 0.10), (1.8, 0.20), (1.2, 0.08), (1.9, 0.25), (2.1, 0.40)]]
        self.assertEqual([t["seconds"] for t in run.undisturbed(timings)], [1.4, 1.2])

    def test_empty(self):
        self.assertEqual(run.undisturbed([]), [])


class SummaryTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        s = run.summary([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (3.0, 1.5, 4.5, 5))

    def test_single_sample(self):
        self.assertEqual(run.summary([2.5]), {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})


class BenchmarkJsonTest(unittest.TestCase):
    PATH = os.path.join(run.ROOT, "BENCHMARK.json")

    @unittest.skipUnless(os.path.exists(PATH), "no BENCHMARK.json next to the benchmark")
    def test_metric_tables_match_the_declaration(self):
        with open(self.PATH, encoding="utf-8") as f:
            declared = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in declared["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
