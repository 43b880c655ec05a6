"""Tests of the benchmark itself (not of the solver).

Run from the repository root with either of::

    python3 -m pytest bench/tests
    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = 25  # problems per workload in the tests that solve


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small(workload: str) -> gen.Corpus:
    return gen.corpus(workload, run.CONFIG["seeds"]["build"])[:SMALL]


class GeneratorTests(unittest.TestCase):

    def test_deterministic_per_seed(self):
        for w in run.WORKLOADS:
            self.assertEqual(gen.corpus(w, 5), gen.corpus(w, 5), w)
            self.assertNotEqual(gen.corpus(w, 5), gen.corpus(w, 6), w)

    def test_every_problem_parses(self):
        from stringsat import frontend
        for w in run.WORKLOADS:
            for pid, text in gen.corpus(w, 3):
                frontend.parse_problem(text)

    def test_p90_has_ten_samples_beyond_it(self):
        for w in run.WORKLOADS:
            self.assertGreaterEqual(len(gen.corpus(w, 1)), 100, w)

    def test_shapes_stay_in_their_fragment(self):
        from stringsat import engine, frontend
        from stringsat.classify import FragmentTag, classify_fragment

        def tags(text):
            p = frontend.parse_problem(text)
            return {classify_fragment(engine.init_normalize(
                d, p.alphabet())).tag for d in p.disjuncts()}

        decidable = {FragmentTag.ACYCLIC, FragmentTag.ONE_CYCLE}
        for pid, text in gen.corpus("fragments", 4):
            self.assertLessEqual(tags(text), decidable, pid)
        for pid, text in gen.corpus("memberships", 4):
            self.assertEqual(tags(text), {FragmentTag.ACYCLIC}, pid)

    def test_family_relabelling_keeps_structure(self):
        text = gen._family(gen.random.Random(0), "ab", *gen._HEAD_CLASH[0],
                           mirrored=False)
        self.assertEqual(text.count("(assert"), 2)
        for ch in "XYZCD":
            self.assertNotIn(ch, text)


class ConfigTests(unittest.TestCase):

    def test_benchmark_json_matches_workloads(self):
        bj = _benchmark_json()
        self.assertEqual({w["name"] for w in bj["workloads"]},
                         set(run.WORKLOADS))
        for w in bj["workloads"]:
            self.assertEqual(w["why"], run.WORKLOADS[w["name"]]["why"])

    def test_two_recorded_seeds(self):
        seeds = run.CONFIG["seeds"]
        self.assertEqual(set(seeds), {"build", "holdout"})
        self.assertNotEqual(seeds["build"], seeds["holdout"])

    def test_every_boundary_fires_on_some_workload(self):
        for name in tracing.NAMES:
            self.assertTrue(any(name not in cfg["may_not_fire"]
                                for cfg in run.WORKLOADS.values()), name)

    def test_oracle_bound(self):
        self.assertEqual(check.oracle_bound(1, 2), 6)
        self.assertEqual(check.oracle_bound(6, 2), 1)
        self.assertEqual(check.oracle_bound(0, 3), check.ORACLE_MAX_LEN)


class PassTests(unittest.TestCase):
    """Solve a few problems of each workload in real child passes."""

    @classmethod
    def setUpClass(cls):
        cls.plain = {}
        cls.traced = {}
        for w, cfg in run.WORKLOADS.items():
            corpus = _small(w)
            cls.plain[w] = [run.run_pass(corpus, cfg["budget"], False)
                            for _ in range(2)]
            cls.traced[w] = [run.run_pass(corpus, cfg["budget"], True)
                             for _ in range(2)]

    def test_end_to_end_metrics_for_every_workload(self):
        want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
        for w, passes in self.plain.items():
            got = run.end_to_end([], passes, n_failed=0)
            self.assertEqual({k: u for k, (_, u) in got.items()}, want, w)
            for name, (value, _) in got.items():
                self.assertRegex(name, NAME)
                self.assertGreater(value, 0, (w, name))

    def test_per_layer_metrics_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
        for w in run.WORKLOADS:
            got = run.per_layer(self.plain[w], self.traced[w])
            self.assertEqual({k: u for k, (_, u) in got.items()}, want, w)
            for name in got:
                self.assertRegex(name, NAME)

    def test_two_passes_give_identical_counts(self):
        for w in run.WORKLOADS:
            corpus = _small(w)
            run.check_repeatable(corpus, self.plain[w] + self.traced[w])
            a, b = (run.per_layer(self.plain[w], [t]) for t in self.traced[w])
            for name, (value, unit) in a.items():
                if unit != "s" and name != "trace.overhead_ratio":
                    self.assertEqual(value, b[name][0], (w, name))

    def test_traced_verdicts_equal_untraced(self):
        for w in run.WORKLOADS:
            self.assertEqual(
                [r["verdict"] for r in self.plain[w][0]["results"]],
                [r["verdict"] for r in self.traced[w][0]["results"]], w)

    def test_no_flips_against_the_reference(self):
        for w in run.WORKLOADS:
            wrong = check.check_all(_small(w), self.plain[w][0]["results"])
            self.assertFalse([why for _, why in wrong
                              if why.startswith(check.FLIP)], w)

    def test_repeatability_guard_catches_a_changed_count(self):
        corpus = _small("fragments")
        first, second = (json.loads(json.dumps(p))
                         for p in self.plain["fragments"])
        second["results"][3]["nodes"] += 1
        with self.assertRaises(run.BenchError):
            run.check_repeatable(corpus, [first, second])


class CheckTests(unittest.TestCase):
    """The checker against hand-made answers, independent of the solver."""

    ROT = gen.ROTATE  # unsat
    SAT = '(declare-str s)\n(assert (= (str.++ "ab" s) (str.++ s "ba")))\n'

    def test_good_answers_pass(self):
        self.assertIsNone(check.check_answer(
            self.SAT, {"verdict": "sat", "model": [{"s": "a"}, {}]}, {}))
        self.assertIsNone(check.check_answer(
            self.ROT, {"verdict": "unsat"}, {}))
        self.assertIsNone(check.check_answer(
            self.ROT, {"verdict": "unknown"}, {"x": "sat"}))

    def test_bad_model_is_wrong(self):
        why = check.check_answer(
            self.SAT, {"verdict": "sat", "model": [{"s": "b"}, {}]}, {})
        self.assertIn("fails evaluation", why)

    def test_refuted_unsat_is_wrong(self):
        why = check.check_answer(self.SAT, {"verdict": "unsat"}, {})
        self.assertIn("oracle found", why)

    def test_flip_against_reference(self):
        ref = {check.text_key(self.ROT): "sat"}
        why = check.check_answer(self.ROT, {"verdict": "unsat"}, ref)
        self.assertTrue(why.startswith(check.FLIP))


class TracerTests(unittest.TestCase):

    def test_self_time_excludes_children(self):
        t = tracing.Tracer()
        inner = t.wrap("inner", lambda: sum(range(20000)))
        outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        calls = {t.names[t.name_of[i]] for i in range(len(t.start))}
        self.assertEqual(calls, {"inner", "outer"})
        self.assertEqual([t.parent[i] for i in range(4)], [-1, 0, 0, 0])
        total = (t.end[0] - t.start[0]) / 1e9
        s = t.summary()
        self.assertEqual(s["inner"]["calls"], 3)
        self.assertAlmostEqual(s["inner"]["self_s"] + s["outer"]["self_s"],
                               total, places=9)

    def test_errors_are_counted_and_reraised(self):
        t = tracing.Tracer()

        def boom():
            raise ValueError("x")

        f = t.wrap("boom", boom)
        with self.assertRaises(ValueError):
            f()
        self.assertEqual(t.counters["boom"]["errors"], 1)
        self.assertEqual(t._stack, [-1])


if __name__ == "__main__":
    unittest.main()
