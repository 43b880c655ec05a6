"""Tree identity on the benchmark corpora.

The first problems of each ``bench/gen.py`` workload at the build seed are
solved as the benchmark solves them, at the workload's budget, and their
verdict, unfoldings and node count must equal the recorded fixture.  A
change that alters trees on purpose re-records it with::

    PYTHONPATH=src python tests/test_trees.py

The benchmark's files are only read.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from stringsat import engine, frontend, oracle

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
FIXTURE = os.path.join(HERE, "trees_seed1.json")
SEED = 1
PER_WORKLOAD = 100


def _gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", os.path.join(BENCH, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve(text: str, budget: int) -> list:
    """[verdict, unfoldings, nodes] the way the benchmark's passes solve:
    disjuncts in order, sat wins, unknown taints unsat, and an exception
    is an error verdict."""
    unfoldings = nodes = 0
    try:
        problem = frontend.parse_problem(text)
        sigma = problem.alphabet()
        verdict = "unsat"
        for disjunct in problem.disjuncts():
            ans = engine.solve_conjunction(disjunct, sigma, budget=budget)
            unfoldings += ans.unfoldings
            nodes += len(ans.tree.nodes)
            if ans.verdict == "sat":
                verdict = "sat"
                break
            if ans.verdict == "unknown":
                verdict = "unknown"
    except Exception as e:  # noqa: BLE001 - recorded like the benchmark
        verdict = f"error: {type(e).__name__}"
    return [verdict, unfoldings, nodes]


def _budgets() -> dict:
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        return {name: w["budget"]
                for name, w in json.load(fh)["workloads"].items()}


def trees() -> dict:
    """Per problem id (it names the workload): [verdict, unfoldings,
    nodes]."""
    gen = _gen()
    return {pid: _solve(text, budget)
            for name, budget in _budgets().items()
            for pid, text in gen.corpus(name, SEED)[:PER_WORKLOAD]}


def test_trees_match_the_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = trees()
    assert sorted(got) == sorted(want)
    diff = {pid: (row, want[pid]) for pid, row in got.items()
            if row != want[pid]}
    assert not diff, diff


# Memberships problems whose base leaves have more tuples of boundary
# states than _UA_COMBO_CAP allows targets; the boundary search, which
# tries far fewer, decides each of them.
@pytest.mark.parametrize("seed, pid, verdict", [
    (1, "memberships-1126", "unsat"), (2, "memberships-284", "unsat"),
    (2, "memberships-422", "unsat"), (2, "memberships-916", "unsat"),
    (2, "memberships-1101", "sat"), (2, "memberships-1176", "unsat")])
def test_memberships_with_many_boundary_choices_are_decided(seed, pid,
                                                            verdict):
    problem = frontend.parse_problem(
        dict(_gen().corpus("memberships", seed))[pid])
    sigma, formula = problem.alphabet(), problem.formula()
    got = "unsat"
    for disjunct in problem.disjuncts():
        ans = engine.solve_conjunction(disjunct, sigma,
                                       budget=_budgets()["memberships"])
        assert ans.verdict != "unknown"
        if ans.verdict == "sat":
            got = "sat"
            assert oracle.eval_formula(formula, ans.model, sigma)
            break
    assert got == verdict
    if got == "unsat":
        assert oracle.brute_force_solve(formula, sigma,
                                        oracle.Bound(3, 3)) is None


if __name__ == "__main__":
    # one problem a line, so that a re-recorded fixture diffs by problem
    rows = [f"  {json.dumps(pid)}: {json.dumps(row)}"
            for pid, row in trees().items()]
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
