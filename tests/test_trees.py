"""Tree identity on the benchmark corpora.

The first problems of each ``bench/gen.py`` workload at the build seed are
solved as the benchmark solves them, at the workload's budget, and their
verdict, unfoldings and node count must equal the recorded fixture, and
the DOT export of their trees a recorded digest.  A change that alters
trees on purpose re-records the fixture with::

    PYTHONPATH=src python tests/test_trees.py

and a change that must not alter them compares every problem of a seed,
one JSON line per problem, between two checkouts with::

    PYTHONPATH=src python tests/test_trees.py --rows SEED

The benchmark's files are only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys

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


def _solve(text: str, budget: int) -> tuple:
    """[verdict, unfoldings, nodes] the way the benchmark's passes solve:
    disjuncts in order, sat wins, unknown taints unsat, and an exception
    is an error verdict; then the answer of each disjunct solved."""
    unfoldings = nodes = 0
    answers = []
    try:
        problem = frontend.parse_problem(text)
        sigma = problem.alphabet()
        verdict = "unsat"
        for disjunct in problem.disjuncts():
            ans = engine.solve_conjunction(disjunct, sigma, budget=budget)
            answers.append(ans)
            unfoldings += ans.unfoldings
            nodes += len(ans.tree.nodes)
            if ans.verdict == "sat":
                verdict = "sat"
                break
            if ans.verdict == "unknown":
                verdict = "unknown"
    except Exception as e:  # noqa: BLE001 - recorded like the benchmark
        verdict = f"error: {type(e).__name__}"
    return [verdict, unfoldings, nodes], answers


def _budgets() -> dict:
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        return {name: w["budget"]
                for name, w in json.load(fh)["workloads"].items()}


def _solved(seed: int = SEED, per_workload: int = PER_WORKLOAD):
    """(problem id, row, answers) of each workload's first problems at
    seed, in corpus order; every problem when per_workload is None."""
    gen = _gen()
    for name, budget in _budgets().items():
        for pid, text in gen.corpus(name, seed)[:per_workload]:
            yield (pid,) + _solve(text, budget)


def trees() -> dict:
    """Per problem id (it names the workload): [verdict, unfoldings,
    nodes]."""
    return {pid: row for pid, row, _ in _solved()}


def test_trees_match_the_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = trees()
    assert sorted(got) == sorted(want)
    diff = {pid: (row, want[pid]) for pid, row in got.items()
            if row != want[pid]}
    assert not diff, diff


def test_full_mode_dot_exports_are_unchanged():
    # the fixture's problems, their trees' full DOT text in corpus order
    digest = hashlib.sha1()
    nodes = sat = probed = links = 0
    for _, _, answers in _solved():
        for ans in answers:
            digest.update(engine.export_tree(ans.tree).encode())
            nodes += len(ans.tree.nodes)
            for n in ans.tree.nodes:
                sat += isinstance(n.status, engine.SatLeaf)
                probed += getattr(n.status, "how", None) == "length probe"
                links += isinstance(n.status, engine.BackLinkedTo)
    # the length probe answers 52 of the 60 sat problems before a base
    # leaf: 1,352 nodes fell to 716.  One membership per variable, the
    # intersection of its regexes, closes three trees sooner: 716 fell
    # to 702
    assert (nodes, sat, probed, links) == (702, 60, 52, 5)
    assert digest.hexdigest() == "41e756e5906e227dc4d7cb29ae257d18017e46ad"


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


def dump_rows(seed: int) -> None:
    """Print one JSON line per problem of every workload at seed: its
    row, the SHA-1 of each solved disjunct's DOT export, and the model of
    a sat answer."""
    for pid, (verdict, unfoldings, nodes), answers in _solved(seed, None):
        model = answers[-1].model if verdict == "sat" else None
        print(json.dumps({
            "id": pid, "verdict": verdict, "unfoldings": unfoldings,
            "nodes": nodes,
            "dot": [hashlib.sha1(engine.export_tree(a.tree).encode())
                    .hexdigest() for a in answers],
            "model": None if model is None else [model.strings,
                                                 model.ints]}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--rows"]:
        dump_rows(int(sys.argv[2]))
        sys.exit(0)
    # one problem a line, so that a re-recorded fixture diffs by problem
    rows = [f"  {json.dumps(pid)}: {json.dumps(row)}"
            for pid, row in trees().items()]
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
