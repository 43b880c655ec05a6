"""Command-line driver.

Exit codes: 0 sat, 1 unsat, 2 unknown, 3 error, a usage error included
(``--help`` exits 0).  The verdict goes to stdout so differential
harnesses can diff it cleanly; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional, TextIO, Tuple

from . import engine, frontend, oracle, reduce as reduce_mod
from .arith import ArithInternalError
from .classify import classify_fragment
from .terms import FEq, Model

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


@dataclass
class RunConfig:
    path: str
    budget: int = engine.DEFAULT_BUDGET
    want_model: bool = False
    show_fragment: bool = False
    dot_path: Optional[str] = None
    oa_mode: str = engine.OA_FULL
    reduce_to_single: bool = False
    oracle_check: Optional[int] = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stringsat",
        description="satisfiability of word equations with regular "
                    "membership and length constraints")
    p.add_argument("input", help="problem file")
    p.add_argument("--budget", type=int, default=engine.DEFAULT_BUDGET,
                   help="maximum number of unfoldings (default %(default)s)")
    p.add_argument("--model", action="store_true",
                   help="print a model after a sat verdict")
    p.add_argument("--fragment", action="store_true",
                   help="print the fragment classification before solving")
    p.add_argument("--dot", metavar="PATH",
                   help="write the final unfolding tree(s) as DOT")
    p.add_argument("--oa", choices=[engine.OA_FULL, engine.OA_LENGTHS_ONLY],
                   default=engine.OA_FULL,
                   help="over-approximation strength (default %(default)s)")
    p.add_argument("--reduce-to-single", action="store_true",
                   help="fold multiple word equations into one before solving")
    p.add_argument("--oracle-check", type=int, metavar="BOUND",
                   help="double-check the verdict with the brute-force "
                        "oracle up to the given word length")
    return p


def config_from_args(argv: List[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    if ns.budget < 0:
        raise ValueError("budget must be non-negative")
    if ns.oracle_check is not None and ns.oracle_check < 0:
        raise ValueError("oracle-check bound must be non-negative")
    return RunConfig(path=ns.input, budget=ns.budget, want_model=ns.model,
                     show_fragment=ns.fragment, dot_path=ns.dot,
                     oa_mode=ns.oa, reduce_to_single=ns.reduce_to_single,
                     oracle_check=ns.oracle_check)


def _apply_reduction(disjunct: tuple, alphabet: tuple) -> tuple:
    eq_leaves = [l for l in disjunct if isinstance(l, FEq)]
    rest = [l for l in disjunct if not isinstance(l, FEq)]
    if len(eq_leaves) < 2:
        return disjunct
    from .terms import Equation
    system = reduce_mod.EquationSystem(
        tuple(Equation(l.lhs, l.rhs) for l in eq_leaves), alphabet)
    single = reduce_mod.reduce_system(system)
    return (FEq(single.lhs, single.rhs),) + tuple(rest)


def solve_problem(problem: frontend.Problem, cfg: RunConfig) -> Tuple[str, Optional[Model], List[engine.UnfoldingTree]]:
    """Solve each top-level disjunct in sequence; sat wins, unknown taints
    an otherwise-unsat outcome."""
    sigma = problem.alphabet()
    trees: List[engine.UnfoldingTree] = []
    saw_unknown = False
    for disjunct in problem.disjuncts():
        if cfg.reduce_to_single:
            disjunct = _apply_reduction(disjunct, sigma)
        ans = engine.solve_conjunction(disjunct, sigma, budget=cfg.budget,
                                       oa_mode=cfg.oa_mode)
        trees.append(ans.tree)
        if ans.verdict == "sat":
            model = _fill_declared(ans.model, problem)
            return "sat", model, trees
        if ans.verdict == "unknown":
            saw_unknown = True
    return ("unknown" if saw_unknown else "unsat"), None, trees


def _fill_declared(model: Model, problem: frontend.Problem) -> Model:
    strings = model.string_map()
    ints = model.int_map()
    for v in problem.str_vars:
        strings.setdefault(v, "")
    for v in problem.int_vars:
        ints.setdefault(v, 0)
    return Model.make(strings, ints)


def run(cfg: RunConfig, out: TextIO = sys.stdout,
        err: TextIO = sys.stderr) -> int:
    try:
        with open(cfg.path, "rb") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR
    try:
        problem = frontend.parse_problem(text)
    except frontend.ParseError as e:
        print(f"error: {cfg.path}:{e}", file=err)
        return EXIT_ERROR

    if cfg.show_fragment:
        sigma = problem.alphabet()
        tags = []
        for disjunct in problem.disjuncts():
            nf = engine.init_normalize(disjunct, sigma)
            frag = classify_fragment(nf)
            tags.append(frag)
        for frag in tags:
            line = f"fragment: {frag.tag.value}"
            if frag.witness:
                line += f" ({frag.witness})"
            print(line, file=err)

    try:
        verdict, model, trees = solve_problem(problem, cfg)
    except (engine.EngineInternalError, ArithInternalError) as e:
        print(f"error: internal: {e}", file=err)
        return EXIT_ERROR
    except reduce_mod.AlphabetTooSmallError as e:
        print(f"error: --reduce-to-single: {e}", file=err)
        return EXIT_ERROR

    out.write(frontend.render_answer(verdict, model, problem,
                                     cfg.want_model))
    if cfg.dot_path:
        try:
            with open(cfg.dot_path, "w") as fh:
                # one digraph per disjunct, concatenated
                fh.write("".join(engine.export_tree(t) for t in trees))
        except OSError as e:
            print(f"error: {e}", file=err)
            return EXIT_ERROR

    if cfg.oracle_check is not None:
        ok, note = _oracle_agreement(problem, verdict, model,
                                     cfg.oracle_check)
        print(note, file=err)
        if not ok:
            return EXIT_ERROR
    return {"sat": EXIT_SAT, "unsat": EXIT_UNSAT,
            "unknown": EXIT_UNKNOWN}[verdict]


def _oracle_agreement(problem: frontend.Problem, verdict: str,
                      model: Optional[Model], bound: int) -> Tuple[bool, str]:
    sigma = problem.alphabet()
    formula = problem.formula()
    if verdict == "sat":
        ok = oracle.eval_formula(formula, model, sigma)
        return ok, ("oracle-check: model verified" if ok
                    else "oracle-check: MODEL FAILS EVALUATION")
    if verdict == "unsat":
        found = oracle.brute_force_solve(formula, sigma,
                                         oracle.Bound(bound, bound))
        if found is None:
            return True, (f"oracle-check: no model up to bound {bound}, "
                          "consistent with unsat")
        return False, f"oracle-check: DISAGREEMENT, oracle found {found}"
    return True, "oracle-check: skipped on unknown"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = config_from_args(argv)
    except SystemExit as e:  # argparse's: 0 after --help, 2 on a usage error
        return 0 if e.code == 0 else EXIT_ERROR
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
