"""Outside-in tracing: timing wrappers installed over module attributes.

The solver looks its layers up at call time (``engine`` calls
``_arith.arith_sat``, ``_regexes.compiled`` and its own module globals), so
replacing those attributes catches nested calls as well as top-level ones.
Each call becomes a span: name, start, end, parent span and problem id,
kept in flat arrays in memory and written out once the corpus is solved.
A layer's self time is its span's duration minus its child spans.

Besides spans, each wrapper may count properties of the call's arguments
or result (how many children ``unfold`` returned, whether ``link_back``
found a target, ...), so that ratios are measured where the work happens.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# An observer sees the call's arguments and result and bumps counters.
Observer = Callable[[Counter, tuple, object], None]


def _count_len(key: str) -> Observer:
    def observe(c: Counter, args: tuple, out: object) -> None:
        c[key] += len(out)
    return observe


def _count_true(key: str) -> Observer:
    def observe(c: Counter, args: tuple, out: object) -> None:
        c[key] += bool(out)
    return observe


def _count_not_none(key: str) -> Observer:
    def observe(c: Counter, args: tuple, out: object) -> None:
        c[key] += out is not None
    return observe


def _observe_ua(c: Counter, args: tuple, out: object) -> None:
    c["decided"] += out.status != "notbase"


def _observe_arith_sat(c: Counter, args: tuple, out: object) -> None:
    c["atoms"] += len(args[0])
    c["sat"] += out is not None


# (metric prefix, module path, attribute, observer).  The module path is
# relative to the ``stringsat`` package; "frontend.Problem" is the class
# whose ``disjuncts`` method is wrapped.  classify_fragment is wrapped where
# the engine looks it up, which covers the per-leaf calls made by is_base.
BOUNDARIES: List[Tuple[str, str, str, Optional[Observer]]] = [
    ("frontend.parse_problem", "frontend", "parse_problem", None),
    ("frontend.disjuncts", "frontend.Problem", "disjuncts", _count_len("out")),
    ("classify.classify_fragment", "engine", "classify_fragment", None),
    ("engine.solve_conjunction", "engine", "solve_conjunction", None),
    ("engine.init_normalize", "engine", "init_normalize", None),
    ("engine.unfold", "engine", "unfold", _count_len("children")),
    ("engine.under_approx_check", "engine", "under_approx_check",
     _observe_ua),
    ("engine.oa_unsat", "engine", "oa_unsat", _count_true("pruned")),
    ("engine.over_approx", "engine", "over_approx", _count_len("disjuncts")),
    ("engine.link_back", "engine", "link_back", _count_not_none("hits")),
    ("arith.arith_implies", "arith", "arith_implies", None),
    ("arith.arith_sat", "arith", "arith_sat", _observe_arith_sat),
    ("arith.quick_unsat", "arith", "quick_unsat", _count_true("unsat")),
    ("arith.lower", "arith", "lower", _count_len("systems")),
    ("arith.solve_system", "arith", "solve_system", _count_not_none("sat")),
    ("regexes.compiled", "regexes", "compiled", None),
    ("regexes.compile_regex", "regexes", "compile_regex", None),
    ("regexes.product", "regexes", "product", None),
    ("regexes.joint_product", "regexes", "joint_product", None),
    ("regexes.length_set", "regexes", "length_set", None),
    ("regexes.witness_with_length", "regexes", "witness_with_length", None),
]

NAMES = [b[0] for b in BOUNDARIES]


class Tracer:
    """Span recorder for one process.  Not thread-safe: the benchmark
    solves one problem at a time on one thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.problem: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.counters: Dict[str, Counter] = {}
        self._stack: List[int] = [-1]
        self.problem_id = -1
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        ix = len(self.names)
        self.names.append(name)
        counts = self.counters.setdefault(name, Counter())
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(ix)
            self.parent.append(stack[-1])
            self.problem.append(self.problem_id)
            self.end.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] += 1
                raise
            finally:
                self.end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package) -> None:
        """Replace every boundary in BOUNDARIES inside ``package``."""
        for name, path, attr, observe in BOUNDARIES:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per boundary: calls, self seconds, and its counters.  Also the
        number of arith_sat calls made directly by arith_implies."""
        n = len(self.start)
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, **self.counters[name]}
            for name in self.names}
        index = {name: ix for ix, name in enumerate(self.names)}
        implies = index.get("arith.arith_implies", -1)
        sat = index.get("arith.arith_sat", -1)
        sat_in_implies = 0
        for sid in range(n):
            row = out[self.names[self.name_of[sid]]]
            row["calls"] += 1
            row["self_s"] += (self.end[sid] - self.start[sid]
                              - child_ns[sid]) / 1e9
            p = self.parent[sid]
            if (self.name_of[sid] == sat and p >= 0
                    and self.name_of[p] == implies):
                sat_in_implies += 1
        if sat >= 0:
            out["arith.arith_sat"]["in_implies"] = sat_in_implies
        return out

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line (gzip); returns the
        number of spans.  Columns: span, parent, problem, name, start_ns,
        end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tproblem\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.problem[sid]}\t"
                         f"{self.names[self.name_of[sid]]}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\n")
        return len(self.start)
