"""Fragment classification: linearity, per-variable dependency graphs,
a three-way cycle test, and syntactic recognition of periodic length
arithmetic.

The solver is a decision procedure on two nested fragments:

* acyclic   - linear formulas whose dependency graphs have no cycle
* one-cycle - at most one cycle per graph, no variable more than twice in
  one equation, and periodic length arithmetic

Everything else is classified general; the solver still runs on it but
only as a semi-decision procedure.

So a graph's cycles matter only as none, one or more: ``cycle_count``
returns 0, 1 or 2, where 2 means "more than one", and enumerates none.
Once the vertices no cycle passes through are stripped, a graph has
exactly one cycle when every vertex left has one out-edge and they form
a single ring; any other graph left has two or more.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .terms import (AInt, AMod, AVar, ArithAtom, CChar, Equation,
                    NormalizedFormula, SPred, SVar, atom_repr,
                    rename_atom_vars, term_str, term_string_vars)
from .arith import _lin  # linear normalization shared with the backend


class FragmentTag(enum.Enum):
    ACYCLIC = "acyclic"
    ONE_CYCLE = "one-cycle"
    GENERAL = "general"


@dataclass(frozen=True)
class Fragment:
    tag: FragmentTag
    witness: str = ""


def _first_repeated(equations: Iterable[Equation],
                    times: int) -> Optional[Tuple[Equation, str]]:
    """The first equation with a string variable occurring more than
    ``times`` times (both sides together), and that variable, or None."""
    for eq in equations:
        counts = Counter(a.name if isinstance(a, SVar) else a.var
                         for a in eq.lhs + eq.rhs if not isinstance(a, CChar))
        for v, n in counts.items():
            if n > times:
                return eq, v
    return None


# An equation as the dependency graphs see it: the string variables of
# its two sides.
Sides = Tuple[frozenset, frozenset]


def side_vars(equations: Iterable[Equation]) -> List[Sides]:
    return [(term_string_vars(eq.lhs), term_string_vars(eq.rhs))
            for eq in equations]


def build_dep_graph(var: str, equations: List[Sides]) -> Dict[str, List[str]]:
    """The dependency multigraph of ``var`` as its out-edge map: ``out[v]``
    lists v's targets, once per parallel edge, and a vertex without
    out-edges has no key.  Worklist construction over the equations,
    given as their ``side_vars``.

    Each dequeue consumes at most one equation: the first one not yet
    consumed that mentions the variable, as the variables of the side
    containing it and those of the other side.  A variable equated to a
    ground word becomes a leaf; leaves lose their outgoing edges and are
    never enqueued again.  A drained variable that already has dependency
    edges is left as an ordinary exhausted vertex, so recorded cycles
    survive (marking it a leaf would erase the self-loop the fragment
    check exists to find).
    """
    out: Dict[str, List[str]] = {}
    leaves: set = set()

    def mark_leaf(v: str) -> None:
        leaves.add(v)
        out.pop(v, None)

    # per variable, the indices of the equations mentioning it, in order
    mentions: Dict[str, List[int]] = {}
    for i, (lhs, rhs) in enumerate(equations):
        for v in lhs | rhs:
            mentions.setdefault(v, []).append(i)
    consumed: set = set()
    # per variable, a position in its mentions before which every
    # equation is consumed
    mark: Dict[str, int] = {}
    wl = deque([var])
    while wl:
        cur = wl.popleft()
        if cur in leaves:
            continue
        queue = mentions.get(cur, ())
        k = mark.get(cur, 0)
        while k < len(queue) and queue[k] in consumed:
            k += 1
        mark[cur] = k
        if k == len(queue):
            if cur not in out:
                leaves.add(cur)
            continue
        consumed.add(queue[k])
        lhs, rhs = equations[queue[k]]
        tr_i, tr_d = (lhs, rhs) if cur in lhs else (rhs, lhs)
        if not tr_d:
            for v in sorted(tr_i):
                mark_leaf(v)
        else:
            for v in sorted(tr_d):
                out.setdefault(cur, []).append(v)
                if v not in leaves:
                    wl.append(v)
    return out


def cycle_count(out: Dict[str, List[str]]) -> int:
    """0 if the graph with out-edge map ``out`` has no cycle, 1 if it has
    exactly one, 2 if it has more than one; parallel edges make distinct
    cycles.

    The fragments only ask "none, one or more", so no cycle is counted.
    After the strip, every vertex left has an edge in and an edge out
    among the others.  A vertex with two out-edges then lies on two
    distinct cycles or leads into two; if each has exactly one, the
    vertices left are disjoint rings, one cycle each.
    """
    # Strip the vertices no cycle passes through (Kahn): those without an
    # edge in or without an edge out among the vertices left.
    succ = {s: set(ds) for s, ds in out.items()}
    pred: Dict[str, set] = {}
    for s, ds in out.items():
        for d in ds:
            pred.setdefault(d, set()).add(s)
    live = succ.keys() & pred.keys()
    todo = list((succ.keys() | pred.keys()) - live)
    while todo:
        v = todo.pop()
        for d in succ.get(v, ()):
            pred[d].discard(v)
            if not pred[d] and d in live:
                live.discard(d)
                todo.append(d)
        for s in pred.get(v, ()):
            succ[s].discard(v)
            if not succ[s] and s in live:
                live.discard(s)
                todo.append(s)
    if not live:
        return 0
    nxt = {}
    for s in live:
        ring = [d for d in out[s] if d in live]
        if len(ring) > 1:
            return 2
        nxt[s] = ring[0]
    start = next(iter(live))
    v, size = nxt[start], 1
    while v != start:
        v, size = nxt[v], size + 1
    return 1 if size == len(live) else 2


_PERIODIC_COEFFS = (-1, 0, 1)


def _octagonal_shape(atom: ArithAtom) -> bool:
    try:
        cl, kl = _lin(atom.lhs)
        cr, kr = _lin(atom.rhs)
    except ValueError:
        return False
    coeffs = dict(cl)
    for v, c in cr.items():
        coeffs[v] = coeffs.get(v, 0) - c
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if len(coeffs) > 2:
        return False
    if not coeffs:
        return True
    g = 0
    for c in coeffs.values():
        g = math.gcd(g, abs(c))
    return all(c // g in _PERIODIC_COEFFS for c in coeffs.values())


def _mod_template(atom: ArithAtom) -> bool:
    # x mod p = r with integer constants p > 0 and r
    if atom.kind != "eq":
        return False
    for a, b in ((atom.lhs, atom.rhs), (atom.rhs, atom.lhs)):
        if isinstance(a, AMod) and isinstance(b, AInt):
            if (isinstance(a.left, AVar) and isinstance(a.right, AInt)
                    and a.right.value > 0):
                return True
    return False


def _first_nonperiodic(atoms: Iterable[ArithAtom]) -> Optional[ArithAtom]:
    """The first atom outside the periodic templates (octagonal +-x +-y <= k
    and the equalities it spans, or mod by a constant on a variable), or
    None; max/min and mod by a non-constant divisor fall outside."""
    for a in atoms:
        if not (_mod_template(a) or _octagonal_shape(a)):
            return a
    return None


def classify_fragment(f: NormalizedFormula) -> Fragment:
    """Classify a normalized formula; the witness explains any downgrade
    in the input's names: a predicate by the variable its root definition
    (``v = $u<i>``) names, and its length as ``|v|``."""
    sides = side_vars(f.equations)
    vars_in_eqs = sorted(set().union(*(lhs | rhs for lhs, rhs in sides)))
    graphs = {v: build_dep_graph(v, sides) for v in vars_in_eqs}
    cycles = {v: cycle_count(g) for v, g in graphs.items()}
    nonlinear = _first_repeated(f.equations, 1)
    acyclic = all(c == 0 for c in cycles.values())
    if nonlinear is None and acyclic:
        return Fragment(FragmentTag.ACYCLIC)

    # the input's names, for the witness only
    names = {d.term[0].name: d.var for d in f.subterms if len(d.term) == 1}
    lengths = {n: f"|{names[u]}|" for u, n in f.lengths if u in names}

    def named(eq: Equation) -> str:
        return " = ".join(term_str(tuple(
            SVar(names.get(a.var, a.var)) if isinstance(a, SPred) else a
            for a in side)) for side in (eq.lhs, eq.rhs))

    reasons = []
    if nonlinear is not None:
        reasons.append(f"non-linear equation: {named(nonlinear[0])}")
    worst = max(cycles.values(), default=0)
    if worst > 0:
        v = next(v for v in vars_in_eqs if cycles[v] == worst)
        count = "1 cycle(s)" if worst == 1 else "more than one cycle"
        reasons.append(f"dependency graph of {names.get(v, v)} has {count}")
    thrice = _first_repeated(f.equations, 2)
    if thrice is not None:
        reasons.append(f"{names.get(thrice[1], thrice[1])} occurs more "
                       f"than twice in {named(thrice[0])}")
    bad_atom = _first_nonperiodic(f.arith)
    if worst <= 1 and thrice is None and bad_atom is None:
        return Fragment(FragmentTag.ONE_CYCLE, "; ".join(reasons))
    if bad_atom is not None:
        shown = atom_repr(rename_atom_vars(bad_atom, lengths))
        reasons.append(f"non-periodic arithmetic: {shown}")
    return Fragment(FragmentTag.GENERAL, "; ".join(reasons))
