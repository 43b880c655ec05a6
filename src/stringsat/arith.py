"""Exact decision procedure for quantifier-free linear integer arithmetic
with mod-by-constant, max and min.

max/min/mod are lowered to pure linear systems first (case splits and fresh
variables; atoms without them are converted directly).  Each system is
decided by integer-exact preprocessing (Euclidean elimination of
equalities, gcd tightening of inequalities) followed by branch and bound
over the rational simplex relaxation.  The simplex runs on a
fraction-free integer tableau, so all arithmetic is on Python's unbounded
ints; the only Fractions are the coordinates of the relaxation's point
that branch and bound rounds and splits on.  No floats.

A ``Hypothesis`` keeps one conjunction lowered and reduced for many
queries, and ``extend`` derives the state of a larger conjunction from it
by lowering and reducing only the added atoms.  The search keeps one per
node of its unfolding tree, extended from the parent's, because a node's
arithmetic is always its parent's plus the few atoms its unfolding added.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .terms import (AAdd, AInt, ALen, AMax, AMin, AMod, ANeg, AScale, AVar,
                    ArithAtom, ArithExpr, NonConstantDivisorError, atom_le,
                    atom_eq, eval_atom, vars_of_atoms)


class ArithInternalError(Exception):
    """A resource cap tripped; never reported as a verdict."""


# A linear atom: sum(coeffs[v] * v) (kind) const, kind in {'eq', 'le'}
@dataclass(frozen=True)
class LinAtom:
    kind: str
    coeffs: tuple   # sorted ((var, coef), ...), coef != 0
    const: int

    def coeff_map(self) -> dict:
        return dict(self.coeffs)


@dataclass(frozen=True)
class LinearSystem:
    atoms: tuple  # of LinAtom


def _lin_into(e: ArithExpr, f: int, coeffs: Dict[str, int]) -> int:
    """Add ``f`` times the variable part of ``e`` into ``coeffs`` and return
    ``f`` times its constant; ValueError when ``e`` is not linear."""
    if isinstance(e, AVar):
        coeffs[e.name] = coeffs.get(e.name, 0) + f
        return 0
    if isinstance(e, AInt):
        return f * e.value
    if isinstance(e, AAdd):
        return _lin_into(e.left, f, coeffs) + _lin_into(e.right, f, coeffs)
    if isinstance(e, AScale):
        return _lin_into(e.inner, f * e.factor, coeffs)
    if isinstance(e, ANeg):
        return _lin_into(e.inner, -f, coeffs)
    if isinstance(e, ALen):
        raise ValueError("length expression reached the arithmetic backend")
    raise ValueError(f"non-linear construct not lowered: {e!r}")


def _lin(e: ArithExpr) -> Tuple[Dict[str, int], int]:
    coeffs: Dict[str, int] = {}
    const = _lin_into(e, 1, coeffs)
    return coeffs, const


def _mk_linatom(kind: str, lhs: ArithExpr, rhs: ArithExpr) -> LinAtom:
    coeffs: Dict[str, int] = {}
    const = -_lin_into(lhs, 1, coeffs) - _lin_into(rhs, -1, coeffs)
    return LinAtom(kind, tuple(sorted((v, c) for v, c in coeffs.items()
                                      if c != 0)), const)


# ---------------------------------------------------------------------------
# Lowering: eliminate mod / max / min
# ---------------------------------------------------------------------------

_LOWER_CAP = 4096


def _check_cap(n: int) -> None:
    """Refuse a case split before building more than _LOWER_CAP systems.
    Every alternative of a subexpression ends up in its own system, so a
    count over the cap here means the whole lowering would exceed it."""
    if n > _LOWER_CAP:
        raise ArithInternalError("case split explosion in lowering")


class _Fresh:
    def __init__(self, taken: set):
        self.n = 0
        self.taken = taken
        self.issued: set = set()

    def __call__(self, prefix: str) -> str:
        while True:
            name = f"${prefix}{self.n}"
            self.n += 1
            if name not in self.taken:
                self.issued.add(name)
                return name


def _const_value(e: ArithExpr) -> Optional[int]:
    try:
        cs, k = _lin(e)
    except ValueError:
        return None
    return k if not cs else None


def _lower_expr(e: ArithExpr, fresh: _Fresh,
                memo: dict) -> List[Tuple[ArithExpr, tuple]]:
    """Alternatives (rewritten expression, side atoms) for one expression.

    Results are memoized per syntactic subexpression, so repeated subterms
    share one encoding; without that, two copies of the same mod term get
    independent quotient variables whose implied equality is invisible to
    the rational relaxation.
    """
    if e in memo:
        return memo[e]
    out = _lower_expr_raw(e, fresh, memo)
    memo[e] = out
    return out


def _lower_expr_raw(e: ArithExpr, fresh: _Fresh,
                    memo: dict) -> List[Tuple[ArithExpr, tuple]]:
    if isinstance(e, (AInt, AVar)):
        return [(e, ())]
    if isinstance(e, ALen):
        raise ValueError("length expression reached the arithmetic backend")
    if isinstance(e, AScale):
        return [(AScale(e.factor, x), side)
                for x, side in _lower_expr(e.inner, fresh, memo)]
    if isinstance(e, ANeg):
        return [(ANeg(x), side)
                for x, side in _lower_expr(e.inner, fresh, memo)]
    if isinstance(e, AAdd):
        left = _lower_expr(e.left, fresh, memo)
        right = _lower_expr(e.right, fresh, memo)
        _check_cap(len(left) * len(right))
        return [(AAdd(xl, xr), sl + sr) for xl, sl in left for xr, sr in right]
    if isinstance(e, AMod):
        p = _const_value(e.right)
        if p is None or p <= 0:
            raise NonConstantDivisorError(
                "mod divisor must be a positive integer constant")
        out = []
        for xl, sl in _lower_expr(e.left, fresh, memo):
            q, r = fresh("q"), fresh("r")
            side = sl + (
                atom_eq(xl, AAdd(AScale(p, AVar(q)), AVar(r))),
                atom_le(AInt(0), AVar(r)),
                atom_le(AVar(r), AInt(p - 1)),
            )
            out.append((AVar(r), side))
        return out
    if isinstance(e, (AMax, AMin)):
        left = _lower_expr(e.left, fresh, memo)
        right = _lower_expr(e.right, fresh, memo)
        _check_cap(2 * len(left) * len(right))
        out = []
        for xl, sl in left:
            for xr, sr in right:
                m = fresh("v")
                if isinstance(e, AMax):
                    cases = [(atom_eq(AVar(m), xl), atom_le(xr, xl)),
                             (atom_eq(AVar(m), xr), atom_le(xl, xr))]
                else:
                    cases = [(atom_eq(AVar(m), xl), atom_le(xl, xr)),
                             (atom_eq(AVar(m), xr), atom_le(xr, xl))]
                for pick, guard in cases:
                    out.append((AVar(m), sl + sr + (pick, guard)))
        return out
    raise TypeError(f"not an arithmetic expression: {e!r}")


def lower(atoms, fresh: Optional[_Fresh] = None,
          memo: Optional[dict] = None) -> List[LinearSystem]:
    """Case-split max/min and encode mod, yielding pure linear systems whose
    disjunction is equivalent to the input conjunction.

    Calls that pass the same ``fresh`` and ``memo`` encode a subterm they
    share with the same auxiliary variables, so their systems may be
    conjoined; the caller's ``fresh`` must then avoid every input variable.

    An atom without mod/max/min is linear as it stands and is converted
    directly: it has one branch, issues no fresh name, and its subterms
    would only enter the memo with themselves as their encoding.
    """
    if memo is None:
        memo = {}
    systems: List[tuple] = [()]
    for a in atoms:
        try:
            branches = [(_mk_linatom(a.kind, a.lhs, a.rhs),)]
        except ValueError:  # a mod/max/min (or a stray length) inside
            if fresh is None:
                fresh = _Fresh(vars_of_atoms(atoms))
            left = _lower_expr(a.lhs, fresh, memo)
            right = _lower_expr(a.rhs, fresh, memo)
            _check_cap(len(systems) * len(left) * len(right))
            branches = [tuple(_mk_linatom(b.kind, b.lhs, b.rhs)
                              for b in (ArithAtom(a.kind, xl, xr),) + sl + sr)
                        for xl, sl in left for xr, sr in right]
        systems = [s + b for s in systems for b in branches]
    return [LinearSystem(s) for s in systems]


# ---------------------------------------------------------------------------
# Integer preprocessing
# ---------------------------------------------------------------------------

def _gcd_many(xs) -> int:
    g = 0
    for x in xs:
        g = math.gcd(g, abs(x))
    return g


def _symmetric_mod(a: int, m: int) -> int:
    # value in [-m/2, m/2) congruent to a
    r = a % m
    return r - m if r >= (m + 1) // 2 else r


def _subst_into(coeffs: dict, const: int, var: str,
                expr: Tuple[dict, int]) -> Tuple[dict, int]:
    """Replace var by the linear expr (coeffs, const form).  The row is
    never changed in place: one without var comes back as it is, so rows
    may be shared between reductions."""
    if var not in coeffs:
        return coeffs, const
    out = dict(coeffs)
    f = out.pop(var)
    ecs, ek = expr
    for v, c in ecs.items():
        out[v] = out.get(v, 0) + f * c
    return {v: c for v, c in out.items() if c != 0}, const - f * ek


class _Unsat(Exception):
    pass


def _eliminate_equalities(eqs: List[Tuple[dict, int]],
                          ineqs: List[Tuple[dict, int]], fresh: _Fresh):
    """Solve the equality subsystem over the integers.

    Returns (remaining inequalities, substitution list) where the
    substitution list holds (var, (coeffs, const)) entries in elimination
    order.  Raises _Unsat when a gcd divisibility test fails.
    """
    subs: List[Tuple[str, Tuple[dict, int]]] = []
    guard = 0
    while eqs:
        guard += 1
        if guard > 10000:
            raise ArithInternalError("equality elimination did not converge")
        coeffs, const = eqs.pop()
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            if const != 0:
                raise _Unsat()
            continue
        g = _gcd_many(coeffs.values())
        if const % g != 0:
            raise _Unsat()
        coeffs = {v: c // g for v, c in coeffs.items()}
        const //= g
        unit = next((v for v, c in coeffs.items() if abs(c) == 1), None)
        if unit is not None:
            c = coeffs.pop(unit)
            # unit*c + rest = const  =>  unit = (const - rest)/c
            expr = ({v: -cc * c for v, cc in coeffs.items()}, const * c)
            subs.append((unit, expr))
            eqs = [_subst_into(cs, k, unit, expr) for cs, k in eqs]
            ineqs[:] = [_subst_into(cs, k, unit, expr) for cs, k in ineqs]
            continue
        # no unit coefficient: Omega-style mod reduction on the smallest one
        var_k = min(coeffs, key=lambda v: (abs(coeffs[v]), v))
        m = abs(coeffs[var_k]) + 1
        sigma = fresh("s")
        new_coeffs = {v: _symmetric_mod(c, m) for v, c in coeffs.items()}
        new_coeffs[sigma] = -m
        new_const = _symmetric_mod(const, m)
        # coefficient of var_k in the reduced equation is -sign(coeffs[var_k])
        eqs.append((coeffs, const))
        eqs.append((new_coeffs, new_const))
    return ineqs, subs


def _tighten(ineqs: List[Tuple[dict, int]]) -> List[Tuple[dict, int]]:
    out = []
    for coeffs, const in ineqs:
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            if const < 0:
                raise _Unsat()
            continue
        g = _gcd_many(coeffs.values())
        out.append(({v: c // g for v, c in coeffs.items()},
                    const // g if const >= 0 else -((-const + g - 1) // g)))
    return out


# ---------------------------------------------------------------------------
# Fraction-free integer simplex (phase 1 feasibility, then an L1 phase 2)
# ---------------------------------------------------------------------------

def _lp_feasible(ineqs: List[Tuple[dict, int]],
                 variables: List[str]) -> Optional[Dict[str, Fraction]]:
    """L1-minimal rational solution of sum(c x) <= k atoms, or None.

    Free variables are split into non-negative pairs and slacks added; a
    phase-1 simplex drives the artificial sum to zero, then phase 2
    minimizes the sum of the split pairs so the returned point stays near
    the origin (which keeps later branching shallow).  Pivoting is
    Dantzig's rule with lowest-index ties, switching to Bland's rule after
    60 degenerate steps; the ratio test takes the least (b_r / a_r,
    basis[r]).

    The tableau holds only ints (fraction-free elimination, after Bareiss):
    each row is a primitive integer multiple of the rational row, with a
    positive entry in its basic column, so the rational row is the stored
    one divided by that entry.  The objective row is likewise kept as a
    positive integer multiple of the rational one; its denominator is
    never needed, because only the signs and the order of its entries are
    read.  Every choice the simplex makes is invariant under positive row
    scaling (ratios are compared by cross-multiplication), so it pivots
    exactly as a rational tableau would.  Fractions appear only in the
    returned point.
    """
    n = len(variables)
    m = len(ineqs)
    if m == 0:
        return {v: Fraction(0) for v in variables}
    ncols = 2 * n + m  # split pairs then slacks
    vidx = {v: i for i, v in enumerate(variables)}
    total = ncols + m  # artificials sit in ncols..total-1, b in total
    tab: List[List[int]] = []
    basis: List[int] = []
    for j, (coeffs, const) in enumerate(ineqs):
        # negate a row with a negative constant so the artificial starts
        # feasible at b >= 0
        sign = -1 if const < 0 else 1
        row = [0] * (total + 1)
        for v, c in coeffs.items():
            row[2 * vidx[v]] = sign * c
            row[2 * vidx[v] + 1] = -sign * c
        row[2 * n + j] = sign  # slack
        row[ncols + j] = 1  # artificial
        row[total] = sign * const
        tab.append(row)
        basis.append(ncols + j)

    # w-row over nonbasics: zero on the artificial columns (they start
    # basic), summed constraint rows elsewhere
    obj = [sum(col) for col in zip(*tab)]
    obj[ncols:total] = [0] * m

    def eliminate(row: List[int], c: int, piv: List[int], p: int,
                  nz: List[int]) -> List[int]:
        # p * row - row[c] * piv, divided by its gcd: zero at column c
        f = row[c]
        out = [p * x for x in row] if p != 1 else list(row)
        for k in nz:
            out[k] -= f * piv[k]
        g = math.gcd(*out)
        return [x // g for x in out] if g > 1 else out

    def pivot(r: int, c: int) -> None:
        nonlocal obj
        piv = tab[r]
        if piv[c] < 0:
            piv = tab[r] = [-x for x in piv]
        p = piv[c]
        nz = [k for k, x in enumerate(piv) if x]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                tab[i] = eliminate(tab[i], c, piv, p, nz)
        if obj[c] != 0:
            obj = eliminate(obj, c, piv, p, nz)
        basis[r] = c

    def optimize(allowed: int) -> None:
        # Dantzig pivoting while progress is made; a long degenerate stall
        # switches to Bland's rule, which cannot cycle
        guard = 0
        stall = 0
        while True:
            guard += 1
            if guard > 20000:
                raise ArithInternalError("simplex did not converge")
            if stall < 60:
                enter, best_cost = None, 0
                for c in range(allowed):
                    if obj[c] > best_cost:
                        enter, best_cost = c, obj[c]
            else:
                enter = next((c for c in range(allowed) if obj[c] > 0), None)
            if enter is None:
                return
            best = -1
            for r in range(m):
                a = tab[r][enter]
                if a > 0:
                    if best < 0:
                        best, best_a, best_b = r, a, tab[r][total]
                        continue
                    b = tab[r][total]
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                        best, best_a, best_b = r, a, b
            if best < 0:
                raise ArithInternalError("simplex objective unbounded")
            stall = stall + 1 if best_b == 0 else 0
            pivot(best, enter)

    optimize(total)
    if obj[total] != 0:
        return None
    if any(b >= ncols and tab[r][total] != 0 for r, b in enumerate(basis)):
        return None
    # drive any zero-level artificial out of the basis before phase 2
    for r in range(m):
        if basis[r] >= ncols:
            c = next((c for c in range(ncols) if tab[r][c] != 0), None)
            if c is not None:
                pivot(r, c)

    # phase 2: minimize the sum of the split pairs (an L1 proxy); the
    # invariant form is z = obj[total] - sum(obj[c] * x_c), so the pair
    # columns start at -1 and basic columns are eliminated below
    obj = [-1] * (2 * n) + [0] * (total + 1 - 2 * n)
    for r, b in enumerate(basis):
        if obj[b] != 0:
            row = tab[r]
            obj = eliminate(obj, b, row, row[b],
                            [k for k, x in enumerate(row) if x])
    optimize(ncols)
    values = [Fraction(0)] * (2 * n)
    for r, b in enumerate(basis):
        if b < 2 * n:
            values[b] = Fraction(tab[r][total], tab[r][b])
    return {v: values[2 * i] - values[2 * i + 1]
            for v, i in vidx.items()}


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

_BB_NODE_CAP = 200000


def _propagate(ineqs: List[Tuple[dict, int]], variables: List[str]):
    """Exact integer interval propagation over sum(c x) <= k atoms.

    Returns None when some interval empties (integer infeasible), else a
    bounds map var -> (lo, hi) with None for unbounded ends.  Floor/ceil
    division keeps every deduction integer-exact, so this only ever
    removes impossible values.
    """
    lo: Dict[str, Optional[int]] = {v: None for v in variables}
    hi: Dict[str, Optional[int]] = {v: None for v in variables}
    for _ in range(80):
        changed = False
        for coeffs, k in ineqs:
            for v, c in coeffs.items():
                rest = 0
                ok = True
                for w, cw in coeffs.items():
                    if w == v:
                        continue
                    b = lo[w] if cw > 0 else hi[w]
                    if b is None:
                        ok = False
                        break
                    rest += cw * b
                if not ok:
                    continue
                if c > 0:
                    bound = (k - rest) // c  # x <= floor(R / c)
                    if hi[v] is None or bound < hi[v]:
                        hi[v] = bound
                        changed = True
                else:
                    bound = -((k - rest) // (-c))  # x >= ceil(R / c)
                    if lo[v] is None or bound > lo[v]:
                        lo[v] = bound
                        changed = True
                if lo[v] is not None and hi[v] is not None and lo[v] > hi[v]:
                    return None
        if not changed:
            break
    return {v: (lo[v], hi[v]) for v in variables}


def _search_box(ineqs: List[Tuple[dict, int]], nvars: int) -> int:
    # coefficient-magnitude bound: an integer solution, if any, exists
    # inside this box (Papadimitriou-style estimate, deliberately generous)
    m = max(len(ineqs), 1)
    a = 1
    for coeffs, const in ineqs:
        for c in coeffs.values():
            a = max(a, abs(c))
        a = max(a, abs(const))
    return (nvars + m + 2) * ((m + 2) * (a + 1)) ** (2 * m + 3)


def _dedupe(ineqs: List[Tuple[dict, int]]) -> List[Tuple[dict, int]]:
    seen = set()
    out = []
    for cs, k in ineqs:
        key = (tuple(sorted(cs.items())), k)
        if key not in seen:
            seen.add(key)
            out.append((cs, k))
    return out


def _drop_redundant(ineqs: List[Tuple[dict, int]],
                    bounds: dict) -> List[Tuple[dict, int]]:
    """Remove atoms whose interval maximum already satisfies them."""
    out = []
    for cs, k in ineqs:
        top = 0
        known = True
        for v, c in cs.items():
            b = bounds[v][1] if c > 0 else bounds[v][0]
            if b is None:
                known = False
                break
            top += c * b
        if not (known and top <= k):
            out.append((cs, k))
    return out


def _bb_solve(ineqs: List[Tuple[dict, int]],
              variables: List[str]) -> Optional[Dict[str, int]]:
    try:
        ineqs = _dedupe(_tighten(ineqs))
    except _Unsat:
        return None
    # if any integer solution exists, one exists inside this box; branches
    # are clamped to it so the search is well-founded, but the box stays out
    # of the LP itself (its huge constants would dominate the vertices)
    box = _search_box(ineqs, len(variables))
    nodes = 0
    stack: List[List[Tuple[dict, int]]] = [list(ineqs)]
    while stack:
        nodes += 1
        if nodes > _BB_NODE_CAP:
            raise ArithInternalError("branch-and-bound node cap exceeded")
        sys_ineqs = stack.pop()
        bounds = _propagate(sys_ineqs, variables)
        if bounds is None:
            continue
        # substitute interval-pinned variables and gcd-tighten the residue;
        # this catches implied equalities like 4(x - y) = c once c is
        # pinned, which neither per-atom tightening nor single-variable
        # propagation can see on its own
        pinned = {v: b[0] for v, b in bounds.items()
                  if b[0] is not None and b[0] == b[1]}
        residue: List[Tuple[dict, int]] = []
        dead = False
        for coeffs, k in sys_ineqs:
            cs = {v: c for v, c in coeffs.items() if v not in pinned}
            kk = k - sum(c * pinned[v]
                         for v, c in coeffs.items() if v in pinned)
            if not cs:
                if kk < 0:
                    dead = True
                    break
                continue
            residue.append((cs, kk))
        if dead:
            continue
        try:
            residue = _tighten(residue)
        except _Unsat:
            continue
        free = [v for v in variables if v not in pinned]
        if not free:
            return dict(pinned)
        bound_rows = [({v: 1}, bounds[v][1]) for v in free
                      if bounds[v][1] is not None]
        bound_rows += [({v: -1}, -bounds[v][0]) for v in free
                       if bounds[v][0] is not None]
        # rows already implied by the interval bounds only pad the tableau
        lp_rows = _dedupe(_drop_redundant(residue, bounds)) + bound_rows
        point = _lp_feasible(lp_rows, free)
        if point is None:
            continue
        cand = dict(pinned)
        cand.update((v, round(point[v])) for v in free)
        if all(sum(c * cand[v] for v, c in cs.items()) <= k
               for cs, k in sys_ineqs):
            return cand
        if all(point[v].denominator == 1 for v in free):
            # the tightened residue is integer-equivalent to the node, so
            # an integral residue point must satisfy it
            raise ArithInternalError("integral residue point rejected")
        # Branch preference: a fractional finite-interval variable, then any
        # unpinned finite-interval variable (pinning those arms the gcd
        # residue test), and only then an unbounded fractional one.
        finite = [v for v in free
                  if bounds[v][0] is not None and bounds[v][1] is not None]
        frac_finite = [v for v in finite if point[v].denominator != 1]
        if frac_finite:
            var = frac_finite[0]
            cut = math.floor(point[var])
        elif finite:
            var = finite[0]
            cut = (bounds[var][0] + bounds[var][1]) // 2
        else:
            var = next(v for v in free if point[v].denominator != 1)
            cut = math.floor(point[var])
        down, up = min(cut, box), max(cut + 1, -box)
        if down >= -box:
            stack.append(sys_ineqs + [({var: 1}, down)])
        if up <= box:
            stack.append(sys_ineqs + [({var: -1}, -up)])
    return None


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Reduced:
    """A conjunction of linear atoms with its equalities solved over the
    integers: the residual inequalities plus the substitutions, in
    elimination order, that express each eliminated variable in the rest.
    Never mutated, so one reduction can serve as the base of many."""
    atoms: tuple    # of LinAtom: what the reduction is equivalent to
    ineqs: tuple    # (coeffs, const) for sum(coeffs) <= const
    subs: tuple     # (var, (coeffs, const)) as from _eliminate_equalities


_NOTHING = _Reduced((), (), ())


def _reduce(atoms, fresh: _Fresh,
            base: _Reduced = _NOTHING) -> Optional[_Reduced]:
    """Reduce ``atoms`` conjoined with an already reduced ``base``, or None
    when the gcd tests refute them.  Only the new atoms are substituted
    and eliminated; ``base`` is left as it was."""
    atoms = tuple(dict.fromkeys(atoms))  # dedupe, order preserved
    eqs: List[Tuple[dict, int]] = []
    ineqs = list(base.ineqs)
    for a in atoms:
        cm, k = a.coeff_map(), a.const
        for var, expr in base.subs:
            cm, k = _subst_into(cm, k, var, expr)
        (eqs if a.kind == "eq" else ineqs).append((cm, k))
    try:
        ineqs, subs = _eliminate_equalities(eqs, ineqs, fresh)
    except _Unsat:
        return None
    return _Reduced(base.atoms + atoms, tuple(ineqs), base.subs + tuple(subs))


def solve_system(system: LinearSystem, base: _Reduced = _NOTHING,
                 fresh: Optional[_Fresh] = None) -> Optional[Dict[str, int]]:
    """Exact integer satisfiability for a conjunction of linear atoms,
    conjoined with ``base`` when one is given; ``fresh`` must then avoid
    every variable of both."""
    all_vars = {v for a in system.atoms + base.atoms for v, _ in a.coeffs}
    reduced = _reduce(system.atoms, fresh or _Fresh(set(all_vars)), base)
    if reduced is None:
        return None
    ineqs, subs = reduced.ineqs, reduced.subs
    live = sorted({v for cs, _ in ineqs for v in cs}
                  | {v for _, (cs, _) in subs for v in cs})
    model = {v: 0 for v in live}
    if ineqs:
        solved = _bb_solve(ineqs, sorted({v for cs, _ in ineqs for v in cs}))
        if solved is None:
            return None
        model.update(solved)
    for var, (cs, k) in reversed(subs):
        model[var] = sum(c * model.get(v, 0) for v, c in cs.items()) + k
    for v in all_vars:
        model.setdefault(v, 0)
    # soundness re-check under exact evaluation
    for a in reduced.atoms:
        lhs = sum(c * model[v] for v, c in a.coeffs)
        ok = lhs == a.const if a.kind == "eq" else lhs <= a.const
        if not ok:
            raise ArithInternalError(f"model fails atom {a}")
    return model


def quick_unsat(atoms) -> bool:
    """Cheap certain-unsatisfiability test: equality elimination, gcd
    tightening and interval propagation, but no simplex.  True means the
    conjunction definitely has no integer solution; False decides
    nothing.  Used where the full procedure would be too expensive."""
    try:
        systems = lower(atoms)
    except ArithInternalError:
        return False
    for system in systems:
        try:
            reduced = _reduce(system.atoms, _Fresh(set()))
            if reduced is None:
                continue
            ineqs = _tighten(reduced.ineqs)
        except _Unsat:
            continue
        except ArithInternalError:
            return False
        variables = sorted({v for cs, _ in ineqs for v in cs})
        if _propagate(ineqs, variables) is not None:
            return False
    return True


def arith_sat(atoms) -> Optional[Dict[str, int]]:
    """SAT with an integer witness, or None for UNSAT.  The witness covers
    every variable of the input atoms (auxiliary lowering variables are
    stripped)."""
    wanted = vars_of_atoms(atoms)
    for system in lower(atoms):
        model = solve_system(system)
        if model is not None:
            out = {v: model.get(v, 0) for v in wanted}
            for a in atoms:
                if not eval_atom(a, out):
                    raise ArithInternalError(f"witness fails input atom {a}")
            return out
    return None


def _negate(atom: ArithAtom) -> List[ArithAtom]:
    if atom.kind == "le":
        return [atom_le(AAdd(atom.rhs, AInt(1)), atom.lhs)]
    return [atom_le(AAdd(atom.lhs, AInt(1)), atom.rhs),
            atom_le(AAdd(atom.rhs, AInt(1)), atom.lhs)]


class Hypothesis:
    """A conjunction prepared for repeated satisfiability queries.

    Preparation is lazy and happens once: the first query lowers the atoms
    and eliminates the equalities of each resulting linear system.  A
    hypothesis made by ``extend`` instead prepares its parent and then
    lowers and reduces only its own new atoms on top of each of the
    parent's reduced systems, so a chain of extensions costs each link its
    delta.  The lowering memo and fresh-name source are kept (an extension
    works on copies of its parent's), so a later atom that mentions a
    ``mod``/``max``/``min`` subterm already lowered reuses its auxiliary
    variables (the same sharing ``lower`` does within one call), fresh
    names avoid every atom seen so far, and two extensions of one parent
    never see each other's names.
    """

    def __init__(self, atoms) -> None:
        self.atoms = list(atoms)
        self._parent: Optional[Hypothesis] = None
        self._delta: List[ArithAtom] = []
        self._fresh: Optional[_Fresh] = None
        self._memo: dict = {}
        self._lowered = 0
        self._systems: List[_Reduced] = []

    @cached_property
    def stated(self) -> set:
        return set(self.atoms)

    def extend(self, atoms) -> "Hypothesis":
        """The hypothesis for this conjunction and ``atoms``; nothing is
        lowered until it is queried."""
        delta = list(atoms)
        child = Hypothesis(self.atoms + delta)
        child._parent, child._delta = self, delta
        return child

    def _prepare(self, extra_vars: set) -> None:
        """Make fresh names avoid ``extra_vars``, the variables of atoms
        about to be conjoined.  The first call lowers and reduces the
        hypothesis, on top of its parent's systems where it has a parent;
        it, or a later call, starts from scratch when the new variables
        include an auxiliary name already issued, since that name would
        then mean two things."""
        if self._fresh is not None:
            if extra_vars & self._fresh.issued:
                self._rebuild(extra_vars)
            else:
                self._fresh.taken |= extra_vars
            return
        chain = [self]  # with its unprepared ancestors, prepared top-down
        while chain[-1]._parent is not None \
                and chain[-1]._parent._fresh is None:
            chain.append(chain[-1]._parent)
        for hyp in reversed(chain):
            new_vars = vars_of_atoms(hyp._delta)
            if hyp is self:
                new_vars |= extra_vars
            parent = hyp._parent
            if parent is not None and not new_vars & parent._fresh.issued:
                hyp._grow(new_vars)
            else:
                hyp._rebuild(new_vars)

    def _grow(self, new_vars: set) -> None:
        # lower and reduce only the delta on top of the prepared parent
        parent = self._parent
        fresh = _Fresh(parent._fresh.taken | new_vars)
        fresh.n, fresh.issued = parent._fresh.n, set(parent._fresh.issued)
        memo = dict(parent._memo)
        branches = lower(self._delta, fresh, memo)
        _check_cap(parent._lowered * len(branches))
        reduced = [_reduce(b.atoms, fresh, base)
                   for base in parent._systems for b in branches]
        self._fresh, self._memo = fresh, memo
        self._lowered = parent._lowered * len(branches)
        self._systems = [r for r in reduced if r is not None]
        self._parent = None

    def _rebuild(self, extra_vars: set) -> None:
        # lower and reduce every atom from scratch
        taken = vars_of_atoms(self.atoms) | extra_vars
        if self._fresh is not None:
            taken |= self._fresh.taken
        fresh, memo = _Fresh(taken), {}
        systems = lower(self.atoms, fresh, memo)
        reduced = [_reduce(s.atoms, fresh) for s in systems]
        self._fresh, self._memo, self._lowered = fresh, memo, len(systems)
        self._systems = [r for r in reduced if r is not None]
        self._parent = None

    def consistent_with(self, atoms) -> bool:
        """Whether the hypothesis and ``atoms`` have a common integer
        solution: only ``atoms`` are lowered, substituted through each
        reduced hypothesis system and handed to branch and bound.  A
        solution found is checked against every atom of both."""
        atoms = list(atoms)
        self._prepare(vars_of_atoms(atoms))
        branches = lower(atoms, self._fresh, self._memo)
        _check_cap(self._lowered * len(branches))
        for base in self._systems:
            for branch in branches:
                model = solve_system(branch, base, self._fresh)
                if model is not None:
                    env = defaultdict(int, model)
                    for a in self.atoms + atoms:
                        if not eval_atom(a, env):
                            raise ArithInternalError(
                                f"witness fails input atom {a}")
                    return True
        return False


def arith_implies(hyp, concl) -> bool:
    """hyp entails every atom of concl (checked by refuting each negation).

    ``hyp`` is a list of atoms or a ``Hypothesis``; passing one
    ``Hypothesis`` to several calls lowers and reduces it once for all of
    them.  A conclusion atom the hypothesis states literally is entailed
    without solving; each other atom costs one branch-and-bound run per
    negation disjunct and hypothesis system.
    """
    if not isinstance(hyp, Hypothesis):
        hyp = Hypothesis(hyp)
    open_atoms = [a for a in concl if a not in hyp.stated]
    return not any(hyp.consistent_with([neg])
                   for atom in open_atoms for neg in _negate(atom))
