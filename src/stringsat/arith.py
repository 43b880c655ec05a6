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

Auxiliary variables are named ``$q<n>``, ``$r<n>``, ``$v<n>`` (lowering)
and ``$s<n>`` (equality elimination), a namespace reserved for them:
``lower``, which every atom passes before it reaches a linear system,
raises ArithInternalError on an input atom naming a variable in it.

A ``Hypothesis`` keeps one conjunction lowered and reduced for many
queries, and ``extend`` derives the state of a larger conjunction from it
by lowering and reducing only the added atoms; a root is prepared the same
way, on top of the empty conjunction.  The search keeps one per
node of its unfolding tree, extended from the parent's, because a node's
arithmetic is always its parent's plus the few atoms its unfolding added.
Each also carries a witness, the model of its last satisfiable query,
which also stands for every ancestor that has none; a child whose added
atoms hold once the witness is extended through their definitional
equalities (``$n5 = $n3 - 1``) is satisfiable with no lowering at all.
That extension only adds bindings and never overwrites one.
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
                    atom_eq, eval_arith, eval_atom, fold_balanced, negate,
                    vars_of_atoms)


class ArithInternalError(Exception):
    """A broken invariant; never reported as a verdict."""


class CapExceeded(Exception):
    """A resource cap stopped a decision; the search gives the leaf up."""


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
        raise CapExceeded("case split explosion in lowering")


_RESERVED = ("$q", "$r", "$s", "$v")  # the auxiliaries' namespace


class _Fresh:
    """Auxiliary names in the reserved namespace, on one counter."""

    def __init__(self, n: int = 0) -> None:
        self.n = n

    def __call__(self, prefix: str) -> str:
        self.n += 1
        return f"${prefix}{self.n - 1}"


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
    conjoined.  An input atom naming a variable in the reserved namespace
    raises ArithInternalError.

    An atom without mod/max/min is linear as it stands and is converted
    directly: it has one branch, issues no fresh name, and its subterms
    would only enter the memo with themselves as their encoding.
    """
    for v in vars_of_atoms(atoms):
        if v.startswith(_RESERVED):
            raise ArithInternalError(f"input variable {v} is reserved")
    fresh = fresh or _Fresh()
    memo = {} if memo is None else memo
    systems: List[tuple] = [()]
    for a in atoms:
        try:
            branches = [(_mk_linatom(a.kind, a.lhs, a.rhs),)]
        except ValueError:  # a mod/max/min (or a stray length) inside
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
    # ineqs come from _normalize: tightened, with no two rows parallel
    # if any integer solution exists, one exists inside this box; branches
    # are clamped to it so the search is well-founded, but the box stays out
    # of the LP itself (its huge constants would dominate the vertices)
    box = _search_box(ineqs, len(variables))
    nodes = 0
    stack: List[List[Tuple[dict, int]]] = [list(ineqs)]
    while stack:
        nodes += 1
        if nodes > _BB_NODE_CAP:
            raise CapExceeded("branch-and-bound node cap exceeded")
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
        arms = []
        if down >= -box:
            arms.append(({var: 1}, down))
        if up <= box:
            arms.append(({var: -1}, -up))
        # pop the arm toward zero first, where the L1-minimal LP point
        # leans; taking the up arm first climbs forever on
        # 1 <= a - b - 3q <= 2, a = 3k over the non-negatives, whose
        # model k = 1, b = 1, q = 0 lies below
        if point[var] >= 0:
            arms.reverse()
        stack += [sys_ineqs + [row] for row in arms]
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


def _normalize(ineqs: List[Tuple[dict, int]], fresh: _Fresh):
    """Normalize inequalities as the Omega test does, until nothing
    changes: gcd-tighten every row, keep the tightest of parallel rows,
    refute an opposite pair c.x <= k1, -c.x <= k2 with k1 + k2 < 0, and
    turn one with k1 + k2 = 0 into the equality c.x = k1 and eliminate
    it.  Branch and bound cannot see such an implied equality, and climbs
    the unbounded variables around it instead.  Returns (inequalities,
    substitutions added); raises _Unsat.  Each round that finds an
    equality eliminates a variable, so the loop ends."""
    subs: List[Tuple[str, Tuple[dict, int]]] = []
    while True:
        tightest: Dict[tuple, Tuple[dict, int]] = {}
        for cs, k in _tighten(ineqs):
            key = tuple(sorted(cs.items()))
            if key not in tightest or k < tightest[key][1]:
                tightest[key] = (cs, k)
        eqs = []
        for key, (cs, k) in tightest.items():
            opposite = tightest.get(tuple((v, -c) for v, c in key))
            if opposite is not None:
                if k + opposite[1] < 0:
                    raise _Unsat()
                if k + opposite[1] == 0 and key[0][1] > 0:
                    eqs.append((cs, k))
        ineqs = list(tightest.values())
        if not eqs:
            return ineqs, subs
        # the pair's own rows reduce to 0 <= 0 and drop out next round
        ineqs, new_subs = _eliminate_equalities(eqs, ineqs, fresh)
        subs += new_subs


def solve_system(system: LinearSystem, base: _Reduced = _NOTHING,
                 fresh: Optional[_Fresh] = None) -> Optional[Dict[str, int]]:
    """Exact integer satisfiability for a conjunction of linear atoms,
    conjoined with ``base`` when one is given; ``fresh`` is the name
    source ``base`` was reduced with."""
    all_vars = {v for a in system.atoms + base.atoms for v, _ in a.coeffs}
    fresh = fresh or _Fresh()
    reduced = _reduce(system.atoms, fresh, base)
    if reduced is None:
        return None
    try:
        ineqs, implied = _normalize(list(reduced.ineqs), fresh)
    except _Unsat:
        return None
    subs = reduced.subs + tuple(implied)
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
    nothing.  Its only caller is under-approximation, which runs it on
    each candidate system before solving that system in full."""
    fresh = _Fresh()  # lowering and elimination number from one counter
    try:
        systems = lower(atoms, fresh)
    except CapExceeded:
        return False
    for system in systems:
        try:
            reduced = _reduce(system.atoms, fresh)
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
    for system in lower(atoms):
        model = solve_system(system)
        if model is not None:
            out = {v: model.get(v, 0) for v in vars_of_atoms(atoms)}
            for a in atoms:
                if not eval_atom(a, out):
                    raise ArithInternalError(f"witness fails input atom {a}")
            return out
    return None


class Hypothesis:
    """A conjunction prepared for repeated satisfiability queries.

    Preparation is lazy, happens once and takes one path: the first
    query prepares each unprepared link of the ``extend`` chain top-down,
    each lowering and reducing only its own atoms on top of each of its
    parent's reduced systems (a root's parent is the empty conjunction,
    ``_EMPTY``), so a chain costs each link its delta.  The lowering memo
    and fresh-name counter are kept (an extension works on copies of its
    parent's), so a later atom that mentions a ``mod``/``max``/``min``
    subterm already lowered reuses its auxiliary variables (the same
    sharing ``lower`` does within one call), and two extensions of one
    parent never see each other's names.  ``lower`` refuses an atom
    naming a variable in the reserved namespace (``$q``, ``$r``, ``$s``,
    ``$v``) once the atom is lowered; a query that a carried witness
    answers is only evaluated, and an evaluation that holds is a model
    whatever the names mean.

    A hypothesis also keeps a witness: the integer model of its last
    satisfiable query, which binds every variable of its atoms.  The
    model is recorded on the queried hypothesis and on each ancestor up
    the ``extend`` chain that has none yet, since it satisfies every
    prefix of the atoms.  A query first tries the nearest witness up the
    chain: it binds each variable that an added ``eq`` atom ``v = e``
    defines and the witness leaves unbound, then evaluates the atoms
    added since the witness's hypothesis and the query.  The extension
    only adds bindings and never overwrites one, so the atoms the witness
    already satisfies still hold, and when the rest hold too the query is
    satisfiable without lowering anything.
    """

    def __init__(self, atoms) -> None:
        self.atoms = self._delta = list(atoms)
        self._parent: Optional[Hypothesis] = None
        self._fresh: Optional[_Fresh] = None
        self._memo: dict = {}
        self._lowered = 0
        self._systems: List[_Reduced] = []
        self._witness: Optional[dict] = None

    @cached_property
    def stated(self) -> set:
        return set(self.atoms)

    def extend(self, atoms) -> "Hypothesis":
        """The hypothesis for this conjunction and ``atoms``; nothing is
        lowered until it is queried."""
        child = Hypothesis(atoms)
        child.atoms, child._parent = self.atoms + child._delta, self
        return child

    def _prepare(self) -> None:
        """Lower and reduce each unprepared link from the top of the chain
        down to this one, each its delta on top of its parent's systems."""
        chain, hyp = [], self
        while hyp is not None and hyp._fresh is None:
            chain.append(hyp)
            hyp = hyp._parent
        for hyp in reversed(chain):
            parent = hyp._parent or _EMPTY
            fresh, memo = _Fresh(parent._fresh.n), dict(parent._memo)
            branches = lower(hyp._delta, fresh, memo)
            _check_cap(parent._lowered * len(branches))
            reduced = [_reduce(b.atoms, fresh, base)
                       for base in parent._systems for b in branches]
            hyp._fresh, hyp._memo = fresh, memo
            hyp._lowered = parent._lowered * len(branches)
            hyp._systems = [r for r in reduced if r is not None]

    def _carried(self, atoms) -> Optional[dict]:
        """The nearest witness up the chain, extended through the
        definitional equalities added since, if it satisfies every atom
        added since and ``atoms``; else None."""
        added = []
        hyp = self
        while hyp._witness is None:
            if hyp._parent is None:
                return None
            added[:0] = hyp._delta
            hyp = hyp._parent
        env = defaultdict(int, hyp._witness)  # a read binds an unbound 0
        for a in added:
            if a.kind == "eq" and isinstance(a.lhs, AVar) \
                    and a.lhs.name not in env:
                value = eval_arith(a.rhs, env)
                env.setdefault(a.lhs.name, value)  # unless e mentions v
        if all(eval_atom(a, env) for a in added + atoms):
            return env
        return None

    def model(self) -> Optional[dict]:
        """An integer model of the hypothesis without solving anything:
        the nearest witness up the chain, extended through the
        definitional equalities added since and checked against every
        atom added since (an unbound variable reads 0), or None when no
        witness is known or the extension fails.  After a satisfiable
        query it is that query's model."""
        return self._carried([])

    def _record(self, env: dict) -> None:
        self._witness = env
        hyp = self._parent
        while hyp is not None and hyp._witness is None:
            hyp._witness = env
            hyp = hyp._parent

    def consistent_with(self, atoms) -> bool:
        """Whether the hypothesis and ``atoms`` have a common integer
        solution.  A carried witness that satisfies them answers at once;
        otherwise only ``atoms`` are lowered, substituted through each
        reduced hypothesis system and handed to branch and bound.  A
        solution found is checked against every atom of both."""
        atoms = list(atoms)
        env = self._carried(atoms)
        if env is not None:
            self._record(env)
            return True
        self._prepare()
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
                    self._record(env)
                    return True
        return False


_EMPTY = Hypothesis(())  # every root's parent: one system, reduced to nothing
_EMPTY._fresh, _EMPTY._lowered, _EMPTY._systems = _Fresh(), 1, [_NOTHING]


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
                   for atom in open_atoms for neg in negate(atom))


def project(atoms, dead: set) -> Optional[tuple]:
    """Atoms equivalent over the integers to ``atoms`` with the ``dead``
    variables existentially quantified, or None where this elimination
    is not exact.

    Atoms without a dead variable come back as they are, in order; the
    others must be linear (a dead variable inside mod/max/min gives None),
    and what is left of them follows.  Variables are eliminated one at a
    time, each time by the first of these rules that applies to some dead
    variable, as in Pugh's Omega test: substitute it from an equality where
    its coefficient is ±1; drop its rows when all of them bound it on one
    side; combine each lower with each upper bound (Fourier–Motzkin) when
    every lower or every upper coefficient is ±1, where the real shadow is
    the integer one.  None when no rule applies: a dead variable with only
    non-unit equalities, or with non-unit bounds on both sides."""
    kept, rows = [], []
    for a in atoms:
        if dead.isdisjoint(vars_of_atoms((a,))):
            kept.append(a)
            continue
        try:
            lin = _mk_linatom(a.kind, a.lhs, a.rhs)
        except ValueError:
            return None
        rows.append((lin.kind, lin.coeff_map(), lin.const))
    while True:
        left = sorted({v for _, cs, _ in rows for v in cs} & dead)
        if not left:
            break
        rows = _eliminate_one(rows, left)
        if rows is None:
            return None
    derived = {}
    for kind, cs, k in rows:
        if not cs and (k == 0 if kind == "eq" else k >= 0):
            continue  # holds outright
        parts = [AVar(v) if c == 1 else AScale(c, AVar(v))
                 for v, c in sorted(cs.items())]
        lhs = fold_balanced(AAdd, parts) if parts else AInt(0)
        derived[ArithAtom(kind, lhs, AInt(k))] = None
    return tuple(kept) + tuple(derived)


def _eliminate_one(rows: list, candidates: list) -> Optional[list]:
    """``rows`` (kind, coeffs, const) with one of the candidate variables
    eliminated exactly by the first rule of ``project`` that applies to
    any of them, or None."""
    for v in candidates:
        for kind, cs, k in rows:
            if kind == "eq" and abs(cs.get(v, 0)) == 1:
                c = cs[v]
                expr = ({u: -cu * c for u, cu in cs.items() if u != v}, k * c)
                # the equality itself becomes 0 = 0
                return [(kind2, *_subst_into(cs2, k2, v, expr))
                        for kind2, cs2, k2 in rows]
    bounds = {}
    for v in candidates:
        occ = [r for r in rows if v in r[1]]
        if all(kind == "le" for kind, _, _ in occ):
            bounds[v] = ([r for r in occ if r[1][v] < 0],
                         [r for r in occ if r[1][v] > 0])
    for v, (lower, upper) in bounds.items():
        if not lower or not upper:
            return [r for r in rows if v not in r[1]]
    for v, (lower, upper) in bounds.items():
        if all(cs[v] == -1 for _, cs, _ in lower) or \
                all(cs[v] == 1 for _, cs, _ in upper):
            out = [r for r in rows if v not in r[1]]
            for _, lc, lk in lower:
                for _, uc, uk in upper:
                    # b.v >= lower part and a.v <= upper part
                    a, b = uc[v], -lc[v]
                    cs = {u: b * uc.get(u, 0) + a * lc.get(u, 0)
                          for u in lc.keys() | uc.keys() if u != v}
                    out.append(("le", {u: c for u, c in cs.items() if c},
                                b * uk + a * lk))
            return out
    return None
