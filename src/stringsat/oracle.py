"""Reference semantics and bounded brute-force model search.

The evaluator is the ground truth every other component is tested against;
the brute-force search is deliberately simple (enumerate, evaluate) apart
from one exact pruning step on word-length profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from . import regexes
from .terms import (AAdd, AInt, ALen, AMax, AMod, ANeg, AScale, AVar,
                    ArithExpr, CChar, FAnd, FAtom, FEq, FIn, FNot,
                    FOr, Formula, Model, NonConstantDivisorError, SPred, SVar,
                    Term, formula_chars, formula_int_vars, formula_len_vars,
                    formula_string_vars, to_dnf)


class UnassignedVariableError(Exception):
    pass


@dataclass(frozen=True)
class Bound:
    """Search limits: per-variable word length, absolute integer size."""

    max_word_len: int
    max_int: int = 8

    def __post_init__(self) -> None:
        if self.max_word_len < 0 or self.max_int < 0:
            raise ValueError("bounds must be non-negative")


def _word_of(term: Term, strings: dict, side: list) -> str:
    """Concrete word denoted by a term; records the length conditions of
    any string-predicate atoms it contains."""
    parts = []
    for a in term:
        if isinstance(a, CChar):
            parts.append(a.char)
        elif isinstance(a, SVar):
            if a.name not in strings:
                raise UnassignedVariableError(a.name)
            parts.append(strings[a.name])
        else:
            if a.var not in strings:
                raise UnassignedVariableError(a.var)
            parts.append(strings[a.var])
            side.append((a.var, a.length))
    return "".join(parts)


def _eval_arith(e: ArithExpr, strings: dict, ints: dict) -> int:
    if isinstance(e, AInt):
        return e.value
    if isinstance(e, AVar):
        if e.name not in ints:
            raise UnassignedVariableError(e.name)
        return ints[e.name]
    if isinstance(e, ALen):
        if e.var not in strings:
            raise UnassignedVariableError(e.var)
        return len(strings[e.var])
    if isinstance(e, AScale):
        return e.factor * _eval_arith(e.inner, strings, ints)
    if isinstance(e, ANeg):
        return -_eval_arith(e.inner, strings, ints)
    if isinstance(e, AAdd):
        return (_eval_arith(e.left, strings, ints)
                + _eval_arith(e.right, strings, ints))
    if isinstance(e, AMod):
        d = _eval_arith(e.right, strings, ints)
        if d <= 0:
            raise NonConstantDivisorError(f"mod divisor {d}")
        return _eval_arith(e.left, strings, ints) % d
    if isinstance(e, AMax):
        return max(_eval_arith(e.left, strings, ints),
                   _eval_arith(e.right, strings, ints))
    return min(_eval_arith(e.left, strings, ints),
               _eval_arith(e.right, strings, ints))


def eval_formula(f: Formula, m: Model, alphabet: Iterable[str]) -> bool:
    """Structural truth of a formula under a model; exact everywhere."""
    sigma = tuple(sorted(set(alphabet)))
    strings, ints = m.string_map(), m.int_map()

    def go(f: Formula) -> bool:
        if isinstance(f, FEq):
            side: list = []
            lw = _word_of(f.lhs, strings, side)
            rw = _word_of(f.rhs, strings, side)
            if lw != rw:
                return False
            return all(_len_ok(v, n) for v, n in side)
        if isinstance(f, FIn):
            side = []
            w = _word_of(f.term, strings, side)
            if not all(_len_ok(v, n) for v, n in side):
                return False
            return regexes.accepts(regexes.compiled(f.regex, sigma), w)
        if isinstance(f, FAtom):
            a = f.atom
            l = _eval_arith(a.lhs, strings, ints)
            r = _eval_arith(a.rhs, strings, ints)
            return l == r if a.kind == "eq" else l <= r
        if isinstance(f, FNot):
            return not go(f.inner)
        if isinstance(f, FAnd):
            return all(go(x) for x in f.items)
        if isinstance(f, FOr):
            return any(go(x) for x in f.items)
        raise TypeError(f"not a formula: {f!r}")

    def _len_ok(var: str, lenvar: str) -> bool:
        if lenvar not in ints:
            raise UnassignedVariableError(lenvar)
        return len(strings[var]) == ints[lenvar]

    return go(f)


# ---------------------------------------------------------------------------
# Brute-force search
# ---------------------------------------------------------------------------

def _pred_pairs(f: Formula) -> List[Tuple[str, str]]:
    out: list = []

    def scan_term(t: Term) -> None:
        for a in t:
            if isinstance(a, SPred):
                out.append((a.var, a.length))

    def go(f: Formula) -> None:
        if isinstance(f, FEq):
            scan_term(f.lhs)
            scan_term(f.rhs)
        elif isinstance(f, FIn):
            scan_term(f.term)
        elif isinstance(f, FNot):
            go(f.inner)
        elif isinstance(f, (FAnd, FOr)):
            for x in f.items:
                go(x)

    go(f)
    return out


def _length_filters(disjunct: tuple, sigma: tuple):
    """Per-disjunct length-level necessary conditions, used to prune whole
    length profiles before any word is enumerated."""
    checks = []
    for leaf in disjunct:
        if isinstance(leaf, FEq):
            checks.append(("eq", _term_len(leaf.lhs), _term_len(leaf.rhs)))
        elif isinstance(leaf, FIn):
            ls = regexes.length_set(regexes.compiled(leaf.regex, sigma))
            checks.append(("in", _term_len(leaf.term), ls))
    return checks


def _term_len(t: Term) -> Tuple[int, Tuple[str, ...]]:
    const = sum(1 for a in t if isinstance(a, CChar))
    names = tuple(a.name if isinstance(a, SVar) else a.var
                  for a in t if not isinstance(a, CChar))
    return const, names


def _profile_ok(checks, lens: dict) -> bool:
    for kind, left, rest in checks:
        lval = left[0] + sum(lens[v] for v in left[1])
        if kind == "eq":
            rval = rest[0] + sum(lens[v] for v in rest[1])
            if lval != rval:
                return False
        else:
            if not rest.contains(lval):
                return False
    return True


def _words_of_len(sigma: tuple, n: int) -> Iterator[str]:
    if n == 0:
        yield ""
        return
    for tup in itertools.product(sigma, repeat=n):
        yield "".join(tup)


def _profiles(nvars: int, max_len: int) -> Iterator[tuple]:
    # ascending total length, then lexicographic
    for total in range(nvars * max_len + 1):
        for prof in _compositions(total, nvars, max_len):
            yield prof


def _compositions(total: int, k: int, cap: int) -> Iterator[tuple]:
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, k - 1, cap):
            yield (first,) + rest


def brute_force_solve(f: Formula, alphabet: Iterable[str], b: Bound,
                      extra_str_vars: Iterable[str] = (),
                      extra_int_vars: Iterable[str] = ()) -> Optional[Model]:
    """Exhaustive search for a model with per-variable word lengths and
    integer magnitudes within the bound; None means none exists there.

    Enumeration order is fixed (total length, then lexicographic profiles,
    then lexicographic words, then ascending integers), so the first model
    is deterministic.  Integer variables naming predicate lengths are
    derived from the word assignment instead of being enumerated.
    """
    sigma = tuple(sorted(set(alphabet) | formula_chars(f)))
    svars = sorted(formula_string_vars(f) | formula_len_vars(f)
                   | set(extra_str_vars))
    pred_pairs = _pred_pairs(f)
    derived = {length: var for var, length in pred_pairs}
    ivars = sorted((formula_int_vars(f) | set(extra_int_vars)) - set(derived))
    dnf = to_dnf(f)
    filters = [_length_filters(d, sigma) for d in dnf]

    nvars = len(svars)
    for prof in _profiles(nvars, b.max_word_len if sigma else 0):
        lens = dict(zip(svars, prof))
        if filters and not any(_profile_ok(ck, lens) for ck in filters):
            continue
        for words in itertools.product(*(_words_of_len(sigma, lens[v])
                                         for v in svars)):
            strings = dict(zip(svars, words))
            ints = {lv: len(strings[var]) for lv, var in derived.items()
                    if var in strings}
            for ivals in itertools.product(
                    range(-b.max_int, b.max_int + 1), repeat=len(ivars)):
                full = dict(ints)
                full.update(zip(ivars, ivals))
                model = Model.make(strings, full)
                if eval_formula(f, model, sigma):
                    return model
    return None
