"""Seeded problem generators for the three benchmark workloads.

Standard library only: the generators never import the solver, so the
solver sees nothing but the problem text they produce and a change to the
solver cannot change a corpus.  Every draw comes from one
``random.Random`` seeded with ``"<workload>:<seed>"``, so a seed always
gives the same corpus.

Shapes are kept inside their intended fragment by construction, not by
asking the classifier:

* acyclic systems are linear equations whose variable/equation incidence
  graph is a forest (each new equation shares at most one variable with
  the earlier ones), which rules out dependency-graph cycles;
* one-cycle problems are a single equation with one variable occurring
  once on each side and every other variable occurring once, plus
  periodic length atoms (``mod`` by a constant, ``<=`` or ``=`` a
  constant).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

# A corpus is a list of (problem id, SMT text) pairs.
Corpus = List[Tuple[str, str]]

# ---------------------------------------------------------------------------
# Text helpers
# ---------------------------------------------------------------------------


def _lit(s: str) -> str:
    return f'"{s}"'


def _cat(parts: List[str]) -> str:
    """A string term: a literal, a variable, or a ``str.++`` of them."""
    if not parts:
        return '""'
    if len(parts) == 1:
        return parts[0]
    return "(str.++ " + " ".join(parts) + ")"


def _side(atoms: List[str]) -> List[str]:
    """Merge runs of single characters into literals; keep variables."""
    out: List[str] = []
    run = ""
    for a in atoms:
        if a.startswith("#"):
            run += a[1:]
        else:
            if run:
                out.append(_lit(run))
                run = ""
            out.append(a)
    if run:
        out.append(_lit(run))
    return out


def _eq(lhs: List[str], rhs: List[str]) -> str:
    return f"(= {_cat(_side(lhs))} {_cat(_side(rhs))})"


def _len(v: str) -> str:
    return f"(str.len {v})"


def _problem(str_vars: List[str], chars: str, asserts: List[str]) -> str:
    lines = [f"(declare-str {v})" for v in str_vars]
    lines.append(f"(declare-chars {_lit(chars)})")
    lines += [f"(assert {a})" for a in asserts]
    return "\n".join(lines) + "\n"


def _word(rng: random.Random, chars: str, n: int) -> str:
    return "".join(rng.choice(chars) for _ in range(n))


# ---------------------------------------------------------------------------
# Regexes
# ---------------------------------------------------------------------------


def _tame_regex(rng: random.Random, chars: str, depth: int) -> str:
    """Concatenation, union and star over short words."""
    if depth <= 0 or rng.random() < 0.4:
        return f"(str.to_re {_lit(_word(rng, chars, rng.randint(1, 2)))})"
    op = rng.random()
    if op < 0.4:
        return (f"(re.++ {_tame_regex(rng, chars, depth - 1)} "
                f"{_tame_regex(rng, chars, depth - 1)})")
    if op < 0.7:
        return (f"(re.union {_tame_regex(rng, chars, depth - 1)} "
                f"{_tame_regex(rng, chars, depth - 1)})")
    return f"(re.* {_tame_regex(rng, chars, depth - 1)})"


def _nested_regex(rng: random.Random, chars: str, depth: int) -> str:
    """Any regex operator, with intersection, complement and star nested."""
    if depth <= 0 or rng.random() < 0.25:
        return f"(str.to_re {_lit(_word(rng, chars, rng.randint(1, 2)))})"
    op = rng.random()
    sub = lambda: _nested_regex(rng, chars, depth - 1)  # noqa: E731
    if op < 0.25:
        return f"(re.inter {sub()} {sub()})"
    if op < 0.45:
        return f"(re.comp {sub()})"
    if op < 0.65:
        return f"(re.* {sub()})"
    if op < 0.85:
        return f"(re.++ {sub()} {sub()})"
    return f"(re.union {sub()} {sub()})"


# ---------------------------------------------------------------------------
# Acyclic systems (shared by `fragments` and `memberships`)
# ---------------------------------------------------------------------------

_POOL = ["x", "y", "z", "u", "v", "w"]


def _acyclic_system(rng: random.Random, chars: str, n_eqs: int,
                    max_size: int, max_side_vars: int, n_names: int,
                    planted: bool
                    ) -> Tuple[List[str], List[str], Dict[str, str]]:
    """``n_eqs`` linear equations whose incidence graph is a forest, with
    at most ``max_side_vars`` variables on a side and ``n_names`` variables
    in all.

    With ``planted`` every equation is built to hold under one random
    assignment, so the system is satisfiable and the search has to reach
    base leaves; otherwise the literals are random and most draws clash.
    Returns the variables used, the equation assertions and the planted
    assignment."""
    fresh = rng.sample(_POOL, n_names)
    used: List[str] = []
    value: Dict[str, str] = {}
    eqs: List[str] = []
    for _ in range(n_eqs):
        size = rng.randint(2, max_size)
        n_vars = rng.randint(1, min(max_side_vars, size))
        vs: List[str] = []
        if used and rng.random() < 0.6:
            vs.append(rng.choice(used))
        while len(vs) < n_vars and fresh:
            vs.append(fresh.pop())
        for v in vs:
            if v not in used:
                used.append(v)
            value.setdefault(v, _word(rng, chars, rng.randint(0, 2)))
        lhs = vs + ["#" + rng.choice(chars) for _ in range(size - len(vs))]
        rng.shuffle(lhs)
        if planted:
            rhs = _planted_side(rng, "".join(
                value[a] if a in value else a[1:] for a in lhs),
                fresh[:max_side_vars], fresh, used, value)
        else:
            cut = rng.randint(0, len(lhs))
            lhs, rhs = lhs[:cut], lhs[cut:]
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        eqs.append(_eq(lhs, rhs))
    return used, eqs, value


def _planted_side(rng: random.Random, target: str, names: List[str],
                  fresh: List[str], used: List[str],
                  value: Dict[str, str]) -> List[str]:
    """A side that spells ``target`` with some of ``names`` (taken from
    ``fresh``) standing for disjoint factors of it and literal characters
    elsewhere."""
    k = rng.randint(0, len(names))
    cuts = sorted(rng.randint(0, len(target)) for _ in range(2 * k))
    out: List[str] = []
    pos = 0
    for i in range(k):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        out += ["#" + c for c in target[pos:lo]]
        v = names[i]
        fresh.remove(v)
        used.append(v)
        value[v] = target[lo:hi]
        out.append(v)
        pos = hi
    out += ["#" + c for c in target[pos:]]
    return out


def _periodic_atom(rng: random.Random, v: str) -> str:
    style = rng.random()
    if style < 0.45:
        p = rng.choice([2, 2, 3])
        return f"(= (mod {_len(v)} {p}) {rng.randrange(p)})"
    if style < 0.75:
        return f"(<= {_len(v)} {rng.randint(0, 7)})"
    return f"(= {_len(v)} {rng.randint(0, 6)})"


# ---------------------------------------------------------------------------
# Workload: fragments
# ---------------------------------------------------------------------------


def _fragment_acyclic(rng: random.Random, chars: str, n_eqs: int,
                      planted: bool) -> str:
    used, asserts, _ = _acyclic_system(rng, chars, n_eqs, max_size=7,
                                       max_side_vars=2 if planted else 3,
                                       n_names=5,
                                       planted=planted)
    for v in used:
        if rng.random() < 0.25:
            asserts.append(_periodic_atom(rng, v))
    if rng.random() < 0.25:
        v = rng.choice(used)
        asserts.append(f"(str.in_re {v} {_tame_regex(rng, chars, 2)})")
    return _problem(used, chars, asserts)


def _fragment_one_cycle(rng: random.Random) -> str:
    chars = "ab"
    k1 = rng.randint(0, 4)
    k2 = rng.randint(0, 4)
    lhs = ["#" + c for c in _word(rng, chars, k1)] + ["s"]
    rhs = ["s"] + ["#" + c for c in _word(rng, chars, k2)]
    str_vars = ["s"]
    if rng.random() < 0.3:
        str_vars.append("t")
        if rng.random() < 0.5:
            lhs = lhs + ["t"]
        else:
            rhs = ["t"] + rhs
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    asserts = [_eq(lhs, rhs),
               f"(str.in_re s {_tame_regex(rng, chars, 2)})",
               _periodic_atom(rng, "s")]
    return _problem(str_vars, chars, asserts)


def fragments(rng: random.Random) -> Corpus:
    """Half acyclic systems, half one-cycle equations.  The features that
    drive the cost most (planted or random literals, number of equations,
    alphabet) take fixed shares, so the corpus's cost varies less between
    seeds."""
    out: Corpus = []
    for i in range(3000):
        if i % 2:
            text = _fragment_one_cycle(rng)
        else:
            text = _fragment_acyclic(rng, "abc" if (i // 12) % 3 == 0
                                     else "ab", n_eqs=1 + (i // 4) % 3,
                                     planted=(i // 2) % 2 == 0)
        out.append((f"fragments-{i}", text))
    return out


# ---------------------------------------------------------------------------
# Workload: best-effort
# ---------------------------------------------------------------------------

# The solver's own worked example (problems/rotate.smt2), copied here so
# the benchmark does not depend on files outside its directory.
ROTATE = """\
(declare-str s)
(assert (= (str.++ "ab" s) (str.++ s "ba")))
(assert (str.in_re s (re.++ (re.* (str.to_re "ab")) (str.to_re "a"))))
(assert (= (mod (str.len s) 2) 0))
"""


def _shape_regex(rng: random.Random, chars: str) -> str:
    """One of four fixed regex shapes with varied characters."""
    c1, c2 = rng.choice(chars), rng.choice(chars)
    shape = rng.randrange(4)
    if shape == 0:
        return f"(re.* (str.to_re {_lit(c1)}))"
    if shape == 1:
        return f"(re.++ (re.* (str.to_re {_lit(c1)})) (str.to_re {_lit(c1)}))"
    if shape == 2:
        return (f"(re.* (re.union (str.to_re {_lit(c1 + c2)}) "
                f"(str.to_re {_lit(c2)})))")
    return f"(re.++ (str.to_re {_lit(c1)}) (re.* (str.to_re {_lit(c2)})))"


def _general_arith(rng: random.Random, vs: List[str]) -> str:
    v = rng.choice(vs)
    w = rng.choice(vs)
    style = rng.randrange(4)
    if style == 0:
        p = rng.choice([2, 3])
        return f"(= (mod {_len(v)} {p}) {rng.randrange(p)})"
    if style == 1:
        return f"(<= (max {_len(v)} {_len(w)}) {rng.randint(1, 6)})"
    if style == 2:
        return f"(= {_len(v)} (+ {_len(w)} {rng.randint(0, 2)}))"
    return f"(>= {_len(v)} {rng.randint(1, 4)})"


def _general_side(rng: random.Random, vs: List[str], chars: str) -> List[str]:
    return [rng.choice(vs) if rng.random() < 0.55 else "#" + rng.choice(chars)
            for _ in range(rng.randint(0, 4))]


def _best_effort_draw(rng: random.Random) -> str:
    chars = "ab"
    vs = ["x", "y", "z"][:rng.randint(1, 3)]
    eqs = [_eq(_general_side(rng, vs, chars), _general_side(rng, vs, chars))
           for _ in range(rng.randint(1, 2))]
    asserts = list(eqs)
    if rng.random() < 0.5:
        asserts.append(f"(str.in_re {rng.choice(vs)} "
                       f"{_shape_regex(rng, chars)})")
    if rng.random() < 0.6:
        asserts.append(_general_arith(rng, vs))
    if rng.random() < 0.15:
        asserts.append(f"(or {_general_arith(rng, vs)} "
                       f"{_general_arith(rng, vs)})")
    return _problem(vs, chars, asserts)


def _relabel(rng: random.Random, template: str, chars: str) -> str:
    """Fill X, Y, Z with a random order of x, y, z and C, D with two
    distinct random characters.  Renaming keeps the search isomorphic, so
    the cost of an instance depends on its template, not on the seed."""
    x, y, z = rng.sample(["x", "y", "z"], 3)
    c, d = rng.sample(chars, 2)
    return (template.replace("X", x).replace("Y", y).replace("Z", z)
            .replace("C", c).replace("D", d))


# x.z.y = C.z.x with x in D*.D: trivially unsat (x starts with D, the right
# side with C), but no base leaf, length abstraction or back-link closes it.
_PLANTED = ('(= (str.++ X Z Y) (str.++ "C" Z X))',
            '(str.in_re X (re.++ (re.* (str.to_re "D")) (str.to_re "D")))')

# One variable at both ends of a side and a clashing letter: unsat by a
# head or tail clash, yet each one runs out the unfolding budget while the
# back-link checks re-derive the path arithmetic at every node.
_HEAD_CLASH = [
    ('(= (str.++ X "C" Z) (str.++ Z "D"))', '(>= (str.len Z) 1)'),
    ('(= (str.++ "C" Z Y) (str.++ Y "D"))', None),
    ('(= (str.++ X "C") (str.++ "D" Y X))', '(= (mod (str.len Y) 3) 0)'),
    ('(= (str.++ Y "C") (str.++ "C" Z Y))', '(= "C" (str.++ "D" Z))'),
]


def _mirror(eq: str) -> str:
    """(= A B) -> (= B A) for the templates above (A, B balanced)."""
    body = eq[len("(= "):-1]
    depth = 0
    for i, ch in enumerate(body):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == " " and depth == 0:
            return f"(= {body[i + 1:]} {body[:i]})"
    raise ValueError(f"not an equation template: {eq}")


def _family(rng: random.Random, chars: str, eq: str,
            extra: Optional[str], mirrored: bool) -> str:
    asserts = [_mirror(eq) if mirrored else eq] + ([extra] if extra else [])
    return _problem(["x", "y", "z"], chars,
                    _relabel(rng, "\n".join(asserts), chars).split("\n"))


def best_effort(rng: random.Random) -> Corpus:
    """Fixed counts of the hand-picked families (six rounds of the head
    clash templates, both orientations; 40 of the planted family; the
    rotation example) among 520 general draws.  The families carry most
    of the time, so the slow tail weighs about the same for every seed.
    The head-clash instances are under a tenth of the corpus and all the
    families over it, so p90 falls among the planted ones; the general
    draws are many enough for a steady median."""
    out: Corpus = [("best-effort-rotate", ROTATE)]
    for r in range(6):
        for t, (eq, extra) in enumerate(_HEAD_CLASH):
            for mirrored in (False, True):
                out.append((f"best-effort-clash-{r}-{t}-{int(mirrored)}",
                            _family(rng, "ab", eq, extra, mirrored)))
    for r in range(40):
        out.append((f"best-effort-planted-{r}",
                    _family(rng, "abc", *_PLANTED, mirrored=False)))
    for i in range(520):
        out.append((f"best-effort-{i}", _best_effort_draw(rng)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Workload: memberships
# ---------------------------------------------------------------------------


def _membership_draw(rng: random.Random, n_eqs: int) -> str:
    chars = "abc"
    used, asserts, value = _acyclic_system(rng, chars, n_eqs,
                                           max_size=6, max_side_vars=2,
                                           n_names=4,
                                           planted=True)
    for v in used:
        for _ in range(rng.randint(1, 2)):
            r = _nested_regex(rng, chars, rng.randint(2, 3))
            if rng.random() < 0.5:
                # admit the planted value, so some draws stay satisfiable
                r = f"(re.union {r} (str.to_re {_lit(value[v])}))"
            asserts.append(f"(str.in_re {v} {r})")
    return _problem(used, chars, asserts)


def memberships(rng: random.Random) -> Corpus:
    return [(f"memberships-{i}", _membership_draw(rng, n_eqs=1 + i % 2))
            for i in range(1500)]


# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[random.Random], Corpus]] = {
    "fragments": fragments,
    "best-effort": best_effort,
    "memberships": memberships,
}


def corpus(workload: str, seed: int) -> Corpus:
    """The seeded corpus of one workload."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
