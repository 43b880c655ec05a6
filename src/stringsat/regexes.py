"""Regex compilation to total DFAs, plus the analyses the search runs on
them: residual state sets over partly known words, inclusion between
residual languages, and length sets.

Every automaton comes from one explorer (``_explore``) that numbers the
states reachable from a start under a step function and minimizes:
intersection and union explore pairs of states, concatenation a state
of the left automaton with the set of right-hand runs it has started,
and star the set of runs of its last factor.  Complement flips the
accepting set.  Minimization numbers the states breadth-first from the
start in symbol order, so every automaton the module returns is minimal
and canonical: two regexes with the same language compile to equal
``Dfa`` values.

Compiled automata live in one least-recently-used cache of CACHE_SIZE
entries, keyed by (regex, alphabet).  Compilation reads every
sub-expression through it, so regexes that share parts share their
automata.  Each automaton analyses its length set at most once and
keeps it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, Optional

from .terms import (RE, CChar, RCat, RComp, REmpty, REps, RInter, RLit,
                    RStar, RUnion, RWord, regex_chars)


class LiteralOutsideAlphabetError(Exception):
    pass


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: the transition table is total over the alphabet."""

    alphabet: tuple            # sorted characters
    transitions: tuple         # transitions[state][symbol index] -> state
    start: int
    accepting: frozenset

    def step(self, state: int, char: str) -> int:
        return self.transitions[state][self.index[char]]

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    # Analyses kept on the automaton, filled on first use.  They are not
    # fields, so equality and hashing see only the automaton itself.

    @cached_property
    def lengths(self) -> "SemilinearLengthSet":
        return _length_lasso(self)

    @cached_property
    def index(self) -> Dict[str, int]:
        return {c: i for i, c in enumerate(self.alphabet)}


def accepts(d: Dfa, w: str) -> bool:
    state = d.start
    for ch in w:
        i = d.index.get(ch)
        if i is None:
            return False
        state = d.transitions[state][i]
    return state in d.accepting


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _reachable(alphabet: tuple, start, step: Callable,
               accept: Callable) -> Dfa:
    """The automaton of the states reachable from ``start``, numbered
    breadth-first in symbol order: ``step`` maps a state to its
    successors, one per symbol, and ``accept`` says whether a state
    accepts.  States are any hashable values."""
    index = {start: 0}
    order = [start]
    rows = []
    for state in order:  # grows as new states are found
        row = []
        for t in step(state):
            i = index.get(t)
            if i is None:
                i = index[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(tuple(row))
    return Dfa(alphabet, tuple(rows), 0,
               frozenset(i for i, q in enumerate(order) if accept(q)))


def _explore(alphabet: tuple, start, step: Callable, accept: Callable) -> Dfa:
    """The minimal automaton of ``_reachable``; every construction of this
    module goes through here.  With one block per state the reachable
    automaton is already minimal, and ``_reachable`` numbered it as
    ``_renumber`` would, so it is returned as it is."""
    d = _reachable(alphabet, start, step, accept)
    block, count = _refine(d)
    return d if count == d.n_states else _renumber(d, block)


def _minimize(d: Dfa) -> Dfa:
    """The minimal automaton of any ``d``, its states numbered as
    ``_reachable`` numbers: automata with the same language come out
    equal."""
    return _renumber(d, _refine(d)[0])


def _refine(d: Dfa) -> tuple:
    """Hopcroft partition refinement: each state's block number, and the
    number of blocks.  States share a block exactly when the same words
    lead from them to acceptance."""
    n = d.n_states
    trans = d.transitions
    acc = d.accepting
    # pre[a][t]: the states that enter t on the a-th symbol
    pre = [[[] for _ in range(n)] for _ in d.alphabet]
    for q, row in enumerate(trans):
        for a, t in enumerate(row):
            pre[a][t].append(q)
    blocks = [set(acc) if acc else set(range(n))]
    block = [0] * n
    waiting = []
    if 0 < len(acc) < n:
        rest = set(range(n)) - acc
        blocks.append(rest)
        for q in rest:
            block[q] = 1
        waiting.append(0 if len(acc) <= len(rest) else 1)
    # A block leaves the worklist once its preimages have split every
    # block.  Of a split block not waiting, only the smaller half is
    # queued: splitting by the whole and by one half splits by the other.
    queued = set(waiting)
    while waiting:
        s = waiting.pop()
        queued.discard(s)
        splitter = list(blocks[s])
        for into in pre:
            hit: Dict[int, list] = {}
            for t in splitter:
                for q in into[t]:
                    b = block[q]
                    if b in hit:
                        hit[b].append(q)
                    else:
                        hit[b] = [q]
            for b, qs in hit.items():
                if len(qs) == len(blocks[b]):
                    continue
                part = set(qs)
                blocks[b] -= part
                nb = len(blocks)
                blocks.append(part)
                for q in qs:
                    block[q] = nb
                w = nb if b in queued or len(part) <= len(blocks[b]) else b
                waiting.append(w)
                queued.add(w)
    return block, len(blocks)


def _renumber(d: Dfa, block: list) -> Dfa:
    """The automaton of d's blocks reachable from the block of its start,
    numbered as ``_reachable`` numbers.  Every state of a block steps
    into the same blocks, so any one represents it; unreachable blocks
    are never numbered."""
    trans = d.transitions
    acc = d.accepting
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    return _reachable(d.alphabet, block[d.start],
                      lambda b: [block[t] for t in trans[rep[b]]],
                      lambda b: rep[b] in acc)


def _dfa_word(alphabet: tuple, chars: str) -> Dfa:
    # position i has read chars[:i]; len(chars) + 1 is the sink
    k = len(chars)
    return _explore(alphabet, 0,
                    lambda i: [i + 1 if i < k and c == chars[i] else k + 1
                               for c in alphabet],
                    lambda i: i == k)


def product(d1: Dfa, d2: Dfa, combine: Callable[[bool, bool], bool]) -> Dfa:
    if d1.alphabet != d2.alphabet:
        raise ValueError("product over mismatched alphabets")
    t1, t2 = d1.transitions, d2.transitions
    return _explore(d1.alphabet, (d1.start, d2.start),
                    lambda p: zip(t1[p[0]], t2[p[1]]),
                    lambda p: combine(p[0] in d1.accepting,
                                      p[1] in d2.accepting))


def _concat(d1: Dfa, d2: Dfa) -> Dfa:
    # a state pairs d1's state with the states of the d2 runs started so
    # far; a d2 run starts each time d1 accepts
    t1, t2 = d1.transitions, d2.transitions
    entry = frozenset((d2.start,))

    def step(p):
        q, runs = p
        return [(q1, frozenset(t2[r][a] for r in runs) |
                 (entry if q1 in d1.accepting else frozenset()))
                for a, q1 in enumerate(t1[q])]

    return _explore(d1.alphabet,
                    (d1.start,
                     entry if d1.start in d1.accepting else frozenset()),
                    step, lambda p: not p[1].isdisjoint(d2.accepting))


def _star(d: Dfa) -> Dfa:
    # a state is the set of states the runs of the last factor are in,
    # and a new run starts each time one accepts.  The start is the empty
    # set and steps like {d.start}; no word but the empty one ends there,
    # since a total automaton steps a non-empty set to a non-empty one.
    trans = d.transitions
    entry = frozenset((d.start,))

    def step(runs):
        out = []
        for a in range(len(d.alphabet)):
            nxt = frozenset(trans[r][a] for r in runs or entry)
            out.append(nxt if nxt.isdisjoint(d.accepting) else nxt | entry)
        return out

    return _explore(d.alphabet, frozenset(), step,
                    lambda runs: not runs or not runs.isdisjoint(d.accepting))


def compile_regex(r: RE, alphabet: Iterable[str]) -> Dfa:
    """Compile a regex to a minimized total DFA over the given alphabet."""
    sigma = tuple(sorted(set(alphabet)))
    extra = regex_chars(r) - set(sigma)
    if extra:
        raise LiteralOutsideAlphabetError(
            f"regex uses characters outside the alphabet: {sorted(extra)}")
    return _compile(r, sigma)


# Entries kept by the automaton cache.  At 256 the memberships benchmark
# corpus ran about 7 % slower than at 1,024.
CACHE_SIZE = 1024

_compiled_cache: "OrderedDict[tuple, Dfa]" = OrderedDict()


def _cached(r: RE, sigma: tuple, build: Callable[[RE, tuple], Dfa]) -> Dfa:
    key = (r, sigma)
    d = _compiled_cache.get(key)
    if d is not None:
        _compiled_cache.move_to_end(key)
        return d
    d = build(r, sigma)
    _compiled_cache[key] = d
    if len(_compiled_cache) > CACHE_SIZE:
        _compiled_cache.popitem(last=False)
    return d


def compiled(r: RE, alphabet: tuple) -> Dfa:
    """compile_regex through the bounded automaton cache."""
    return _cached(r, alphabet, compile_regex)


def _compile(r: RE, sigma: tuple) -> Dfa:
    if isinstance(r, REmpty):
        return Dfa(sigma, ((0,) * len(sigma),), 0, frozenset())
    if isinstance(r, REps):
        return _dfa_word(sigma, "")
    if isinstance(r, RLit):
        return _dfa_word(sigma, r.char)
    if isinstance(r, RWord):
        return _dfa_word(sigma, r.chars)

    def sub(part: RE) -> Dfa:
        return _cached(part, sigma, _compile)

    if isinstance(r, RCat):
        return _concat(sub(r.left), sub(r.right))
    if isinstance(r, RUnion):
        return product(sub(r.left), sub(r.right), lambda a, b: a or b)
    if isinstance(r, RInter):
        return product(sub(r.left), sub(r.right), lambda a, b: a and b)
    if isinstance(r, RComp):
        # a minimal automaton with its accepting states flipped is the
        # minimal one of the complement, numbered the same
        d = sub(r.inner)
        return replace(d, accepting=frozenset(range(d.n_states)) - d.accepting)
    if isinstance(r, RStar):
        return _star(sub(r.inner))
    raise TypeError(f"not a regex: {r!r}")


# ---------------------------------------------------------------------------
# Residual state sets
# ---------------------------------------------------------------------------

def _closure(d: Dfa, states: frozenset) -> frozenset:
    """Every state some word (the empty one included) leads to from a
    state in the set."""
    seen = set(states)
    stack = list(states)
    while stack:
        for t in d.transitions[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def residual_states(d: Dfa, term: Iterable, start=None) -> frozenset:
    """The states d can reach from ``start`` (its own start when None) on
    a word the term's atoms spell out in order.

    A ``CChar`` is a known character and steps the set (a character
    outside the alphabet leaves no run).  Any other atom is an unknown
    word and takes the set's reachability closure.  The set is exact when
    the unknown atoms are independent words; a caller whose term repeats
    one word gets a superset, so a set without an accepting state still
    proves that no word of that shape is in the language."""
    cur = frozenset((d.start if start is None else start,))
    for atom in term:
        if isinstance(atom, CChar):
            i = d.index.get(atom.char)
            if i is None:
                return frozenset()
            cur = frozenset(d.transitions[q][i] for q in cur)
        else:
            cur = _closure(d, cur)
    return cur


def residual_included(d1: Dfa, p: int, d2: Dfa, q: int,
                      rename: Dict[str, str]) -> bool:
    """Whether d2 accepts from state q every word d1 accepts from state p,
    renamed letter by letter (identity where ``rename`` is silent; an image
    outside d2's alphabet refuses): in d2 read through the renaming, the
    "first and not second" product accepts nothing."""
    cols = [d2.index.get(rename.get(c, c)) for c in d2.alphabet]
    if None in cols:
        return False
    pre = Dfa(d2.alphabet, tuple(tuple(row[i] for i in cols)
                                 for row in d2.transitions), q, d2.accepting)
    return not product(replace(d1, start=p), pre,
                       lambda a, b: a and not b).accepting


def joint_product(specs: list) -> Dfa:
    """Words driving several (dfa, source, target) runs at once.

    Accepts w iff for every spec (d, p, q), running w on d from p ends in
    q.  Used to satisfy all occurrences of one string variable across the
    membership constraints consistently.  All automata must share one
    alphabet.
    """
    alphabet = specs[0][0].alphabet
    if any(d.alphabet != alphabet for d, _, _ in specs):
        raise ValueError("joint product over mismatched alphabets")
    tables = [d.transitions for d, _, _ in specs]
    goal = tuple(q for _, _, q in specs)
    return _explore(alphabet, tuple(p for _, p, _ in specs),
                    lambda cur: zip(*[t[q] for t, q in zip(tables, cur)]),
                    lambda cur: cur == goal)


# ---------------------------------------------------------------------------
# Length sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemilinearLengthSet:
    """An ultimately periodic set of non-negative integers: a finite part
    plus arithmetic progressions {offset + k*period | k >= 0}."""

    finite: frozenset
    progressions: tuple  # pairs (offset, period), period > 0

    def contains(self, n: int) -> bool:
        if n in self.finite:
            return True
        return any(n >= off and (n - off) % p == 0
                   for off, p in self.progressions)


def _normalize_length_set(prefix_flags: list, cycle_flags: list,
                          mu: int) -> SemilinearLengthSet:
    lam = len(cycle_flags)
    finite = {i for i, f in enumerate(prefix_flags) if f}
    progs: list = []
    if any(cycle_flags):
        # smallest period dividing lam that reproduces the cycle pattern
        p = next(p for p in range(1, lam + 1)
                 if lam % p == 0 and
                 all(cycle_flags[i] == cycle_flags[(i + p) % lam]
                     for i in range(lam)))
        # offsets are the accepting residues in the first cycle window,
        # pulled down while the finite part extends them
        for i in range(p):
            if cycle_flags[i]:
                off = mu + i
                while off - p >= 0 and off - p in finite:
                    finite.discard(off - p)
                    off -= p
                progs.append((off, p))
    progs.sort()
    # merge congruent progressions, keep the smallest offset
    merged: dict = {}
    for off, p in progs:
        key = (p, off % p)
        if key not in merged or off < merged[key]:
            merged[key] = off
    progs = sorted((off, p) for (p, _), off in merged.items())
    covered = lambda n: any(n >= off and (n - off) % p == 0 for off, p in progs)
    finite = frozenset(n for n in finite if not covered(n))
    return SemilinearLengthSet(finite, tuple(progs))


def length_set(d: Dfa) -> SemilinearLengthSet:
    """The exact set of word lengths accepted by the DFA, analysed once
    per automaton and kept on it."""
    return d.lengths


def _length_lasso(d: Dfa) -> SemilinearLengthSet:
    """Projects the automaton to a unary one (a step reaches every state
    reachable by any symbol) and analyses the lasso of the resulting
    deterministic subset sequence."""
    frontier = frozenset((d.start,))
    seen = {frontier: 0}
    flags = [bool(frontier & d.accepting)]
    seq = [frontier]
    while True:
        nxt = frozenset(t for q in seq[-1] for t in d.transitions[q])
        if nxt in seen:
            mu = seen[nxt]
            lam = len(seq) - mu
            return _normalize_length_set(flags[:mu], flags[mu:mu + lam], mu)
        seen[nxt] = len(seq)
        seq.append(nxt)
        flags.append(bool(nxt & d.accepting))


def lengths_reachable(d: Dfa, limit: int) -> set:
    """Accepted lengths up to limit by plain frontier stepping (no lasso
    analysis); serves as an independent check on length_set."""
    out = set()
    frontier = {d.start}
    for n in range(limit + 1):
        if frontier & d.accepting:
            out.add(n)
        frontier = {t for q in frontier for t in d.transitions[q]}
    return out


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def witness_with_length(d: Dfa, allowed: Callable[[int], bool],
                        cap: int) -> Optional[str]:
    """Shortest accepted word whose length satisfies the predicate, searching
    lengths 0..cap; ties broken lexicographically over the sorted alphabet."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    layer = {d.start: ""}
    for n in range(cap + 1):
        if allowed(n):
            hits = sorted(w for q, w in layer.items() if q in d.accepting)
            if hits:
                return hits[0]
        nxt: dict = {}
        for q, w in sorted(layer.items(), key=lambda kv: kv[1]):
            for i, c in enumerate(d.alphabet):
                t = d.transitions[q][i]
                cand = w + c
                if t not in nxt or cand < nxt[t]:
                    nxt[t] = cand
        layer = nxt
        if not layer:
            return None
    return None
