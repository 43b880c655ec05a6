import itertools
import random
from collections import OrderedDict

import pytest

from corpus import rand_regex
from stringsat import regexes
from stringsat.regexes import (Dfa, LiteralOutsideAlphabetError,
                               SemilinearLengthSet, accepts, compile_regex,
                               compiled, joint_product, length_set,
                               lengths_reachable, product, residual_included,
                               residual_states, witness_with_length)
from stringsat.terms import (RCat, RComp, REmpty, REps, RInter, RLit, RStar,
                             RUnion, RWord, SPred, word)

ROTATE = RCat(RStar(RWord("ab")), RWord("a"))  # (ab)*.a


# --- independent word-level oracle: Brzozowski derivatives -----------------

def _nullable(r) -> bool:
    if isinstance(r, (REps, RStar)):
        return True
    if isinstance(r, (REmpty, RLit)):
        return False
    if isinstance(r, RWord):
        return r.chars == ""
    if isinstance(r, RCat):
        return _nullable(r.left) and _nullable(r.right)
    if isinstance(r, RUnion):
        return _nullable(r.left) or _nullable(r.right)
    if isinstance(r, RInter):
        return _nullable(r.left) and _nullable(r.right)
    return not _nullable(r.inner)  # complement


def _deriv(r, c: str):
    if isinstance(r, (REmpty, REps)):
        return REmpty()
    if isinstance(r, RLit):
        return REps() if r.char == c else REmpty()
    if isinstance(r, RWord):
        if not r.chars:
            return REmpty()
        return RWord(r.chars[1:]) if r.chars[0] == c else REmpty()
    if isinstance(r, RCat):
        first = RCat(_deriv(r.left, c), r.right)
        if _nullable(r.left):
            return RUnion(first, _deriv(r.right, c))
        return first
    if isinstance(r, RUnion):
        return RUnion(_deriv(r.left, c), _deriv(r.right, c))
    if isinstance(r, RInter):
        return RInter(_deriv(r.left, c), _deriv(r.right, c))
    if isinstance(r, RComp):
        return RComp(_deriv(r.inner, c))
    return RCat(_deriv(r.inner, c), r)  # star


def _accepts_by_derivative(r, w: str) -> bool:
    for c in w:
        r = _deriv(r, c)
    return _nullable(r)


def test_compile_empty_language():
    d = compile_regex(REmpty(), "ab")
    assert not any(accepts(d, w) for w in ["", "a", "b", "ab"])


def test_compile_rotation_regex():
    d = compile_regex(ROTATE, "ab")
    assert accepts(d, "a") and accepts(d, "aba")
    assert not accepts(d, "ab")


def test_complement_intersection_is_empty():
    d = compile_regex(RInter(ROTATE, RComp(ROTATE)), "ab")
    assert length_set(d) == SemilinearLengthSet(frozenset(), ())


def test_literal_outside_alphabet():
    with pytest.raises(LiteralOutsideAlphabetError):
        compile_regex(RWord("xyz"), "ab")


def test_accepts_epsilon_iff_start_accepting():
    d = compile_regex(RStar(RWord("ab")), "ab")
    assert accepts(d, "") == (d.start in d.accepting)


def test_length_set_examples():
    ls = length_set(compile_regex(ROTATE, "ab"))
    assert ls.finite == frozenset()
    assert ls.progressions == ((1, 2),)
    assert length_set(compile_regex(REmpty(), "ab")) == \
        SemilinearLengthSet(frozenset(), ())
    ls = length_set(compile_regex(RWord("abc"), "abc"))
    assert ls.finite == frozenset({3}) and ls.progressions == ()


def test_length_set_normal_form_is_disjoint_and_offset_minimal():
    rng = random.Random(5)
    for _ in range(60):
        sigma = "abc"[:rng.randint(1, 3)]
        d = compile_regex(rand_regex(rng, sigma, 3), sigma)
        ls = length_set(d)
        for n in ls.finite:
            assert not any(n >= off and (n - off) % p == 0
                           for off, p in ls.progressions)
        for off, p in ls.progressions:
            assert off < p or not ls.contains(off - p)


def test_length_set_agrees_with_frontier_stepping():
    rng = random.Random(11)
    for _ in range(120):
        sigma = "abc"[:rng.randint(1, 3)]
        d = compile_regex(rand_regex(rng, sigma, 4), sigma)
        ls = length_set(d)
        reach = lengths_reachable(d, 20)
        assert {n for n in range(21) if ls.contains(n)} == reach


def test_compile_agrees_with_derivative_matcher():
    rng = random.Random(13)
    for _ in range(40):
        sigma = "ab"[:rng.randint(1, 2)]
        r = rand_regex(rng, sigma, 3)
        d = compile_regex(r, sigma)
        for n in range(5):
            for w in itertools.product(sigma, repeat=n):
                w = "".join(w)
                assert accepts(d, w) == _accepts_by_derivative(r, w), (r, w)


def test_product_soundness_on_sampled_words():
    rng = random.Random(17)
    for _ in range(30):
        r1 = rand_regex(rng, "ab", 3)
        r2 = rand_regex(rng, "ab", 3)
        d1, d2 = compile_regex(r1, "ab"), compile_regex(r2, "ab")
        both = product(d1, d2, lambda a, b: a and b)
        for n in range(5):
            for w in itertools.product("ab", repeat=n):
                w = "".join(w)
                assert accepts(both, w) == (accepts(d1, w) and accepts(d2, w))


def test_complement_totality():
    rng = random.Random(19)
    for _ in range(30):
        r = rand_regex(rng, "ab", 3)
        d = compile_regex(r, "ab")
        dc = compile_regex(RComp(r), "ab")
        for n in range(5):
            for w in itertools.product("ab", repeat=n):
                w = "".join(w)
                assert accepts(d, w) != accepts(dc, w)


def test_witness_with_length():
    d = compile_regex(ROTATE, "ab")
    assert witness_with_length(d, lambda n: n % 2 == 0, 10) is None
    assert witness_with_length(d, lambda n: n % 2 == 1, 10) == "a"
    star = compile_regex(RComp(REmpty()), "ab")  # every word
    assert witness_with_length(star, lambda n: n == 0, 0) == ""


def test_witness_is_shortest_then_lexicographic():
    d = compile_regex(RUnion(RWord("ba"), RUnion(RWord("ab"), RWord("b"))),
                      "ab")
    assert witness_with_length(d, lambda n: n == 2, 5) == "ab"
    assert witness_with_length(d, lambda n: True, 5) == "b"


def test_joint_product_requires_consistent_word():
    d = compile_regex(ROTATE, "ab")
    acc = next(iter(d.accepting))
    j = joint_product([(d, d.start, acc), (d, d.start, acc)])
    assert accepts(j, "a")
    assert not accepts(j, "ab")


# --- canonical automata ------------------------------------------------------

def _words_up_to(r, sigma: str, n: int) -> frozenset:
    """The words of length at most n the derivative matcher accepts (one
    derivative per trie edge)."""
    out, todo = set(), [("", r)]
    while todo:
        w, d = todo.pop()
        if _nullable(d):
            out.add(w)
        if len(w) < n:
            todo += [(w + c, _deriv(d, c)) for c in sigma]
    return frozenset(out)


def _same_language_variant(rng, r, sigma: str):
    """A different regex for r's language, built another way."""
    pick = rng.randrange(5)
    if pick == 0:
        return RComp(RComp(r))
    if pick == 1:
        return RStar(RStar(r)) if isinstance(r, RStar) else RUnion(r, r)
    if pick == 2:
        return RCat(REps(), RCat(r, REps()))
    if pick == 3:
        return RInter(r, RComp(REmpty()))
    return RUnion(RInter(r, RLit(sigma[0])), RInter(r, RComp(RLit(sigma[0]))))


def test_equal_automata_exactly_for_equal_languages():
    # two minimal automata with n1 and n2 states that differ have a
    # distinguishing word of at most n1 + n2 - 2 letters, so up to that
    # length enumeration decides language equality
    rng = random.Random(59)
    length = 6
    seen = set()
    for _ in range(400):
        sigma = "ab"[:rng.randint(1, 2)]
        r1 = rand_regex(rng, sigma, 3)
        r2 = (_same_language_variant(rng, r1, sigma) if rng.random() < 0.4
              else rand_regex(rng, sigma, 3))
        d1, d2 = compile_regex(r1, sigma), compile_regex(r2, sigma)
        if d1.n_states + d2.n_states - 2 > length:
            continue
        same = _words_up_to(r1, sigma, length) == \
            _words_up_to(r2, sigma, length)
        assert (d1 == d2) == same, (r1, r2)
        seen.add(same)
    assert seen == {True, False}


def _minimize(d: Dfa) -> Dfa:
    # the minimal automaton of any d, its states numbered as _reachable
    # numbers: automata with the same language come out equal
    return regexes._renumber(d, regexes._refine(d)[0])


def test_returned_automata_are_minimal_and_canonical():
    rng = random.Random(61)
    for _ in range(150):
        sigma = "abc"[:rng.randint(1, 3)]
        d1 = compile_regex(rand_regex(rng, sigma, 3), sigma)
        d2 = compile_regex(rand_regex(rng, sigma, 3), sigma)
        built = [d1, d2, product(d1, d2, lambda a, b: a != b),
                 joint_product([(d1, d1.start, rng.randrange(d1.n_states)),
                                (d2, d2.start, rng.randrange(d2.n_states))])]
        for d in built:
            assert d.start == 0
            assert _minimize(d) == d, d
    # literal words too, and over an empty alphabet
    assert _minimize(compile_regex(RWord("aba"), "ab")) == \
        compile_regex(RWord("aba"), "ab")
    assert compile_regex(REps(), "").n_states == 1


def test_explore_returns_the_minimized_reachable_automaton(cold_cache,
                                                           monkeypatch):
    # _explore returns the reachable automaton as it is when it is
    # already minimal; either way, what it returns is _minimize's result
    calls = []
    real = regexes._explore

    def spy(*args):
        d = real(*args)
        calls.append((args, d))
        return d

    monkeypatch.setattr(regexes, "_explore", spy)
    rng = random.Random(62)
    for _ in range(150):
        sigma = ("a", "b", "c")[:rng.randint(1, 3)]
        r1, r2 = rand_regex(rng, sigma, 3), rand_regex(rng, sigma, 3)
        d1, d2 = compile_regex(r1, sigma), compile_regex(r2, sigma)
        compile_regex(RCat(r1, r2), sigma)
        compile_regex(RStar(r1), sigma)
        product(d1, d2, lambda a, b: a != b)
        joint_product([(d1, d1.start, rng.randrange(d1.n_states)),
                       (d2, d2.start, rng.randrange(d2.n_states))])
    kept = 0
    for args, d in calls:
        reachable = regexes._reachable(*args)
        assert d == _minimize(reachable), args
        kept += d == reachable
    # both ways are taken
    assert 0 < kept < len(calls), (kept, len(calls))


# --- residual state sets ----------------------------------------------------

OPEN = SPred("x", "n")


def _term(pieces) -> tuple:
    """The term of known words (str) and open pieces, in order."""
    return sum((word(p) if isinstance(p, str) else (p,) for p in pieces), ())


def _residual_accepts(r, sigma: str, pieces) -> bool:
    d = compile_regex(r, sigma)
    return bool(residual_states(d, _term(pieces)) & d.accepting)


def test_residual_steps_literals_and_closes_over_open_pieces():
    assert _residual_accepts(ROTATE, "ab", ["ab", OPEN, "a"])
    assert _residual_accepts(ROTATE, "ab", [OPEN, "ba"])
    assert not _residual_accepts(ROTATE, "ab", ["b", OPEN])
    assert not _residual_accepts(ROTATE, "ab", [OPEN, "b"])
    assert not _residual_accepts(ROTATE, "ab", ["aa", OPEN])
    assert not _residual_accepts(ROTATE, "ab", [])
    # a literal after an open piece steps every state the closure reached
    a_star_ba = RCat(RStar(RLit("a")), RWord("ba"))
    assert _residual_accepts(a_star_ba, "ab", ["a", OPEN, "a"])
    assert not _residual_accepts(a_star_ba, "ab", [OPEN, "b"])
    # a character outside the automaton's alphabet leaves no run
    assert residual_states(compile_regex(ROTATE, "ab"), word("c")) == \
        frozenset()


def _instances(pieces, sigma: str, n: int):
    opens = [i for i, p in enumerate(pieces) if not isinstance(p, str)]
    words = ["".join(w) for k in range(n + 1)
             for w in itertools.product(sigma, repeat=k)]
    for fill in itertools.product(words, repeat=len(opens)):
        got = dict(zip(opens, fill))
        yield "".join(got.get(i, p) for i, p in enumerate(pieces))


def test_residual_is_exact_for_distinct_open_pieces():
    # each open piece stands for its own word, so some filling of the open
    # pieces is accepted iff an accepting state is in the residual set; a
    # shortest word between two states has fewer letters than the
    # automaton has states, which bounds the fillings to try
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        sigma = "ab"[:rng.randint(1, 2)]
        r = rand_regex(rng, sigma, 3)
        d = compile_regex(r, sigma)
        if d.n_states > 6:
            continue
        pieces = [OPEN if rng.random() < 0.4 else
                  "".join(rng.choice(sigma) for _ in range(rng.randint(1, 2)))
                  for _ in range(rng.randint(0, 3))]
        if sum(p == OPEN for p in pieces) > 1 and d.n_states > 4:
            continue
        want = any(_accepts_by_derivative(r, w)
                   for w in _instances(pieces, sigma, d.n_states - 1))
        assert bool(residual_states(d, _term(pieces)) & d.accepting) == \
            want, (r, pieces)
        checked += 1


def _random_dfa(rng, sigma, n):
    return Dfa(sigma, tuple(tuple(rng.randrange(n) for _ in sigma)
                            for _ in range(n)),
               0, frozenset(q for q in range(n) if rng.random() < 0.5))


def test_residual_inclusion_agrees_with_word_enumeration():
    # a word of L(d1, p) whose renaming d2 rejects from q, if there is
    # one, is shorter than the product has states, so every word below
    # n1 * n2 letters is tried (the characters are enumerated one by one,
    # sharing prefixes)
    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        sigma = ("a", "b", "c")[:rng.randint(2, 3)]
        d1 = _random_dfa(rng, sigma, rng.randint(1, 3))
        d2 = _random_dfa(rng, sigma, rng.randint(1, 3))
        if len(sigma) == 3 and d1.n_states * d2.n_states > 6:
            continue
        p, q = rng.randrange(d1.n_states), rng.randrange(d2.n_states)
        rename = {c: rng.choice(sigma) for c in sigma if rng.random() < 0.6}

        def escapes(s1, s2, left):
            if s1 in d1.accepting and s2 not in d2.accepting:
                return True
            return left > 0 and any(
                escapes(d1.step(s1, c), d2.step(s2, rename.get(c, c)),
                        left - 1) for c in sigma)

        want = not escapes(p, q, d1.n_states * d2.n_states - 1)
        assert residual_included(d1, p, d2, q, rename) == want, \
            (d1, p, d2, q, rename)
        seen.add((want, rename == {}))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_residual_inclusion_refuses_images_outside_the_alphabet():
    d = compile_regex(RStar(RLit("a")), "ab")
    assert residual_included(d, d.start, d, d.start, {"b": "b"})
    assert not residual_included(d, d.start, d, d.start, {"b": "c"})


# --- the automaton cache ----------------------------------------------------

@pytest.fixture
def cold_cache(monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(regexes, "_compiled_cache", cache)
    return cache


def test_cache_evicts_the_least_recently_used(cold_cache, monkeypatch):
    monkeypatch.setattr(regexes, "CACHE_SIZE", 3)
    sigma = ("a", "b")
    words = [RWord(w) for w in ("a", "b", "ab", "ba")]
    first = compiled(words[0], sigma)
    compiled(words[1], sigma)
    compiled(words[2], sigma)
    assert compiled(words[0], sigma) is first  # a hit refreshes the entry
    compiled(words[3], sigma)
    assert [r for r, _ in cold_cache] == [words[2], words[0], words[3]]
    # sub-expressions take entries too, and the bound holds for them
    compiled(RStar(RCat(words[1], words[2])), sigma)
    assert len(cold_cache) == 3
    assert list(cold_cache)[-1] == (RStar(RCat(words[1], words[2])), sigma)


def test_subexpression_cache_compiles_what_a_cold_cache_compiles(
        cold_cache):
    rng = random.Random(43)
    sigma = ("a", "b")
    drawn = [rand_regex(rng, "ab", 4) for _ in range(60)]
    warm = [compiled(r, sigma) for r in drawn]  # parts shared across draws
    for r, d in zip(drawn, warm):
        cold_cache.clear()
        assert compile_regex(r, sigma) == d, r
        for n in range(5):
            for w in itertools.product(sigma, repeat=n):
                w = "".join(w)
                assert accepts(d, w) == _accepts_by_derivative(r, w), (r, w)


def test_alphabet_is_checked_once_per_top_level_regex(cold_cache,
                                                      monkeypatch):
    seen = []
    real = regexes.regex_chars
    monkeypatch.setattr(regexes, "regex_chars",
                        lambda r: seen.append(r) or real(r))
    r = RStar(RCat(RUnion(RLit("a"), RWord("ab")), RComp(RLit("b"))))
    compiled(r, ("a", "b"))
    compiled(r, ("a", "b"))
    assert seen == [r]


def test_length_set_is_analysed_once_per_automaton(cold_cache, monkeypatch):
    analysed = []
    real = regexes._length_lasso
    monkeypatch.setattr(regexes, "_length_lasso",
                        lambda d: analysed.append(d) or real(d))
    sigma = ("a", "b")
    for _ in range(3):
        assert length_set(compiled(ROTATE, sigma)).contains(3)
        assert length_set(compiled(RStar(RWord("ab")), sigma)).contains(4)
    assert len(analysed) == 2
    # an evicted automaton is compiled and analysed afresh
    cold_cache.clear()
    length_set(compiled(ROTATE, sigma))
    assert len(analysed) == 3


# --- minimization against Moore refinement ---------------------------------

def _moore_minimize(d: Dfa) -> Dfa:
    """Reference: drop unreachable states, refine by Moore signatures until
    stable, number blocks breadth-first from the start in symbol order."""
    reach = {d.start}
    stack = [d.start]
    while stack:
        for t in d.transitions[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach)
    remap = {q: i for i, q in enumerate(states)}
    trans = [tuple(remap[t] for t in d.transitions[q]) for q in states]
    acc = frozenset(remap[q] for q in d.accepting if q in reach)
    n = len(states)
    block = [1 if q in acc else 0 for q in range(n)]
    while True:
        sig: dict = {}
        new_block = [sig.setdefault((block[q],) + tuple(block[t]
                                                         for t in trans[q]),
                                    len(sig))
                     for q in range(n)]
        if new_block == block:
            break
        block = new_block
    rep: dict = {}
    for q in range(n):
        rep.setdefault(block[q], q)
    order = [block[remap[d.start]]]
    for b in order:
        for t in trans[rep[b]]:
            if block[t] not in order:
                order.append(block[t])
    renum = {b: i for i, b in enumerate(order)}
    return Dfa(d.alphabet,
               tuple(tuple(renum[block[t]] for t in trans[rep[b]])
                     for b in order),
               0, frozenset(renum[block[q]] for q in acc))


def test_hopcroft_gives_the_moore_automaton():
    rng = random.Random(41)
    for _ in range(400):
        sigma = ("a", "b", "c")[:rng.randint(1, 3)]
        n = rng.randint(1, 30)
        d = _random_dfa(rng, sigma, n)
        d = Dfa(sigma, d.transitions, rng.randrange(n), d.accepting)
        assert _minimize(d) == _moore_minimize(d), d
    # chains, where Moore needs a round per state
    for n in (1, 2, 7, 64):
        chain = Dfa(("a", "b"), tuple((min(q + 1, n), n) for q in range(n))
                    + ((n, n),), 0, frozenset((n - 1,)))
        assert _minimize(chain) == _moore_minimize(chain)
        assert _minimize(chain).n_states == n + 1
