import random

import pytest

from corpus import rand_tame_regex
from stringsat.oracle import (Bound, UnassignedVariableError,
                              brute_force_solve, eval_formula)
from stringsat.terms import (AInt, ALen, AMod, FAnd, FAtom, FEq, FIn,
                             FNot, FOr, Model, RCat, RStar, RWord, SVar,
                             atom_eq, atom_le, conj, word)

TRUE = FAnd(())
ROTATION = FEq(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
MEMBER = FIn((SVar("s"),), RCat(RStar(RWord("ab")), RWord("a")))
PARITY = FAtom(atom_eq(AMod(ALen("s"), AInt(2)), AInt(0)))


def test_eval_rotation():
    assert eval_formula(ROTATION, Model.make({"s": "a"}, {}), "ab")
    assert not eval_formula(ROTATION, Model.make({"s": "b"}, {}), "ab")


def test_eval_membership_with_parity():
    m = Model.make({"s": "a"}, {})
    assert eval_formula(MEMBER, m, "ab")
    assert not eval_formula(FAnd((MEMBER, PARITY)), m, "ab")


def test_eval_true_under_empty_model():
    assert eval_formula(TRUE, Model.make({}, {}), "")


def test_eval_boolean_structure():
    m = Model.make({"s": "a"}, {})
    assert eval_formula(FOr((FEq((SVar("s"),), word("b")),
                             FEq((SVar("s"),), word("a")))), m, "ab")
    assert eval_formula(FNot(FAtom(atom_le(ALen("s"), AInt(0)))), m, "ab")


def test_eval_unassigned_variable():
    with pytest.raises(UnassignedVariableError):
        eval_formula(ROTATION, Model.make({}, {}), "ab")


def test_brute_force_first_model():
    got = brute_force_solve(ROTATION, "ab", Bound(3))
    assert got == Model.make({"s": "a"}, {})


def test_brute_force_rotation_with_constraints_has_no_model():
    pi = FAnd((ROTATION, MEMBER, PARITY))
    assert brute_force_solve(pi, "ab", Bound(6)) is None


def test_brute_force_epsilon():
    got = brute_force_solve(FEq((SVar("s"),), ()), "ab", Bound(0))
    assert got == Model.make({"s": ""}, {})


def test_brute_force_models_evaluate_true():
    rng = random.Random(9)
    hits = 0
    for _ in range(60):
        f = _random_formula(rng)
        got = brute_force_solve(f, "ab", Bound(3, 4))
        if got is not None:
            hits += 1
            assert eval_formula(f, got, "ab")
    assert hits > 10


def test_brute_force_deterministic():
    rng = random.Random(10)
    for _ in range(20):
        f = _random_formula(rng)
        a = brute_force_solve(f, "ab", Bound(3, 4))
        b = brute_force_solve(f, "ab", Bound(3, 4))
        assert a == b


def _random_formula(rng: random.Random):
    items = []
    vs = ["s", "t"][:rng.randint(1, 2)]

    def side():
        out = ()
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.4:
                out = out + (SVar(rng.choice(vs)),)
            else:
                out = out + word(rng.choice("ab"))
        return out

    items.append(FEq(side(), side()))
    if rng.random() < 0.5:
        items.append(FIn((SVar(rng.choice(vs)),),
                         rand_tame_regex(rng, "ab", 2)))
    if rng.random() < 0.5:
        items.append(FAtom(atom_le(ALen(rng.choice(vs)),
                                   AInt(rng.randint(0, 3)))))
    return conj(items)
