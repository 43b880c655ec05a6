import itertools
import random
from collections import Counter

import pytest

from stringsat.arith import (Hypothesis, LinAtom, LinearSystem,
                             arith_implies, arith_sat, lower, solve_system)
from stringsat.terms import (AAdd, AInt, AMax, AMin, AMod, ANeg, AScale,
                             AVar, ArithAtom, NonConstantDivisorError,
                             a_sub, atom_eq, atom_le, atom_lt, eval_atom)

N, N1, NP = AVar("n"), AVar("n1"), AVar("n'")


def test_lower_mod_single_system():
    systems = lower([atom_eq(AMod(N, AInt(2)), AInt(0))])
    assert len(systems) == 1
    kinds = sorted(a.kind for a in systems[0].atoms)
    assert kinds == ["eq", "eq", "le", "le"]


def test_lower_empty():
    systems = lower([])
    assert len(systems) == 1 and systems[0].atoms == ()


def test_lower_max_two_cases():
    systems = lower([atom_le(AMax(AVar("x"), AVar("y")), AInt(3))])
    assert len(systems) == 2


def test_lower_rejects_non_constant_divisor():
    with pytest.raises(NonConstantDivisorError):
        lower([atom_eq(AMod(N, AVar("p")), AInt(0))])
    with pytest.raises(NonConstantDivisorError):
        lower([atom_eq(AMod(N, AInt(0)), AInt(0))])


def test_unsat_core_of_closed_leaf():
    # n % 2 = 0, n1 = n - 1, n1 = 0, n > 0
    atoms = [atom_eq(AMod(N, AInt(2)), AInt(0)),
             atom_eq(N1, a_sub(N, AInt(1))),
             atom_eq(N1, AInt(0)),
             atom_lt(AInt(0), N)]
    assert arith_sat(atoms) is None


def test_simple_sat_with_witness():
    got = arith_sat([atom_eq(N, AInt(0))])
    assert got == {"n": 0}


def test_length_abstraction_unsat():
    nu, nv, nt = AVar("nu"), AVar("nv"), AVar("nt")
    rhs = AAdd(nv, AAdd(nu, AAdd(AInt(1), AAdd(nu, nt))))
    atoms = [atom_eq(nu, rhs)] + [atom_le(AInt(0), v) for v in (nu, nv, nt)]
    assert arith_sat(atoms) is None


def test_back_link_implication():
    hyp = [atom_eq(AMod(NP, AInt(2)), AInt(0)),
           atom_lt(AInt(0), NP),
           atom_eq(N1, a_sub(NP, AInt(1))),
           atom_lt(AInt(0), N1),
           atom_eq(N, a_sub(N1, AInt(1)))]
    assert arith_implies(hyp, [atom_eq(AMod(N, AInt(2)), AInt(0))])


def test_implies_trivial_and_counterexample():
    hyp = [atom_eq(AVar("x"), AInt(1))]
    assert arith_implies(hyp, [atom_le(AInt(0), AInt(0))])
    assert not arith_implies(hyp, [atom_eq(AVar("x"), AInt(2))])


def test_implies_reflexive():
    rng = random.Random(23)
    for _ in range(25):
        atoms = _random_atoms(rng, ["x", "y"])
        assert arith_implies(atoms, atoms)


def test_implies_monotone_in_hypothesis():
    rng = random.Random(29)
    for _ in range(25):
        concl = _random_atoms(rng, ["x"])
        hyp = _random_atoms(rng, ["x", "y"])
        if arith_implies(hyp, concl):
            assert arith_implies(hyp + concl, concl)
            assert arith_implies(hyp + [atom_eq(AVar("y"), AInt(0))], concl)


def _naive_implies(hyp, concl) -> bool:
    # reference: refute each disjunct of each negation from scratch
    for a in concl:
        if a.kind == "le":
            negs = [atom_le(AAdd(a.rhs, AInt(1)), a.lhs)]
        else:
            negs = [atom_le(AAdd(a.lhs, AInt(1)), a.rhs),
                    atom_le(AAdd(a.rhs, AInt(1)), a.lhs)]
        if any(arith_sat(list(hyp) + [n]) is not None for n in negs):
            return False
    return True


def test_implies_matches_naive_reference():
    # one prepared Hypothesis answers several conclusions, as in link_back;
    # conclusions may restate hypothesis atoms, share its mod subterm, or
    # name variables like the lowering's own ($q0, $r0)
    rng = random.Random(41)
    seen = Counter()
    for _ in range(40):
        shared = AMod(AAdd(AVar("x"), AVar(rng.choice(["x", "y"]))),
                      AInt(rng.randint(2, 4)))
        hyp = _random_atoms(rng, ["x", "y", "$r0"])
        hyp.append(rng.choice([atom_eq(shared, AVar("y")),
                               atom_le(AInt(1), shared),
                               atom_le(shared, AVar("x"))]))
        if arith_sat(hyp) is None:
            seen["vacuous"] += 1
        prepared = Hypothesis(hyp)
        for _ in range(3):
            concl = _random_atoms(rng, ["x", "y", "$q0", "$r0"])
            if rng.random() < 0.5:
                concl.append(rng.choice([atom_le(shared, AInt(3)),
                                         atom_eq(shared, AVar("y")),
                                         atom_le(AVar("y"), shared)]))
            if rng.random() < 0.4:
                concl.append(rng.choice(hyp))
            want = _naive_implies(hyp, concl)
            assert arith_implies(prepared, concl) == want, (hyp, concl)
            assert arith_implies(hyp, concl) == want, (hyp, concl)
            seen["implied" if want else "refuted"] += 1
    assert seen["vacuous"] > 5
    assert seen["implied"] > seen["vacuous"]
    assert seen["refuted"] > 25


def test_implies_keeps_conclusion_and_lowering_names_apart():
    m = AMod(AVar("x"), AInt(3))
    hyp = [atom_eq(AVar("y"), m)]  # lowered as x = 3*$q0 + $r1, y = $r1
    stray = atom_le(AVar("x"), AAdd(AScale(3, AVar("$q0")), AInt(2)))
    # a conclusion naming $q0 before the hypothesis is prepared
    assert not arith_implies(hyp, [stray])
    # ... and after: the prepared hypothesis has to be lowered again
    prepared = Hypothesis(hyp)
    assert arith_implies(prepared, [atom_le(AVar("y"), AInt(2))])
    assert not arith_implies(prepared, [stray])
    assert arith_implies(prepared, [atom_le(m, AVar("y"))])
    assert not arith_implies(prepared, [atom_eq(m, AInt(0))])


def test_sat_models_satisfy_inputs():
    rng = random.Random(31)
    sat = 0
    for _ in range(200):
        atoms = _random_atoms(rng, ["x", "y", "z"][:rng.randint(1, 3)])
        model = arith_sat(atoms)
        if model is not None:
            sat += 1
            assert all(eval_atom(a, model) for a in atoms)
    assert sat > 20


def test_agreement_with_enumeration():
    rng = random.Random(37)
    checked = 0
    for _ in range(500):
        vars_ = ["x", "y"][:rng.randint(1, 2)]
        atoms = _random_atoms(rng, vars_)
        for v in vars_:
            atoms.append(atom_le(AInt(-8), AVar(v)))
            atoms.append(atom_le(AVar(v), AInt(8)))
        got = arith_sat(atoms)
        found = None
        for vals in itertools.product(range(-8, 9), repeat=len(vars_)):
            env = dict(zip(vars_, vals))
            if all(eval_atom(a, env) for a in atoms):
                found = env
                break
        checked += 1
        assert (got is None) == (found is None), atoms
    assert checked == 500


def test_solve_system_exactness_on_big_coefficients():
    # no unit coefficient: the mod-reduction path must still be exact
    got = solve_system(LinearSystem((LinAtom("eq", (("x", 2), ("y", 3)), 1),)))
    assert got is not None and 2 * got["x"] + 3 * got["y"] == 1
    got = solve_system(LinearSystem((LinAtom("eq", (("x", 2), ("y", -2)), 3),)))
    assert got is None


def _random_atoms(rng: random.Random, vars_: list) -> list:
    def expr(depth: int):
        if depth == 0 or rng.random() < 0.45:
            if rng.random() < 0.5:
                return AInt(rng.randint(-5, 5))
            return AVar(rng.choice(vars_))
        k = rng.random()
        if k < 0.35:
            return AAdd(expr(depth - 1), expr(depth - 1))
        if k < 0.5:
            return ANeg(expr(depth - 1))
        if k < 0.65:
            return AScale(rng.randint(-3, 3), expr(depth - 1))
        if k < 0.8:
            return AMod(expr(depth - 1), AInt(rng.randint(1, 4)))
        if k < 0.9:
            return AMax(expr(depth - 1), expr(depth - 1))
        return AMin(expr(depth - 1), expr(depth - 1))

    out = []
    for _ in range(rng.randint(1, 3)):
        out.append(ArithAtom(rng.choice(["eq", "le"]), expr(2), expr(2)))
    return out
