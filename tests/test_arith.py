import copy
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from stringsat import arith
from stringsat.arith import (ArithInternalError, CapExceeded, Hypothesis,
                             LinAtom, LinearSystem, _Fresh, _lower_expr,
                             _lp_feasible, _mk_linatom, arith_implies,
                             arith_sat, lower, quick_unsat, solve_system)
from stringsat.terms import (AAdd, AInt, AMax, AMin, AMod, ANeg, AScale,
                             AVar, ArithAtom, NonConstantDivisorError,
                             atom_eq, atom_le, atom_lt, eval_atom,
                             fold_balanced, vars_of_atoms)

N, N1, NP = AVar("n"), AVar("n1"), AVar("n'")


def a_sub(a, b):
    return AAdd(a, ANeg(b))


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


def test_lower_caps_nested_max_as_it_builds():
    def nested(depth):
        e = AVar("k")
        for _ in range(depth):
            e = AMax(AInt(1), e)
        return atom_le(e, AInt(5))

    # 2**12 systems sit at the cap; one level more is refused before the
    # alternatives are built, however deep the nesting goes
    assert len(lower([nested(12)])) == 4096
    for depth in (13, 19, 40):
        with pytest.raises(CapExceeded):
            lower([nested(depth)])


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
    # name variables the hypothesis does not
    rng = random.Random(41)
    seen = Counter()
    for _ in range(40):
        shared = AMod(AAdd(AVar("x"), AVar(rng.choice(["x", "y"]))),
                      AInt(rng.randint(2, 4)))
        hyp = _random_atoms(rng, ["x", "y", "r0"])
        hyp.append(rng.choice([atom_eq(shared, AVar("y")),
                               atom_le(AInt(1), shared),
                               atom_le(shared, AVar("x"))]))
        if arith_sat(hyp) is None:
            seen["vacuous"] += 1
        prepared = Hypothesis(hyp)
        for _ in range(3):
            concl = _random_atoms(rng, ["x", "y", "q0", "r0"])
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
    stray = atom_le(AVar("x"), AAdd(AScale(3, AVar("q0")), AInt(2)))
    # q0 is a variable of its own, not the quotient of x by 3: before the
    # hypothesis is prepared ...
    assert not arith_implies(hyp, [stray])
    # ... and after
    prepared = Hypothesis(hyp)
    assert arith_implies(prepared, [atom_le(AVar("y"), AInt(2))])
    assert not arith_implies(prepared, [stray])
    assert arith_implies(prepared, [atom_le(m, AVar("y"))])
    assert not arith_implies(prepared, [atom_eq(m, AInt(0))])


def _chain_delta(rng: random.Random, vars_: list, shared) -> list:
    # one link of a path: linear atoms, a shared mod subterm, max/min, and
    # equalities without a unit coefficient (the Omega step)
    x, y, z = (AVar(rng.choice(vars_)) for _ in range(3))
    kind = rng.random()
    if kind < 0.3:
        return _linear_atoms(rng, vars_)[:2]
    if kind < 0.45:
        return [rng.choice([atom_eq(shared, AVar(rng.choice(vars_))),
                            atom_le(AInt(1), shared),
                            atom_le(AScale(2, shared), x)])]
    if kind < 0.6:
        return _random_atoms(rng, vars_)[:2]
    if kind < 0.8:
        a, b = rng.choice([(2, 3), (3, 5), (4, 6), (6, 9)])
        return [atom_eq(AAdd(AScale(a, x), AScale(b, y)),
                        AAdd(AScale(rng.choice([2, 4]), z),
                             AInt(rng.randint(-4, 4))))]
    return [atom_le(AInt(-6), x), atom_le(x, AInt(6)),
            atom_le(AMin(y, AInt(4)), AMax(z, AInt(-2)))]


def _definition(rng: random.Random, vars_: list, name: str):
    # an equality with a variable on the left, as an unfolding adds one
    # (`$n5 = $n3 - 1`): mostly a new name, sometimes a bound one
    lhs = name if rng.random() < 0.7 else rng.choice(vars_)
    return atom_eq(AVar(lhs), AAdd(AVar(rng.choice(vars_)),
                                   AInt(rng.randint(-2, 2))))


def _count_carried(monkeypatch) -> Counter:
    """Count the queries a carried witness answers, and check that the
    extension of the witness kept every binding it started from."""
    carried = Counter()

    def counted(hyp, atoms, _real=Hypothesis._carried):
        source = hyp
        while source._witness is None and source._parent is not None:
            source = source._parent
        env = _real(hyp, atoms)
        carried["hit" if env is not None else "miss"] += 1
        if env is not None:
            assert all(env[v] == value
                       for v, value in source._witness.items())
        return env

    monkeypatch.setattr(Hypothesis, "_carried", counted)
    return carried


def _assert_witness_holds(hyp: Hypothesis) -> None:
    # a plain dict: a variable of the atoms left unbound is a KeyError
    if hyp._witness is not None:
        env = dict(hyp._witness)
        assert all(eval_atom(a, env) for a in hyp.atoms), hyp.atoms


def test_extend_agrees_with_arith_sat_on_every_prefix(monkeypatch):
    carried = _count_carried(monkeypatch)
    rng = random.Random(71)
    seen = Counter()
    for _ in range(60):
        vars_ = ["x", "y", "z", "w"]
        shared = AMod(AAdd(AVar("x"), AVar(rng.choice(vars_))),
                      AInt(rng.randint(2, 4)))
        atoms = _chain_delta(rng, vars_, shared)
        chain = [Hypothesis(atoms)]
        for _ in range(rng.randint(2, 6)):
            delta = _chain_delta(rng, vars_, shared)
            if rng.random() < 0.2:
                delta.append(rng.choice(atoms))  # restated
            if rng.random() < 0.1:
                # a variable of no other atom
                delta.append(atom_le(AVar("q0"), AVar(rng.choice(vars_))))
            if rng.random() < 0.6:
                if rng.random() < 0.5:
                    delta = []  # a definition alone, as most unfoldings add
                name = f"d{len(chain)}"
                delta.insert(0, _definition(rng, vars_, name))
                vars_ = vars_ + [name]
            atoms = atoms + delta
            chain.append(chain[-1].extend(delta))
        for i, hyp in enumerate(chain):
            # query a prefix now and then, so later links grow from a
            # parent that was queried, or from one never prepared, and
            # start from a witness near them or far up
            if rng.random() < 0.5 or i == len(chain) - 1:
                want = arith_sat(hyp.atoms) is not None
                assert hyp.consistent_with([]) == want, hyp.atoms
                seen["sat" if want else "unsat"] += 1
            if rng.random() < 0.3:
                extra = _linear_atoms(rng, vars_)[:1]
                want = arith_sat(hyp.atoms + extra) is not None
                assert hyp.consistent_with(extra) == want, (hyp.atoms, extra)
        # a query atom the hypothesis does not state
        extra = _random_atoms(rng, vars_)
        want = arith_sat(atoms + extra) is not None
        assert chain[-1].consistent_with(extra) == want, (atoms, extra)
        for hyp in chain:
            _assert_witness_holds(hyp)
    assert seen["sat"] > 20 and seen["unsat"] > 20, seen
    assert carried["hit"] > 20 and carried["miss"] > 20, carried


def test_witnesses_stay_on_their_own_branch(monkeypatch):
    # a random tree of extensions, queried in random order: a witness
    # recorded in one branch must never answer for a sibling's
    carried = _count_carried(monkeypatch)
    rng = random.Random(79)
    for _ in range(40):
        vars_ = ["x", "y", "z"]
        shared = AMod(AVar("y"), AInt(rng.randint(2, 3)))
        tree = [Hypothesis(_linear_atoms(rng, vars_)[:1])]
        for k in range(8):
            delta = [_definition(rng, vars_, f"d{k}")]
            if rng.random() < 0.7:
                delta += _chain_delta(rng, vars_ + [f"d{k}"], shared)[:1]
            tree.append(rng.choice(tree).extend(delta))
        for _ in range(12):
            hyp = rng.choice(tree)
            extra = _linear_atoms(rng, vars_)[:1] if rng.random() < 0.3 else []
            want = arith_sat(hyp.atoms + extra) is not None
            assert hyp.consistent_with(extra) == want, (hyp.atoms, extra)
        for hyp in tree:
            _assert_witness_holds(hyp)
    assert carried["hit"] > 50 and carried["miss"] > 50, carried
    # the smallest case: one sibling's model fails the other's delta
    root = Hypothesis([atom_le(AInt(0), AVar("x")), atom_le(AVar("x"), AInt(5))])
    low = root.extend([atom_le(AVar("x"), AInt(1))])
    high = root.extend([atom_le(AInt(6), AAdd(AVar("x"), AVar("y"))),
                        atom_le(AVar("y"), AInt(0))])
    assert low.consistent_with([])
    assert not high.consistent_with([])


def test_a_carried_witness_answers_without_reducing(monkeypatch):
    reductions = Counter()

    def counted(*args, _real=arith._reduce):
        reductions["n"] += 1
        return _real(*args)

    monkeypatch.setattr(arith, "_reduce", counted)
    x, n3, n5 = AVar("x"), AVar("$n3"), AVar("$n5")
    root = Hypothesis([atom_eq(AMod(n3, AInt(2)), AInt(1)),
                       atom_le(AInt(3), n3), atom_le(n3, x)])
    assert root.consistent_with([])
    assert reductions["n"] > 0
    reductions.clear()
    # an unfolding's delta: $n5 is defined from the witness's $n3
    child = root.extend([atom_eq(n5, AAdd(n3, AInt(-1))),
                         atom_le(AInt(1), n5)])
    assert child.consistent_with([])
    assert child.consistent_with([atom_eq(AMod(n5, AInt(2)), AInt(0))])
    assert arith_implies(child, [atom_le(AInt(2), n5)])  # refuted: reduces
    reductions.clear()
    assert not arith_implies(child, [atom_le(n5, AInt(1))])
    assert reductions["n"] == 0
    # only an equality with an unbound variable on its left defines it;
    # an inequality does not, and the witness reads the variable as 0
    d = AVar("d")
    grand = child.extend([atom_le(AInt(4), d),
                          atom_le(d, AAdd(n5, AInt(3)))])
    assert grand.consistent_with([])
    assert reductions["n"] > 0


def test_extend_keeps_delta_and_lowering_names_apart():
    m = AMod(AVar("x"), AInt(3))
    root = Hypothesis([atom_eq(AVar("y"), m)])  # x = 3*$q0 + $r1, y = $r1
    assert root.consistent_with([])
    # q0 here is a variable of its own, not the quotient of x by 3
    stray = [atom_eq(AVar("x"), AInt(7)),
             atom_eq(AVar("q0"), AInt(5)), atom_eq(AVar("y"), AInt(1))]
    child = root.extend(stray)
    assert child.consistent_with([])
    assert arith_sat(root.atoms + stray) is not None
    assert not child.consistent_with([atom_eq(AVar("y"), AInt(2))])
    # the sibling grown from the same parent sees none of it
    sibling = root.extend([atom_eq(AVar("x"), AInt(8))])
    assert sibling.consistent_with([atom_eq(AVar("y"), AInt(2))])
    assert not sibling.consistent_with([atom_eq(m, AInt(1))])
    # a delta of its own variable, then a query with a mod of its own
    ahead = root.extend([atom_eq(AVar("r3"), AInt(2))])
    assert ahead.consistent_with([atom_eq(AMod(AVar("z"), AInt(4)),
                                          AInt(1))])


def test_reserved_names_are_refused():
    # $q, $r, $v (lowering) and $s (equality elimination) name the
    # backend's auxiliaries: lowering an input atom that names one is an
    # internal error
    m = AMod(AVar("x"), AInt(3))
    hyp = [atom_eq(AVar("y"), m)]  # lowered as x = 3*$q0 + $r1, y = $r1
    stray = atom_le(AVar("x"), AAdd(AScale(3, AVar("$q0")), AInt(2)))
    with pytest.raises(ArithInternalError):  # a root's atoms
        Hypothesis(hyp + [stray]).consistent_with([])
    root = Hypothesis(hyp)
    with pytest.raises(ArithInternalError):  # a delta, below a root
        root.extend([atom_eq(AVar("$r3"), AInt(2))]).consistent_with([])
    with pytest.raises(ArithInternalError):  # a query atom
        root.consistent_with([atom_le(AVar("$v0"), AInt(-1))])
    for prepared in (hyp, root):  # a conclusion, before and after
        with pytest.raises(ArithInternalError):
            arith_implies(prepared, [stray])
    q0 = AVar("$q0")
    for atoms in ([atom_eq(AScale(2, AVar("$s0")), AVar("x"))],
                  [atom_le(AMax(AVar("$v1"), AVar("x")), AInt(0))],
                  # the check reads the names before terms that cancel
                  # are dropped, and inside mod/max at any depth
                  [atom_eq(AAdd(q0, ANeg(q0)), AInt(0))],
                  [atom_eq(AMod(AAdd(AVar("x"), AVar("$r2")), AInt(3)),
                           AInt(1))],
                  [atom_le(AMax(AVar("x"), AScale(2, AVar("$s1"))),
                           AInt(4))],
                  [atom_eq(AMod(AVar("x"), AVar("$q1")), AInt(0))]):
        with pytest.raises(ArithInternalError):
            arith_sat(atoms)
        with pytest.raises(ArithInternalError):
            quick_unsat(atoms)
        with pytest.raises(ArithInternalError):
            Hypothesis(hyp).consistent_with(atoms)
    # the engine's own "$" names are inputs like any other
    engine_names = [atom_le(AVar("$n0"), AVar("$fp1")),
                    atom_eq(AMod(AVar("$k0_0"), AInt(2)), AVar("$m0"))]
    assert arith_sat(engine_names) is not None
    assert Hypothesis(engine_names).consistent_with([])


def test_extend_leaves_the_parent_reduction_unchanged():
    rng = random.Random(73)
    for _ in range(40):
        vars_ = ["x", "y", "z"]
        shared = AMod(AVar("y"), AInt(rng.randint(2, 4)))
        parent = Hypothesis(_chain_delta(rng, vars_, shared)
                            + _chain_delta(rng, vars_, shared))
        parent.consistent_with([])
        before = copy.deepcopy([(r.ineqs, r.subs) for r in parent._systems])
        for _ in range(3):
            child = parent.extend(_chain_delta(rng, vars_, shared))
            child.consistent_with(_linear_atoms(rng, vars_)[:1])
            parent.consistent_with(_linear_atoms(rng, vars_)[:1])
        assert [(r.ineqs, r.subs) for r in parent._systems] == before


def test_extend_checks_the_case_split_cap_on_the_product(monkeypatch):
    def nested(var, depth):
        e = AVar(var)
        for _ in range(depth):
            e = AMax(AInt(1), e)
        return atom_le(e, AInt(5))

    root = Hypothesis([nested("k", 6)])  # 64 systems
    assert root.consistent_with([])
    needs_j = atom_le(AInt(2), AVar("j"))  # root's witness reads j as 0
    assert root.extend([nested("j", 6), needs_j]).consistent_with([])  # 4096
    with pytest.raises(CapExceeded):
        lower(root.atoms + [nested("j", 7)])
    # refused before any of the 8192 systems is reduced
    reductions = Counter()

    def counted(*args, _real=arith._reduce):
        reductions["n"] += 1
        return _real(*args)

    monkeypatch.setattr(arith, "_reduce", counted)
    # root's witness fails 2 <= j, so the query has to lower, and the cap
    # refuses it
    with pytest.raises(CapExceeded):
        root.extend([nested("j", 7), needs_j]).consistent_with([])
    assert reductions["n"] == 0
    with pytest.raises(CapExceeded):
        root.consistent_with([nested("j", 7), needs_j])
    # the same over-cap atoms with j = 0 hold under root's witness, which
    # answers without lowering or reducing anything
    assert root.extend([nested("j", 7)]).consistent_with([])
    assert root.consistent_with([nested("j", 7)])
    assert reductions["n"] == 0


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


@pytest.mark.parametrize("sign", [1, -1])
def test_branch_and_bound_takes_the_arm_toward_zero_first(monkeypatch, sign):
    # 1 <= a - b - 3q <= 2 with a = 3k, every variable on one side of
    # zero: the model k = 1, b = 1 lies next to the LP point, while the
    # arm away from zero climbs without end (past any node cap when it
    # is taken first, as the positive orientation once did)
    monkeypatch.setattr(arith, "_BB_NODE_CAP", 1000)

    def v(name):
        return AScale(sign, AVar(name))

    diff = AAdd(a_sub(v("a"), v("b")), AScale(-3, v("q")))
    atoms = [atom_le(AInt(1), diff), atom_le(diff, AInt(2)),
             atom_eq(v("a"), AScale(3, v("k")))]
    atoms += [atom_le(AInt(0), v(name)) for name in "abqk"]
    model = arith_sat(atoms)
    assert model is not None and all(eval_atom(a, model) for a in atoms)
    assert {n: sign * model[n] for n in "abqk"} == \
        {"a": 3, "b": 1, "q": 0, "k": 1}


def test_quick_unsat_never_refutes_a_satisfiable_system():
    # bounded systems; equalities without a unit coefficient make
    # equality elimination issue its "$s<n>" variables
    rng = random.Random(53)
    vars_ = ["x", "y", "s0", "s1"]

    def combination():
        return fold_balanced(AAdd, [
            AScale(rng.choice((-4, -3, -2, 2, 3, 4)), AVar(v))
            for v in rng.sample(vars_, rng.randint(1, 3))])

    refuted = 0
    for _ in range(1000):
        atoms = [ArithAtom(rng.choice(("eq", "eq", "le")), combination(),
                           AInt(rng.randint(-9, 9)))
                 for _ in range(rng.randint(1, 3))]
        atoms += [atom_le(AInt(-8), AVar(v)) for v in vars_]
        atoms += [atom_le(AVar(v), AInt(8)) for v in vars_]
        if quick_unsat(atoms):
            refuted += 1
            assert arith_sat(atoms) is None, atoms
    assert refuted > 100


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


# ---------------------------------------------------------------------------
# The integer kernels against their rational / always-memoized references
# ---------------------------------------------------------------------------

def _fraction_lp_feasible(ineqs, variables, events):
    """The dense Fraction tableau the integer simplex replaced, kept as its
    reference: same pivot rules, so the same point.  ``events`` counts the
    rarer paths taken (Bland's rule, artificial drive-out, ratio ties)."""
    n = len(variables)
    m = len(ineqs)
    if m == 0:
        return {v: Fraction(0) for v in variables}
    ncols = 2 * n + m
    vidx = {v: i for i, v in enumerate(variables)}
    total = ncols + m
    tab = []
    basis = []
    for j, (coeffs, const) in enumerate(ineqs):
        row = [Fraction(0)] * ncols
        for v, c in coeffs.items():
            row[2 * vidx[v]] = Fraction(c)
            row[2 * vidx[v] + 1] = Fraction(-c)
        row[2 * n + j] = Fraction(1)
        b = Fraction(const)
        if b < 0:
            row = [-x for x in row]
            b = -b
        row += [Fraction(0)] * m
        row[ncols + j] = Fraction(1)
        tab.append(row + [b])
        basis.append(ncols + j)
    obj = [Fraction(0)] * (total + 1)
    for j in range(m):
        for k in range(ncols):
            obj[k] += tab[j][k]
        obj[total] += tab[j][total]

    def pivot(r, c):
        piv = tab[r][c]
        tab[r] = [x / piv for x in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        if obj[c] != 0:
            f = obj[c]
            for k in range(total + 1):
                obj[k] -= f * tab[r][k]
        basis[r] = c

    def optimize(allowed):
        stall = 0
        while True:
            if stall < 60:
                enter, best_cost = None, 0
                for c in range(allowed):
                    if obj[c] > best_cost:
                        enter, best_cost = c, obj[c]
            else:
                events["bland"] += 1
                enter = next((c for c in range(allowed) if obj[c] > 0), None)
            if enter is None:
                return
            best = None
            for r in range(m):
                if tab[r][enter] > 0:
                    key = (tab[r][total] / tab[r][enter], basis[r])
                    if best is not None and key[0] == best[0][0]:
                        events["ratio tie"] += 1
                    if best is None or key < best[0]:
                        best = (key, r)
            assert best is not None, "unbounded"
            stall = stall + 1 if best[0][0] == 0 else 0
            pivot(best[1], enter)

    optimize(total)
    if obj[total] != 0:
        return None
    values = [Fraction(0)] * total
    for r, b in enumerate(basis):
        values[b] = tab[r][total]
    if any(values[ncols + j] != 0 for j in range(m)):
        return None
    for r in range(m):
        if basis[r] >= ncols:
            c = next((c for c in range(ncols) if tab[r][c] != 0), None)
            if c is not None:
                events["drive-out"] += 1
                pivot(r, c)
    obj[:] = [Fraction(0)] * (total + 1)
    for i in range(2 * n):
        obj[i] = Fraction(-1)
    for r, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            for k in range(total + 1):
                obj[k] -= f * tab[r][k]
    optimize(ncols)
    values = [Fraction(0)] * total
    for r, b in enumerate(basis):
        values[b] = tab[r][total]
    return {v: values[2 * i] - values[2 * i + 1] for v, i in vidx.items()}


def _random_lp(rng: random.Random):
    variables = ["v%d" % i for i in range(rng.randint(1, 4))]
    rows = []
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        if shape < 0.1:  # a zero row: only its slack
            rows.append(({}, rng.randint(-2, 3)))
            continue
        if shape < 0.3:  # branch rows: one variable, possibly huge bounds
            v = rng.choice(variables)
            big = rng.choice([rng.randint(-3, 3), 10 ** rng.randint(6, 30)])
            rows.append(({v: 1}, big) if rng.random() < 0.5
                        else ({v: -1}, -big))
            continue
        vs = rng.sample(variables, rng.randint(1, len(variables)))
        rows.append(({v: rng.choice([-3, -2, -1, 1, 1, 2, 3]) for v in vs},
                     rng.randint(-6, 6)))
    if rows and rng.random() < 0.3:
        # restated and scaled rows: ratio ties, degenerate pivots and
        # artificials left basic at level zero
        for cs, k in rng.sample(rows, rng.randint(1, len(rows))):
            f = rng.randint(1, 3)
            rows.append(({v: f * c for v, c in cs.items()}, f * k))
    return rows, variables


def test_integer_simplex_matches_fraction_tableau():
    rng = random.Random(53)
    events = Counter()
    for _ in range(1500):
        rows, variables = _random_lp(rng)
        want = _fraction_lp_feasible([(dict(c), k) for c, k in rows],
                                     variables, events)
        got = _lp_feasible(rows, variables)
        assert got == want, (rows, variables)
        if got is None:
            events["infeasible"] += 1
        else:
            assert all(type(x) is Fraction for x in got.values())
            events["fractional" if any(x.denominator != 1
                                       for x in got.values())
                   else "integral"] += 1
        events["negative constant"] += any(k < 0 for _, k in rows)
    for kind in ("infeasible", "integral", "fractional", "ratio tie",
                 "negative constant"):
        assert events[kind] > 20, events
    assert events["drive-out"] >= 5, events  # the rarest path


def test_integer_simplex_degenerate_stall_switches_to_bland():
    # a degenerate vertex shared by many rows stalls Dantzig's rule: draw
    # 184 stalls long enough for the switch to Bland's rule, and draw 179
    # ends at another point if the switch comes after 30 stalled steps
    events = Counter()
    for seed in (179, 184):
        rng = random.Random(seed)
        variables = ["v%d" % i for i in range(6)]
        rows = [({v: rng.choice([-2, -1, 1, 2]) for v in variables}, 0)
                for _ in range(16)]
        rows.append(({v: -1 for v in variables}, -1))
        want = _fraction_lp_feasible([(dict(c), k) for c, k in rows],
                                     variables, events)
        assert want is not None
        assert _lp_feasible(rows, variables) == want
    assert events["bland"] > 0


def _memo_path_lower(atoms, fresh=None, memo=None):
    """``lower`` as it was before linear atoms skipped the memo: every atom
    goes through ``_lower_expr``."""
    if fresh is None:
        fresh = _Fresh()
    if memo is None:
        memo = {}
    systems = [()]
    for a in atoms:
        branches = []
        for xl, sl in _lower_expr(a.lhs, fresh, memo):
            for xr, sr in _lower_expr(a.rhs, fresh, memo):
                branches.append((ArithAtom(a.kind, xl, xr),) + sl + sr)
        systems = [s + b for s in systems for b in branches]
    return [LinearSystem(tuple(_mk_linatom(a.kind, a.lhs, a.rhs)
                               for a in s)) for s in systems]


def _linear_atoms(rng: random.Random, vars_: list) -> list:
    def expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return (AInt(rng.randint(-5, 5)) if rng.random() < 0.4
                    else AVar(rng.choice(vars_)))
        k = rng.random()
        if k < 0.5:
            return AAdd(expr(depth - 1), expr(depth - 1))
        if k < 0.7:
            return ANeg(expr(depth - 1))
        return AScale(rng.randint(-3, 3), expr(depth - 1))
    return [ArithAtom(rng.choice(["eq", "le"]), expr(3), expr(3))
            for _ in range(rng.randint(1, 4))]


def test_lower_fast_path_matches_memo_path():
    rng = random.Random(61)
    for _ in range(300):
        vars_ = ["x", "y", "q0", "v1"][:rng.randint(1, 4)]
        atoms = _linear_atoms(rng, vars_) + _random_atoms(rng, vars_)
        rng.shuffle(atoms)
        assert lower(atoms) == _memo_path_lower(atoms), atoms
        linear = _linear_atoms(rng, vars_)
        assert lower(linear) == _memo_path_lower(linear), linear


def test_lower_shares_a_mod_subterm_across_atoms():
    m = AMod(AAdd(AVar("x"), AInt(1)), AInt(3))
    atoms = [atom_le(AVar("y"), AVar("x")), atom_eq(m, AVar("y")),
             atom_le(AInt(0), AVar("x")), atom_le(AScale(2, m), AInt(3))]
    systems = lower(atoms)
    assert systems == _memo_path_lower(atoms)
    (system,) = systems
    aux = {v for a in system.atoms for v, _ in a.coeffs if v.startswith("$")}
    assert aux == {"$q0", "$r1"}


def test_lower_with_caller_fresh_and_memo_matches_memo_path():
    # Hypothesis-style use: one fresh source and memo across a hypothesis
    # and then one conclusion atom at a time
    rng = random.Random(67)
    for _ in range(100):
        vars_ = ["x", "y", "z"]
        shared = AMod(AVar(rng.choice(vars_)), AInt(rng.randint(2, 4)))
        hyp = _linear_atoms(rng, vars_) + _random_atoms(rng, vars_)
        hyp.append(atom_le(shared, AVar("y")))
        rng.shuffle(hyp)
        concl = (_linear_atoms(rng, vars_) + _random_atoms(rng, vars_)
                 + [atom_eq(shared, AInt(1))])
        got_fresh, want_fresh = _Fresh(), _Fresh()
        got_memo, want_memo = {}, {}
        for batch in [hyp] + [[a] for a in concl]:
            got = lower(batch, got_fresh, got_memo)
            want = _memo_path_lower(batch, want_fresh, want_memo)
            assert got == want, batch
            assert got_fresh.n == want_fresh.n


D, D1, D2, M = AVar("d"), AVar("d1"), AVar("d2"), AVar("m")
PARITY_N = atom_eq(AMod(N, AInt(2)), AInt(0))


@pytest.mark.parametrize("atoms", [
    # unit equalities, one after the other: n >= 2
    [atom_eq(D1, AAdd(N, AInt(-1))), atom_eq(D2, AAdd(D1, AInt(-1))),
     atom_le(AInt(0), D2)],
    # bounded below only: no constraint is left
    [atom_le(N, D), atom_le(AInt(3), D)],
    # Fourier-Motzkin with every lower coefficient 1: 2n <= m
    [atom_le(AScale(2, N), D), atom_le(D, M)],
    # and with every upper coefficient 1: n <= 2m
    [atom_le(N, AScale(2, D)), atom_le(D, M)],
    # an atom without a dead variable stays as it is, mod and all
    [PARITY_N, atom_eq(D, AAdd(N, AInt(1))), atom_le(D, AInt(4))],
    # an equality giving the dead variable coefficient -1: n - 3 <= m
    [atom_eq(AAdd(N, AScale(-1, D)), AInt(3)), atom_le(D, M)],
    # substitution into a non-unit equality keeps it: 2n = m
    [atom_eq(D, N), atom_eq(AScale(2, D), M)],
    # what holds outright after substitution goes: n <= n + 1
    [atom_eq(D, AAdd(N, AInt(1))), atom_le(N, D)],
])
def test_project_is_exists_dead(atoms):
    dead = {"d", "d1", "d2"}
    got = arith.project(atoms, dead)
    assert got is not None and not vars_of_atoms(got) & dead
    assert [a for a in atoms if not vars_of_atoms([a]) & dead] == \
        [a for a in got if a in atoms]
    live = sorted(vars_of_atoms(atoms) - dead)
    gone = sorted(vars_of_atoms(atoms) & dead)
    for vals in itertools.product(range(-4, 5), repeat=len(live)):
        env = dict(zip(live, vals))
        witnessed = any(
            all(eval_atom(a, {**env, **dict(zip(gone, ds))}) for a in atoms)
            for ds in itertools.product(range(-12, 13), repeat=len(gone)))
        assert all(eval_atom(a, env) for a in got) == witnessed, env


@pytest.mark.parametrize("atoms", [
    # a dead variable inside mod
    [atom_eq(AMod(D, AInt(2)), AInt(0)), atom_eq(D, N)],
    # only a non-unit equality
    [atom_eq(AScale(2, D), N)],
    # non-unit bounds on both sides: n <= 2d <= m is not n <= m
    [atom_le(N, AScale(2, D)), atom_le(AScale(2, D), M)],
])
def test_project_refuses_what_it_cannot_eliminate_exactly(atoms):
    assert arith.project(atoms, {"d"}) is None
