import glob
import hashlib
import itertools
import os
import random

import pytest

from corpus import (draw_acyclic, draw_one_cycle, gen_small_normalized,
                    rand_regex, rand_tame_regex)
from stringsat import engine, frontend, oracle
from stringsat.arith import Hypothesis, arith_implies, arith_sat
from stringsat.classify import (FragmentTag, _first_repeated,
                                classify_fragment)
from stringsat.engine import (BackLinkedTo, ClosedUnsat, EngineInternalError,
                              GaveUp, OA_FULL, OA_LENGTHS_ONLY, Open,
                              UnfoldChild, export_tree,
                              init_normalize, link_back, node_hypothesis,
                              oa_unsat,
                              over_approx, residual_empty, solve_conjunction,
                              under_approx_check, unfold)
from stringsat.regexes import (compiled, length_set, lengths_reachable,
                               product)
from stringsat.terms import (AAdd, AInt, ALen, AMod, AScale, AVar, CChar,
                             Define, Equation, FAnd, FAtom, FEq, FIn,
                             Membership, Model, NormalizedFormula, RCat,
                             RComp, RInter, RLit, RStar, RUnion, RWord,
                             SPred, SVar, atom_eq,
                             atom_le,
                             vars_of_atoms,
                             _free_index, arith_len_vars, atom_lt,
                             eval_arith,
                             eval_atom, length_components, length_expr,
                             normalized_to_formula, rename_atom_vars,
                             subterm_vars, word)

ROTATE_RE = RCat(RStar(RWord("ab")), RWord("a"))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve(f, var):
    """The word var stands for in f, read from scratch through f's
    definitions: characters and the predicates of the undefined variables,
    each with its length variable from f.lengths.  The reference for the
    membership terms that unfolding rewrites."""
    defs = {c.var: c for c in f.subterms}
    lens = f.length_map()

    def walk(v, path):
        if v in path:
            raise ValueError("cyclic subterm constraints")
        d, path = defs.get(v), path | {v}
        if d is None:
            return (SPred(v, lens[v]),)
        return tuple(b for a in d.term for b in (
            walk(a.name, path) if isinstance(a, SVar) else (a,)))

    return walk(var, frozenset())


def with_members(f, *pairs, sigma=("a", "b")):
    """f with a membership per (variable, regex), each with its term as
    resolved in f, its automaton, and its length components over that
    term, multipliers named by position as init_normalize names them."""
    members = []
    for i, (v, r) in enumerate(pairs):
        term, dfa = resolve(f, v), compiled(r, sigma)
        members.append(Membership(v, r, term, dfa, length_components(
            length_expr(term), dfa.lengths, f"$k{i}_")))
    return f.with_(memberships=tuple(members))


def worked_example():
    return [FEq(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba")),
            FIn((SVar("s"),), ROTATE_RE),
            FAtom(atom_eq(AMod(ALen("s"), AInt(2)), AInt(0)))]


def test_init_pairs_variables_with_predicates():
    f0 = init_normalize(worked_example(), "ab")
    p = SPred("$u0", "$n0")
    assert f0.equations == (Equation(word("ab") + (p,), (p,) + word("ba")),)
    assert f0.subterms == (Define("s", (SVar("$u0"),)),)
    assert f0.memberships == (Membership("s", ROTATE_RE, (p,)),)
    # the length constraint now speaks about the fresh length variable
    assert atom_eq(AMod(AVar("$n0"), AInt(2)), AInt(0)) in f0.arith
    assert atom_le(AInt(0), AVar("$n0")) in f0.arith


def test_init_gives_each_variable_one_membership_of_its_regexes():
    # x's three regexes become one membership, their left fold in
    # assertion order, whose automaton is the product of theirs; a
    # membership on a compound term keeps its own $m name, even when the
    # same term is asserted twice
    x, y = SVar("x"), SVar("y")
    r1, r2, r3 = ROTATE_RE, RStar(RWord("aba")), RComp(RWord("ab"))
    conj = [FIn((x,), r1), FIn((y, x), r2), FIn((x,), r2),
            FIn((y,), r3), FIn((y, x), r3), FIn((x,), r3)]
    f0 = init_normalize(conj, "ab")
    assert [m.var for m in f0.memberships] == ["x", "$m0", "y", "$m1"]
    assert [m.regex for m in f0.memberships] == \
        [RInter(RInter(r1, r2), r3), r2, r3, r3]
    # variables are numbered in first-occurrence order: $m0, y, x, $m1
    m0, p_y, p_x, m1 = (SPred(f"$u{i}", f"$n{i}") for i in range(4))
    assert f0.equations == (Equation((m0,), (p_y, p_x)),
                            Equation((m1,), (p_y, p_x)))
    d1, d2, d3 = (compiled(r, ("a", "b")) for r in (r1, r2, r3))
    both = product(product(d1, d2, lambda a, b: a and b), d3,
                   lambda a, b: a and b)
    assert [m.dfa for m in f0.memberships] == [both, d2, d3, d3]


@pytest.mark.parametrize("conj,reason", [
    ([FEq((CChar("a"), SVar("x")), (SVar("x"), CChar("a"))),
      FIn((SVar("x"),), RStar(RLit("a"))),
      FIn((SVar("x"),), RCat(RLit("b"), RStar(RLit("a"))))],
     "membership residual empty: x"),
    ([FEq((CChar("a"), SVar("x")), (SVar("y"), CChar("a"))),
      FIn((SVar("x"),), RUnion(RStar(RWord("aa")), RLit("b"))),
      FIn((SVar("x"),), RUnion(RStar(RWord("aaa")), RWord("bb"))),
      FAtom(atom_eq(ALen("x"), AInt(2)))],
     "length abstraction unsat"),
], ids=["empty-intersection", "intersection-lengths"])
def test_an_intersection_closes_what_separate_memberships_unfold(conj,
                                                                 reason):
    # a* and b.a* are each non-empty, and their intersection is empty;
    # the lengths of (aa)*|b and of (aaa)*|bb both hold 2, and those of
    # their intersection, (a^6)*, do not.  With one membership per regex
    # the search took 3 and 11 nodes to close these
    ans = solve_conjunction(conj, "ab")
    assert ans.verdict == "unsat"
    assert [n.status for n in ans.tree.nodes] == [ClosedUnsat(reason)]


def test_every_node_reads_the_automaton_init_normalize_set(monkeypatch):
    # memberships on a variable and on a named term, and a regex two of
    # them share; after init_normalize only the model checks (the
    # reference evaluator) compile anything.  |x| >= 3 keeps the length
    # probe's all-a words out of ROTATE_RE, so the search unfolds.  Every
    # node reads the length components init_normalize built as well
    conj = [FEq((SVar("x"), SVar("y")), (SVar("y"), SVar("x"))),
            FIn((SVar("x"),), ROTATE_RE),
            FIn((SVar("y"), SVar("x")), ROTATE_RE),
            FIn((SVar("y"),), RStar(RWord("ba"))),
            FAtom(atom_le(AInt(3), ALen("x")))]
    phase, compiles = ["init"], []
    real_init, real_check = engine.init_normalize, engine._oracle.eval_formula
    real_compiled = engine._regexes.compiled

    def init(*args):
        f = real_init(*args)
        phase[0] = "search"
        return f

    def model_check(*args):
        phase[0] = "model check"
        try:
            return real_check(*args)
        finally:
            phase[0] = "search"

    def compiled_(r, sigma):
        compiles.append(phase[0])
        return real_compiled(r, sigma)

    monkeypatch.setattr(engine, "init_normalize", init)
    monkeypatch.setattr(engine._oracle, "eval_formula", model_check)
    monkeypatch.setattr(engine._regexes, "compiled", compiled_)
    ans = solve_conjunction(conj, "ab")
    assert ans.verdict == "sat" and len(ans.tree.nodes) > 3
    root = ans.tree.nodes[0].formula
    assert compiles.count("init") == len(root.memberships) == 3
    assert "search" not in compiles
    for i, m in enumerate(root.memberships):
        assert m.dfa == real_compiled(m.regex, ("a", "b"))
        assert m.components == length_components(
            length_expr(m.term), m.dfa.lengths, f"$k{i}_")
    for node in ans.tree.nodes:
        for m, at_root in zip(node.formula.memberships, root.memberships):
            assert m.dfa is at_root.dfa
            assert m.components is at_root.components


def test_init_on_variable_free_formula():
    f0 = init_normalize([FEq(word("ab"), word("ab"))], "ab")
    assert f0.equations == (Equation(word("ab"), word("ab")),)
    assert f0.subterms == () and f0.lengths == ()


def test_init_reduces_length_sums():
    from stringsat.terms import AAdd
    conjs = [FEq((SVar("s"),), (SVar("t"),)),
             FAtom(atom_le(AAdd(ALen("s"), ALen("t")), AInt(4)))]
    f0 = init_normalize(conjs, "ab")
    assert f0.lengths == (("$u0", "$n0"), ("$u1", "$n1"))
    reduced = atom_le(AAdd(AVar("$n0"), AVar("$n1")), AInt(4))
    assert reduced in f0.arith


def test_unfold_worked_example_first_step():
    f0 = init_normalize(worked_example(), "ab")
    kids = unfold(f0)
    assert [k.rule for k in kids] == ["small-base", "small-ind"]
    base, ind = kids[0].formula, kids[1].formula
    assert base.equations == (Equation(word("ab"), word("ba")),)
    assert Define("$u0", ()) in base.subterms
    assert atom_eq(AVar("$n0"), AInt(0)) in base.arith
    # the rest gets the fresh names; s's own constraint is untouched
    p1 = SPred("$u1", "$n1")
    assert ind.equations == (Equation(word("ba") + (p1,),
                                      (p1,) + word("ba")),)
    assert ind.subterms == (Define("s", (SVar("$u0"),)),
                            Define("$u0", (CChar("a"), SVar("$u1"))))
    assert ind.lengths == (("$u1", "$n1"),)


def test_unfold_const_succ():
    f = NormalizedFormula(equations=(Equation(word("ab"), word("ab")),),
                          alphabet=("a", "b"))
    kids = unfold(f)
    assert [k.rule for k in kids] == ["const-succ"]
    assert kids[0].formula.equations == (Equation(word("b"), word("b")),)


def test_unfold_const_fail():
    f = NormalizedFormula(equations=(Equation(word("ab"), word("ba")),),
                          alphabet=("a", "b"))
    assert unfold(f) == []


def test_unfold_is_exhaustive_for_eps_cases():
    p = SPred("$u0", "$n0")
    f = NormalizedFormula(equations=(Equation((), (CChar("a"), p)),),
                          lengths=(("$u0", "$n0"),), alphabet=("a",))
    kids = unfold(f)
    assert [k.rule for k in kids] == ["eps-force"]
    child = kids[0].formula
    assert child.equations == (Equation((), word("a")),)
    assert unfold(child) == []  # constant remainder against the empty word


def test_unfold_drop_empty_equation():
    f = NormalizedFormula(equations=(Equation((), ()),
                                     Equation(word("a"), word("a"))),
                          alphabet=("a",))
    kids = unfold(f)
    assert [k.rule for k in kids] == ["drop"]
    assert kids[0].formula.equations == (Equation(word("a"), word("a")),)


def test_unfold_rejects_bare_variable_heads():
    f = NormalizedFormula(equations=(Equation((SVar("s"),), word("a")),),
                          alphabet=("a",))
    with pytest.raises(EngineInternalError):
        unfold(f)


def test_unfold_big_cases():
    p1, p2 = SPred("$u0", "$n0"), SPred("$u1", "$n1")
    f = NormalizedFormula(
        equations=(Equation((p1, CChar("a")), (p2, CChar("b"))),),
        lengths=(("$u0", "$n0"), ("$u1", "$n1")),
        arith=(atom_le(AInt(0), AVar("$n0")), atom_le(AInt(0), AVar("$n1"))),
        alphabet=("a", "b"))
    kids = unfold(f)
    assert [k.rule for k in kids] == ["big-eps-l", "big-eps-r",
                                      "big-identify", "big-left",
                                      "big-right"]
    eps_l = kids[0].formula
    assert eps_l.equations == (Equation((CChar("a"),), (p2, CChar("b"))),)
    assert Define("$u0", ()) in eps_l.subterms
    ident = kids[2].formula
    assert ident.equations == (Equation((CChar("a"),), (CChar("b"),)),)
    assert Define("$u1", (SVar("$u0"),)) in ident.subterms
    assert atom_eq(AVar("$n0"), AVar("$n1")) in ident.arith
    left = kids[3].formula
    assert left.equations[0].lhs[0] == SPred("$u2", "$n2")
    assert Define("$u0", (SVar("$u1"), SVar("$u2"))) in left.subterms
    # the split is strict: non-empty prefix, non-empty tail
    assert atom_le(AInt(1), AVar("$n2")) in left.arith
    assert atom_le(AInt(1), AVar("$n1")) in left.arith
    right = kids[4].formula
    assert right.equations[0].rhs[0] == SPred("$u2", "$n2")
    assert Define("$u1", (SVar("$u0"), SVar("$u2"))) in right.subterms


def test_unfolding_carries_the_first_unused_index():
    # each unfolding passes on or advances its formula's next index
    # instead of reading it off every name; both agree on every node
    rng = random.Random(73)
    checked = 0
    for conjs in draw_one_cycle(rng, 80) + draw_acyclic(rng, 80):
        for node in solve_conjunction(conjs, "ab", budget=100).tree.nodes:
            assert node.formula.next_index == _free_index(node.formula)
            checked += node.rule in ("small-ind", "big-left", "big-right")
    assert checked > 50


def test_subterms_only_grow_and_fresh_names_pair_up():
    # a child's subterm constraints begin with its parent's: each rule
    # appends definitions and rewrites none, so a name means one word in
    # every node below the one that introduced it; every generated
    # $u<k> is paired with $n<k>
    rng = random.Random(74)
    problems = draw_one_cycle(rng, 40) + draw_acyclic(rng, 40)
    problems += [_hard_instance(), worked_example()]
    grown = 0
    for conjs in problems:
        for mode in (OA_LENGTHS_ONLY, OA_FULL):
            tree = solve_conjunction(conjs, "ab", budget=100,
                                     oa_mode=mode).tree
            for n in tree.nodes[1:]:
                before = tree.nodes[n.parent].formula.subterms
                own = n.formula.subterms
                assert own[:len(before)] == before, n.rule
                grown += len(own) > len(before)
                for u, length in n.formula.lengths:
                    assert length == "$n" + u[len("$u"):], (u, length)
    assert grown > 200, grown


def test_unfold_covers_empty_prefix_models():
    # x.y = y has only models with x empty; they must surface at a finite
    # depth through the explicit empty-word branch
    conjs = [FEq((SVar("x"), SVar("y")), (SVar("y"),)),
             FAtom(atom_eq(ALen("y"), AInt(2)))]
    ans = solve_conjunction(conjs, "ab")
    assert ans.verdict == "sat"
    m = ans.model.string_map()
    assert m["x"] == "" and len(m["y"]) == 2


def test_unfold_same_variable_heads_consume():
    p = SPred("$u0", "$n0")
    f = NormalizedFormula(equations=(Equation((p, CChar("a")),
                                              (p, CChar("a"))),),
                          lengths=(("$u0", "$n0"),), alphabet=("a",))
    kids = unfold(f)
    assert [k.rule for k in kids] == ["match-var"]
    assert kids[0].formula.equations == (Equation((CChar("a"),),
                                                  (CChar("a"),)),)


def test_over_approx_worked_example():
    f0 = init_normalize(worked_example(), "ab")
    weak = over_approx(f0, OA_LENGTHS_ONLY)
    assert len(weak) == 1
    # 2 + n = n + 2 plus the parity atom: satisfiable
    assert not oa_unsat(f0, OA_LENGTHS_ONLY)
    # the full abstraction also sees the odd-lengths membership: closed
    assert oa_unsat(f0, OA_FULL)


def test_over_approx_phonebook_example():
    # STR(u,nu) = STR(v,nv).STR(u,nu).a.STR(u,nu).STR(t,nt) and nonneg
    u, v, t = SPred("u", "nu"), SPred("v", "nv"), SPred("t", "nt")
    f = NormalizedFormula(
        equations=(Equation((u,), (v, u, CChar("a"), u, t)),),
        arith=(atom_le(AInt(0), AVar("nu")), atom_le(AInt(0), AVar("nv")),
               atom_le(AInt(0), AVar("nt"))),
        lengths=(("u", "nu"), ("v", "nv"), ("t", "nt")),
        alphabet=("a",))
    assert oa_unsat(f, OA_LENGTHS_ONLY)
    assert oa_unsat(f, OA_FULL)


def test_over_approx_keeps_arith_when_no_equations():
    f = NormalizedFormula(arith=(atom_eq(AVar("n"), AInt(3)),),
                          alphabet=("a",))
    assert over_approx(f) == [(atom_eq(AVar("n"), AInt(3)),)]


def _pi21():
    # the closed leaf of the worked example, built by two unfold steps
    f0 = init_normalize(worked_example(), "ab")
    f12 = unfold(f0)[1].formula
    return unfold(f12)[0].formula


def _pi22():
    f0 = init_normalize(worked_example(), "ab")
    f12 = unfold(f0)[1].formula
    return unfold(f12)[1].formula


def test_oa_disjunct_cap_drops_the_remaining_memberships():
    # x and y each have 20 lengths, no two consecutive, so each length is
    # its own component: both would make 400 disjuncts, past the cap, so
    # y and every later membership (z would fit) add nothing
    some_as = RWord("aa")
    for n in range(4, 41, 2):
        some_as = RUnion(some_as, RWord("a" * n))
    x, y, z = SVar("x"), SVar("y"), SVar("z")
    conjs = [FIn((x,), some_as), FIn((y,), some_as), FIn((z,), RWord("a"))]
    f = init_normalize(conjs, "a")
    assert f.subterms == (Define("x", (SVar("$u0"),)),
                          Define("y", (SVar("$u1"),)),
                          Define("z", (SVar("$u2"),)))
    parts = engine._membership_parts(f, OA_FULL)
    assert len(parts) == 20 and 20 * 20 > engine._OA_DISJUNCT_CAP
    assert all(vars_of_atoms(p) == {"$n0"} for p in parts)
    # the weakened abstraction stays sound, and UA still decides the root
    for length, verdict in ((16, "sat"), (50, "unsat")):
        atom = FAtom(atom_eq(ALen("y"), AInt(length)))
        ans = solve_conjunction(conjs + [atom], "a")
        assert ans.verdict == verdict
        if verdict == "sat":
            assert oracle.eval_formula(FAnd(tuple(conjs) + (atom,)),
                                       ans.model, ("a",))
        else:
            # y's lengths never reach the abstraction, so it cannot refute
            assert not oa_unsat(init_normalize(conjs + [atom], "a"))
            assert ans.tree.nodes[0].status == \
                ClosedUnsat("base: no base model")


def _length_set_regexes():
    """The random regexes, each with its alphabet, of the frontier-stepping
    check in test_regexes and of acceptance test 7."""
    out = []
    for seed, count in ((11, 120), (93, 200)):
        rng = random.Random(seed)
        for _ in range(count):
            sigma = "abc"[:rng.randint(1, 3)]
            out.append((rand_regex(rng, sigma, 4), sigma))
    return out


def test_length_components_are_exact():
    # a length in 0..40 meets some component iff the automaton accepts a
    # word of that length, found by plain frontier stepping
    n = AVar("n")
    for r, sigma in _length_set_regexes():
        d = compiled(r, sigma)
        comps = length_components(n, length_set(d), "$k")
        reach = lengths_reachable(d, 40)
        for value in range(41):
            pin = atom_eq(n, AInt(value))
            got = any(arith_sat([pin, *c]) is not None for c in comps)
            assert got == (value in reach), (r, value, comps)


def test_length_components_are_runs_and_drop_all_lengths():
    n, k = AVar("n"), AVar("$k0")

    def comps(r):
        return length_components(n, length_set(compiled(r, "a")), "$k")

    a = RWord("a")
    assert comps(RStar(a)) == ((),)
    one_to_three = RUnion(a, RUnion(RWord("aa"), RWord("aaa")))
    assert comps(one_to_three) == ((atom_le(AInt(1), n),
                                    atom_le(n, AInt(3))),)
    # lengths 1, 2, 4 and every length from 6 on: a run, a single length
    # and a progression of period 1, lowest first
    gappy = RUnion(RUnion(a, RWord("aa")),
                   RUnion(RWord("aaaa"), RCat(RWord("a" * 6), RStar(a))))
    assert comps(gappy) == ((atom_le(AInt(1), n), atom_le(n, AInt(2))),
                            (atom_eq(n, AInt(4)),), (atom_le(AInt(6), n),))
    # a longer period keeps its fresh multiplier
    assert comps(RStar(RWord("aa"))) == \
        ((atom_eq(n, AAdd(AInt(0), AScale(2, k))), atom_le(AInt(0), k)),)


def test_under_approx_closes_by_arithmetic_core():
    got = under_approx_check(_pi21())
    assert got.status == "unsat"


def test_under_approx_closes_ground_mismatch():
    f0 = init_normalize(worked_example(), "ab")
    f11 = unfold(f0)[0].formula
    got = under_approx_check(f11)
    assert got.status == "unsat"
    assert "mismatch" in got.reason


def test_under_approx_not_base_with_predicates():
    f0 = init_normalize(worked_example(), "ab")
    assert under_approx_check(f0).status == "notbase"


def test_under_approx_sat_with_model():
    f = NormalizedFormula(
        equations=(Equation((), ()),),
        subterms=(Define("s", (SVar("u"),)), Define("u", ())),
        alphabet=("a", "b"))
    got = under_approx_check(f)
    assert got.status == "sat"
    assert got.model.string_map()["s"] == ""


def test_link_back_worked_example():
    f0 = init_normalize(worked_example(), "ab")
    f12 = unfold(f0)[1].formula
    f22 = _pi22()
    got = link_back(f22, [f12, f0])
    assert got is not None
    idx, theta = got
    assert idx == 1  # pi12 does not match, the root does
    ints = theta.ints()
    assert ints["$n2"] == "$n0"          # current length to the root's
    assert ints["$n0"].startswith("$fp")  # stale root name moved aside
    assert ints["$n1"] == "$n1"


def test_link_back_needs_progress():
    f0 = init_normalize(worked_example(), "ab")
    assert link_back(f0, [f0]) is None


def test_link_back_rejects_mismatched_regex_permutations():
    f0 = init_normalize(worked_example(), "ab")
    f12 = unfold(f0)[1].formula
    # pi12's equation starts b.a... while pi0's starts a.b...; no character
    # permutation fixes the equation and the membership at once
    assert link_back(f12, [f0]) is None


def test_solve_worked_example_tree_shape():
    ans = solve_conjunction(worked_example(), "ab",
                            oa_mode=OA_LENGTHS_ONLY)
    assert ans.verdict == "unsat"
    tree = ans.tree
    assert len(tree.nodes) == 5
    root = tree.nodes[0]
    assert root.children == [1, 2]
    assert isinstance(tree.nodes[1].status, ClosedUnsat)
    assert tree.nodes[2].children == [3, 4]
    assert isinstance(tree.nodes[3].status, ClosedUnsat)
    assert isinstance(tree.nodes[4].status, BackLinkedTo)
    assert tree.nodes[4].status.target == 0


def _hard_instance():
    x, y, z = SVar("x"), SVar("y"), SVar("z")
    return [FEq((x, z, y), word("b") + (z, x)),
            FIn((x,), RCat(RStar(RWord("a")), RWord("a")))]


def test_hard_instance_tree_is_pinned():
    # x.z.y = b.z.x with x in a*.a is unsat (x starts with a).  After the
    # first unfolding x is either empty or b followed by a rest, and a*.a
    # accepts neither: both children close by their empty residual.  Pins
    # the tree, not the time it takes.
    ans = solve_conjunction(_hard_instance(), "ab", budget=100)
    assert ans.verdict == "unsat"
    assert len(ans.tree.nodes) == 3
    assert ans.unfoldings == 1
    assert [n.status for n in ans.tree.nodes[1:]] == \
        [ClosedUnsat("membership residual empty: x")] * 2


def _residual_closed(tree):
    return [n for n in tree.nodes if isinstance(n.status, ClosedUnsat)
            and n.status.reason.startswith("membership residual empty: ")]


def _acyclic_with_membership(rng, count, regex=rand_tame_regex):
    """Acyclic draws, each given a membership on one of its variables,
    its regex drawn by ``regex``."""
    out = []
    for conjs in draw_acyclic(rng, count):
        names = sorted({a.name for c in conjs for a in c.lhs + c.rhs
                        if isinstance(a, SVar)})
        if names:
            conjs = conjs + [FIn((SVar(rng.choice(names)),),
                                 regex(rng, "ab", 2))]
        out.append(conjs)
    return out


def _regex_or_complement(rng, sigma, depth):
    r = rand_regex(rng, sigma, depth)
    return RComp(r) if rng.random() < 0.5 else r


def _with_two_memberships(rng, problems):
    """Each problem with memberships added on one of its variables, drawn
    by ``_regex_or_complement``, until that variable has two."""
    out = []
    for conjs in problems:
        names = sorted({a.name for c in conjs if isinstance(c, FEq)
                        for a in c.lhs + c.rhs if isinstance(a, SVar)})
        if names:
            v = rng.choice(names)
            have = sum(c.term == (SVar(v),) for c in conjs
                       if isinstance(c, FIn))
            conjs = conjs + [
                FIn((SVar(v),), _regex_or_complement(rng, "ab", 2))
                for _ in range(2 - have)]
        out.append(conjs)
    return out


def test_a_variable_with_two_memberships_is_solved_soundly():
    # the two regexes are one membership, their intersection: each sat
    # model must pass the evaluator against both, and no unsat problem may
    # have a small model.  Most draws are unsat before any membership is
    # added, so every sat draw is kept and 100 of the others
    rng = random.Random(61)
    sat, other = [], []
    for conjs in draw_one_cycle(rng, 300) + draw_acyclic(rng, 300):
        (sat if solve_conjunction(conjs, "ab").verdict == "sat"
         else other).append(conjs)
    verdicts = []
    for conjs in _with_two_memberships(rng, sat + other[:100]):
        ans = solve_conjunction(conjs, "ab")
        verdicts.append(ans.verdict)
        f = FAnd(tuple(conjs))
        if ans.verdict == "sat":
            assert oracle.eval_formula(f, ans.model, "ab"), conjs
        elif ans.verdict == "unsat":
            assert oracle.brute_force_solve(f, "ab",
                                            oracle.Bound(4, 8)) is None, f
    assert verdicts.count("sat") > 30 and verdicts.count("unsat") > 100, \
        verdicts


def test_residual_closed_nodes_have_no_oracle_model():
    # the residual check reads memberships and subterms only, so each node
    # it closes must lack a model even with its arithmetic dropped
    rng = random.Random(51)
    problems = draw_one_cycle(rng, 60) + _acyclic_with_membership(rng, 60)
    closed = 0
    for conjs in problems:
        for n in _residual_closed(solve_conjunction(conjs, "ab").tree):
            assert residual_empty(n.formula) is not None
            f = normalized_to_formula(n.formula.with_(arith=()))
            assert oracle.brute_force_solve(f, "ab",
                                            oracle.Bound(4, 8)) is None, f
            closed += 1
    assert closed > 20, closed


def test_lengths_only_trees_are_unchanged(monkeypatch):
    # lengths-only OA never runs the residual check; the digest of these
    # trees' DOT export was recorded before the check existed, and again
    # when back-links began to compare memberships by residual language
    # (the hard instance's node 11, where x is b.z.$u0, no longer links),
    # and when unfolding began to give the fresh name to a defined
    # variable's rest instead of renaming the variable (the digest with
    # every $u<k> masked to $u did not change), and when back-links began
    # to read ancestor arithmetic with its dead lengths projected out (the
    # hard instance grew from 171 to 174 nodes and from 2 to 4 back-links,
    # still unknown)
    def refuse(f):
        raise AssertionError("residual check in lengths-only mode")

    monkeypatch.setattr(engine, "residual_empty", refuse)
    rng = random.Random(52)
    problems = draw_one_cycle(rng, 10) + _acyclic_with_membership(rng, 10)
    problems += [_hard_instance(), worked_example()]
    digest = hashlib.sha1()
    sizes = []
    for conjs in problems:
        ans = solve_conjunction(conjs, "ab", budget=100,
                                oa_mode=OA_LENGTHS_ONLY)
        digest.update(export_tree(ans.tree).encode())
        sizes.append(len(ans.tree.nodes))
    assert sizes == [1, 7, 1, 1, 1, 5, 1, 1, 1, 5, 6,
                     1, 1, 1, 1, 1, 1, 6, 1, 1, 174, 5]
    assert digest.hexdigest() == "2a9a428e380f8046491d87ad0fbab8c3721a5510"


def test_a_capped_leaf_is_given_up_unless_closed_otherwise(monkeypatch):
    # odd_b's models all contain b, so the length probe's all-a words
    # cannot answer them
    x = SVar("x")
    odd_a = [FIn((x,), ROTATE_RE)]
    odd_b = [FIn((x,), RCat(RStar(RWord("ba")), RWord("b")))]
    clash = odd_b + odd_a
    even = odd_b + [FAtom(atom_eq(AMod(ALen("x"), AInt(2)), AInt(0)))]
    problems = [odd_b, clash, even]
    assert [solve_conjunction(c, "ab").verdict for c in problems] == \
        ["sat", "unsat", "unsat"]
    # every root below is base, and its 3-state automaton has more
    # boundary choices than the cap allows.  clash's two regexes are one
    # membership, whose intersection is empty, so its root closes before
    # the cap is reached
    monkeypatch.setattr(engine, "_UA_COMBO_CAP", 1)
    capped = [solve_conjunction(c, "ab") for c in problems]
    assert [a.verdict for a in capped] == ["unknown", "unsat", "unsat"]
    ans = capped[0]
    assert not [n for n in ans.tree.nodes
                if not n.children and isinstance(n.status, Open)]
    assert isinstance(ans.tree.nodes[0].status, GaveUp)
    assert "gave up: membership state space over _UA_COMBO_CAP = 1" \
        in export_tree(ans.tree)
    assert [a.tree.nodes[0].status for a in capped[1:]] == [
        ClosedUnsat("membership residual empty: x"),
        ClosedUnsat("length abstraction unsat")]
    # the probe answers a capped leaf too, by a model of its node lengths
    ans = solve_conjunction(odd_a, "ab")
    assert ans.verdict == "sat" and ans.model.string_map() == {"x": "a"}
    assert ans.tree.nodes[0].status.how == "length probe"


@pytest.mark.parametrize("bound,verdict,how", [
    ("", "sat", ["length probe"]),
    ("(assert (>= (str.len x) 1))", "unsat", []),
], ids=["every-word-empty", "a-word-must-not-be"])
def test_an_empty_alphabet_is_decided_at_the_root(bound, verdict, how):
    # with no letters the root states every length 0: its node model is
    # the all-empty one, which the length probe turns into the model at
    # the root, and a length that must be positive closes the root
    text = ("(declare-str x)(declare-str y)"
            "(assert (= (str.++ x y) (str.++ y x)))" + bound)
    problem = frontend.parse_problem(text)
    (conjs,) = problem.disjuncts()
    assert problem.alphabet() == ()
    ans = solve_conjunction(conjs, problem.alphabet())
    assert (ans.verdict, len(ans.tree.nodes)) == (verdict, 1)
    assert [n.status.how for n in ans.tree.nodes
            if isinstance(n.status, engine.SatLeaf)] == how
    if verdict == "sat":
        assert set(ans.model.string_map().values()) == {""}


def _node_hypotheses(tree):
    """Every node's hypothesis, built as the search builds it."""
    hyps = {0: node_hypothesis(tree.nodes[0].formula)}
    for n in tree.nodes[1:]:
        parent = tree.nodes[n.parent]
        hyps[n.id] = node_hypothesis(n.formula, parent.formula,
                                     hyps[parent.id])
    return hyps


def test_node_hypotheses_give_the_from_scratch_answers(monkeypatch):
    # each node's Hypothesis extends its parent's by the atoms the
    # unfolding added; OA must answer on it as on the node's own length
    # abstraction prepared from scratch, and link_back, refuting
    # candidates by its model first, as with no hypothesis at all.  Each
    # refuted candidate is a proof saved
    proofs = []

    def counting(hyp, concl):
        proofs.append(concl)
        return arith_implies(hyp, concl)

    monkeypatch.setattr(engine._arith, "arith_implies", counting)
    rng = random.Random(24)
    problems = [(c, 10000) for c in draw_one_cycle(rng, 30)]
    problems += [(c, 10000) for c in draw_acyclic(rng, 10)]
    problems += [(c, 10000) for c in draw_one_cycle(rng, 30)]
    problems += [(_hard_instance(), 100), (worked_example(), 10000)]
    seen = {"pruned": 0, "linked": 0, "proved": 0, "unaided": 0}
    for conjs, budget in problems:
        tree = solve_conjunction(conjs, "ab", budget=budget).tree
        hyps = _node_hypotheses(tree)
        for n in tree.nodes:
            f = n.formula
            got = oa_unsat(f, OA_FULL, hyps[n.id])
            assert got == oa_unsat(f, OA_FULL), f
            # a reference with no hypothesis: every disjunct solved
            # whole, from scratch
            assert got == (not any(arith_sat(list(d)) is not None
                                   for d in over_approx(f, OA_FULL))), f
            ancestors = [a.formula for a in tree.ancestors(n.id)]
            before = len(proofs)
            linked = link_back(f, ancestors, hyps[n.id])
            aided = len(proofs)
            assert linked == link_back(f, ancestors), f
            seen["proved"] += aided - before
            seen["unaided"] += len(proofs) - aided
            seen["pruned"] += got
            seen["linked"] += linked is not None
    assert seen["pruned"] > 20 and seen["linked"] > 5, seen
    assert seen["linked"] <= seen["proved"] < seen["unaided"], seen


def test_under_approx_reads_the_node_model_first(monkeypatch):
    # on every base leaf the search decides, the leaf's hypothesis leaves
    # UA's verdict as it is and every model holds; the node model answers
    # some sat leaves with no arith_sat call
    real_ua, real_sat = engine.under_approx_check, engine._arith.arith_sat
    solving, leaves = [], []

    def counting_sat(atoms):
        solving.append(atoms)
        return real_sat(atoms)

    def recording_ua(f, hyp=None):
        solving.clear()
        got = real_ua(f, hyp)
        if got.status != "notbase":
            leaves.append((f, got, bool(solving)))
        return got

    monkeypatch.setattr(engine._arith, "arith_sat", counting_sat)
    monkeypatch.setattr(engine, "under_approx_check", recording_ua)
    rng = random.Random(26)
    problems = draw_one_cycle(rng, 200) + _acyclic_with_membership(rng, 200)
    problems += [worked_example()]
    for conjs in problems:
        solve_conjunction(conjs, "ab")
    answered = solved = 0
    for f, got, used_sat in leaves:
        assert got.status == real_ua(f).status, f
        if got.status == "sat":
            assert oracle.eval_formula(normalized_to_formula(f), got.model,
                                       f.alphabet), f
            solved += used_sat
            answered += not used_sat
    # measured: 12 answered by the node model, none by arith_sat (the
    # length probe answers most sat problems before a base leaf)
    assert answered >= 10, (answered, solved)


def test_a_solve_builds_one_length_abstraction(monkeypatch):
    # the root's hypothesis is its lengths-only abstraction; every other
    # node extends it, and OA solves only the membership parts on it
    real, calls = engine.over_approx, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "over_approx", counting)
    rng = random.Random(27)
    problems = draw_one_cycle(rng, 10) + _acyclic_with_membership(rng, 10)
    problems += [_hard_instance(), worked_example()]
    nodes = 0
    for conjs in problems:
        for mode in (OA_FULL, OA_LENGTHS_ONLY):
            calls.clear()
            tree = solve_conjunction(conjs, "ab", budget=100,
                                     oa_mode=mode).tree
            assert len(calls) == 1, (mode, conjs)
            nodes += len(tree.nodes)
    assert nodes > 2 * len(problems)


def test_node_hypotheses_keep_the_node_equation_lengths():
    # the root's equation lengths and a node's arithmetic entail the
    # node's own equation lengths and back, on every node of every tree
    rng = random.Random(25)
    problems = draw_one_cycle(rng, 30) + draw_acyclic(rng, 20)
    problems += [_hard_instance(), worked_example()]
    trees = 0
    for conjs in problems:
        for mode in (OA_LENGTHS_ONLY, OA_FULL):
            tree = solve_conjunction(conjs, "ab", budget=100,
                                     oa_mode=mode).tree
            root = tree.nodes[0].formula
            for n in tree.nodes:
                f = n.formula
                from_root = list(root.equation_lengths + f.arith)
                own = list(f.equation_lengths + f.arith)
                assert arith_implies(from_root, own), f
                assert arith_implies(own, from_root), f
            trees += 1
    assert trees >= 100


def test_witness_refutes_through_the_renaming(monkeypatch):
    # a hand-built variant of the worked example's pi22 whose current
    # length $n2 is $n0 - 3, hence odd: the positional match sends $n2 to
    # the root's $n0 (parity 0 there) and moves the leaf's own $n0 to
    # $fp0.  The leaf's model read through that renaming gives the root's
    # $n0 an odd value, which refutes the link before any proof; read
    # without it, $n0 is even and nothing is refuted
    f0 = init_normalize(worked_example(), "ab")
    f12 = unfold(f0)[1].formula
    f22 = _pi22()
    step = atom_eq(AVar("$n2"), AAdd(AVar("$n1"), AInt(-1)))
    leaf = f22.with_(arith=tuple(
        atom_eq(AVar("$n2"), AAdd(AVar("$n1"), AInt(-2))) if a == step else a
        for a in f22.arith))
    assert leaf.arith != f22.arith
    proofs = []

    def counting(hyp, concl):
        proofs.append((hyp, concl))
        return arith_implies(hyp, concl)

    monkeypatch.setattr(engine._arith, "arith_implies", counting)
    hyp = node_hypothesis(leaf)
    assert hyp.consistent_with([])
    assert link_back(leaf, [f12, f0], hyp) is None
    assert proofs == []  # refuted by the model alone
    assert link_back(leaf, [f12, f0]) is None and proofs
    proofs.clear()
    hyp = node_hypothesis(f22)
    assert hyp.consistent_with([])
    idx, theta = link_back(f22, [f12, f0], hyp)
    assert idx == 1 and theta.ints()["$n0"] == "$fp0"
    # the real leaf still links by proof: one, on its own arithmetic,
    # whose conclusion holds the shrink
    shrink = atom_le(AAdd(f22.measure, AInt(1)), f0.measure)
    ((proved_on, concl),) = proofs
    assert isinstance(proved_on, Hypothesis) and shrink in concl
    assert proved_on.atoms == list(f22.arith)


def test_the_worked_example_links_by_proof(monkeypatch):
    # a link is never taken on a witness: node 4 links to the root
    # through one proof on its own arithmetic, whose conclusion holds the
    # shrink and the root's atoms
    calls = []

    def counting(hyp, concl):
        calls.append((hyp, concl, arith_implies(hyp, concl)))
        return calls[-1][2]

    monkeypatch.setattr(engine._arith, "arith_implies", counting)
    ans = solve_conjunction(worked_example(), "ab", oa_mode=OA_LENGTHS_ONLY)
    assert _links(ans.tree) == [(4, 0)]
    leaf, root = ans.tree.nodes[4].formula, ans.tree.nodes[0].formula
    shrink = atom_le(AAdd(leaf.measure, AInt(1)), root.measure)
    ((hyp, concl),) = [(h, c) for h, c, got in calls if got]
    assert isinstance(hyp, Hypothesis) and hyp.atoms == list(leaf.arith)
    assert concl[0] == shrink
    assert len(concl) == 1 + len(root.projected_arith)


def test_the_proof_keeps_a_captured_ancestor_name_apart():
    # the ancestor a.X = X.a over (x, $n1) keeps a dead $n0 inside a mod
    # atom, so all of its arithmetic is read.  The leaf a.Y = Y.a over
    # (y, $n0) sends its $n0 to $n1 and its $n1 to $fp0; read back in the
    # leaf's names, the ancestor's $n0 is not the leaf's, whose parity
    # says nothing about it.  Taken as the leaf's $n0 it would link
    anc = NormalizedFormula(
        equations=(Equation(word("a") + (SPred("x", "$n1"),),
                            (SPred("x", "$n1"),) + word("a")),),
        arith=(atom_le(AInt(0), AVar("$n1")),
               atom_eq(AMod(AVar("$n0"), AInt(2)), AInt(1))),
        lengths=(("x", "$n1"),), alphabet=("a",))
    assert anc.projected_arith == anc.arith
    leaf = NormalizedFormula(
        equations=(Equation(word("a") + (SPred("y", "$n0"),),
                            (SPred("y", "$n0"),) + word("a")),),
        arith=(atom_le(AInt(0), AVar("$n1")), atom_le(AInt(0), AVar("$n0")),
               atom_eq(AVar("$n0"), AAdd(AVar("$n1"), AInt(-1))),
               atom_eq(AMod(AVar("$n0"), AInt(2)), AInt(1))),
        subterms=(Define("x", (CChar("a"), SVar("y"))),),
        lengths=(("y", "$n0"),), alphabet=("a",))
    assert leaf.progress_steps > anc.progress_steps
    assert link_back(leaf, [anc]) is None
    # the shrink holds, so only the ancestor's parity refuses the link
    shrink = atom_le(AAdd(leaf.measure, AInt(1)), anc.measure)
    assert arith_implies(list(leaf.arith), [shrink])
    assert link_back(leaf, [anc.with_(arith=anc.arith[:1])]) is not None


def _links(tree):
    return [(n.id, n.status.target) for n in tree.nodes
            if isinstance(n.status, BackLinkedTo)]


@pytest.mark.parametrize("mode", [OA_LENGTHS_ONLY, OA_FULL])
def test_long_arithmetic_does_not_stop_a_back_link(mode):
    # 85 unrelated atoms 0 <= k_i leave the worked example's proof as it
    # is: a leaf links back however long its arithmetic has grown
    padding = [FAtom(atom_le(AInt(0), AVar(f"k{i}"))) for i in range(85)]
    plain = solve_conjunction(worked_example(), "ab", budget=200,
                              oa_mode=mode)
    padded = solve_conjunction(worked_example() + padding, "ab", budget=200,
                               oa_mode=mode)
    assert padded.verdict == plain.verdict == "unsat"
    assert len(padded.tree.nodes) == len(plain.tree.nodes)
    assert _links(padded.tree) == _links(plain.tree)


def _replay_expansions(tree) -> int:
    """Replay the search from node ids and statuses alone, expanding the
    deepest pending leaf with the lowest id each time, and check every
    step against the tree: the expanded node's children are the next
    block of ids.  A pending leaf stayed open after its checks, so it was
    expanded later (into children or a constant clash) or the search
    stopped first.  Returns how many expansions chose among several
    pending leaves."""
    nodes = tree.nodes
    clash = ClosedUnsat("no unfolding (constant clash)")

    def pending(n):
        return isinstance(n.status, Open) or n.status == clash

    leaves = [nodes[0]] if pending(nodes[0]) else []
    next_id = 1
    choices = 0
    while leaves:
        pick = min(leaves, key=lambda n: (-n.depth, n.id))
        if not pick.children and pick.status != clash:
            break  # the search stopped with this leaf open
        choices += len(leaves) > 1
        leaves.remove(pick)
        assert pick.children == list(
            range(next_id, next_id + len(pick.children))), pick.id
        next_id += len(pick.children)
        leaves += [nodes[c] for c in pick.children if pending(nodes[c])]
    assert next_id == len(nodes)
    return choices


def test_search_expands_the_deepest_open_leaf_lowest_id_first():
    rng = random.Random(71)
    problems = draw_one_cycle(rng, 30) + draw_acyclic(rng, 30)
    problems += [_hard_instance(), worked_example()]
    choices = 0
    for conjs in problems:
        for mode in (OA_LENGTHS_ONLY, OA_FULL):
            ans = solve_conjunction(conjs, "ab", budget=100, oa_mode=mode)
            choices += _replay_expansions(ans.tree)
    assert choices > 100, choices


def test_child_arithmetic_must_extend_the_parent(monkeypatch):
    real_unfold = engine.unfold

    def lossy(f):  # children that drop the parent's first atom
        return [UnfoldChild(kid.rule, kid.formula.with_(
                    arith=kid.formula.arith[1:]))
                for kid in real_unfold(f)]

    monkeypatch.setattr(engine, "unfold", lossy)
    with pytest.raises(EngineInternalError, match="does not extend"):
        solve_conjunction(worked_example(), "ab", oa_mode=OA_LENGTHS_ONLY)


def test_back_link_respects_membership_of_resolved_alias():
    """s.b = b.s with s in bb is satisfied by s = bb.  After the first
    unfolding the leaf's s denotes b.$u0, whose residual language under
    bb is {b}; that is not included in the root's {bb}, so the leaf may
    not link back to the root."""
    s = SVar("s")
    conjs = [FEq((s,) + word("b"), word("b") + (s,)),
             FIn((s,), RWord("bb"))]
    ans = solve_conjunction(conjs, "ab")
    assert ans.verdict == "sat"
    assert all(oracle.eval_formula(c, ans.model, "ab") for c in conjs)


# One-cycle benchmark problems (fragments workload, seeds 1 and 2) that a
# back-link matching memberships by regex syntax once answered unsat:
# (equation sides, membership of s, length atom), ids as "seed-index".
FORMERLY_REFUTED_IDS = ["1-3", "1-421", "1-947", "1-1147", "1-1187",
                        "1-2671", "1-2729", "1-2741", "2-205", "2-241",
                        "2-1705", "2-1815", "2-2041", "2-2055", "2-2323",
                        "2-2609", "2-2783"]
FORMERLY_REFUTED = [
    ('(str.++ t s "b") (str.++ "bbab" s)', '(str.to_re "bb")',
     '(<= (str.len s) 3)'),
    ('(str.++ s "b") (str.++ "b" s)', '(str.to_re "bb")',
     '(= (mod (str.len s) 2) 0)'),
    ('(str.++ s "b") (str.++ "b" s)',
     '(re.* (re.++ (str.to_re "b") (str.to_re "bb")))',
     '(= (mod (str.len s) 2) 1)'),
    ('(str.++ "b" s) (str.++ s "b")', '(str.to_re "b")',
     '(<= (str.len s) 3)'),
    ('(str.++ t s "a") (str.++ "abba" s)', '(str.to_re "aa")',
     '(<= (str.len s) 6)'),
    ('(str.++ s "bb") (str.++ "bb" s)', '(str.to_re "b")',
     '(<= (str.len s) 4)'),
    ('(str.++ t s "b") (str.++ "abb" s)', '(str.to_re "b")',
     '(<= (str.len s) 1)'),
    ('(str.++ t s "b") (str.++ "bbb" s)', '(str.to_re "b")',
     '(<= (str.len s) 7)'),
    ('(str.++ t s "bb") (str.++ "babb" s)', '(str.to_re "bb")',
     '(= (mod (str.len s) 2) 0)'),
    ('(str.++ s "bb") (str.++ "b" s t)',
     '(re.++ (str.to_re "b") (re.* (str.to_re "a")))',
     '(<= (str.len s) 2)'),
    ('(str.++ s "b") (str.++ "b" s)', '(str.to_re "bb")',
     '(<= (str.len s) 5)'),
    ('(str.++ s "abaa") (str.++ "a" s t)',
     '(re.union (re.++ (str.to_re "bb") (str.to_re "aa")) '
     '(re.union (str.to_re "a") (str.to_re "ba")))',
     '(<= (str.len s) 4)'),
    ('(str.++ s "b") (str.++ "b" s)', '(str.to_re "b")',
     '(<= (str.len s) 2)'),
    ('(str.++ "ba" s t) (str.++ s "abbb")',
     '(re.++ (str.to_re "b") (re.++ (str.to_re "a") (str.to_re "b")))',
     '(<= (str.len s) 6)'),
    ('(str.++ s "aa") (str.++ "aa" s)',
     '(re.union (re.++ (str.to_re "ab") (str.to_re "b")) '
     '(re.union (str.to_re "a") (str.to_re "ba")))',
     '(<= (str.len s) 6)'),
    ('(str.++ s "ab") (str.++ "a" s t)', '(str.to_re "aa")',
     '(<= (str.len s) 3)'),
    ('(str.++ "bbb" s) (str.++ t s "b")', '(str.to_re "b")',
     '(<= (str.len s) 6)'),
]


@pytest.mark.parametrize("eq, regex, length", FORMERLY_REFUTED,
                         ids=FORMERLY_REFUTED_IDS)
def test_formerly_refuted_one_cycle_problems_are_sat(eq, regex, length):
    text = ("(declare-str s)" + ("(declare-str t)" if " t" in eq else "")
            + f'(declare-chars "ab")(assert (= {eq}))'
            + f"(assert (str.in_re s {regex}))(assert {length})")
    problem = frontend.parse_problem(text)
    sigma = problem.alphabet()
    (conjs,) = problem.disjuncts()
    ans = solve_conjunction(conjs, sigma)
    assert ans.verdict == "sat", text
    assert oracle.eval_formula(problem.formula(), ans.model, sigma), text


def test_back_link_needs_the_membership_variable_to_map_to_its_own():
    # u0.a.u1 = u1.a.u0 with x = u0 in a*.  The leaf has cut a leading a
    # off y; its equation matches the ancestor's with u0 and u1 swapped,
    # so the leaf's x (its u0) stands for the ancestor's y, and nothing
    # in the leaf keeps the word standing for the ancestor's x in a*
    def pred(i, n):
        return SPred(f"$u{i}", f"$n{n}")

    a = (CChar("a"),)
    nonneg = tuple(atom_le(AInt(0), AVar(f"$n{i}")) for i in range(2))
    anc = NormalizedFormula(
        equations=(Equation((pred(0, 0),) + a + (pred(1, 1),),
                            (pred(1, 1),) + a + (pred(0, 0),)),),
        arith=nonneg, subterms=(Define("x", (SVar("$u0"),)),
                                Define("y", (SVar("$u1"),))),
        lengths=(("$u0", "$n0"), ("$u1", "$n1")), alphabet=("a", "b"))
    leaf = anc.with_(
        equations=(Equation((pred(1, 3),) + a + (pred(0, 0),),
                            (pred(0, 0),) + a + (pred(1, 3),)),),
        arith=nonneg + (atom_eq(AVar("$n3"), AAdd(AVar("$n1"), AInt(-1))),
                        atom_lt(AInt(0), AVar("$n1")),
                        atom_le(AInt(0), AVar("$n3"))),
        subterms=(Define("x", (SVar("$u0"),)), Define("y", (SVar("$u3"),)),
                  Define("$u3", (CChar("a"), SVar("$u1")))),
        lengths=(("$u0", "$n0"), ("$u1", "$n3")))
    x_in_a_star = ("x", RStar(RWord("a")))
    assert link_back(with_members(leaf, x_in_a_star),
                     [with_members(anc, x_in_a_star)]) is None
    # without the membership the same pair links
    assert link_back(leaf, [anc]) is not None


def test_an_untouched_member_variable_maps_to_itself_only_if_free():
    # y = u1 in a* is in no leaf equation, so it may map to itself; but
    # the leaf's u3 maps to the ancestor's u1, and the ancestor's y then
    # stands for a word the leaf's membership says nothing about
    def pred(i, n):
        return SPred(f"$u{i}", f"$n{n}")

    a = (CChar("a"),)
    nonneg = tuple(atom_le(AInt(0), AVar(f"$n{i}")) for i in range(2))
    anc = NormalizedFormula(
        equations=(Equation((pred(0, 0),) + a + (pred(1, 1),),
                            (pred(1, 1),) + a + (pred(0, 0),)),),
        arith=nonneg, subterms=(Define("x", (SVar("$u0"),)),
                                Define("y", (SVar("$u1"),))),
        lengths=(("$u0", "$n0"), ("$u1", "$n1")), alphabet=("a", "b"))
    leaf = anc.with_(
        equations=(Equation((pred(0, 0),) + a + (pred(3, 3),),
                            (pred(3, 3),) + a + (pred(0, 0),)),),
        arith=nonneg + (atom_eq(AVar("$n3"), AAdd(AVar("$n1"), AInt(-1))),
                        atom_lt(AInt(0), AVar("$n1")),
                        atom_le(AInt(0), AVar("$n3"))),
        subterms=anc.subterms + (Define("$u4", (CChar("b"), SVar("$u3"))),),
        lengths=(("$u0", "$n0"), ("$u1", "$n1"), ("$u3", "$n3")))
    y_in_a_star = ("y", RStar(RWord("a")))
    assert link_back(with_members(leaf, y_in_a_star),
                     [with_members(anc, y_in_a_star)]) is None
    assert link_back(leaf, [anc]) is not None


def test_a_membership_length_is_never_projected_out():
    # a.x = x.a with y in (aa)* and |y| = |x| + 1 is sat: x = a, y = aa.
    # The first small-ind leaf, a.x' = x'.a, matches the root with y, in no
    # equation, mapped to itself.  The membership reads |y|, so the root's
    # |y| = |x| + 1 is not projected out, and the leaf's |y| = |x'| + 2
    # does not entail it: no link, and the next leaf is the model
    text = ('(declare-str x)(declare-str y)'
            '(assert (= (str.++ "a" x) (str.++ x "a")))'
            '(assert (str.in_re y (re.* (str.to_re "aa"))))'
            '(assert (= (str.len y) (+ (str.len x) 1)))')
    problem = frontend.parse_problem(text)
    (conjs,) = problem.disjuncts()
    ans = solve_conjunction(conjs, problem.alphabet())
    assert ans.verdict == "sat" and not _links(ans.tree)
    values = ans.model.string_map()
    assert (values["x"], values["y"]) == ("a", "aa")


def test_back_link_renames_lengths_along_both_paths():
    # s.ba = aa.s with s in a*.aa.ab and |s| mod 3 = 2 is unsat: s ends in
    # b, s.ba in a.  Each unfolding strips one a, and from depth 3 on the
    # leaf is s'.ba = aa.s' with s' in a*b.  The depth-6 leaf is an
    # instance of the depth-3 node only if its lengths three levels up
    # stand for the ancestor's dropped ones, which carry |s| mod 3 = 2
    text = ('(declare-str s)(declare-chars "ab")'
            '(assert (= (str.++ s "ba") (str.++ "aa" s)))'
            '(assert (str.in_re s (re.++ (re.* (str.to_re "a")) '
            '(re.++ (str.to_re "aa") (str.to_re "ab")))))'
            '(assert (= (mod (str.len s) 3) 2))')
    problem = frontend.parse_problem(text)
    (conjs,) = problem.disjuncts()
    ans = solve_conjunction(conjs, problem.alphabet(), budget=20)
    assert (ans.verdict, ans.unfoldings) == ("unsat", 6)
    (leaf,) = [n for n in ans.tree.nodes if isinstance(n.status, BackLinkedTo)]
    assert (leaf.depth, ans.tree.nodes[leaf.status.target].depth) == (6, 3)
    ints = leaf.status.theta.ints()
    assert [ints[f"$n{i}"] for i in range(3, 7)] == \
        [f"$n{i}" for i in range(4)]


HEAD_CLASH = [  # bench/gen.py's head-clash templates, with C = b and D = a
    ('(= (str.++ x "b" z) (str.++ z "a"))', '(>= (str.len z) 1)'),
    ('(= (str.++ "b" z y) (str.++ y "a"))', None),
    ('(= (str.++ x "b") (str.++ "a" y x))', '(= (mod (str.len y) 3) 0)'),
    ('(= (str.++ y "b") (str.++ "b" z y))', '(= "b" (str.++ "a" z))'),
]


def _head_clash_problems():
    """Each template in both orientations of its first equation."""
    out = []
    for asserts in HEAD_CLASH:
        text = "(declare-str x)(declare-str y)(declare-str z)" + "".join(
            f"(assert {a})" for a in asserts if a)
        (conjs,) = frontend.parse_problem(text).disjuncts()
        first, rest = conjs[0], list(conjs[1:])
        out += [[first] + rest, [FEq(first.rhs, first.lhs)] + rest]
    return out


def test_back_links_read_exact_projections(monkeypatch):
    # every ancestor arithmetic that link_back projects, over corpus draws,
    # the head-clash templates and the hard instance: the projection
    # follows from it, and each model of the projection in a small box
    # extends to a model of it over the dead lengths
    real_project = engine._arith.project
    seen = {}

    def recording(atoms, dead):
        seen[tuple(atoms), frozenset(dead)] = real_project(atoms, dead)
        return seen[tuple(atoms), frozenset(dead)]

    monkeypatch.setattr(engine._arith, "project", recording)
    rng = random.Random(31)
    for conjs in draw_one_cycle(rng, 300) + draw_acyclic(rng, 100):
        solve_conjunction(conjs, "ab")
    for conjs in _head_clash_problems():
        solve_conjunction(conjs, "ab", budget=40)
    solve_conjunction(_hard_instance(), "ab", budget=100,
                      oa_mode=OA_LENGTHS_ONLY)
    projected = {key: got for key, got in seen.items()
                 if got is not None and key[1] & vars_of_atoms(key[0])}
    # the mod template's dead lengths sit in its mod atom
    assert len(projected) >= 10 and None in seen.values()
    for (atoms, dead), got in projected.items():
        assert arith_implies(list(atoms), list(got))
        live = sorted(vars_of_atoms(atoms) - dead)
        for values in itertools.product(range(7), repeat=len(live)):
            env = dict(zip(live, values))
            if all(eval_atom(a, env) for a in got):
                fixed = [atom_eq(AVar(v), AInt(k)) for v, k in env.items()]
                assert arith_sat(list(atoms) + fixed) is not None, \
                    (atoms, env)


def test_every_live_length_is_stated_non_negative():
    # the length components drop the whole of N on the strength of this:
    # each node's arithmetic entails 0 <= n for every length it pairs
    rng = random.Random(61)
    problems = [(c, engine.DEFAULT_BUDGET) for c in draw_one_cycle(rng, 200)
                + _acyclic_with_membership(rng, 200)]
    problems += [(c, 40) for c in _head_clash_problems()]
    checked = 0
    for conjs, budget in problems:
        for node in solve_conjunction(conjs, "ab", budget=budget).tree.nodes:
            f = node.formula
            hyp = Hypothesis(f.arith)
            for _, length in f.lengths:
                assert arith_implies(hyp, [atom_le(AInt(0), AVar(length))]), \
                    (f, length)
                checked += 1
    assert checked > 1000, checked


def test_head_clash_closes_by_proved_back_links(monkeypatch):
    # b.z.x = x.a is unsat: by lengths z is empty, and b.x = x.a has one
    # b more on the left.  It ran out of any budget while back-links read
    # the lengths of the already defined x; with those projected out, a
    # leaf links once one query proves the shrink and the entailment
    calls = []

    def counting(hyp, concl):
        calls.append((hyp, concl, arith_implies(hyp, concl)))
        return calls[-1][2]

    monkeypatch.setattr(engine._arith, "arith_implies", counting)
    x, z = SVar("x"), SVar("z")
    clash = FEq(word("b") + (z, x), (x,) + word("a"))
    ans = solve_conjunction([clash], "ab", budget=10)
    links = _links(ans.tree)
    assert ans.verdict == "unsat" and links
    # each candidate is one proof on the leaf's prepared arithmetic whose
    # conclusion starts with the shrink; a proved one links its leaf
    assert all(isinstance(hyp, Hypothesis) for hyp, _, _ in calls)
    proved = [concl[0] for _, concl, got in calls if got]
    nodes = ans.tree.nodes
    assert sorted(map(str, proved)) == sorted(
        str(atom_le(AAdd(nodes[i].formula.measure, AInt(1)),
                    nodes[t].formula.measure)) for i, t in links)
    assert oracle.brute_force_solve(clash, "ab", oracle.Bound(6)) is None


def test_every_link_satisfies_the_two_entailments_on_fresh_systems():
    # what a link states, checked from scratch on plain atom lists: the
    # leaf's arithmetic entails the shrink, and renamed by the link's
    # integer map it entails the ancestor's projected arithmetic
    rng = random.Random(28)
    problems = [(c, engine.DEFAULT_BUDGET)
                for c in draw_one_cycle(rng, 300) + draw_acyclic(rng, 100)]
    problems += [(c, 40) for c in _head_clash_problems()]
    problems += [(_hard_instance(), 100)]
    checked = 0
    for conjs, budget in problems:
        for mode in (OA_LENGTHS_ONLY, OA_FULL):
            tree = solve_conjunction(conjs, "ab", budget=budget,
                                     oa_mode=mode).tree
            for i, t in _links(tree):
                leaf, anc = tree.nodes[i].formula, tree.nodes[t].formula
                ints = tree.nodes[i].status.theta.ints()
                renamed = [rename_atom_vars(a, ints) for a in leaf.arith]
                assert arith_implies(renamed, list(anc.projected_arith)), i
                shrink = atom_le(AAdd(leaf.measure, AInt(1)), anc.measure)
                assert arith_implies(list(leaf.arith), [shrink]), i
                checked += 1
    assert checked > 50, checked


def test_membership_terms_are_the_resolved_words():
    # unfolding rewrites each membership's term as it defines predicates;
    # on every node the term is the word its variable resolves to through
    # the node's subterms, and the subterms are in definition order: no
    # name is defined twice, and each name a constraint reads is defined
    # only by a later constraint, or never
    rng = random.Random(75)
    problems = draw_one_cycle(rng, 150) + _acyclic_with_membership(rng, 150)
    problems += [_hard_instance(), worked_example()]
    trees = [solve_conjunction(conjs, "ab", budget=100, oa_mode=mode).tree
             for conjs in problems for mode in (OA_LENGTHS_ONLY, OA_FULL)]
    trees += [solve_conjunction(conjs, "ab", budget=40).tree
              for conjs in _head_clash_problems()]
    rewritten = 0
    for tree in trees:
        root = tree.nodes[0].formula
        for n in tree.nodes:
            f = n.formula
            for m in f.memberships:
                assert m.term == resolve(f, m.var), (f, m)
            rewritten += f.memberships != root.memberships
            defined = [c.var for c in f.subterms]
            assert len(set(defined)) == len(defined), f
            for i, c in enumerate(f.subterms):
                assert not set(subterm_vars(c)[1:]) & set(defined[:i + 1]), f
    assert rewritten > 500, rewritten


def test_an_acyclic_system_with_a_climbing_length_abstraction_is_unsat():
    # fragments workload, seed 3, problem 1048.  After five unfoldings a
    # leaf's length abstraction asks branch and bound for
    # 1 <= 3k - n3 - 3q <= 2 over the non-negatives, where always taking
    # the up arm first climbed without end
    text = ('(declare-str w)(declare-str y)(declare-str z)(declare-str u)'
            '(declare-str v)(declare-chars "abc")'
            '(assert (= (str.++ "bab" w "c" y "c") "babacbc"))'
            '(assert (= (str.++ y "bb" z) (str.++ "b" u "b" v)))'
            '(assert (= (mod (str.len v) 3) 2))'
            '(assert (str.in_re z (re.* (re.++ (str.to_re "c") '
            '(str.to_re "bb")))))')
    problem = frontend.parse_problem(text)
    sigma = problem.alphabet()
    (conjs,) = problem.disjuncts()
    ans = solve_conjunction(conjs, sigma)
    assert (ans.verdict, ans.unfoldings, len(ans.tree.nodes)) == \
        ("unsat", 20, 36)
    assert oracle.brute_force_solve(problem.formula(), sigma,
                                    oracle.Bound(3)) is None


def test_solve_sat_with_model_checked_against_oracle():
    conjs = [FEq(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))]
    ans = solve_conjunction(conjs, "ab")
    assert ans.verdict == "sat"
    assert oracle.eval_formula(conjs[0], ans.model, "ab")
    ref = oracle.brute_force_solve(conjs[0], "ab", oracle.Bound(3))
    assert ref is not None and ref.string_map()["s"] == "a"


def test_solve_ground_unsat_without_unfolding():
    ans = solve_conjunction([FEq(word("ab"), word("ba"))], "ab")
    assert ans.verdict == "unsat"
    assert ans.unfoldings == 0


def test_solve_budget_zero_reports_unknown():
    ans = solve_conjunction(worked_example(), "ab", budget=0,
                            oa_mode=OA_LENGTHS_ONLY)
    assert ans.verdict == "unknown"


def test_the_root_is_classified_at_the_first_unfolding(monkeypatch):
    # only the acyclic path bound of the unfolding reads the fragment: a
    # conjunction decided at the root never classifies, one that unfolds
    # classifies once, and Answer.fragment classifies on its first read
    calls = []
    real = engine.classify_fragment
    monkeypatch.setattr(engine, "classify_fragment",
                        lambda f: calls.append(f) or real(f))
    s = SVar("s")
    root_decided = solve_conjunction([FEq(word("b") + (s,), (s,))], "ab")
    assert (root_decided.verdict, root_decided.unfoldings) == ("unsat", 0)
    assert calls == []
    assert root_decided.fragment is root_decided.fragment
    assert len(calls) == 1
    assert root_decided.fragment.tag is FragmentTag.ONE_CYCLE  # s twice
    calls.clear()
    unfolded = solve_conjunction(worked_example(), "ab",
                                 oa_mode=OA_LENGTHS_ONLY)
    assert unfolded.unfoldings > 0 and len(calls) == 1
    assert unfolded.fragment.tag is FragmentTag.ONE_CYCLE
    assert len(calls) == 1


def test_answer_fragment_classifies_the_input_disjunct():
    rng = random.Random(91)
    problems = [(c, "ab", engine.DEFAULT_BUDGET) for c in
                draw_one_cycle(rng, 200) + draw_acyclic(rng, 100)]
    problems += [(c, "ab", 40) for c in _head_clash_problems()]
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.smt2"))):
        with open(path, "rb") as fh:
            problem = frontend.parse_problem(fh.read())
        problems += [(d, problem.alphabet(), engine.DEFAULT_BUDGET)
                     for d in problem.disjuncts()]
    tags = set()
    for conjs, sigma, budget in problems:
        ans = solve_conjunction(conjs, sigma, budget=budget)
        assert ans.fragment == classify_fragment(init_normalize(conjs, sigma))
        tags.add(ans.fragment.tag)
    assert tags == {FragmentTag.ACYCLIC, FragmentTag.ONE_CYCLE}, tags


def test_the_acyclic_path_bound_still_stops_the_search(monkeypatch):
    # x = a^12 unfolds one character a step under lengths-only; with every
    # equation sized 0 the bound is 4 * 2^1 * 1 = 8, which depth 9 passes
    monkeypatch.setattr(engine, "equation_size", lambda eq: 0)
    with pytest.raises(EngineInternalError, match="9 > 8"):
        solve_conjunction([FEq((SVar("x"),), word("a" * 12))], "ab",
                          oa_mode=OA_LENGTHS_ONLY)


def test_invariant_injection_on_fresh_lengths():
    f0 = init_normalize(worked_example(), "ab")
    for kid in unfold(f0):
        if kid.rule == "small-ind":
            assert atom_le(AInt(0), AVar("$n1")) in kid.formula.arith
            assert atom_lt(AInt(0), AVar("$n0")) in kid.formula.arith


def test_back_link_targets_are_proper_ancestors_with_progress():
    rng = random.Random(21)
    for conjs in draw_one_cycle(rng, 15):
        ans = solve_conjunction(conjs, "ab")
        tree = ans.tree
        for n in tree.nodes:
            if isinstance(n.status, BackLinkedTo):
                anc_ids = [a.id for a in tree.ancestors(n.id)]
                assert n.status.target in anc_ids
                target = tree.nodes[n.status.target]
                assert (n.formula.progress_steps
                        > target.formula.progress_steps)


def test_oa_unsat_nodes_have_no_oracle_model():
    rng = random.Random(22)
    for conjs in draw_one_cycle(rng, 8):
        nf = init_normalize(conjs, "ab")
        if oa_unsat(nf, OA_FULL):
            got = oracle.brute_force_solve(
                normalized_to_formula(nf), "ab", oracle.Bound(8, 8))
            assert got is None


def test_unfolding_preserves_linearity_on_acyclic_formulas():
    rng = random.Random(24)
    for conjs in draw_acyclic(rng, 15):
        nf = init_normalize(conjs, "ab")
        if not nf.equations:
            continue
        assert _first_repeated(nf.equations, 1) is None
        for kid in unfold(nf):
            assert _first_repeated(kid.formula.equations, 1) is None, kid.rule


def _ua_model(f):
    """The model under_approx_check extracts from a sat base leaf."""
    ua = under_approx_check(f)
    assert ua.status == "sat", ua.reason
    return ua.model


def test_extract_model_resolves_chains():
    f = NormalizedFormula(
        subterms=(Define("s", (SVar("u1"),)),
                  Define("u1", (CChar("a"), SVar("u"))), Define("u", ())),
        alphabet=("a", "b"))
    assert _ua_model(f).string_map()["s"] == "a"


def test_extract_model_epsilon():
    f = NormalizedFormula(subterms=(Define("s", ()),), alphabet=("a",))
    assert _ua_model(f).string_map()["s"] == ""


def test_extract_model_witness_from_membership():
    f = with_members(NormalizedFormula(
        arith=(atom_eq(AVar("nt"), AInt(3)),), lengths=(("t", "nt"),),
        alphabet=("a", "b")), ("t", ROTATE_RE))
    got = _ua_model(f)
    assert got.string_map()["t"] == "aba"
    assert got.int_map()["nt"] == 3


def test_extract_model_rejects_cycles():
    f = NormalizedFormula(subterms=(Define("s", (SVar("t"),)),
                                    Define("t", (SVar("s"),))),
                          alphabet=("a",))
    with pytest.raises(EngineInternalError, match="cyclic"):
        under_approx_check(f)
    # the model builder's one reverse pass also refuses a second definition
    twice = f.with_(subterms=(Define("s", ()), Define("s", ())))
    with pytest.raises(EngineInternalError, match="defined twice"):
        under_approx_check(twice)


def _random_subterm_dag(rng):
    """Definitions over x0..xk where each one only uses variables of
    higher index, listed in definition order (each name a definition
    reads is defined by a later one, or never); undefined
    variables get length variables bounded by small constants, and up to
    two variables a membership."""
    names = [f"x{i}" for i in range(rng.randint(1, 7))]
    subterms, lengths, arith = [], [], []
    for i in reversed(range(len(names))):
        v, later = names[i], names[i + 1:]
        kind = rng.choice(("open", "eps", "char", "split", "alias")
                          if later else ("open", "eps"))
        if kind == "open":
            n = f"n{i}"
            lengths.append((v, n))
            arith += [atom_le(AInt(0), AVar(n)),
                      atom_le(AVar(n), AInt(rng.randint(0, 3)))]
        elif kind == "eps":
            subterms.append(Define(v, ()))
        elif kind == "char":
            subterms.append(Define(v, (CChar(rng.choice("ab")),
                                       SVar(rng.choice(later)))))
        elif kind == "split":
            subterms.append(Define(v, (SVar(rng.choice(later)),
                                       SVar(rng.choice(later)))))
        else:
            subterms.append(Define(v, (SVar(rng.choice(later)),)))
    members = [(rng.choice(names), rand_regex(rng, "ab", 2))
               for _ in range(rng.randint(0, 2))]
    return names, with_members(NormalizedFormula(
        arith=tuple(arith), subterms=tuple(reversed(subterms)),
        lengths=tuple(lengths), alphabet=("a", "b")), *members)


def test_ua_models_of_random_subterm_dags():
    rng = random.Random(41)
    sat = 0
    for _ in range(300):
        names, f = _random_subterm_dag(rng)
        ua = under_approx_check(f)
        if ua.status != "sat":
            continue
        sat += 1
        words, ints = ua.model.string_map(), ua.model.int_map()
        for v in names:
            expr = length_expr(resolve(f, v))
            assert eval_arith(expr, ints) == len(words[v]), (f, v)
        assert oracle.eval_formula(normalized_to_formula(f), ua.model,
                                   f.alphabet)
    assert sat >= 100


def test_ua_verdicts_of_random_subterm_dags_match_exhaustive_search():
    # every open length is at most 3, so trying each word of length 0..3
    # for each open variable, and building every other variable from its
    # pieces, decides the leaf
    words = [""] + ["".join(w) for n in (1, 2, 3)
                    for w in itertools.product("ab", repeat=n)]
    rng = random.Random(43)
    seen = {"sat": 0, "unsat": 0}
    while sum(seen.values()) < 120:
        names, f = _random_subterm_dag(rng)
        if not 2 <= len(f.lengths) <= 3:
            continue
        terms = {v: resolve(f, v) for v in names}
        formula = normalized_to_formula(f)
        found = False
        for choice in itertools.product(words, repeat=len(f.lengths)):
            own = {v: w for (v, _), w in zip(f.lengths, choice)}
            strings = {v: "".join(a.char if isinstance(a, CChar)
                                  else own[a.var] for a in terms[v])
                       for v in names}
            ints = {n: len(own[v]) for v, n in f.lengths}
            if oracle.eval_formula(formula, Model.make(strings, ints),
                                   f.alphabet):
                found = True
                break
        got = under_approx_check(f).status
        assert got == ("sat" if found else "unsat"), f
        seen[got] += 1
    assert seen["unsat"] >= 30, seen


def test_export_tree_single_node():
    ans = solve_conjunction([FEq(word("a"), word("b"))], "ab")
    dot = export_tree(ans.tree)
    assert dot.startswith("digraph")
    assert dot.count("[label=") == len(ans.tree.nodes)


def test_export_tree_worked_example_shape():
    ans = solve_conjunction(worked_example(), "ab",
                            oa_mode=OA_LENGTHS_ONLY)
    dot = export_tree(ans.tree)
    assert dot.count("->") == 5  # four tree edges plus one back edge
    assert "style=dashed" in dot


def test_unfold_children_cover_parent_models():
    rng = random.Random(23)
    bound = oracle.Bound(6, 6)
    for _ in range(30):
        f = gen_small_normalized(rng)
        sigma = "".join(f.alphabet)
        parent_sat = oracle.brute_force_solve(
            normalized_to_formula(f), sigma, bound) is not None
        kids = unfold(f)
        kid_sat = any(
            oracle.brute_force_solve(normalized_to_formula(k.formula),
                                     sigma, bound) is not None
            for k in kids)
        assert parent_sat == kid_sat, f


def _conjunction_names(conjs):
    """The string and integer variable names a conjunction mentions."""
    names = set()
    for c in conjs:
        if isinstance(c, FAtom):
            names |= vars_of_atoms([c.atom])
            names |= {v for e in (c.atom.lhs, c.atom.rhs)
                      for v in arith_len_vars(e)}
        else:
            terms = (c.lhs, c.rhs) if isinstance(c, FEq) else (c.term,)
            names |= {a.name for t in terms for a in t
                      if isinstance(a, SVar)}
    return names


def test_fixed_lengths_answer_sat_by_the_length_probe():
    # the node model fixes |x|, and unifying x's positions along the
    # equation gives x = a^400 at the root; unfolding one character a
    # step took over 100 s to reach a base leaf
    x = SVar("x")
    conjs = [FEq(word("a") + (x,), (x,) + word("a")),
             FAtom(atom_eq(ALen("x"), AInt(400)))]
    ans = solve_conjunction(conjs, "ab")
    assert ans.verdict == "sat"
    assert ans.unfoldings <= 2, ans.unfoldings  # measured: 0
    assert ans.model.string_map() == {"x": "a" * 400}
    assert oracle.eval_formula(FAnd(tuple(conjs)), ans.model, "ab")


def test_the_length_probe_only_turns_unknown_to_sat(monkeypatch):
    # the probe answers sat or nothing: without it every verdict is the
    # same, or unknown where the probe found a model; each probe model
    # holds on the input conjunction
    rng = random.Random(81)
    problems = [(c, engine.DEFAULT_BUDGET) for c in
                draw_one_cycle(rng, 300) + draw_acyclic(rng, 100)
                + _acyclic_with_membership(rng, 200)]
    problems += [(c, 40) for c in _head_clash_problems()]
    probed = []
    for conjs, budget in problems:
        ans = solve_conjunction(conjs, "ab", budget=budget)
        how = [n.status.how for n in ans.tree.nodes
               if isinstance(n.status, engine.SatLeaf)]
        if how == ["length probe"]:
            assert oracle.eval_formula(FAnd(tuple(conjs)), ans.model,
                                       "ab"), conjs
        probed.append((ans.verdict, how))
    monkeypatch.setattr(engine, "length_probe", lambda f, hyp: None)
    for (conjs, budget), (verdict, how) in zip(problems, probed):
        plain = solve_conjunction(conjs, "ab", budget=budget).verdict
        assert plain == verdict or (plain, verdict) == ("unknown", "sat"), \
            conjs
    # measured: 62 probe models, 13 base ones
    assert sum(how == ["length probe"] for _, how in probed) > 50, probed


def test_the_length_probe_asks_the_automata_before_the_evaluator(
        monkeypatch):
    # |x| = 2 fills x with "aa", which b.a* refuses: no model is built.
    # Under a* the same fill is accepted and finished into a model.
    x = SVar("x")
    calls = [0]
    real = engine._finish_model

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(engine, "_finish_model", counted)
    for regex, model_calls in ((RCat(RWord("b"), RStar(RWord("a"))), 0),
                               (RStar(RWord("a")), 1)):
        f = init_normalize([FIn((x,), regex),
                            FAtom(atom_eq(ALen("x"), AInt(2)))], "ab")
        hyp = node_hypothesis(f)
        assert not oa_unsat(f, OA_FULL, hyp)  # as the search; gives beta
        calls[0] = 0
        model = engine.length_probe(f, hyp)
        assert calls[0] == model_calls
        assert (model is None) == (model_calls == 0)
    assert model.string_map()["x"] == "aa"


def test_a_fill_the_automata_refuse_the_evaluator_rejects(monkeypatch):
    # at every leaf the search probes, the probe answers what finishing
    # the fill answers without asking the automata; a fill they refuse
    # is one the evaluator rejects
    from test_trees import _budgets, _gen
    rng = random.Random(84)
    problems = [(c, "ab", engine.DEFAULT_BUDGET) for c in
                draw_one_cycle(rng, 100)
                + _acyclic_with_membership(rng, 200, rand_regex)]
    texts = [open(path, encoding="utf-8").read()
             for path in sorted(glob.glob(os.path.join(ROOT, "problems",
                                                       "*.smt2")))]
    texts += [t for _, t in _gen().corpus("memberships", 1)[:100]]
    for text in texts:
        problem = frontend.parse_problem(text)
        problems += [(d, problem.alphabet(), _budgets()["memberships"])
                     for d in problem.disjuncts()]
    probed = []
    real = engine.length_probe

    def spy(f, hyp):
        model = real(f, hyp)
        probed.append((f, hyp, model))
        return model

    monkeypatch.setattr(engine, "length_probe", spy)
    for conjs, sigma, budget in problems:
        solve_conjunction(conjs, sigma, budget=budget)
    refused = 0
    for f, hyp, model in probed:
        beta = hyp.model()
        words = None if beta is None else engine._first_letter_fill(f, beta)
        if words is None:
            assert model is None
            continue
        finished = engine._finish_model(f, beta, words)
        assert model == finished, f
        if not engine._memberships_accept(f, words):
            assert finished is None, f
            refused += 1
    # measured: 117 refusals at 234 probed leaves
    assert refused > 80, refused


def test_a_sat_leaf_says_how_its_model_was_found():
    x = SVar("x")
    base = solve_conjunction([FIn((x,), RCat(RStar(RWord("ba")),
                                             RWord("b")))], "ab")
    probe = solve_conjunction([FEq(word("a") + (x,), (x,) + word("a")),
                               FAtom(atom_eq(ALen("x"), AInt(3)))], "ab")
    for ans, how, label in ((base, "base", "\\nSAT\""),
                            (probe, "length probe",
                             "\\nSAT by length probe\"")):
        (leaf,) = [n for n in ans.tree.nodes
                   if isinstance(n.status, engine.SatLeaf)]
        assert leaf.status.how == how
        assert label in export_tree(ans.tree)


def test_sat_models_name_only_the_conjunction_variables():
    # the normalizer's $u/$n/$m/$k names stay inside the engine; a
    # membership on a term is named $m<i> there
    rng = random.Random(82)
    x, y = SVar("x"), SVar("y")
    problems = draw_one_cycle(rng, 150) + _acyclic_with_membership(rng, 150)
    problems += [worked_example(),
                 [FEq((x, y), (y, x)), FIn((x, y), ROTATE_RE),
                  FAtom(atom_le(AVar("k"), ALen("x")))]]
    sat = 0
    for conjs in problems:
        ans = solve_conjunction(conjs, "ab")
        if ans.verdict != "sat":
            continue
        names = [v for v, _ in ans.model.strings + ans.model.ints]
        assert not [v for v in names if v.startswith("$")], names
        assert set(names) <= _conjunction_names(conjs), names
        assert oracle.eval_formula(FAnd(tuple(conjs)), ans.model, "ab")
        sat += 1
    assert sat > 20, sat
