import random

from hypothesis import given, strategies as st

from stringsat.terms import (AAdd, AInt, AVar, CChar, Define, Equation,
                             FAnd, FAtom, FNot, FOr, NormalizedFormula, SPred,
                             SVar, atom_eq, atom_le, equation_size,
                             formula_summary, length_expr, negate, term_subst,
                             to_dnf, word)
from stringsat.arith import _lin


def test_equation_size_rotation_example():
    # a.b.s = s.b.a has six atoms in total
    eq = Equation(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    assert equation_size(eq) == 6


def test_equation_size_empty():
    assert equation_size(Equation((), ())) == 0


def test_equation_size_counts_predicates():
    eq = Equation((SPred("u", "n"), CChar("a")), (CChar("b"),))
    assert equation_size(eq) == 3


def test_equation_size_mirror_symmetry():
    rng = random.Random(0)
    for _ in range(50):
        atoms = [CChar(rng.choice("ab")) if rng.random() < 0.5
                 else SVar(rng.choice("st")) for _ in range(rng.randint(0, 6))]
        cut = rng.randint(0, len(atoms))
        eq = Equation(tuple(atoms[:cut]), tuple(atoms[cut:]))
        assert equation_size(eq) == equation_size(Equation(eq.rhs, eq.lhs))


def test_definitions_print_as_the_words_they_substitute():
    # the four shapes a rule defines a name by; the two of a head and a
    # rest are the structural steps
    f = NormalizedFormula(subterms=(
        Define("x", ()), Define("y", (CChar("a"), SVar("t"))),
        Define("z", (SVar("p"), SVar("s"))), Define("w", (SVar("v"),))))
    assert formula_summary(f) == "x = eps /\\ y = a.t /\\ z = p.s /\\ w = v"
    assert f.progress_steps == 2


def test_length_expr_cases():
    assert length_expr(()) == AInt(0)
    got = length_expr(word("ab") + (SPred("u", "n"),))
    assert _lin(got) == ({"n": 1}, 2)
    got = length_expr((SPred("u", "nu"), SPred("t", "nt")))
    assert _lin(got) == ({"nu": 1, "nt": 1}, 0)


def test_length_expr_respects_concatenation():
    rng = random.Random(1)
    for _ in range(40):
        t1 = tuple(CChar(rng.choice("ab")) for _ in range(rng.randint(0, 3)))
        t2 = tuple(SPred(f"u{i}", f"n{i}") for i in range(rng.randint(0, 3)))
        whole = length_expr(t1 + t2)
        split = AAdd(length_expr(t1), length_expr(t2))
        assert _lin(whole) == _lin(split)


def test_length_expr_long_side_is_flat():
    # one constant for the characters, so a long side does not nest deeply
    side = word("ab" * 600) + (SPred("u", "n"),)
    assert _lin(length_expr(side)) == ({"n": 1}, 1200)


def test_length_expr_many_occurrences_nest_shallowly():
    def depth(e):
        return 1 + max(depth(e.left), depth(e.right)) \
            if isinstance(e, AAdd) else 1

    for n in (1, 2, 3, 5, 8, 1000):
        side = word("ab") + (SPred("u", "n"),) * n
        got = length_expr(side)
        assert _lin(got) == ({"n": n}, 2)
        assert depth(got) <= 2 + n.bit_length()


def test_substitute_to_epsilon():
    p = SPred("u", "n")
    assert term_subst((p, CChar("a"), p), p, ()) == (CChar("a"),)


def test_substitute_small_step_matches_worked_example():
    # a.b.STR(u,n) = STR(u,n).b.a  with STR(u,n) := a.STR(u,n1)
    p, p1 = SPred("u", "n"), SPred("u", "n1")
    rep = (CChar("a"), p1)
    assert term_subst(word("ab") + (p,), p, rep) == word("ab") + rep
    assert term_subst((p,) + word("ba"), p, rep) == rep + word("ba")


def test_substitute_bare_variable_by_word():
    t = (SVar("s"), SVar("t"))
    assert term_subst(t, SVar("t"), word("w")) == (SVar("s"),) + word("w")


@given(st.lists(st.sampled_from([CChar("a"), CChar("b"), SVar("s")]),
                max_size=8))
def test_substitute_idempotent_without_reintroduction(atoms):
    # replacing s by a constant word leaves nothing to replace again
    t = tuple(atoms)
    once = term_subst(t, SVar("s"), word("ab"))
    assert term_subst(once, SVar("s"), word("ab")) == once


@given(st.lists(st.sampled_from([CChar("a"), SVar("s"), SPred("u", "n")]),
                max_size=8))
def test_flatten_is_stable(atoms):
    t = tuple(atoms)
    assert term_subst(t, SVar("zzz"), ()) == t


def test_to_dnf_expands_each_negated_atom_into_its_negate_disjuncts():
    n = AVar("n")
    eq, le = atom_eq(n, AInt(1)), atom_le(n, AInt(4))
    below, above = negate(eq)
    (over,) = negate(le)
    f = FAnd((FAtom(le), FOr((FNot(FAtom(eq)), FNot(FAtom(le))))))
    assert to_dnf(f) == ((FAtom(le), FAtom(below)), (FAtom(le), FAtom(above)),
                         (FAtom(le), FAtom(over)))
