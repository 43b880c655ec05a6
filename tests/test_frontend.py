import random

import pytest

from corpus import rand_tame_regex
from stringsat.frontend import (ParseError, UnknownIdentifierError,
                                UnsupportedConstructError, parse_problem,
                                render_answer, render_problem)
from stringsat.terms import (AInt, AMod, AVar, FAtom, FEq, FIn, FNot, Model,
                             RCat, RStar, RWord, SVar, word)

WORKED = """
(declare-str s)
(assert (= (str.++ "ab" s) (str.++ s "ba")))
(assert (str.in_re s (re.++ (re.* (str.to_re "ab")) (str.to_re "a"))))
(assert (= (mod (str.len s) 2) 0))
"""


def test_parse_worked_example():
    p = parse_problem(WORKED)
    assert p.str_vars == ("s",)
    eqs = [a for a in p.assertions if isinstance(a, FEq)]
    mems = [a for a in p.assertions if isinstance(a, FIn)]
    atoms = [a for a in p.assertions if isinstance(a, FAtom)]
    assert len(eqs) == 1 and len(mems) == 1 and len(atoms) == 1
    assert eqs[0] == FEq(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    assert mems[0].regex == RCat(RStar(RWord("ab")), RWord("a"))
    assert isinstance(atoms[0].atom.lhs, AMod)
    assert p.alphabet() == ("a", "b")


def test_parse_empty_problem_is_true():
    p = parse_problem("(declare-str s)")
    assert p.assertions == ()
    assert p.disjuncts() == ((),)


def test_parse_rejects_string_disequality():
    with pytest.raises(UnsupportedConstructError):
        parse_problem("(declare-str s)(declare-str t)"
                      "(assert (distinct s t))")


def test_parse_rejects_variable_inside_regex():
    with pytest.raises(UnsupportedConstructError):
        parse_problem("(declare-str s)"
                      "(assert (str.in_re s (re.* (str.to_re s))))")


def test_parse_rejects_general_negation():
    with pytest.raises(UnsupportedConstructError):
        parse_problem('(declare-str s)(assert (not (= s "a")))')


def test_parse_errors_carry_positions():
    try:
        parse_problem("(declare-str s)\n(assert (= s undeclared))")
    except UnknownIdentifierError as e:
        assert e.line == 2 and e.col > 0
    else:
        pytest.fail("expected an error")
    try:
        parse_problem("(assert (= 1 1)")
    except ParseError as e:
        assert e.line == 1
    else:
        pytest.fail("expected an error")


def test_parse_undeclared_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_problem('(assert (= x 1))')


def test_parse_sorts_are_checked():
    with pytest.raises(ParseError):
        parse_problem('(declare-str s)(declare-int n)(assert (= s n))')


@pytest.mark.parametrize("term, col", [
    ("(+)", 13),
    ("(max k)", 13),
    ("(max k j k)", 13),  # a third argument must not be dropped silently
    ("(min k j k)", 13),
    ("(mod k j)", 19),
    ("(mod k 0)", 19),
    ("(mod k (- 3 5))", 20),
    ("(mod k (str.len s))", 20),
])
def test_arith_arity_and_divisor_errors(term, col):
    with pytest.raises(ParseError) as e:
        parse_problem("(declare-str s)(declare-int k)(declare-int j)\n"
                      f"(assert (= {term} 1))")
    assert (e.value.line, e.value.col) == (2, col)


def test_constant_divisor_is_folded():
    p = parse_problem("(declare-int k)(assert (= (mod k (+ 1 (max 2 1))) 1))")
    assert p.assertions[0].atom.lhs == AMod(AVar("k"), AInt(3))


def test_non_utf8_byte_is_a_positioned_error():
    with pytest.raises(ParseError) as e:
        parse_problem(b'(declare-str s)\n(assert (= s "\xc3\xa9\xff"))')
    assert (e.value.line, e.value.col) == (2, 16)


def test_arith_sugar():
    p = parse_problem("(declare-int n)(assert (< n 3))(assert (> n 0))"
                      "(assert (>= n 1))(assert (distinct n 5))")
    assert len(p.assertions) == 4
    assert isinstance(p.assertions[3], FNot)


def test_negation_expansion_in_disjuncts():
    p = parse_problem("(declare-int n)(assert (not (= n 1)))")
    ds = p.disjuncts()
    assert len(ds) == 2  # n <= 0 or n >= 2


def test_top_level_disjunction_splits():
    p = parse_problem('(declare-str s)'
                      '(assert (or (= s "a") (= s "b")))')
    assert len(p.disjuncts()) == 2


def test_declare_chars_extends_alphabet():
    p = parse_problem('(declare-str s)(declare-chars "xy")'
                      '(assert (= s "a"))')
    assert p.alphabet() == ("a", "x", "y")


def test_render_answer_lines():
    assert render_answer("unsat") == "unsat\n"
    assert render_answer("unknown") == "unknown\n"
    p = parse_problem('(declare-str s)(declare-int n)(assert (= s "a"))')
    m = Model.make({"s": "a"}, {"n": 0})
    out = render_answer("sat", m, p, want_model=True)
    assert out.splitlines()[0] == "sat"
    assert '(define s "a")' in out
    assert "(define n 0)" in out


def test_round_trip_parse_render():
    p = parse_problem(WORKED)
    again = parse_problem(render_problem(p))
    assert again == p


def test_round_trip_random_problems():
    rng = random.Random(31)
    for _ in range(25):
        text = _random_problem_text(rng)
        p = parse_problem(text)
        assert parse_problem(render_problem(p)) == p


def _random_problem_text(rng: random.Random) -> str:
    from stringsat.frontend import _render_regex
    lines = ["(declare-str s)", "(declare-str t)", "(declare-int k)"]
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            lhs = rng.choice(['s', '"ab"', '(str.++ s t)', '(str.++ "a" t)'])
            rhs = rng.choice(['t', '"b"', '(str.++ t "a")'])
            lines.append(f"(assert (= {lhs} {rhs}))")
        elif kind < 0.7:
            regex = _render_regex(rand_tame_regex(rng, "ab", 2))
            lines.append(f"(assert (str.in_re {rng.choice('st')} {regex}))")
        else:
            lhs = rng.choice(["(str.len s)", "k", "(+ k 1)",
                              "(mod (str.len t) 2)"])
            lines.append(f"(assert ({rng.choice(['<=', '='])} {lhs} "
                         f"{rng.randint(0, 5)}))")
    return "\n".join(lines)
