import pathlib
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from corpus import draw_acyclic, draw_one_cycle, rand_tame_regex
from stringsat import frontend
from stringsat.frontend import (MAX_NESTING, ParseError, Problem,
                                UnknownIdentifierError,
                                UnsupportedConstructError, parse_problem,
                                render_answer, render_problem)
from stringsat.terms import (AInt, AMod, AVar, FAnd, FAtom, FEq, FIn, FNot,
                             Model, RCat, RStar, RWord, SVar,
                             formula_int_vars, formula_len_vars,
                             formula_string_vars, word)

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


@pytest.mark.parametrize("text, line, col", [
    ("()", 1, 1),
    ("(assert ())", 1, 9),
    ("(declare-str s)\n  (assert ())", 2, 11),
    ("(())", 1, 2),
])
def test_empty_lists_are_placed_at_their_parenthesis(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    assert (e.value.msg, e.value.line, e.value.col) == \
        ("expected a command", line, col)


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


# ---------------------------------------------------------------------------
# The one-pass reader against the lexer and reader it replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # lparen rparen symbol string int
    text: str
    line: int
    col: int


_SYMBOL_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "0123456789_.+-*/<>=!?%")


def _lex(text: str) -> List[_Tok]:
    """Reference lexer: a loop per character, all tokens before any list."""
    toks: List[_Tok] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            toks.append(_Tok("lparen" if c == "(" else "rparen", c, line,
                             col))
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string literal", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, col)
            lit = text[i + 1:j]
            for ch in lit:
                if not (32 <= ord(ch) < 127):
                    raise ParseError(
                        "string literals are printable ASCII only", line, col)
            toks.append(_Tok("string", lit, line, col))
            col += j - i + 1
            i = j + 1
            continue
        if c in _SYMBOL_CHARS:
            j = i
            while j < n and text[j] in _SYMBOL_CHARS:
                j += 1
            t = text[i:j]
            body = t[1:] if t[:1] == "-" else t
            kind = "int" if body.isdigit() and body != "" else "symbol"
            toks.append(_Tok(kind, t, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return toks


@dataclass(frozen=True)
class _Node:
    # an atom token, or a parenthesized list with its "("
    tok: Optional[_Tok]
    items: Optional[tuple]
    paren: Optional[_Tok] = None

    @property
    def pos(self) -> Tuple[int, int]:
        if self.tok is not None:
            return self.tok.line, self.tok.col
        if self.items:
            return self.items[0].pos
        return self.paren.line, self.paren.col


def _read_all(toks: List[_Tok]) -> List[_Node]:
    """Reference reader over the whole token list, with an explicit stack
    of the lists still open."""
    out: List[_Node] = []
    open_lists: List[Tuple[_Tok, list]] = []
    for t in toks:
        if t.kind == "lparen":
            if len(open_lists) == MAX_NESTING:
                raise ParseError(
                    f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
            open_lists.append((t, []))
            continue
        if t.kind == "rparen":
            if not open_lists:
                raise ParseError("unexpected )", t.line, t.col)
            paren, items = open_lists.pop()
            node = _Node(None, tuple(items), paren)
        else:
            node = _Node(t, None)
        (open_lists[-1][1] if open_lists else out).append(node)
    if open_lists:
        t = open_lists[-1][0]
        raise ParseError("missing )", t.line, t.col)
    return out


def _error(e: ParseError) -> tuple:
    return type(e), e.msg, e.line, e.col


def _reference_forms(text: str):
    try:
        nodes = _read_all(_lex(text))
    except ParseError as e:
        return _error(e)

    def shape(n: _Node) -> tuple:
        if n.tok is not None:
            return n.tok.kind, n.tok.text, n.pos
        return "list", tuple(shape(x) for x in n.items), n.pos
    return [shape(n) for n in nodes]


def _forms(text: str):
    try:
        forms = frontend._read(text)
    except ParseError as e:
        return _error(e)
    ctx = frontend._Ctx(text)

    def shape(n: tuple) -> tuple:
        kind, value, _ = n
        if kind == "list":
            value = tuple(shape(x) for x in value)
        return kind, value, ctx.pos(n)
    return [shape(n) for n in forms]


def _corpus_texts(rng: random.Random) -> List[str]:
    texts = [WORKED, "", "(declare-str s)"]
    texts += [p.read_text() for p in sorted(
        (pathlib.Path(__file__).parent.parent / "problems").glob("*.smt2"))]
    texts += [_random_problem_text(rng) for _ in range(20)]
    for conjs in draw_one_cycle(rng, 10) + draw_acyclic(rng, 10):
        f = FAnd(tuple(conjs))
        strs = sorted(formula_string_vars(f) | formula_len_vars(f))
        texts.append(render_problem(Problem(
            tuple(strs), tuple(sorted(formula_int_vars(f))), (),
            tuple(conjs))))
    return texts


def _nest(depth: int) -> str:
    return "(assert " + "(and " * depth + "true" + ")" * (depth + 1)


def _reader_inputs(rng: random.Random) -> List[str]:
    texts = _corpus_texts(rng)
    out = list(texts)
    odd = ["é", " ", "\x0b", "\t", "\r", "\r\n", "\n", "; note (é\n",
           ";", '"', '"é"', '"a\tb"', "\x7f", "{", "$", "()", "(())"]
    for depth in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        out += [_nest(depth), "(" * depth + ")" * depth,
                _nest(depth) + " é", "é " + _nest(depth)]
    out += ["()", "(assert ())", ")", ") é", ')\n"open', "(()", "(( é",
            "((\n)", ")" + WORKED + '"x\n', WORKED.replace("\n", "\r\n"),
            WORKED.replace(" ", "\t")]
    while len(out) < 1000:
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(6)
        if kind == 0:  # truncated
            out.append(text[:i])
        elif kind == 1:  # a parenthesis or quote spliced in or over
            c = rng.choice('()"')
            out.append(text[:i] + c + text[i + rng.randrange(2):])
        elif kind == 2:  # odd characters, comments and line ends
            out.append(text[:i] + rng.choice(odd) + text[i:])
        elif kind == 3:  # a stray ) early, odd characters later
            j = rng.randrange(i, len(text) + 1)
            out.append(text[:i] + ")" + text[i:j] + rng.choice(odd)
                       + text[j:])
        elif kind == 4:  # a deep nest somewhere
            depth = rng.choice((MAX_NESTING - 1, MAX_NESTING,
                                MAX_NESTING + 1))
            out.append(text[:i] + _nest(depth) + text[i:])
        else:  # line ends and tabs
            out.append(text.replace("\n", rng.choice(("\r\n", "\r", "\n\n")))
                       .replace(" ", rng.choice((" ", "\t", " \t"))))
    return out


def test_reader_matches_the_two_stage_reference():
    inputs = _reader_inputs(random.Random(97))
    errors = set()
    for text in inputs:
        want = _reference_forms(text)
        assert _forms(text) == want, repr(text)
        if isinstance(want, tuple):
            errors.add(want[1].split(" '")[0])
    # every error the reader can raise was drawn
    assert errors == {"unterminated string literal",
                      "string literals are printable ASCII only",
                      "unexpected character", "unexpected )", "missing )",
                      f"nesting deeper than {MAX_NESTING} levels"}, errors
