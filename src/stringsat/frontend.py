"""Problem file parsing and answer rendering.

The concrete syntax is an SMT-LIB-2 flavored s-expression subset:

    (declare-str s)            (declare-int n)       (declare-chars "xy")
    (assert (= (str.++ "ab" s) (str.++ s "ba")))
    (assert (str.in_re s (re.++ (re.* (str.to_re "ab")) (str.to_re "a"))))
    (assert (= (mod (str.len s) 2) 0))

Boolean structure: and / or anywhere, not only over arithmetic atoms.
String disequalities are rejected up front.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import List, NoReturn, Optional, Tuple, Union

from .terms import (AAdd, AInt, ALen, AMax, AMin, AMod, ANeg, AScale, AVar,
                    ArithAtom, ArithExpr, CChar, FAnd, FAtom, FEq, FIn, FNot,
                    FOr, Formula, Model, RCat, RComp, RE, REps, RInter,
                    RStar, RUnion, RWord, SVar, Term, arith_len_vars,
                    atom_le, collect_vars, eval_arith, fold_balanced,
                    formula_chars, negate, to_dnf, word)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class UnknownIdentifierError(ParseError):
    pass


class UnsupportedConstructError(ParseError):
    pass


@dataclass(frozen=True)
class Problem:
    str_vars: tuple
    int_vars: tuple
    extra_chars: tuple
    assertions: tuple  # of Formula

    def formula(self) -> Formula:
        return FAnd(self.assertions)

    def alphabet(self) -> tuple:
        chars = set(self.extra_chars)
        for a in self.assertions:
            chars |= formula_chars(a)
        return tuple(sorted(chars))

    def disjuncts(self) -> tuple:
        """Split the asserted conjunction into independent sub-problems,
        one per disjunct of its disjunctive normal form."""
        return to_dnf(_expand_negations(self.formula()))


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

# One token per match; what no alternative matches is whitespace.  A
# string token without its closing quote is unterminated, and a single
# character that starts no token is unexpected.
_TOKEN = re.compile(r'[()]|"[^"\n]*"?|[A-Za-z0-9_.+\-*/<>=!?%]+|;[^\n]*'
                    r'|[^ \t\r\n]')
_SYMBOL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz"
                          "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                          "0123456789_.+-*/<>=!?%")

# A form is a tuple (kind, value, token index).  An atom's value is its
# text (a string literal without its quotes); a list's is the list of its
# forms, and its index is that of its "(".
_LIST, _SYMBOL, _INT, _STRING = "list", "symbol", "int", "string"

# The formula builder and the solver's walks over formulas, regexes and
# arithmetic recurse up to twice per level of nesting: about 500 levels
# exhaust Python's default stack.  Deeper input than this is refused with
# a position instead.
MAX_NESTING = 100


def _read(text: str) -> list:
    """The forms of a problem text, built in the pass over its tokens with
    an explicit stack of the lists still open.  A bad token anywhere in
    the text is reported before a misplaced parenthesis."""
    toks = _TOKEN.findall(text)
    out: list = []
    items = out
    open_lists: list = []  # (index of its "(", the enclosing items)
    for i, t in enumerate(toks):
        if t == "(":
            if len(open_lists) == MAX_NESTING:
                _misplaced(text, toks, i,
                           f"nesting deeper than {MAX_NESTING} levels")
            open_lists.append((i, items))
            items = []
        elif t == ")":
            if not open_lists:
                _misplaced(text, toks, i, "unexpected )")
            start, outer = open_lists.pop()
            outer.append((_LIST, items, start))
            items = outer
        else:
            c = t[0]
            if c in _SYMBOL_CHARS:
                is_int = t.isdigit() or (c == "-" and t[1:].isdigit())
                items.append((_INT if is_int else _SYMBOL, t, i))
            elif c != ";":  # a string literal, or an unreadable token
                bad = _bad_token(t)
                if bad is not None:
                    raise ParseError(bad, *_position(text, i))
                items.append((_STRING, t[1:-1], i))
    if open_lists:
        # every token was read, so none is bad
        raise ParseError("missing )", *_position(text, open_lists[-1][0]))
    return out


def _bad_token(t: str) -> Optional[str]:
    """Why the token cannot be read, or None."""
    c = t[0]
    if c == '"':
        if len(t) < 2 or t[-1] != '"':
            return "unterminated string literal"
        if not (t.isascii() and t.isprintable()):
            return "string literals are printable ASCII only"
        return None
    if c in _SYMBOL_CHARS or c in "();":
        return None
    return f"unexpected character {c!r}"


def _misplaced(text: str, toks: list, i: int, msg: str) -> NoReturn:
    """Raise the read error msg at token i, unless a later token is bad:
    the first bad token is reported instead."""
    for j in range(i + 1, len(toks)):
        bad = _bad_token(toks[j])
        if bad is not None:
            raise ParseError(bad, *_position(text, j))
    raise ParseError(msg, *_position(text, i))


def _position(text: str, index: int) -> Tuple[int, int]:
    """Line and column, both from 1, of the index-th token.  Only errors
    need one, so it is found by scanning the text again."""
    at = next(itertools.islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# Parsing proper
# ---------------------------------------------------------------------------

class _Ctx:
    def __init__(self, text: str) -> None:
        self.text = text
        self.str_vars: List[str] = []
        self.int_vars: List[str] = []
        self.extra_chars: List[str] = []
        self.assertions: List[Formula] = []

    def sort_of(self, name: str) -> Optional[str]:
        if name in self.str_vars:
            return "str"
        if name in self.int_vars:
            return "int"
        return None

    def pos(self, n: tuple) -> Tuple[int, int]:
        """A form's position: an atom's own, a list's first item's, and
        an empty list's "("."""
        while n[0] == _LIST and n[1]:
            n = n[1][0]
        return _position(self.text, n[2])


def parse_problem(text: Union[str, bytes]) -> Problem:
    """Parse a problem file; raises positioned errors on bad input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            line_start = text.rfind(b"\n", 0, e.start) + 1
            col = len(text[line_start:e.start].decode("utf-8")) + 1
            raise ParseError(f"invalid UTF-8 byte {text[e.start]:#04x}",
                             text.count(b"\n", 0, e.start) + 1, col) from None
    ctx = _Ctx(text)
    for form in _read(text):
        _top_form(form, ctx)
    return Problem(tuple(ctx.str_vars), tuple(ctx.int_vars),
                   tuple(ctx.extra_chars), tuple(ctx.assertions))


def _head(form: tuple, ctx: _Ctx) -> str:
    if form[0] != _LIST or not form[1] or form[1][0][0] == _LIST:
        raise ParseError("expected a command", *ctx.pos(form))
    return form[1][0][1]


def _top_form(form: tuple, ctx: _Ctx) -> None:
    head = _head(form, ctx)
    args = form[1][1:]
    if head in ("declare-str", "declare-int"):
        if len(args) != 1 or args[0][0] != _SYMBOL:
            raise ParseError(f"{head} expects one identifier", *ctx.pos(form))
        name = args[0][1]
        if name[0].isdigit() or name[0] in "-$":
            raise ParseError(f"bad identifier {name!r}", *ctx.pos(args[0]))
        if ctx.sort_of(name) is not None:
            raise ParseError(f"{name!r} already declared", *ctx.pos(args[0]))
        (ctx.str_vars if head == "declare-str" else ctx.int_vars).append(name)
        return
    if head == "declare-chars":
        if len(args) != 1 or args[0][0] != _STRING:
            raise ParseError("declare-chars expects a string literal",
                             *ctx.pos(form))
        for c in args[0][1]:
            if c not in ctx.extra_chars:
                ctx.extra_chars.append(c)
        return
    if head == "assert":
        if len(args) != 1:
            raise ParseError("assert expects one formula", *ctx.pos(form))
        ctx.assertions.append(_formula(args[0], ctx))
        return
    if head in ("set-logic", "set-info", "check-sat", "get-model", "exit"):
        return  # accepted and ignored for convenience
    raise UnknownIdentifierError(f"unknown command {head!r}", *ctx.pos(form))


def _formula(n: tuple, ctx: _Ctx) -> Formula:
    if n[0] != _LIST:
        raise ParseError("expected a formula", *ctx.pos(n))
    head = _head(n, ctx)
    args = n[1][1:]
    if head == "and":
        return FAnd(tuple(_formula(a, ctx) for a in args))
    if head == "or":
        return FOr(tuple(_formula(a, ctx) for a in args))
    if head == "not":
        if len(args) != 1:
            raise ParseError("not expects one argument", *ctx.pos(n))
        inner = _formula(args[0], ctx)
        if not isinstance(inner, FAtom):
            raise UnsupportedConstructError(
                "negation is only supported over arithmetic atoms",
                *ctx.pos(n))
        return FNot(inner)
    if head == "distinct":
        sorts = {_sort_of_term(a, ctx) for a in args}
        if "str" in sorts:
            raise UnsupportedConstructError(
                "string disequalities are not supported "
                "(they can be eliminated upstream)", *ctx.pos(n))
        if len(args) != 2:
            raise UnsupportedConstructError(
                "distinct expects two integer terms", *ctx.pos(n))
        return FNot(FAtom(ArithAtom("eq", _arith(args[0], ctx),
                                    _arith(args[1], ctx))))
    if head == "str.in_re":
        if len(args) != 2:
            raise ParseError("str.in_re expects a term and a regex",
                             *ctx.pos(n))
        return FIn(_str_term(args[0], ctx), _regex(args[1], ctx))
    if head in ("=", "<=", "<", ">=", ">"):
        if len(args) != 2:
            raise ParseError(f"{head} expects two arguments", *ctx.pos(n))
        if head == "=":
            s0, s1 = _sort_of_term(args[0], ctx), _sort_of_term(args[1], ctx)
            if s0 == "str" or s1 == "str":
                if s0 != s1:
                    raise ParseError("equation sides have different sorts",
                                     *ctx.pos(n))
                return FEq(_str_term(args[0], ctx), _str_term(args[1], ctx))
            return FAtom(ArithAtom("eq", _arith(args[0], ctx),
                                   _arith(args[1], ctx)))
        a, b = _arith(args[0], ctx), _arith(args[1], ctx)
        if head == "<=":
            return FAtom(atom_le(a, b))
        if head == "<":
            return FAtom(atom_le(AAdd(a, AInt(1)), b))
        if head == ">=":
            return FAtom(atom_le(b, a))
        return FAtom(atom_le(AAdd(b, AInt(1)), a))
    raise UnsupportedConstructError(f"unsupported construct {head!r}",
                                    *ctx.pos(n))


def _sort_of_term(n: tuple, ctx: _Ctx) -> str:
    kind, value, _ = n
    if kind == _STRING:
        return "str"
    if kind == _INT:
        return "int"
    if kind == _SYMBOL:
        sort = ctx.sort_of(value)
        if sort is None:
            raise UnknownIdentifierError(f"undeclared identifier {value!r}",
                                         *ctx.pos(n))
        return sort
    return "str" if _head(n, ctx) == "str.++" else "int"


def _str_term(n: tuple, ctx: _Ctx) -> Term:
    kind, value, _ = n
    if kind == _STRING:
        return word(value)
    if kind == _SYMBOL:
        if ctx.sort_of(value) != "str":
            raise UnknownIdentifierError(
                f"{value!r} is not a declared string variable", *ctx.pos(n))
        return (SVar(value),)
    if kind == _INT:
        raise ParseError("expected a string term", *ctx.pos(n))
    head = _head(n, ctx)
    if head == "str.++":
        return tuple(x for a in value[1:] for x in _str_term(a, ctx))
    raise UnsupportedConstructError(
        f"unsupported string operator {head!r}", *ctx.pos(n))


def _regex(n: tuple, ctx: _Ctx) -> RE:
    if n[0] != _LIST:
        raise ParseError("expected a regex", *ctx.pos(n))
    head = _head(n, ctx)
    args = n[1][1:]
    if head == "str.to_re":
        if len(args) != 1 or args[0][0] == _LIST:
            raise ParseError("str.to_re expects a string literal",
                             *ctx.pos(n))
        kind, text, _ = args[0]
        if kind != _STRING:
            raise UnsupportedConstructError(
                "string variables cannot occur inside regexes",
                *ctx.pos(args[0]))
        return REps() if text == "" else RWord(text)
    if head == "re.++":
        return _fold(RCat, [_regex(a, ctx) for a in args], n, ctx)
    if head == "re.union":
        return _fold(RUnion, [_regex(a, ctx) for a in args], n, ctx)
    if head == "re.inter":
        return _fold(RInter, [_regex(a, ctx) for a in args], n, ctx)
    if head == "re.comp":
        if len(args) != 1:
            raise ParseError("re.comp expects one regex", *ctx.pos(n))
        return RComp(_regex(args[0], ctx))
    if head == "re.*":
        if len(args) != 1:
            raise ParseError("re.* expects one regex", *ctx.pos(n))
        return RStar(_regex(args[0], ctx))
    raise UnsupportedConstructError(f"unsupported regex operator {head!r}",
                                    *ctx.pos(n))


def _fold(ctor, parts: List[RE], n: tuple, ctx: _Ctx) -> RE:
    if not parts:
        raise ParseError("operator expects at least one regex", *ctx.pos(n))
    return fold_balanced(ctor, parts)


def _arith(n: tuple, ctx: _Ctx) -> ArithExpr:
    kind, value, _ = n
    if kind == _INT:
        return AInt(int(value))
    if kind == _SYMBOL:
        if ctx.sort_of(value) != "int":
            raise UnknownIdentifierError(
                f"{value!r} is not a declared integer variable", *ctx.pos(n))
        return AVar(value)
    if kind == _STRING:
        raise ParseError("expected an integer term", *ctx.pos(n))
    head = _head(n, ctx)
    args = value[1:]
    if head == "str.len":
        if len(args) != 1 or args[0][0] == _LIST \
                or ctx.sort_of(args[0][1]) != "str":
            raise UnsupportedConstructError(
                "str.len applies to a declared string variable", *ctx.pos(n))
        return ALen(args[0][1])
    if head == "+":
        if not args:
            raise ParseError("+ expects at least one argument", *ctx.pos(n))
        return fold_balanced(AAdd, [_arith(a, ctx) for a in args])
    if head == "-":
        if len(args) == 1:
            return ANeg(_arith(args[0], ctx))
        if len(args) == 2:
            return AAdd(_arith(args[0], ctx), ANeg(_arith(args[1], ctx)))
        raise ParseError("- expects one or two arguments", *ctx.pos(n))
    if head == "*":
        if len(args) != 2:
            raise ParseError("* expects two arguments", *ctx.pos(n))
        a, b = _arith(args[0], ctx), _arith(args[1], ctx)
        if isinstance(a, AInt):
            return AScale(a.value, b)
        if isinstance(b, AInt):
            return AScale(b.value, a)
        raise UnsupportedConstructError(
            "multiplication needs a constant factor", *ctx.pos(n))
    if head == "mod":
        if len(args) != 2:
            raise ParseError("mod expects two arguments", *ctx.pos(n))
        return AMod(_arith(args[0], ctx), _divisor(args[1], ctx))
    if head in ("max", "min"):
        if len(args) != 2:
            raise ParseError(f"{head} expects two arguments", *ctx.pos(n))
        ctor = AMax if head == "max" else AMin
        return ctor(_arith(args[0], ctx), _arith(args[1], ctx))
    raise UnsupportedConstructError(f"unsupported integer operator {head!r}",
                                    *ctx.pos(n))


def _divisor(n: tuple, ctx: _Ctx) -> AInt:
    """A mod divisor: a variable-free term with a positive value, kept as
    that value, the only divisor form the arithmetic backend accepts."""
    d = _arith(n, ctx)
    if collect_vars(d, set()) or arith_len_vars(d):
        raise UnsupportedConstructError("mod divisor must be a constant",
                                        *ctx.pos(n))
    value = eval_arith(d, {})
    if value <= 0:
        raise ParseError(f"mod divisor must be positive, got {value}",
                         *ctx.pos(n))
    return AInt(value)


# ---------------------------------------------------------------------------
# Negation expansion (only arithmetic atoms may sit under a not)
# ---------------------------------------------------------------------------

def _expand_negations(f: Formula) -> Formula:
    if isinstance(f, FNot):
        return FOr(tuple(map(FAtom, negate(f.inner.atom))))
    if isinstance(f, FAnd):
        return FAnd(tuple(_expand_negations(x) for x in f.items))
    if isinstance(f, FOr):
        return FOr(tuple(_expand_negations(x) for x in f.items))
    return f


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_answer(verdict: str, model: Optional[Model] = None,
                  problem: Optional[Problem] = None,
                  want_model: bool = False) -> str:
    """First line is exactly sat/unsat/unknown; with a requested model, one
    define line per declared variable follows."""
    lines = [verdict]
    if verdict == "sat" and want_model and model is not None:
        strings = model.string_map()
        ints = model.int_map()
        if problem is not None:
            for v in problem.str_vars:
                lines.append(f'(define {v} "{strings.get(v, "")}")')
            for v in problem.int_vars:
                lines.append(f"(define {v} {ints.get(v, 0)})")
        else:
            for v, w in model.strings:
                lines.append(f'(define {v} "{w}")')
            for v, k in model.ints:
                lines.append(f"(define {v} {k})")
    return "\n".join(lines) + "\n"


def render_problem(p: Problem) -> str:
    """Pretty-print a problem back to the concrete syntax (round-trips)."""
    lines = []
    for v in p.str_vars:
        lines.append(f"(declare-str {v})")
    for v in p.int_vars:
        lines.append(f"(declare-int {v})")
    if p.extra_chars:
        lines.append(f'(declare-chars "{"".join(p.extra_chars)}")')
    for a in p.assertions:
        lines.append(f"(assert {_render_formula(a)})")
    return "\n".join(lines) + "\n"


def _render_formula(f: Formula) -> str:
    if isinstance(f, FAnd):
        return "(and " + " ".join(_render_formula(x) for x in f.items) + ")"
    if isinstance(f, FOr):
        return "(or " + " ".join(_render_formula(x) for x in f.items) + ")"
    if isinstance(f, FNot):
        return "(not " + _render_formula(f.inner) + ")"
    if isinstance(f, FEq):
        return f"(= {_render_term(f.lhs)} {_render_term(f.rhs)})"
    if isinstance(f, FIn):
        return f"(str.in_re {_render_term(f.term)} {_render_regex(f.regex)})"
    a = f.atom
    op = "=" if a.kind == "eq" else "<="
    return f"({op} {_render_arith(a.lhs)} {_render_arith(a.rhs)})"


def _render_term(t: Term) -> str:
    if not t:
        return '""'
    parts: List[str] = []
    for a in t:
        if isinstance(a, CChar):
            if parts and parts[-1].startswith('"'):
                parts[-1] = parts[-1][:-1] + a.char + '"'
            else:
                parts.append(f'"{a.char}"')
        elif isinstance(a, SVar):
            parts.append(a.name)
        else:
            raise ValueError("cannot print solver-internal predicates")
    if len(parts) == 1:
        return parts[0]
    return "(str.++ " + " ".join(parts) + ")"


def _render_regex(r: RE) -> str:
    if isinstance(r, REps):
        return '(str.to_re "")'
    if isinstance(r, RWord):
        return f'(str.to_re "{r.chars}")'
    if isinstance(r, RCat):
        return f"(re.++ {_render_regex(r.left)} {_render_regex(r.right)})"
    if isinstance(r, RUnion):
        return f"(re.union {_render_regex(r.left)} {_render_regex(r.right)})"
    if isinstance(r, RInter):
        return f"(re.inter {_render_regex(r.left)} {_render_regex(r.right)})"
    if isinstance(r, RComp):
        return f"(re.comp {_render_regex(r.inner)})"
    if isinstance(r, RStar):
        return f"(re.* {_render_regex(r.inner)})"
    from .terms import RLit, REmpty
    if isinstance(r, RLit):
        return f'(str.to_re "{r.char}")'
    if isinstance(r, REmpty):
        # the empty language: nothing is both empty and non-empty
        return '(re.inter (str.to_re "") (re.comp (str.to_re "")))'
    raise ValueError(f"cannot print regex {r!r}")


def _render_arith(e: ArithExpr) -> str:
    if isinstance(e, AInt):
        return str(e.value)
    if isinstance(e, AVar):
        return e.name
    if isinstance(e, ALen):
        return f"(str.len {e.var})"
    if isinstance(e, AScale):
        return f"(* {e.factor} {_render_arith(e.inner)})"
    if isinstance(e, ANeg):
        return f"(- {_render_arith(e.inner)})"
    if isinstance(e, AAdd):
        return f"(+ {_render_arith(e.left)} {_render_arith(e.right)})"
    if isinstance(e, AMod):
        return f"(mod {_render_arith(e.left)} {_render_arith(e.right)})"
    if isinstance(e, AMax):
        return f"(max {_render_arith(e.left)} {_render_arith(e.right)})"
    return f"(min {_render_arith(e.left)} {_render_arith(e.right)})"
