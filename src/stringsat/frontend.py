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

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .terms import (AAdd, AInt, ALen, AMax, AMin, AMod, ANeg, AScale, AVar,
                    ArithAtom, ArithExpr, CChar, FAnd, FAtom, FEq, FIn, FNot,
                    FOr, Formula, Model, RCat, RComp, RE, REps, RInter,
                    RStar, RUnion, RWord, SVar, Term, arith_len_vars,
                    atom_le, collect_vars, eval_arith, fold_balanced,
                    formula_chars, to_dnf, word)


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
# Lexer / reader
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
        if c == "(":
            toks.append(_Tok("lparen", "(", line, col))
            i += 1
            col += 1
            continue
        if c == ")":
            toks.append(_Tok("rparen", ")", line, col))
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
            kind = "int" if _is_int(t) else "symbol"
            toks.append(_Tok(kind, t, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return toks


def _is_int(t: str) -> bool:
    body = t[1:] if t[:1] == "-" else t
    return body.isdigit() and body != ""


@dataclass(frozen=True)
class _Node:
    # an atom token or a parenthesized list
    tok: Optional[_Tok]
    items: Optional[tuple]

    @property
    def pos(self) -> Tuple[int, int]:
        if self.tok is not None:
            return self.tok.line, self.tok.col
        return self.items[0].pos if self.items else (0, 0)


# The formula builder and the solver's walks over formulas, regexes and
# arithmetic recurse up to twice per level of nesting: about 500 levels
# exhaust Python's default stack.  Deeper input than this is refused with
# a position instead.
MAX_NESTING = 100


def _read_all(toks: List[_Tok]) -> List[_Node]:
    """The forms of a token list, read with an explicit stack of the lists
    still open."""
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
            node = _Node(None, tuple(open_lists.pop()[1]))
        else:
            node = _Node(t, None)
        (open_lists[-1][1] if open_lists else out).append(node)
    if open_lists:
        t = open_lists[-1][0]
        raise ParseError("missing )", t.line, t.col)
    return out


# ---------------------------------------------------------------------------
# Parsing proper
# ---------------------------------------------------------------------------

class _Ctx:
    def __init__(self) -> None:
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
    ctx = _Ctx()
    for form in _read_all(_lex(text)):
        _top_form(form, ctx)
    return Problem(tuple(ctx.str_vars), tuple(ctx.int_vars),
                   tuple(ctx.extra_chars), tuple(ctx.assertions))


def _head(form: _Node) -> str:
    if form.items is None or not form.items or form.items[0].tok is None:
        raise ParseError("expected a command", *form.pos)
    return form.items[0].tok.text


def _top_form(form: _Node, ctx: _Ctx) -> None:
    if form.items is None:
        raise ParseError("expected a command", *form.pos)
    head = _head(form)
    args = form.items[1:]
    if head in ("declare-str", "declare-int"):
        if len(args) != 1 or args[0].tok is None or args[0].tok.kind != "symbol":
            raise ParseError(f"{head} expects one identifier", *form.pos)
        name = args[0].tok.text
        if name[0].isdigit() or name[0] in "-$":
            raise ParseError(f"bad identifier {name!r}", *args[0].pos)
        if ctx.sort_of(name) is not None:
            raise ParseError(f"{name!r} already declared", *args[0].pos)
        (ctx.str_vars if head == "declare-str" else ctx.int_vars).append(name)
        return
    if head == "declare-chars":
        if len(args) != 1 or args[0].tok is None or args[0].tok.kind != "string":
            raise ParseError("declare-chars expects a string literal",
                             *form.pos)
        for c in args[0].tok.text:
            if c not in ctx.extra_chars:
                ctx.extra_chars.append(c)
        return
    if head == "assert":
        if len(args) != 1:
            raise ParseError("assert expects one formula", *form.pos)
        ctx.assertions.append(_formula(args[0], ctx))
        return
    if head in ("set-logic", "set-info", "check-sat", "get-model", "exit"):
        return  # accepted and ignored for convenience
    raise UnknownIdentifierError(f"unknown command {head!r}", *form.pos)


def _formula(n: _Node, ctx: _Ctx) -> Formula:
    if n.items is None:
        raise ParseError("expected a formula", *n.pos)
    head = _head(n)
    args = n.items[1:]
    if head == "and":
        return FAnd(tuple(_formula(a, ctx) for a in args))
    if head == "or":
        return FOr(tuple(_formula(a, ctx) for a in args))
    if head == "not":
        if len(args) != 1:
            raise ParseError("not expects one argument", *n.pos)
        inner = _formula(args[0], ctx)
        if not isinstance(inner, FAtom):
            raise UnsupportedConstructError(
                "negation is only supported over arithmetic atoms", *n.pos)
        return FNot(inner)
    if head == "distinct":
        sorts = {_sort_of_term(a, ctx) for a in args}
        if "str" in sorts:
            raise UnsupportedConstructError(
                "string disequalities are not supported "
                "(they can be eliminated upstream)", *n.pos)
        if len(args) != 2:
            raise UnsupportedConstructError(
                "distinct expects two integer terms", *n.pos)
        return FNot(FAtom(ArithAtom("eq", _arith(args[0], ctx),
                                    _arith(args[1], ctx))))
    if head == "str.in_re":
        if len(args) != 2:
            raise ParseError("str.in_re expects a term and a regex", *n.pos)
        return FIn(_str_term(args[0], ctx), _regex(args[1], ctx))
    if head in ("=", "<=", "<", ">=", ">"):
        if len(args) != 2:
            raise ParseError(f"{head} expects two arguments", *n.pos)
        if head == "=":
            s0, s1 = _sort_of_term(args[0], ctx), _sort_of_term(args[1], ctx)
            if s0 == "str" or s1 == "str":
                if s0 != s1:
                    raise ParseError("equation sides have different sorts",
                                     *n.pos)
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
    raise UnsupportedConstructError(f"unsupported construct {head!r}", *n.pos)


def _sort_of_term(n: _Node, ctx: _Ctx) -> str:
    if n.tok is not None:
        t = n.tok
        if t.kind == "string":
            return "str"
        if t.kind == "int":
            return "int"
        sort = ctx.sort_of(t.text)
        if sort is None:
            raise UnknownIdentifierError(f"undeclared identifier {t.text!r}",
                                         *n.pos)
        return sort
    head = _head(n)
    if head in ("str.++",):
        return "str"
    return "int"


def _str_term(n: _Node, ctx: _Ctx) -> Term:
    if n.tok is not None:
        t = n.tok
        if t.kind == "string":
            return word(t.text)
        if t.kind == "symbol":
            if ctx.sort_of(t.text) != "str":
                raise UnknownIdentifierError(
                    f"{t.text!r} is not a declared string variable", *n.pos)
            return (SVar(t.text),)
        raise ParseError("expected a string term", *n.pos)
    head = _head(n)
    if head == "str.++":
        out: tuple = ()
        for a in n.items[1:]:
            out = out + _str_term(a, ctx)
        return out
    raise UnsupportedConstructError(
        f"unsupported string operator {head!r}", *n.pos)


def _regex(n: _Node, ctx: _Ctx) -> RE:
    if n.tok is not None:
        raise ParseError("expected a regex", *n.pos)
    head = _head(n)
    args = n.items[1:]
    if head == "str.to_re":
        if len(args) != 1 or args[0].tok is None:
            raise ParseError("str.to_re expects a string literal", *n.pos)
        t = args[0].tok
        if t.kind != "string":
            raise UnsupportedConstructError(
                "string variables cannot occur inside regexes", *args[0].pos)
        return REps() if t.text == "" else RWord(t.text)
    if head == "re.++":
        return _fold(RCat, [_regex(a, ctx) for a in args], n)
    if head == "re.union":
        return _fold(RUnion, [_regex(a, ctx) for a in args], n)
    if head == "re.inter":
        return _fold(RInter, [_regex(a, ctx) for a in args], n)
    if head == "re.comp":
        if len(args) != 1:
            raise ParseError("re.comp expects one regex", *n.pos)
        return RComp(_regex(args[0], ctx))
    if head == "re.*":
        if len(args) != 1:
            raise ParseError("re.* expects one regex", *n.pos)
        return RStar(_regex(args[0], ctx))
    raise UnsupportedConstructError(f"unsupported regex operator {head!r}",
                                    *n.pos)


def _fold(ctor, parts: List[RE], n: _Node) -> RE:
    if not parts:
        raise ParseError("operator expects at least one regex", *n.pos)
    return fold_balanced(ctor, parts)


def _arith(n: _Node, ctx: _Ctx) -> ArithExpr:
    if n.tok is not None:
        t = n.tok
        if t.kind == "int":
            return AInt(int(t.text))
        if t.kind == "symbol":
            if ctx.sort_of(t.text) != "int":
                raise UnknownIdentifierError(
                    f"{t.text!r} is not a declared integer variable", *n.pos)
            return AVar(t.text)
        raise ParseError("expected an integer term", *n.pos)
    head = _head(n)
    args = n.items[1:]
    if head == "str.len":
        if len(args) != 1 or args[0].tok is None \
                or ctx.sort_of(args[0].tok.text) != "str":
            raise UnsupportedConstructError(
                "str.len applies to a declared string variable", *n.pos)
        return ALen(args[0].tok.text)
    if head == "+":
        if not args:
            raise ParseError("+ expects at least one argument", *n.pos)
        return fold_balanced(AAdd, [_arith(a, ctx) for a in args])
    if head == "-":
        if len(args) == 1:
            return ANeg(_arith(args[0], ctx))
        if len(args) == 2:
            return AAdd(_arith(args[0], ctx), ANeg(_arith(args[1], ctx)))
        raise ParseError("- expects one or two arguments", *n.pos)
    if head == "*":
        if len(args) != 2:
            raise ParseError("* expects two arguments", *n.pos)
        a, b = _arith(args[0], ctx), _arith(args[1], ctx)
        if isinstance(a, AInt):
            return AScale(a.value, b)
        if isinstance(b, AInt):
            return AScale(b.value, a)
        raise UnsupportedConstructError(
            "multiplication needs a constant factor", *n.pos)
    if head == "mod":
        if len(args) != 2:
            raise ParseError("mod expects two arguments", *n.pos)
        return AMod(_arith(args[0], ctx), _divisor(args[1], ctx))
    if head in ("max", "min"):
        if len(args) != 2:
            raise ParseError(f"{head} expects two arguments", *n.pos)
        ctor = AMax if head == "max" else AMin
        return ctor(_arith(args[0], ctx), _arith(args[1], ctx))
    raise UnsupportedConstructError(f"unsupported integer operator {head!r}",
                                    *n.pos)


def _divisor(n: _Node, ctx: _Ctx) -> AInt:
    """A mod divisor: a variable-free term with a positive value, kept as
    that value, the only divisor form the arithmetic backend accepts."""
    d = _arith(n, ctx)
    if collect_vars(d, set()) or arith_len_vars(d):
        raise UnsupportedConstructError("mod divisor must be a constant",
                                        *n.pos)
    value = eval_arith(d, {})
    if value <= 0:
        raise ParseError(f"mod divisor must be positive, got {value}", *n.pos)
    return AInt(value)


# ---------------------------------------------------------------------------
# Negation expansion (only arithmetic atoms may sit under a not)
# ---------------------------------------------------------------------------

def _expand_negations(f: Formula) -> Formula:
    if isinstance(f, FNot):
        a = f.inner.atom
        if a.kind == "le":
            return FAtom(atom_le(AAdd(a.rhs, AInt(1)), a.lhs))
        return FOr((FAtom(atom_le(AAdd(a.lhs, AInt(1)), a.rhs)),
                    FAtom(atom_le(AAdd(a.rhs, AInt(1)), a.lhs))))
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
