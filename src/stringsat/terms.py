"""Core term language: string terms, regexes, length arithmetic, and the
normalized four-part formula the solver works on.

All types here are immutable values; they can be shared freely across
threads and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union


# ---------------------------------------------------------------------------
# String-term atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CChar:
    """A constant character drawn from the problem alphabet."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"not a single character: {self.char!r}")


@dataclass(frozen=True)
class SVar:
    """A bare string variable."""

    name: str


@dataclass(frozen=True)
class SPred:
    """A string variable paired with the integer variable naming its length.

    These are generated internally while solving; user input never
    contains them.
    """

    var: str
    length: str


Atom = Union[CChar, SVar, SPred]

# A term is a flattened, associativity-normalized sequence of atoms.
# The empty tuple is the empty word.
Term = tuple


def word(chars: str) -> Term:
    """Build the constant term for a literal word."""
    return tuple(CChar(c) for c in chars)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


# ---------------------------------------------------------------------------
# Regular expressions (no string variables can occur inside them)
# ---------------------------------------------------------------------------

class RE:
    """Base class for regex nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class REmpty(RE):
    pass


@dataclass(frozen=True)
class REps(RE):
    pass


@dataclass(frozen=True)
class RLit(RE):
    char: str


@dataclass(frozen=True)
class RWord(RE):
    chars: str


@dataclass(frozen=True)
class RCat(RE):
    left: RE
    right: RE


@dataclass(frozen=True)
class RUnion(RE):
    left: RE
    right: RE


@dataclass(frozen=True)
class RInter(RE):
    left: RE
    right: RE


@dataclass(frozen=True)
class RComp(RE):
    inner: RE


@dataclass(frozen=True)
class RStar(RE):
    inner: RE


def regex_chars(r: RE) -> frozenset:
    """All characters literally occurring in a regex."""
    if isinstance(r, RLit):
        return frozenset(r.char)
    if isinstance(r, RWord):
        return frozenset(r.chars)
    if isinstance(r, (RCat, RUnion, RInter)):
        return regex_chars(r.left) | regex_chars(r.right)
    if isinstance(r, (RComp, RStar)):
        return regex_chars(r.inner)
    return frozenset()


# ---------------------------------------------------------------------------
# Length arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AInt:
    value: int


@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class ALen:
    """Length of a string variable; eliminated during normalization."""

    var: str


@dataclass(frozen=True)
class AScale:
    factor: int
    inner: "ArithExpr"


@dataclass(frozen=True)
class ANeg:
    inner: "ArithExpr"


@dataclass(frozen=True)
class AAdd:
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class AMod:
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class AMax:
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class AMin:
    left: "ArithExpr"
    right: "ArithExpr"


ArithExpr = Union[AInt, AVar, ALen, AScale, ANeg, AAdd, AMod, AMax, AMin]


@dataclass(frozen=True)
class ArithAtom:
    """kind is 'eq' for lhs = rhs or 'le' for lhs <= rhs."""

    kind: str
    lhs: ArithExpr
    rhs: ArithExpr

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "le"):
            raise ValueError(f"bad atom kind: {self.kind}")


def a_sub(a: ArithExpr, b: ArithExpr) -> ArithExpr:
    return AAdd(a, ANeg(b))


def atom_eq(a: ArithExpr, b: ArithExpr) -> ArithAtom:
    return ArithAtom("eq", a, b)


def atom_le(a: ArithExpr, b: ArithExpr) -> ArithAtom:
    return ArithAtom("le", a, b)


def atom_lt(a: ArithExpr, b: ArithExpr) -> ArithAtom:
    # strict inequality over integers: a < b encoded as a + 1 <= b
    return ArithAtom("le", AAdd(a, AInt(1)), b)


def collect_vars(e: ArithExpr, out: set) -> set:
    """Add the names of the integer variables in e to out; returns out."""
    if isinstance(e, AVar):
        out.add(e.name)
    elif isinstance(e, (AScale, ANeg)):
        collect_vars(e.inner, out)
    elif isinstance(e, (AAdd, AMod, AMax, AMin)):
        collect_vars(e.left, out)
        collect_vars(e.right, out)
    return out


def vars_of_atoms(atoms: Iterable[ArithAtom]) -> set:
    out: set = set()
    for a in atoms:
        collect_vars(a.lhs, out)
        collect_vars(a.rhs, out)
    return out


def arith_len_vars(e: ArithExpr) -> frozenset:
    if isinstance(e, ALen):
        return frozenset((e.var,))
    if isinstance(e, (AInt, AVar)):
        return frozenset()
    if isinstance(e, (AScale, ANeg)):
        return arith_len_vars(e.inner)
    return arith_len_vars(e.left) | arith_len_vars(e.right)


def subst_len(e: ArithExpr, mapping: dict) -> ArithExpr:
    """Replace ALen(s) nodes by AVar(mapping[s])."""
    if isinstance(e, ALen):
        return AVar(mapping[e.var])
    if isinstance(e, (AInt, AVar)):
        return e
    if isinstance(e, AScale):
        return AScale(e.factor, subst_len(e.inner, mapping))
    if isinstance(e, ANeg):
        return ANeg(subst_len(e.inner, mapping))
    ctor = type(e)
    return ctor(subst_len(e.left, mapping), subst_len(e.right, mapping))


def rename_arith_vars(e: ArithExpr, mapping: dict) -> ArithExpr:
    if isinstance(e, AVar):
        return AVar(mapping.get(e.name, e.name))
    if isinstance(e, (AInt, ALen)):
        return e
    if isinstance(e, AScale):
        return AScale(e.factor, rename_arith_vars(e.inner, mapping))
    if isinstance(e, ANeg):
        return ANeg(rename_arith_vars(e.inner, mapping))
    ctor = type(e)
    return ctor(rename_arith_vars(e.left, mapping),
                rename_arith_vars(e.right, mapping))


def rename_atom_vars(a: ArithAtom, mapping: dict) -> ArithAtom:
    return ArithAtom(a.kind, rename_arith_vars(a.lhs, mapping),
                     rename_arith_vars(a.rhs, mapping))


class NonConstantDivisorError(Exception):
    """Raised when a mod divisor is not a positive integer constant."""


def eval_arith(e: ArithExpr, env: dict) -> int:
    """Exact integer evaluation; env maps variable names to ints."""
    if isinstance(e, AInt):
        return e.value
    if isinstance(e, AVar):
        return env[e.name]
    if isinstance(e, ALen):
        raise ValueError("length expression not eliminated before evaluation")
    if isinstance(e, AScale):
        return e.factor * eval_arith(e.inner, env)
    if isinstance(e, ANeg):
        return -eval_arith(e.inner, env)
    if isinstance(e, AAdd):
        return eval_arith(e.left, env) + eval_arith(e.right, env)
    if isinstance(e, AMod):
        d = eval_arith(e.right, env)
        if d <= 0:
            raise NonConstantDivisorError(f"mod divisor must be positive, got {d}")
        return eval_arith(e.left, env) % d
    if isinstance(e, AMax):
        return max(eval_arith(e.left, env), eval_arith(e.right, env))
    if isinstance(e, AMin):
        return min(eval_arith(e.left, env), eval_arith(e.right, env))
    raise TypeError(f"not an arithmetic expression: {e!r}")


def eval_atom(a: ArithAtom, env: dict) -> bool:
    l, r = eval_arith(a.lhs, env), eval_arith(a.rhs, env)
    return l == r if a.kind == "eq" else l <= r


# ---------------------------------------------------------------------------
# Subterm constraints (bookkeeping equalities used for model construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsBind:
    """var = empty word."""

    var: str


@dataclass(frozen=True)
class CharPrefix:
    """var = char . tail"""

    var: str
    char: str
    tail: str


@dataclass(frozen=True)
class Split:
    """var = prefix . suffix"""

    var: str
    prefix: str
    suffix: str


@dataclass(frozen=True)
class Alias:
    """var = other"""

    var: str
    other: str


Subterm = Union[EpsBind, CharPrefix, Split, Alias]


def subterm_defined(c: Subterm) -> str:
    return c.var


def rename_subterm(c: Subterm, mapping: dict) -> Subterm:
    g = lambda v: mapping.get(v, v)
    if isinstance(c, EpsBind):
        return EpsBind(g(c.var))
    if isinstance(c, CharPrefix):
        return CharPrefix(g(c.var), c.char, g(c.tail))
    if isinstance(c, Split):
        return Split(g(c.var), g(c.prefix), g(c.suffix))
    return Alias(g(c.var), g(c.other))


# ---------------------------------------------------------------------------
# Memberships and the normalized formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Membership:
    var: str
    regex: RE


@dataclass(frozen=True)
class NormalizedFormula:
    """The four-part conjunction: equations, memberships, arithmetic, and
    subterm constraints, plus the variable-to-length-variable pairing of
    the live string predicates.

    The problem alphabet rides along because regex complement is only
    meaningful relative to a fixed alphabet."""

    equations: tuple = ()
    memberships: tuple = ()
    arith: tuple = ()
    subterms: tuple = ()
    lengths: tuple = ()  # pairs (string var, its length variable)
    alphabet: tuple = ()

    def length_map(self) -> dict:
        return dict(self.lengths)

    def with_(self, **kw) -> "NormalizedFormula":
        base = dict(
            equations=self.equations, memberships=self.memberships,
            arith=self.arith, subterms=self.subterms, lengths=self.lengths,
            alphabet=self.alphabet,
        )
        base.update(kw)
        return NormalizedFormula(**base)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def equation_size(eq: Equation) -> int:
    """Atom count of both sides together; the empty word contributes 0."""
    return len(eq.lhs) + len(eq.rhs)


def atom_length(a: Atom) -> ArithExpr:
    if isinstance(a, CChar):
        return AInt(1)
    if isinstance(a, SVar):
        return ALen(a.name)
    return AVar(a.length)


def length_expr(term: Term) -> ArithExpr:
    """Structural length of a term: its character count plus the length
    of each variable occurrence, AInt(0) for the empty word.  The sum is
    balanced, so a side with n variable occurrences nests O(log n) deep
    and the recursive walks over arithmetic stay shallow."""
    parts: List[ArithExpr] = [atom_length(a) for a in term
                              if not isinstance(a, CChar)]
    parts.insert(0, AInt(len(term) - len(parts)))
    while len(parts) > 1:
        paired = [AAdd(parts[i], parts[i + 1])
                  for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


def term_subst(term: Term, pattern: Atom, replacement: Term) -> Term:
    out: list = []
    for a in term:
        if a == pattern:
            out.extend(replacement)
        else:
            out.append(a)
    return tuple(out)


def term_string_vars(term: Term) -> frozenset:
    out = set()
    for a in term:
        if isinstance(a, SVar):
            out.add(a.name)
        elif isinstance(a, SPred):
            out.add(a.var)
    return frozenset(out)


def equation_string_vars(eq: Equation) -> frozenset:
    return term_string_vars(eq.lhs) | term_string_vars(eq.rhs)


# ---------------------------------------------------------------------------
# Input-level formulas (what the parser produces, what the oracle evaluates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FEq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FIn:
    term: Term
    regex: RE


@dataclass(frozen=True)
class FAtom:
    atom: ArithAtom


@dataclass(frozen=True)
class FAnd:
    items: tuple


@dataclass(frozen=True)
class FOr:
    items: tuple


@dataclass(frozen=True)
class FNot:
    inner: "Formula"


Formula = Union[FEq, FIn, FAtom, FAnd, FOr, FNot]

TRUE = FAnd(())


def conj(items: Iterable) -> Formula:
    items = tuple(items)
    return items[0] if len(items) == 1 else FAnd(items)


def to_dnf(f: Formula) -> tuple:
    """Disjunctive normal form: a tuple of conjunctions (tuples of leaves).

    Leaves are FEq / FIn / FAtom / FNot(FAtom); negation over anything else
    is rejected upstream by the parser.
    """
    if isinstance(f, (FEq, FIn, FAtom, FNot)):
        return ((f,),)
    if isinstance(f, FOr):
        out: list = []
        for item in f.items:
            out.extend(to_dnf(item))
        return tuple(out)
    if isinstance(f, FAnd):
        disjuncts: tuple = ((),)
        for item in f.items:
            disjuncts = tuple(d + e for d in disjuncts for e in to_dnf(item))
        return disjuncts
    raise TypeError(f"not a formula: {f!r}")


def formula_string_vars(f: Formula) -> frozenset:
    if isinstance(f, FEq):
        return term_string_vars(f.lhs) | term_string_vars(f.rhs)
    if isinstance(f, FIn):
        return term_string_vars(f.term)
    if isinstance(f, FAtom):
        return frozenset()
    if isinstance(f, FNot):
        return formula_string_vars(f.inner)
    out = frozenset()
    for item in f.items:
        out |= formula_string_vars(item)
    return out


def formula_int_vars(f: Formula) -> frozenset:
    if isinstance(f, FAtom):
        return frozenset(vars_of_atoms((f.atom,)))
    if isinstance(f, FNot):
        return formula_int_vars(f.inner)
    if isinstance(f, (FAnd, FOr)):
        out = frozenset()
        for item in f.items:
            out |= formula_int_vars(item)
        return out
    return frozenset()


def formula_len_vars(f: Formula) -> frozenset:
    if isinstance(f, FAtom):
        return arith_len_vars(f.atom.lhs) | arith_len_vars(f.atom.rhs)
    if isinstance(f, FNot):
        return formula_len_vars(f.inner)
    if isinstance(f, (FAnd, FOr)):
        out = frozenset()
        for item in f.items:
            out |= formula_len_vars(item)
        return out
    return frozenset()


def formula_chars(f: Formula) -> frozenset:
    if isinstance(f, FEq):
        return frozenset(a.char for a in f.lhs + f.rhs if isinstance(a, CChar))
    if isinstance(f, FIn):
        own = frozenset(a.char for a in f.term if isinstance(a, CChar))
        return own | regex_chars(f.regex)
    if isinstance(f, FAtom):
        return frozenset()
    if isinstance(f, FNot):
        return formula_chars(f.inner)
    out = frozenset()
    for item in f.items:
        out |= formula_chars(item)
    return out


def normalized_to_formula(f: NormalizedFormula) -> Formula:
    """The normalized four-part conjunction as an input-level formula, for
    evaluation against a model.  Subterm constraints become word equations
    and each variable/length pairing becomes an explicit length atom."""
    items: list = []
    for eq in f.equations:
        items.append(FEq(eq.lhs, eq.rhs))
    for m in f.memberships:
        items.append(FIn((SVar(m.var),), m.regex))
    for a in f.arith:
        items.append(FAtom(a))
    for c in f.subterms:
        if isinstance(c, EpsBind):
            items.append(FEq((SVar(c.var),), ()))
        elif isinstance(c, CharPrefix):
            items.append(FEq((SVar(c.var),), (CChar(c.char), SVar(c.tail))))
        elif isinstance(c, Split):
            items.append(FEq((SVar(c.var),), (SVar(c.prefix), SVar(c.suffix))))
        else:
            items.append(FEq((SVar(c.var),), (SVar(c.other),)))
    for var, lenvar in f.lengths:
        items.append(FAtom(ArithAtom("eq", AVar(lenvar), ALen(var))))
    return FAnd(tuple(items))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A satisfying assignment: words for string variables, integers for
    arithmetic variables."""

    strings: tuple = ()
    ints: tuple = ()

    @staticmethod
    def make(strings: dict, ints: dict) -> "Model":
        return Model(tuple(sorted(strings.items())),
                     tuple(sorted(ints.items())))

    def string_map(self) -> dict:
        return dict(self.strings)

    def int_map(self) -> dict:
        return dict(self.ints)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def atom_str(a: Atom) -> str:
    if isinstance(a, CChar):
        return a.char
    if isinstance(a, SVar):
        return a.name
    return f"STR({a.var},{a.length})"


def term_str(t: Term) -> str:
    return "eps" if not t else ".".join(atom_str(a) for a in t)


def equation_str(eq: Equation) -> str:
    return f"{term_str(eq.lhs)} = {term_str(eq.rhs)}"


def regex_str(r: RE) -> str:
    if isinstance(r, REmpty):
        return "{}"
    if isinstance(r, REps):
        return "eps"
    if isinstance(r, RLit):
        return r.char
    if isinstance(r, RWord):
        return f'"{r.chars}"'
    if isinstance(r, RCat):
        return f"({regex_str(r.left)}{regex_str(r.right)})"
    if isinstance(r, RUnion):
        return f"({regex_str(r.left)}|{regex_str(r.right)})"
    if isinstance(r, RInter):
        return f"({regex_str(r.left)}&{regex_str(r.right)})"
    if isinstance(r, RComp):
        return f"~({regex_str(r.inner)})"
    return f"({regex_str(r.inner)})*"


def arith_str(e: ArithExpr) -> str:
    if isinstance(e, AInt):
        return str(e.value)
    if isinstance(e, AVar):
        return e.name
    if isinstance(e, ALen):
        return f"|{e.var}|"
    if isinstance(e, AScale):
        return f"{e.factor}*{arith_str(e.inner)}"
    if isinstance(e, ANeg):
        return f"-{arith_str(e.inner)}"
    if isinstance(e, AAdd):
        return f"({arith_str(e.left)}+{arith_str(e.right)})"
    if isinstance(e, AMod):
        return f"({arith_str(e.left)}%{arith_str(e.right)})"
    if isinstance(e, AMax):
        return f"max({arith_str(e.left)},{arith_str(e.right)})"
    return f"min({arith_str(e.left)},{arith_str(e.right)})"


def atom_repr(a: ArithAtom) -> str:
    op = "=" if a.kind == "eq" else "<="
    return f"{arith_str(a.lhs)} {op} {arith_str(a.rhs)}"


def subterm_str(c: Subterm) -> str:
    if isinstance(c, EpsBind):
        return f"{c.var} = eps"
    if isinstance(c, CharPrefix):
        return f"{c.var} = {c.char}.{c.tail}"
    if isinstance(c, Split):
        return f"{c.var} = {c.prefix}.{c.suffix}"
    return f"{c.var} = {c.other}"


def formula_summary(f: NormalizedFormula) -> str:
    parts = [equation_str(e) for e in f.equations]
    parts += [f"{m.var} in {regex_str(m.regex)}" for m in f.memberships]
    parts += [atom_repr(a) for a in f.arith]
    parts += [subterm_str(c) for c in f.subterms]
    return " /\\ ".join(parts) if parts else "true"
