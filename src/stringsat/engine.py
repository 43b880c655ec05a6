"""The unfolding-tree solver.

One solve call owns one tree.  Each iteration decides base leaves exactly
(under-approximation), prunes leaves whose length abstraction is already
unsatisfiable (over-approximation), tries to close the remaining open
leaves against an ancestor up the same path (cyclic back-link), and
otherwise expands the deepest open leaf with the head-directed unfolding
rules.  SAT answers carry a model; UNSAT answers carry the closed tree.
"""

from __future__ import annotations

import itertools
import re as _rx
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from . import arith as _arith
from . import oracle as _oracle
from . import regexes as _regexes
from .classify import Fragment, FragmentTag, classify_fragment
from .terms import (AAdd, AInt, AScale, AVar, Alias, ArithAtom, ArithExpr,
                    Atom, CChar, CharPrefix, EpsBind, Equation, FAtom, FEq,
                    FIn, FNot, Formula, Membership, Model, NormalizedFormula,
                    SPred, SVar, Split, Subterm, arith_len_vars, atom_eq,
                    atom_le, atom_lt, equation_size, formula_summary,
                    length_expr, normalized_to_formula, rename_atom_vars,
                    rename_subterm, subst_len, subterm_defined, term_subst,
                    vars_of_atoms)

DEFAULT_BUDGET = 10000

OA_FULL = "full"
OA_LENGTHS_ONLY = "lengths-only"


class EngineInternalError(Exception):
    """Invariant violation inside the solver; never a verdict."""


# ---------------------------------------------------------------------------
# Fresh names.  Engine-generated variables carry a "$" prefix the parser
# never accepts, so they cannot collide with user identifiers.
# ---------------------------------------------------------------------------

_IDX_RX = _rx.compile(r"^\$[a-z]+(\d+)$")


def _formula_var_names(f: NormalizedFormula) -> set:
    names: set = set()
    for eq in f.equations:
        for a in eq.lhs + eq.rhs:
            if isinstance(a, SVar):
                names.add(a.name)
            elif isinstance(a, SPred):
                names.add(a.var)
                names.add(a.length)
    for m in f.memberships:
        names.add(m.var)
    names |= vars_of_atoms(f.arith)
    for c in f.subterms:
        names.add(subterm_defined(c))
        if isinstance(c, CharPrefix):
            names.add(c.tail)
        elif isinstance(c, Split):
            names.update((c.prefix, c.suffix))
        elif isinstance(c, Alias):
            names.add(c.other)
    for v, n in f.lengths:
        names.update((v, n))
    return names


def _next_index(f: NormalizedFormula) -> int:
    best = -1
    for name in _formula_var_names(f):
        m = _IDX_RX.match(name)
        if m:
            best = max(best, int(m.group(1)))
    return best + 1


# ---------------------------------------------------------------------------
# Initialization: pair every string variable with a predicate instance
# ---------------------------------------------------------------------------

def init_normalize(conjuncts: Iterable[Formula],
                   alphabet: Iterable[str]) -> NormalizedFormula:
    """Build the normalized formula for a conjunction of parsed leaves.

    Every string variable is replaced inside the equations by a fresh
    predicate instance naming its length; the old name survives as an
    alias in the subterm part and in memberships.  Length expressions in
    the arithmetic are reduced to the fresh length variables.
    """
    sigma = tuple(sorted(set(alphabet)))
    raw_eqs: List[Equation] = []
    memberships: List[Membership] = []
    atoms: List[ArithAtom] = []
    aux = 0
    for leaf in conjuncts:
        if isinstance(leaf, FEq):
            raw_eqs.append(Equation(leaf.lhs, leaf.rhs))
        elif isinstance(leaf, FIn):
            t = leaf.term
            if len(t) == 1 and isinstance(t[0], SVar):
                memberships.append(Membership(t[0].name, leaf.regex))
            else:
                # name the term so the membership sits on a variable
                name = f"$m{aux}"
                aux += 1
                raw_eqs.append(Equation((SVar(name),), t))
                memberships.append(Membership(name, leaf.regex))
        elif isinstance(leaf, FAtom):
            atoms.append(leaf.atom)
        elif isinstance(leaf, FNot):
            raise EngineInternalError("negations must be expanded upstream")
        else:
            raise EngineInternalError(f"not a conjunct: {leaf!r}")

    # variables in first-occurrence order: equations, memberships, arithmetic
    ordered: List[str] = []

    def note(v: str) -> None:
        if v not in ordered:
            ordered.append(v)

    for eq in raw_eqs:
        for a in eq.lhs + eq.rhs:
            if isinstance(a, SVar):
                note(a.name)
    for m in memberships:
        note(m.var)
    for a in atoms:
        for v in sorted(arith_len_vars(a.lhs) | arith_len_vars(a.rhs)):
            note(v)

    pred_of: Dict[str, SPred] = {}
    subterms: List[Subterm] = []
    lengths: List[Tuple[str, str]] = []
    for i, v in enumerate(ordered):
        u, n = f"$u{i}", f"$n{i}"
        pred_of[v] = SPred(u, n)
        subterms.append(Alias(v, u))
        lengths.append((u, n))
        atoms.append(atom_le(AInt(0), AVar(n)))

    eqs = []
    for eq in raw_eqs:
        lhs = tuple(pred_of[a.name] if isinstance(a, SVar) else a
                    for a in eq.lhs)
        rhs = tuple(pred_of[a.name] if isinstance(a, SVar) else a
                    for a in eq.rhs)
        eqs.append(Equation(lhs, rhs))

    len_map = {v: p.length for v, p in pred_of.items()}
    fixed_atoms = []
    for a in atoms:
        lv = arith_len_vars(a.lhs) | arith_len_vars(a.rhs)
        if lv:
            a = ArithAtom(a.kind, subst_len(a.lhs, len_map),
                          subst_len(a.rhs, len_map))
        fixed_atoms.append(a)

    return NormalizedFormula(
        equations=tuple(eqs), memberships=tuple(memberships),
        arith=tuple(fixed_atoms), subterms=tuple(subterms),
        lengths=tuple(lengths), alphabet=sigma)


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnfoldChild:
    rule: str
    formula: NormalizedFormula


def _subst_all(eqs: tuple, pattern: Atom, replacement: tuple) -> tuple:
    return tuple(Equation(term_subst(e.lhs, pattern, replacement),
                          term_subst(e.rhs, pattern, replacement))
                 for e in eqs)


def _drop_heads(eqs: tuple) -> tuple:
    head = eqs[0]
    if not head.lhs or not head.rhs or head.lhs[0] != head.rhs[0]:
        raise EngineInternalError("head consumption on mismatched heads")
    return (Equation(head.lhs[1:], head.rhs[1:]),) + eqs[1:]


def _without_length(lengths: tuple, var: str) -> tuple:
    return tuple(p for p in lengths if p[0] != var)


def _with_length(lengths: tuple, var: str, lenvar: str) -> tuple:
    return _without_length(lengths, var) + ((var, lenvar),)


def _eps_child(f: NormalizedFormula, preds: List[SPred]) -> NormalizedFormula:
    eqs, ar, subs, lens = f.equations, f.arith, f.subterms, f.lengths
    for p in preds:
        eqs = _subst_all(eqs, p, ())
        ar = ar + (atom_eq(AVar(p.length), AInt(0)),)
        subs = subs + (EpsBind(p.var),)
        lens = _without_length(lens, p.var)
    return f.with_(equations=eqs, arith=ar, subterms=subs, lengths=lens)


def unfold(f: NormalizedFormula) -> List[UnfoldChild]:
    """Expand the first equation by its two leading atoms.

    Children are returned in rule order; an empty list means the node is
    unsatisfiable on the spot (mismatched constant heads or a constant
    remainder against the empty word).
    """
    if not f.equations:
        raise EngineInternalError("unfold on a formula without equations")
    eq = f.equations[0]
    lhs, rhs = eq.lhs, eq.rhs

    if not lhs and not rhs:
        return [UnfoldChild("drop", f.with_(equations=f.equations[1:]))]

    if not lhs or not rhs:
        other = rhs if not lhs else lhs
        preds = [a for a in other if isinstance(a, SPred)]
        if not preds:
            return []  # the empty word cannot equal a non-empty constant
        seen: List[SPred] = []
        for p in preds:
            if p not in seen:
                seen.append(p)
        return [UnfoldChild("eps-force", _eps_child(f, seen))]

    hl, hr = lhs[0], rhs[0]
    if isinstance(hl, SVar) or isinstance(hr, SVar):
        raise EngineInternalError("bare variable heads an equation")

    if isinstance(hl, CChar) and isinstance(hr, CChar):
        if hl.char != hr.char:
            return []
        return [UnfoldChild("const-succ",
                            f.with_(equations=_drop_heads(f.equations)))]

    if isinstance(hl, SPred) and isinstance(hr, SPred):
        if hl.var == hr.var:
            if hl.length != hr.length:
                raise EngineInternalError(
                    "one variable with two length names")
            return [UnfoldChild("match-var",
                                f.with_(equations=_drop_heads(f.equations)))]
        return _big(f, hl, hr)

    # one constant head, one predicate head
    c, p = (hl, hr) if isinstance(hl, CChar) else (hr, hl)
    return _small(f, c, p)


def _small(f: NormalizedFormula, c: CChar, p: SPred) -> List[UnfoldChild]:
    base = UnfoldChild("small-base", _eps_child(f, [p]))

    k = _next_index(f)
    renamed, new_len = f"$u{k}", f"$n{k}"
    eqs = _subst_all(f.equations, p, (c, SPred(p.var, new_len)))
    eqs = _drop_heads(eqs)
    subs = tuple(rename_subterm(s, {p.var: renamed}) for s in f.subterms)
    subs = subs + (CharPrefix(renamed, c.char, p.var),)
    ar = f.arith + (atom_eq(AVar(new_len), AAdd(AVar(p.length), AInt(-1))),
                    atom_lt(AInt(0), AVar(p.length)),
                    atom_le(AInt(0), AVar(new_len)))
    ind = UnfoldChild("small-ind", f.with_(
        equations=eqs, arith=ar, subterms=subs,
        lengths=_with_length(f.lengths, p.var, new_len)))
    return [base, ind]


def _big(f: NormalizedFormula, p1: SPred, p2: SPred) -> List[UnfoldChild]:
    """Distinct predicate heads: five exhaustive cases.

    Either side may be empty, the words may coincide, or one is a strictly
    longer extension of a non-empty other.  The strictness (prefix and
    tail both at least one character) is what lets a back-link later prove
    a genuine decrease; with lax splits the empty-prefix case loops
    forever on equations shaped like x.w = w and a cyclic proof over them
    would be unsound.
    """
    eps_l = UnfoldChild("big-eps-l", _eps_child(f, [p1]))
    eps_r = UnfoldChild("big-eps-r", _eps_child(f, [p2]))

    eqs = _subst_all(f.equations, p2, (p1,))
    eqs = _drop_heads(eqs)
    ident = UnfoldChild("big-identify", f.with_(
        equations=eqs,
        arith=f.arith + (atom_eq(AVar(p1.length), AVar(p2.length)),),
        subterms=f.subterms + (Alias(p2.var, p1.var),),
        lengths=_without_length(f.lengths, p2.var)))

    def split(longer: SPred, shorter: SPred) -> NormalizedFormula:
        k = _next_index(f)
        renamed, new_len = f"$u{k}", f"$n{k}"
        tail = SPred(longer.var, new_len)
        eqs = _subst_all(f.equations, longer, (shorter, tail))
        eqs = _drop_heads(eqs)
        subs = tuple(rename_subterm(s, {longer.var: renamed})
                     for s in f.subterms)
        subs = subs + (Split(renamed, shorter.var, longer.var),)
        ar = f.arith + (
            atom_eq(AVar(new_len),
                    AAdd(AVar(longer.length),
                         AScale(-1, AVar(shorter.length)))),
            atom_le(AInt(1), AVar(new_len)),
            atom_le(AInt(1), AVar(shorter.length)))
        return f.with_(equations=eqs, arith=ar, subterms=subs,
                       lengths=_with_length(f.lengths, longer.var, new_len))

    left = UnfoldChild("big-left", split(p1, p2))    # p2 a proper prefix of p1
    right = UnfoldChild("big-right", split(p2, p1))  # p1 a proper prefix of p2
    return [eps_l, eps_r, ident, left, right]


# ---------------------------------------------------------------------------
# The subterm walker: every word the unfolding recorded, flattened
# ---------------------------------------------------------------------------

def _definitions(f: NormalizedFormula) -> Dict[str, Subterm]:
    defs: Dict[str, Subterm] = {}
    for c in f.subterms:
        v = subterm_defined(c)
        if v in defs:
            raise EngineInternalError(f"variable defined twice: {v}")
        defs[v] = c
    return defs


def _walker(f: NormalizedFormula) -> Callable[[str], tuple]:
    """Flatten variables through the subterm constraints.

    The returned function maps a variable to its pieces: literal strings
    (adjacent ones merged) and ("var", v) for each variable with no
    definition.  Results are memoized for the lifetime of the walker."""
    defs = _definitions(f)
    memo: Dict[str, Optional[tuple]] = {}

    def pieces(v: str) -> tuple:
        if v in memo:
            got = memo[v]
            if got is None:
                raise EngineInternalError("cyclic subterm constraints")
            return got
        memo[v] = None  # on the current path
        d = defs.get(v)
        if d is None:
            out: tuple = (("var", v),)
        elif isinstance(d, EpsBind):
            out = ()
        elif isinstance(d, CharPrefix):
            out = _concat((d.char,), pieces(d.tail))
        elif isinstance(d, Split):
            out = _concat(pieces(d.prefix), pieces(d.suffix))
        else:
            out = pieces(d.other)
        memo[v] = out
        return out

    return pieces


def _concat(left: tuple, right: tuple) -> tuple:
    if left and right and isinstance(left[-1], str) \
            and isinstance(right[0], str):
        return left[:-1] + (left[-1] + right[0],) + right[1:]
    return left + right


def _length_of(segs: tuple, lens: Dict[str, str],
               fresh: Iterator[int]) -> ArithExpr:
    """|segs| over the length variables: the count of its literal
    characters plus the length variable of each open piece.  An open
    variable without one gets a fresh $L variable numbered from fresh."""
    expr = AInt(sum(len(s) for s in segs if isinstance(s, str)))
    for s in segs:
        if not isinstance(s, str):
            name = lens[s[1]] if s[1] in lens else f"$L{next(fresh)}_{s[1]}"
            expr = AAdd(expr, AVar(name))
    return expr


# ---------------------------------------------------------------------------
# Over-approximation
# ---------------------------------------------------------------------------

def _set_component_atoms(expr, comp, fresh: str) -> tuple:
    if isinstance(comp, int):
        return (atom_eq(expr, AInt(comp)),)
    off, period = comp
    return (atom_eq(expr, AAdd(AInt(off), AScale(period, AVar(fresh)))),
            atom_le(AInt(0), AVar(fresh)))


_FALSE_ATOM = atom_eq(AInt(0), AInt(1))
_OA_DISJUNCT_CAP = 256


def over_approx(f: NormalizedFormula,
                mode: str = OA_FULL) -> List[Tuple[ArithAtom, ...]]:
    """Length abstraction of the formula as a disjunction of atom lists.

    Every word equation becomes an equality of lengths.  In full mode each
    membership additionally pins the member's length inside the semilinear
    length set of its regex; that strengthening stays sound because any
    string model's lengths satisfy it.

    Every disjunct has the same layout: one length equality per equation,
    in order, then ``f.arith`` as it is, then the disjunct's own
    membership atoms.  Only the last part differs between disjuncts.
    """
    base = tuple(atom_eq(length_expr(eq.lhs), length_expr(eq.rhs))
                 for eq in f.equations) + f.arith
    if mode == OA_LENGTHS_ONLY or not f.memberships:
        return [base]
    disjuncts: List[tuple] = [base]
    pieces = _walker(f)
    lens = f.length_map()
    fresh = itertools.count(1)
    for i, m in enumerate(f.memberships):
        dfa = _regexes.compiled(m.regex, f.alphabet)
        lset = _regexes.length_set(dfa)
        expr = _length_of(pieces(m.var), lens, fresh)
        comps: List[tuple] = []
        if lset.is_empty():
            comps = [(_FALSE_ATOM,)]
        else:
            for n in sorted(lset.finite):
                comps.append(_set_component_atoms(expr, n, ""))
            for j, prog in enumerate(lset.progressions):
                comps.append(_set_component_atoms(expr, prog, f"$k{i}_{j}"))
        if len(disjuncts) * len(comps) > _OA_DISJUNCT_CAP:
            break  # weaken: remaining memberships contribute nothing
        disjuncts = [d + c for d in disjuncts for c in comps]
    return disjuncts


# formulas beyond this many abstraction atoms (deep trees outside the
# decidable fragments) get the cheap refutation only; failing to close a
# node is always sound
_EXACT_ATOM_CAP = 80


def oa_unsat(f: NormalizedFormula, mode: str = OA_FULL,
             hyp: Optional[_arith.Hypothesis] = None) -> bool:
    """Whether every disjunct of the length abstraction is unsatisfiable.

    ``hyp`` is the prepared arithmetic of ``f`` (``f.arith``), as the
    search keeps it per tree node.  The equation-length atoms are
    conjoined to it once; each disjunct then solves only its membership
    atoms on top."""
    disjuncts = over_approx(f, mode)
    n_eqs, n_shared = len(f.equations), len(f.equations) + len(f.arith)
    if hyp is None:
        hyp = _arith.Hypothesis(f.arith)
    lengths = hyp.extend(disjuncts[0][:n_eqs])
    for d in disjuncts:
        if len(d) > _EXACT_ATOM_CAP:
            if not _arith.quick_unsat(list(d)):
                return False
        elif lengths.consistent_with(d[n_shared:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Under-approximation: exact decision of base leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UAResult:
    status: str  # "sat" | "unsat" | "notbase"
    model: Optional[Model] = None
    reason: str = ""


def is_base(f: NormalizedFormula) -> bool:
    """Every equation is ground.  With no string variables in them there
    is no dependency graph and no repeated variable, so such a leaf is
    always in the acyclic fragment."""
    return all(isinstance(a, CChar) for eq in f.equations
               for a in eq.lhs + eq.rhs)


_UA_COMBO_CAP = 50000


def under_approx_check(f: NormalizedFormula) -> UAResult:
    """Decide a base leaf exactly.

    Ground equations are compared character-wise.  Memberships are turned
    into boundary-state choices over their DFAs; each choice constrains
    every open variable's length to the semilinear length set of the joint
    run of all its occurrences, and the arithmetic backend decides the
    rest.  A SAT verdict always carries a checked model.
    """
    if not is_base(f):
        return UAResult("notbase")
    for eq in f.equations:
        lw = "".join(a.char for a in eq.lhs)
        rw = "".join(a.char for a in eq.rhs)
        if lw != rw:
            return UAResult("unsat", reason=f"ground mismatch: {lw!r} != {rw!r}")

    sigma = f.alphabet
    lens = f.length_map()
    open_vars: List[str] = sorted(
        {v for v, _ in f.lengths}
        - {subterm_defined(c) for c in f.subterms})
    base_atoms = list(f.arith)
    if not sigma:
        # no characters exist, so every open variable is the empty word
        base_atoms += [atom_eq(AVar(lens[v]), AInt(0)) for v in open_vars]

    # memberships: fully determined members are checked outright; the rest
    # produce (dfa, pieces) obligations
    pieces = _walker(f)
    obligations: List[Tuple[_regexes.Dfa, tuple]] = []
    for m in f.memberships:
        segs = pieces(m.var)
        dfa = _regexes.compiled(m.regex, sigma)
        if all(isinstance(s, str) for s in segs):
            w = "".join(segs)
            if not _regexes.accepts(dfa, w):
                return UAResult(
                    "unsat", reason=f"membership fails on {m.var}={w!r}")
        else:
            obligations.append((dfa, segs))

    def choice_lists() -> Optional[List[List[List[Tuple]]]]:
        per_mem = []
        total = 1
        for dfa, segs in obligations:
            opens = [s for s in segs if not isinstance(s, str)]
            total *= max(dfa.n_states ** len(opens), 1)
            if total > _UA_COMBO_CAP:
                raise EngineInternalError("membership state space too large")
            choices = []
            for mids in itertools.product(range(dfa.n_states),
                                          repeat=len(opens)):
                state = dfa.start
                pairs = []
                it = iter(mids)
                ok = True
                for s in segs:
                    if isinstance(s, str):
                        for ch in s:
                            state = dfa.step(state, ch)
                    else:
                        nxt = next(it)
                        pairs.append((s[1], (dfa, state, nxt)))
                        state = nxt
                if state not in dfa.accepting:
                    ok = False
                if ok:
                    choices.append(pairs)
            if not choices:
                return None
            per_mem.append(choices)
        return per_mem

    per_mem = choice_lists()
    if per_mem is None:
        return UAResult("unsat", reason="membership admits no run")

    lset_cache: dict = {}
    combos = itertools.product(*per_mem) if per_mem else iter([()])
    for combo in combos:
        by_var: Dict[str, List] = {}
        for pairs in combo:
            for v, spec in pairs:
                by_var.setdefault(v, []).append(spec)
        joints: Dict[str, _regexes.Dfa] = {}
        atoms = list(base_atoms)
        dead = False
        for v, specs in sorted(by_var.items()):
            key = tuple((id(d), p, q) for d, p, q in specs)
            if key not in lset_cache:
                joint = _regexes.joint_product(specs)
                lset_cache[key] = (joint, _regexes.length_set(joint))
            joint, lset = lset_cache[key]
            joints[v] = joint
            if lset.is_empty():
                dead = True
                break
            comps: List[tuple] = []
            for n in sorted(lset.finite):
                comps.append((atom_eq(AVar(lens[v]), AInt(n)),))
            for j, (off, period) in enumerate(lset.progressions):
                kvar = f"$k_{v}_{j}"
                comps.append((atom_eq(AVar(lens[v]),
                                      AAdd(AInt(off),
                                           AScale(period, AVar(kvar)))),
                              atom_le(AInt(0), AVar(kvar))))
            atoms.append(("disj", v, comps))
        if dead:
            continue

        # expand the per-variable component disjunctions
        plain = [a for a in atoms if isinstance(a, ArithAtom)]
        disjs = [a for a in atoms if not isinstance(a, ArithAtom)]
        for chosen in itertools.product(*(c for _, _, c in disjs)) \
                if disjs else iter([()]):
            system = plain + [a for grp in chosen for a in grp]
            if _arith.quick_unsat(system):
                continue
            beta = _arith.arith_sat(system)
            if beta is None:
                continue
            model = _finish_model(f, pieces, beta, joints, open_vars)
            return UAResult("sat", model=model)
    return UAResult("unsat", reason="no base model")


def _finish_model(f: NormalizedFormula, pieces: Callable[[str], tuple],
                  beta: Dict[str, int], joints: Dict[str, _regexes.Dfa],
                  open_vars: List[str]) -> Model:
    """Words for every open variable at its length in beta (a witness of
    its joint membership automaton where it has one), then for every
    defined and every member variable by concatenating its pieces.  An
    undefined variable without a length variable is the empty word."""
    sigma = f.alphabet
    lens = f.length_map()
    values: Dict[str, str] = {}
    for v in open_vars:
        want = beta.get(lens[v], 0)
        if v in joints:
            w = _regexes.witness_with_length(joints[v], lambda n: n == want,
                                             want)
            if w is None:
                raise EngineInternalError("length-set witness missing")
        else:
            w = (sigma[0] * want) if sigma else ""
            if len(w) != want:
                raise EngineInternalError("unsatisfiable open length")
        values[v] = w

    for v in [subterm_defined(c) for c in f.subterms] + \
            [m.var for m in f.memberships]:
        values[v] = "".join(s if isinstance(s, str)
                            else values.setdefault(s[1], "")
                            for s in pieces(v))

    ints = dict(beta)
    for v, n in f.lengths:
        ints.setdefault(n, len(values.get(v, "")))
    model = Model.make(values, ints)
    if not _oracle.eval_formula(normalized_to_formula(f), model, sigma):
        raise EngineInternalError("constructed model fails the leaf formula")
    return model


# ---------------------------------------------------------------------------
# Cyclic back-links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theta:
    """Substitution making a leaf isomorphic to an ancestor: a string
    variable permutation, a character permutation, and an integer
    renaming."""

    svar_map: tuple
    char_map: tuple
    ivar_map: tuple

    def ints(self) -> dict:
        return dict(self.ivar_map)


def progress_steps(f: NormalizedFormula) -> int:
    return sum(1 for c in f.subterms if isinstance(c, (CharPrefix, Split)))


def _unify_equations(leaf_eqs: tuple, anc_eqs: tuple):
    if len(leaf_eqs) != len(anc_eqs):
        return None
    smap: Dict[str, str] = {}
    cmap: Dict[str, str] = {}
    imap: Dict[str, str] = {}

    def bind(m: dict, a: str, b: str) -> bool:
        if a in m:
            return m[a] == b
        m[a] = b
        return True

    for el, ea in zip(leaf_eqs, anc_eqs):
        for tl, ta in ((el.lhs, ea.lhs), (el.rhs, ea.rhs)):
            if len(tl) != len(ta):
                return None
            for al, aa in zip(tl, ta):
                if isinstance(al, CChar) and isinstance(aa, CChar):
                    if not bind(cmap, al.char, aa.char):
                        return None
                elif isinstance(al, SPred) and isinstance(aa, SPred):
                    if not bind(smap, al.var, aa.var):
                        return None
                    if not bind(imap, al.length, aa.length):
                        return None
                else:
                    return None
    for m in (smap, cmap, imap):
        if len(set(m.values())) != len(m):
            return None
    return smap, cmap, imap


def _rename_regex(r, cmap: dict):
    from .terms import RCat, RComp, RInter, RLit, RStar, RUnion, RWord
    if isinstance(r, RLit):
        return RLit(cmap.get(r.char, r.char))
    if isinstance(r, RWord):
        return RWord("".join(cmap.get(c, c) for c in r.chars))
    if isinstance(r, (RCat, RUnion, RInter)):
        return type(r)(_rename_regex(r.left, cmap), _rename_regex(r.right, cmap))
    if isinstance(r, (RComp, RStar)):
        return type(r)(_rename_regex(r.inner, cmap))
    return r


_FP_PERM_CAP = 10000


def _match_memberships(leaf: NormalizedFormula, anc: NormalizedFormula,
                       smap: dict, cmap: dict):
    """Extend the equation-derived maps over the membership lists; tries
    identity alignment first, then the (few) other bijections."""
    lm, am = list(leaf.memberships), list(anc.memberships)
    if len(lm) != len(am):
        return None
    if not lm:
        return smap
    perms = itertools.permutations(range(len(am)))
    tried = 0
    for perm in perms:
        tried += 1
        if tried > _FP_PERM_CAP:
            return None
        cand = dict(smap)
        ok = True
        for i, j in enumerate(perm):
            mv, av = lm[i].var, am[j].var
            if cand.get(mv, av) != av:
                ok = False
                break
            cand[mv] = av
            if _rename_regex(lm[i].regex, cmap) != am[j].regex:
                ok = False
                break
        if ok and len(set(cand.values())) == len(cand):
            return cand
    return None


def _measure(f: NormalizedFormula):
    """Total notational length of the equations as an arithmetic term."""
    total = AInt(0)
    for eq in f.equations:
        total = AAdd(total, AAdd(length_expr(eq.lhs), length_expr(eq.rhs)))
    return total


def link_back(leaf: NormalizedFormula, ancestors: List[NormalizedFormula],
              hyp: Optional[_arith.Hypothesis] = None):
    """First ancestor (nearest first) the leaf is isomorphic to, with the
    substitution.  Subterm constraints are discarded on both sides.

    Progress demands a structural unfolding step on the segment and, more
    importantly, that the leaf's own constraints imply the leaf equations
    are strictly shorter than the ancestor's (the ancestor's length
    variables survive in the leaf through the arithmetic chain, so both
    measures are expressible there).  Without the strict decrease the
    cyclic argument would admit loops that consume nothing.

    The leaf's constraints are prepared once (lowered, equalities
    eliminated; ``hyp`` is that preparation when the caller keeps one)
    and shared by the shrink check of every candidate; a
    candidate that passes it prepares its renamed constraints once for all
    of the ancestor's atoms.  Each entailment query then solves one small
    system per conclusion atom that the hypothesis does not state
    literally.
    """
    leaf_steps = progress_steps(leaf)
    if not leaf.equations or len(leaf.arith) > _EXACT_ATOM_CAP:
        return None
    leaf_measure = _measure(leaf)
    leaf_hyp = hyp if hyp is not None else _arith.Hypothesis(leaf.arith)
    for a_index, anc in enumerate(ancestors):
        if leaf_steps <= progress_steps(anc):
            continue
        got = _unify_equations(leaf.equations, anc.equations)
        if got is None:
            continue
        smap, cmap, imap = got
        smap2 = _match_memberships(leaf, anc, smap, cmap)
        if smap2 is None:
            continue
        shrink = atom_le(AAdd(leaf_measure, AInt(1)), _measure(anc))
        if not _arith.arith_implies(leaf_hyp, [shrink]):
            continue
        # extend the integer renaming: leaf variables that collide with a
        # target of the positional match must move out of the way
        targets = set(imap.values())
        leaf_ivars = sorted(vars_of_atoms(leaf.arith))
        full_imap = dict(imap)
        fresh_i = 0
        for v in leaf_ivars:
            if v in full_imap:
                continue
            if v in targets:
                full_imap[v] = f"$fp{fresh_i}"
                fresh_i += 1
            else:
                full_imap[v] = v
        renamed = [rename_atom_vars(a, full_imap) for a in leaf.arith]
        if _arith.arith_implies(renamed, list(anc.arith)):
            theta = Theta(tuple(sorted(smap2.items())),
                          tuple(sorted(cmap.items())),
                          tuple(sorted(full_imap.items())))
            return a_index, theta
    return None


# ---------------------------------------------------------------------------
# The unfolding tree and the main loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Open:
    pass


@dataclass(frozen=True)
class ClosedUnsat:
    reason: str


@dataclass(frozen=True)
class BackLinkedTo:
    target: int
    theta: Theta


@dataclass(frozen=True)
class SatLeaf:
    model: Model


@dataclass
class TreeNode:
    id: int
    formula: NormalizedFormula
    parent: Optional[int]
    depth: int
    rule: str
    children: List[int] = field(default_factory=list)
    status: object = Open()
    checked: bool = False  # UA/OA/back-link already attempted

    @property
    def progress(self) -> int:
        return progress_steps(self.formula)


class UnfoldingTree:
    def __init__(self, root: NormalizedFormula):
        self.nodes: List[TreeNode] = [TreeNode(0, root, None, 0, "init")]

    def add_child(self, parent: int, rule: str,
                  f: NormalizedFormula) -> TreeNode:
        node = TreeNode(len(self.nodes), f, parent,
                        self.nodes[parent].depth + 1, rule)
        self.nodes.append(node)
        self.nodes[parent].children.append(node.id)
        return node

    def ancestors(self, node_id: int) -> List[TreeNode]:
        out = []
        cur = self.nodes[node_id].parent
        while cur is not None:
            out.append(self.nodes[cur])
            cur = self.nodes[cur].parent
        return out

    def open_leaves(self) -> List[TreeNode]:
        return [n for n in self.nodes
                if not n.children and isinstance(n.status, Open)]

    def is_closed(self) -> bool:
        return not self.open_leaves()

    def max_path_length(self) -> int:
        return max((n.depth + 1 for n in self.nodes if not n.children),
                   default=1)


@dataclass(frozen=True)
class Answer:
    verdict: str  # "sat" | "unsat" | "unknown"
    model: Optional[Model] = None
    tree: Optional[UnfoldingTree] = None
    unfoldings: int = 0
    fragment: Optional[Fragment] = None


def solve_conjunction(conjuncts: Iterable[Formula], alphabet: Iterable[str],
                      budget: int = DEFAULT_BUDGET,
                      oa_mode: str = OA_FULL) -> Answer:
    """Run the full search loop on one conjunction of parsed leaves."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    root = init_normalize(conjuncts, alphabet)
    fragment = classify_fragment(root)
    tree = UnfoldingTree(root)
    # each node's arithmetic is its parent's plus the atoms its unfolding
    # added, so its prepared state extends the parent's by those atoms
    hyps: Dict[int, _arith.Hypothesis] = {0: _arith.Hypothesis(root.arith)}
    spent = 0

    zero_sea_bound = None
    if fragment.tag is FragmentTag.ACYCLIC and root.equations:
        m = len(root.equations)
        n = max(equation_size(eq) for eq in root.equations)
        zero_sea_bound = 4 * (2 ** m) * max(n, 1)

    while True:
        for leaf in list(tree.open_leaves()):
            if leaf.checked:
                continue
            leaf.checked = True
            ua = under_approx_check(leaf.formula)
            if ua.status == "sat":
                leaf.status = SatLeaf(ua.model)
                return Answer("sat", model=ua.model, tree=tree,
                              unfoldings=spent, fragment=fragment)
            if ua.status == "unsat":
                leaf.status = ClosedUnsat(f"base: {ua.reason}")
                continue
            if oa_unsat(leaf.formula, oa_mode, hyps[leaf.id]):
                leaf.status = ClosedUnsat("length abstraction unsat")
                continue
            ancestors = tree.ancestors(leaf.id)
            linked = link_back(leaf.formula, [a.formula for a in ancestors],
                               hyps[leaf.id])
            if linked is not None:
                a_index, theta = linked
                leaf.status = BackLinkedTo(ancestors[a_index].id, theta)

        if tree.is_closed():
            return Answer("unsat", tree=tree, unfoldings=spent,
                          fragment=fragment)
        if spent >= budget:
            return Answer("unknown", tree=tree, unfoldings=spent,
                          fragment=fragment)

        leaves = sorted(tree.open_leaves(), key=lambda n: (-n.depth, n.id))
        pick = leaves[0]
        children = unfold(pick.formula)
        spent += 1
        if not children:
            pick.status = ClosedUnsat("no unfolding (constant clash)")
            continue
        parent_arith = pick.formula.arith
        for child in children:
            node = tree.add_child(pick.id, child.rule, child.formula)
            if child.formula.arith[:len(parent_arith)] != parent_arith:
                raise EngineInternalError(
                    "a child's arithmetic does not extend its parent's")
            hyps[node.id] = hyps[pick.id].extend(
                child.formula.arith[len(parent_arith):])
            if zero_sea_bound is not None and node.depth + 1 > zero_sea_bound:
                raise EngineInternalError(
                    "acyclic path bound exceeded: "
                    f"{node.depth + 1} > {zero_sea_bound}")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_tree(tree: UnfoldingTree) -> str:
    """Render the tree for graphviz: tree edges solid, back-links dashed,
    closed leaves grey, SAT leaves bold."""
    lines = ["digraph unfolding_tree {",
             '  node [shape=box, fontname="monospace", fontsize=9];']
    for n in tree.nodes:
        label = f"#{n.id} [{n.rule}]\\n{_dot_escape(formula_summary(n.formula))}"
        style = ""
        if isinstance(n.status, ClosedUnsat):
            style = ', style=filled, fillcolor=lightgrey'
            label += f"\\nclosed: {_dot_escape(n.status.reason)}"
        elif isinstance(n.status, SatLeaf):
            style = ', style=bold, color=darkgreen'
            label += "\\nSAT"
        elif isinstance(n.status, BackLinkedTo):
            label += f"\\nlinked to #{n.status.target}"
        lines.append(f'  n{n.id} [label="{label}"{style}];')
    for n in tree.nodes:
        for c in n.children:
            lines.append(f"  n{n.id} -> n{c};")
    for n in tree.nodes:
        if isinstance(n.status, BackLinkedTo):
            lines.append(f"  n{n.id} -> n{n.status.target} "
                         "[style=dashed, constraint=false, label=\"back\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
