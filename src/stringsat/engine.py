"""The unfolding-tree solver.

One solve call owns one tree.  Each iteration prunes leaves a membership
can no longer accept (empty residual), decides base leaves exactly
(under-approximation), prunes leaves whose length abstraction is already
unsatisfiable (over-approximation), answers sat at an open leaf where
the lengths of its node model give one (the length probe, full mode
only), tries to close the remaining open leaves against an ancestor up
the same path (cyclic back-link), and otherwise expands the deepest open
leaf with the head-directed unfolding rules.  SAT answers carry a model
of the input's variables; UNSAT answers carry the closed tree.  A leaf a
resource cap stops is given up, and a tree closed with one answers
unknown.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import arith as _arith
from . import oracle as _oracle
from . import regexes as _regexes
from .classify import Fragment, FragmentTag, classify_fragment
from .terms import (AAdd, AInt, AScale, AVar, ArithAtom, CChar, Define,
                    EngineInternalError, Equation, FAtom, FEq, FIn, FNot,
                    Formula, Membership, Model, NormalizedFormula, RE,
                    RInter, SPred, SVar, arith_len_vars, atom_eq, atom_le,
                    atom_lt, equation_size, eval_atom, formula_summary,
                    length_components, length_expr, normalized_to_formula,
                    rename_atom_vars, subst_len, subterm_str, subterm_vars,
                    term_subst, vars_of_atoms)

DEFAULT_BUDGET = 10000

OA_FULL = "full"
OA_LENGTHS_ONLY = "lengths-only"


# ---------------------------------------------------------------------------
# Initialization: pair every string variable with a predicate instance
# ---------------------------------------------------------------------------

def init_normalize(conjuncts: Iterable[Formula],
                   alphabet: Iterable[str]) -> NormalizedFormula:
    """Build the normalized formula for a conjunction of parsed leaves.

    Every string variable is replaced inside the equations and the
    membership terms by a fresh predicate instance naming its length; the
    old name survives as a definition by the predicate's name and as the
    membership's variable.  Length expressions in the arithmetic are
    reduced to the fresh length variables, and each length is stated
    non-negative, or 0 when the alphabet is empty.  A variable has one
    membership, in first-occurrence order: the intersection of its
    regexes, folded left in assertion order, so the residual and length
    checks read the intersection and not each regex alone.  A membership
    on a compound term names the term and stays separate.  Each
    membership carries its regex's automaton and its length components
    (``terms.length_components`` over the root term's length, multipliers
    named ``$k<i>_<j>`` by position), built here once for the whole tree:
    every node reads the same objects (see ``Membership``).
    """
    sigma = tuple(sorted(set(alphabet)))
    raw_eqs: List[Equation] = []
    memberships: Dict[str, RE] = {}  # variable -> its regexes' intersection
    atoms: List[ArithAtom] = []
    aux = 0
    for leaf in conjuncts:
        if isinstance(leaf, FEq):
            raw_eqs.append(Equation(leaf.lhs, leaf.rhs))
        elif isinstance(leaf, FIn):
            t = leaf.term
            if len(t) == 1 and isinstance(t[0], SVar):
                name = t[0].name
            else:
                # name the term so the membership sits on a variable
                name = f"$m{aux}"
                aux += 1
                raw_eqs.append(Equation((SVar(name),), t))
            prior = memberships.get(name)
            memberships[name] = (leaf.regex if prior is None
                                 else RInter(prior, leaf.regex))
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
    for name in memberships:
        note(name)
    for a in atoms:
        for v in sorted(arith_len_vars(a.lhs) | arith_len_vars(a.rhs)):
            note(v)

    pred_of: Dict[str, SPred] = {}
    subterms: List[Define] = []
    lengths: List[Tuple[str, str]] = []
    for i, v in enumerate(ordered):
        u, n = f"$u{i}", f"$n{i}"
        pred_of[v] = SPred(u, n)
        subterms.append(Define(v, (SVar(u),)))
        lengths.append((u, n))
        # with no letters every word is empty
        atoms.append(atom_le(AInt(0), AVar(n)) if sigma
                     else atom_eq(AVar(n), AInt(0)))

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

    # Generated names carry a "$" prefix the parser never accepts, so they
    # cannot collide with user identifiers.  $u/$n names are numbered by
    # variable, and every $m name's variable is among them.  The engine's
    # letters are $u, $n, $m, $k, $fp and $fq; $q, $r, $s and $v belong to
    # the arithmetic backend's auxiliaries, and it refuses them in its input.
    members = []
    for i, (v, r) in enumerate(memberships.items()):
        dfa = _regexes.compiled(r, sigma)
        term = (pred_of[v],)
        members.append(Membership(v, r, term, dfa, length_components(
            length_expr(term), dfa.lengths, f"$k{i}_")))
    return NormalizedFormula(
        equations=tuple(eqs), memberships=tuple(members),
        arith=tuple(fixed_atoms), subterms=tuple(subterms),
        lengths=tuple(lengths), alphabet=sigma, next_index=len(ordered))


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnfoldChild:
    rule: str
    formula: NormalizedFormula


def _define(f: NormalizedFormula, p: SPred, rhs: tuple,
            atoms: tuple) -> NormalizedFormula:
    """The child in which the predicate ``p`` is the word ``rhs``.

    ``p`` is replaced by ``rhs`` in every equation and membership term
    (a rewritten membership keeps its automaton and length components),
    and ``rhs``, its predicates written as names, is appended to the
    subterms as ``p.var``'s definition, so no earlier one changes and a
    name means one word in every node below.  ``atoms`` go after the
    arithmetic.  ``p``'s length pairing goes; a fresh rest ``rhs`` ends
    with (``_fresh(f)``) gets its own, and its index is then used.  ``p``
    heads one side of the first equation, and a non-empty ``rhs`` starts
    with the other side's head, so the two heads are consumed."""
    eqs = tuple(Equation(term_subst(e.lhs, p, rhs), term_subst(e.rhs, p, rhs))
                for e in f.equations)
    if rhs:
        eqs = (Equation(eqs[0].lhs[1:], eqs[0].rhs[1:]),) + eqs[1:]
    members = tuple(replace(m, term=term_subst(m.term, p, rhs))
                    if p in m.term else m for m in f.memberships)
    lengths = tuple(q for q in f.lengths if q[0] != p.var)
    rest = rhs[-1:] == (_fresh(f),)
    if rest:
        lengths += ((rhs[-1].var, rhs[-1].length),)
    word = tuple(SVar(a.var) if isinstance(a, SPred) else a for a in rhs)
    return f.with_(equations=eqs, memberships=members, arith=f.arith + atoms,
                   subterms=f.subterms + (Define(p.var, word),),
                   lengths=lengths, next_index=f.next_index + rest)


def _empty(f: NormalizedFormula, p: SPred) -> NormalizedFormula:
    return _define(f, p, (), (atom_eq(AVar(p.length), AInt(0)),))


def _fresh(f: NormalizedFormula) -> SPred:
    """The predicate a rule names a defined variable's rest by: the
    formula's next free index, for the word and for its length."""
    k = f.next_index
    return SPred(f"$u{k}", f"$n{k}")


def unfold(f: NormalizedFormula) -> List[UnfoldChild]:
    """Expand the first equation by its two leading atoms.

    Children are returned in rule order; an empty list means the node is
    unsatisfiable on the spot (mismatched constant heads or a constant
    remainder against the empty word).  A child either consumes equal
    heads or defines one predicate (``_define``) as the empty word, a
    character and a fresh rest, the other head, or the other head and a
    fresh rest."""
    if not f.equations:
        raise EngineInternalError("unfold on a formula without equations")
    eq = f.equations[0]
    lhs, rhs = eq.lhs, eq.rhs

    if not lhs and not rhs:
        return [UnfoldChild("drop", f.with_(equations=f.equations[1:]))]

    if not lhs or not rhs:
        preds = dict.fromkeys(a for a in lhs + rhs if isinstance(a, SPred))
        if not preds:
            return []  # the empty word cannot equal a non-empty constant
        for p in preds:
            f = _empty(f, p)
        return [UnfoldChild("eps-force", f)]

    hl, hr = lhs[0], rhs[0]
    if isinstance(hl, SVar) or isinstance(hr, SVar):
        raise EngineInternalError("bare variable heads an equation")
    if hl == hr:
        rule = "const-succ" if isinstance(hl, CChar) else "match-var"
        return [UnfoldChild(rule, f.with_(
            equations=(Equation(lhs[1:], rhs[1:]),) + f.equations[1:]))]
    if isinstance(hl, CChar) and isinstance(hr, CChar):
        return []
    if isinstance(hl, SPred) and isinstance(hr, SPred):
        if hl.var == hr.var:
            raise EngineInternalError("one variable with two length names")
        return _big(f, hl, hr)

    # one constant head, one predicate head: p is empty or c.tail
    c, p = (hl, hr) if isinstance(hl, CChar) else (hr, hl)
    t = _fresh(f)
    ind = _define(f, p, (c, t),
                  (atom_eq(AVar(t.length), AAdd(AVar(p.length), AInt(-1))),
                   atom_lt(AInt(0), AVar(p.length)),
                   atom_le(AInt(0), AVar(t.length))))
    return [UnfoldChild("small-base", _empty(f, p)),
            UnfoldChild("small-ind", ind)]


def _big(f: NormalizedFormula, p1: SPred, p2: SPred) -> List[UnfoldChild]:
    """Distinct predicate heads: five exhaustive cases.

    Either side may be empty, the words may coincide, or one is a strictly
    longer extension of a non-empty other.  The strictness (prefix and
    tail both at least one character) is what lets a back-link later prove
    a genuine decrease; with lax splits the empty-prefix case loops
    forever on equations shaped like x.w = w and a cyclic proof over them
    would be unsound.
    """
    t = _fresh(f)  # both splits name their rest by the same fresh index

    def split(longer: SPred, shorter: SPred) -> NormalizedFormula:
        return _define(
            f, longer, (shorter, t),
            (atom_eq(AVar(t.length), AAdd(AVar(longer.length),
                                          AScale(-1, AVar(shorter.length)))),
             atom_le(AInt(1), AVar(t.length)),
             atom_le(AInt(1), AVar(shorter.length))))

    ident = _define(f, p2, (p1,), (atom_eq(AVar(p1.length), AVar(p2.length)),))
    return [UnfoldChild("big-eps-l", _empty(f, p1)),
            UnfoldChild("big-eps-r", _empty(f, p2)),
            UnfoldChild("big-identify", ident),
            UnfoldChild("big-left", split(p1, p2)),   # p2 a proper prefix of p1
            UnfoldChild("big-right", split(p2, p1))]  # p1 a proper prefix of p2


# ---------------------------------------------------------------------------
# Over-approximation
# ---------------------------------------------------------------------------

def residual_empty(f: NormalizedFormula) -> Optional[str]:
    """The first member variable whose membership no word of its term can
    meet, or None.

    Each membership's automaton runs over its term (by
    ``regexes.residual_states``): characters step the state set, an open
    predicate takes its reachability closure.  Occurrences of one
    variable are treated independently, which only loses precision, so
    an accepting state missing from the final set proves the leaf has no
    model."""
    for m in f.memberships:
        if not _regexes.residual_states(m.dfa, m.term) & m.dfa.accepting:
            return m.var
    return None


_OA_DISJUNCT_CAP = 256


def over_approx(f: NormalizedFormula,
                mode: str = OA_FULL) -> List[Tuple[ArithAtom, ...]]:
    """Length abstraction of the formula as a disjunction of atom lists.

    Every word equation becomes an equality of lengths.  In full mode each
    membership additionally pins the length of its term inside the
    semilinear length set of its regex, one choice per component of
    ``Membership.components`` (``terms.length_components``: runs as
    intervals, a period-1 progression as a lower bound, all lengths as no
    atom); that strengthening stays sound because any string model's
    lengths satisfy it.  A membership with an empty length set leaves no
    disjunct; the search closes such leaves earlier, by their empty
    residual.

    Every disjunct has the same layout: one length equality per equation,
    in order, then ``f.arith`` as it is, then the disjunct's own
    membership atoms (``_membership_parts``).  Only the last part differs
    between disjuncts.
    """
    base = f.equation_lengths + f.arith
    return [base + part for part in _membership_parts(f, mode)]


def _membership_parts(f: NormalizedFormula, mode: str) -> List[tuple]:
    """The membership atoms of each length-abstraction disjunct, in order:
    one choice among each membership's components, so one empty part in
    lengths-only mode or without memberships, and none when a
    membership's length set is empty."""
    parts: List[tuple] = [()]
    if mode == OA_LENGTHS_ONLY:
        return parts
    for m in f.memberships:
        comps = m.components
        if len(parts) * len(comps) > _OA_DISJUNCT_CAP:
            break  # weaken: remaining memberships contribute nothing
        parts = [p + c for p in parts for c in comps]
    return parts


def oa_unsat(f: NormalizedFormula, mode: str = OA_FULL,
             hyp: Optional[_arith.Hypothesis] = None) -> bool:
    """Whether every disjunct of the length abstraction is unsatisfiable.

    ``hyp`` is the node's hypothesis (``node_hypothesis``, built here when
    not given), equivalent to the disjuncts' shared part: the equation
    lengths and ``f.arith``.  Each disjunct solves only its membership
    part on top of it."""
    if hyp is None:
        hyp = node_hypothesis(f)
    return not any(hyp.consistent_with(part)
                   for part in _membership_parts(f, mode))


def node_hypothesis(f: NormalizedFormula,
                    parent: Optional[NormalizedFormula] = None,
                    parent_hyp: Optional[_arith.Hypothesis] = None
                    ) -> _arith.Hypothesis:
    """The prepared arithmetic the search keeps for a tree node.

    The root's is its lengths-only abstraction (its equation lengths and
    arithmetic), the one length abstraction a tree builds.  A child's
    extends its parent's by the atoms its unfolding added to ``arith``.
    That keeps it equivalent to the child's own equation lengths and
    arithmetic: each rule that rewrites the equations substitutes one
    predicate and adds the atom defining the new length (``n = 0``,
    ``n' = n - 1``, ``n1 = n2``, ``n' = n_long - n_short``), and the
    others drop equal parts from both sides."""
    if parent is None:
        return _arith.Hypothesis(over_approx(f, OA_LENGTHS_ONLY)[0])
    if f.arith[:len(parent.arith)] != parent.arith:
        raise EngineInternalError(
            "a child's arithmetic does not extend its parent's")
    return parent_hyp.extend(f.arith[len(parent.arith):])


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


def under_approx_check(f: NormalizedFormula,
                       hyp: Optional[_arith.Hypothesis] = None) -> UAResult:
    """Decide a base leaf exactly.

    Ground equations are compared character-wise.  A depth-first search
    gives each predicate of a membership term a target, the state its run
    ends in: in membership and term order, lowest state first, only where
    the rest of the membership can still accept, only while the variable's
    joint automaton stays non-empty, and the same target for a variable
    met again at the same source (the automaton is deterministic).  Each
    full choice puts every open variable's length in its joint automaton's
    length set, and the arithmetic backend decides the rest, trying first
    the model of ``hyp``, the leaf's node hypothesis (an unbound variable
    reads 0).  A SAT verdict carries a checked model.  Raises CapExceeded
    past _UA_COMBO_CAP targets tried, or when a model word would be longer
    than _MODEL_WORD_CAP characters.
    """
    if not is_base(f):
        return UAResult("notbase")
    for eq in f.equations:
        lw = "".join(a.char for a in eq.lhs)
        rw = "".join(a.char for a in eq.rhs)
        if lw != rw:
            return UAResult("unsat", reason=f"ground mismatch: {lw!r} != {rw!r}")

    # fully determined members first, then each membership on its own
    for m in f.memberships:
        if all(isinstance(a, CChar) for a in m.term):
            w = "".join(a.char for a in m.term)
            if not _regexes.accepts(m.dfa, w):
                return UAResult(
                    "unsat", reason=f"membership fails on {m.var}={w!r}")
    if any(m.dfa.accepting.isdisjoint(
            _regexes.residual_states(m.dfa, m.term)) for m in f.memberships):
        return UAResult("unsat", reason="membership admits no run")

    # the node model answers a system only if it satisfies the shared part
    node_model = hyp.model() if hyp is not None else None
    if node_model is not None and \
            not all(eval_atom(a, node_model) for a in f.arith):
        node_model = None
    lens = f.length_map()
    for joints in _boundary_choices(f):
        disjs = [length_components(AVar(lens[v]), _regexes.length_set(joint),
                                   f"$k_{v}_")
                 for v, joint in sorted(joints.items())]
        for chosen in itertools.product(*disjs):
            own = [a for grp in chosen for a in grp]
            system = list(f.arith) + own
            if node_model is not None and \
                    all(eval_atom(a, node_model) for a in own):
                beta = {v: node_model[v] for v in vars_of_atoms(system)}
            elif _arith.quick_unsat(system):
                continue
            else:
                beta = _arith.arith_sat(system)
                if beta is None:
                    continue
            model = _finish_model(f, beta, _witness_words(f, beta, joints))
            if model is None:
                raise EngineInternalError(
                    "constructed model fails the leaf formula")
            return UAResult("sat", model=model)
    return UAResult("unsat", reason="no base model")


def _boundary_choices(f: NormalizedFormula
                      ) -> Iterator[Dict[str, _regexes.Dfa]]:
    """Every full choice of the boundary search ``under_approx_check``
    describes, as each open variable's joint automaton."""
    # per predicate of a term: automaton, variable, characters before it,
    # first of its term?, targets the rest can accept from
    slots: List[tuple] = []
    for m in f.memberships:
        dfa, term = m.dfa, m.term
        opens = [i for i, a in enumerate(term) if not isinstance(a, CChar)]
        live, at = dfa.accepting, len(slots)
        for k in reversed(range(len(opens))):
            # the rest: the word up to the next predicate, then its rest
            i = opens[k]
            end = opens[k + 1] if k + 1 < len(opens) else len(term) - 1
            live = frozenset(q for q in range(dfa.n_states) if not
                             live.isdisjoint(_regexes.residual_states(
                                 dfa, term[i + 1:end + 1], q)))
            lead = term[opens[k - 1] + 1 if k else 0:i]
            slots.insert(at, (dfa, term[i].var, lead, k == 0, live))
    if not slots:
        yield {}
        return
    runs: Dict[str, list] = {}  # per variable, its (dfa, source, target)s
    joints: dict = {}  # runs, by automaton identity -> their joint

    def key(specs: list) -> tuple:
        return tuple((id(d), p, q) for d, p, q in specs)

    def frame(j: int, q: Optional[int]) -> tuple:
        # source, targets, whether kept, runs before: slot j after target q
        dfa, v, lead, first, _ = slots[j]
        (state,) = _regexes.residual_states(dfa, lead, None if first else q)
        before = runs.get(v, [])
        known = [t for d, p, t in before if d is dfa and p == state]
        return state, iter(known or range(dfa.n_states)), bool(known), before

    stack = [frame(0, None)]
    tries = 0
    while stack:
        dfa, v, _, _, live = slots[len(stack) - 1]
        source, targets, kept, before = stack[-1]
        runs[v] = before  # take back this slot's last target
        q = next(targets, None)
        if q is None:
            stack.pop()
            continue
        tries += 1
        if tries > _UA_COMBO_CAP:
            raise _arith.CapExceeded("membership state space over "
                                     f"_UA_COMBO_CAP = {_UA_COMBO_CAP}")
        if q not in live:
            continue
        specs = before if kept else before + [(dfa, source, q)]
        k = key(specs)
        if k not in joints:
            joints[k] = _regexes.joint_product(specs)
        if not joints[k].accepting:
            continue
        runs[v] = specs
        if len(stack) < len(slots):
            stack.append(frame(len(stack), q))
        else:
            yield {u: joints[key(s)] for u, s in runs.items() if s}


# The longest word a model may give an open variable.  A witness search at
# this length takes about 0.05 s; a longer one could outrun any time or
# memory limit.
_MODEL_WORD_CAP = 10000


def _open_vars(f: NormalizedFormula) -> List[str]:
    """The variables a leaf pairs with a length and does not define."""
    return sorted({v for v, _ in f.lengths} - {c.var for c in f.subterms})


def _witness_words(f: NormalizedFormula, beta: Dict[str, int],
                   joints: Dict[str, _regexes.Dfa]) -> Dict[str, str]:
    """Each open variable's word at its length in beta: a witness of its
    joint automaton where it has one, else the first letter repeated.
    Raises CapExceeded before building a word past _MODEL_WORD_CAP."""
    lens = f.length_map()
    words: Dict[str, str] = {}
    for v in _open_vars(f):
        want = beta.get(lens[v], 0)
        if want > _MODEL_WORD_CAP:
            raise _arith.CapExceeded(f"model word of {want} characters "
                                     f"over _MODEL_WORD_CAP = "
                                     f"{_MODEL_WORD_CAP}")
        if v in joints:
            w = _regexes.witness_with_length(joints[v], lambda n: n == want,
                                             want)
            if w is None:
                raise EngineInternalError("length-set witness missing")
        else:
            w = f.alphabet[0] * want if want else ""
        words[v] = w
    return words


def _finish_model(f: NormalizedFormula, beta: Dict[str, int],
                  words: Dict[str, str]) -> Optional[Model]:
    """The leaf model that extends the open variables' ``words``, or None
    when the evaluator rejects it on the leaf formula.  Every defined
    variable gets its word in one reverse pass over the subterms, joining
    its definition's word: each name a definition reads is defined only
    by a later one, or never.  An undefined variable without a length
    variable is the empty word.  Each variable of the arithmetic takes its
    value in ``beta`` (an unbound one reads 0), and each paired length
    its word's.  Raises EngineInternalError on a name defined twice or
    read before its definition (as in a cycle)."""
    values = dict(words)
    defined = {c.var for c in f.subterms}
    for c in reversed(f.subterms):
        if c.var in values:
            raise EngineInternalError(f"variable defined twice: {c.var}")
        read = subterm_vars(c)[1:]
        if any(v in defined and v not in values for v in read):
            raise EngineInternalError(
                f"cyclic subterm constraints: {subterm_str(c)} reads a name "
                "defined before it")
        values[c.var] = "".join(a.char if isinstance(a, CChar)
                                else values.setdefault(a.name, "")
                                for a in c.term)

    ints = {v: beta.get(v, 0) for v in vars_of_atoms(f.arith)}
    for v, n in f.lengths:
        ints.setdefault(n, len(values.get(v, "")))
    model = Model.make(values, ints)
    if not _oracle.eval_formula(normalized_to_formula(f), model, f.alphabet):
        return None
    return model


def length_probe(f: NormalizedFormula,
                 hyp: _arith.Hypothesis) -> Optional[Model]:
    """A model of an open leaf at its node model's lengths, or None.

    The open variables take the first-letter fill at those lengths
    (``_first_letter_fill``).  Each membership's automaton then reads the
    word its term spells, and the first to refuse ends the probe: the
    leaf formula holds that membership, so the evaluator would refuse the
    model too.  Only a model the evaluator accepts is kept
    (``_finish_model``), so the probe never closes a leaf."""
    beta = hyp.model()
    if beta is None:
        return None
    words = _first_letter_fill(f, beta)
    if words is None or not _memberships_accept(f, words):
        return None
    return _finish_model(f, beta, words)


def _first_letter_fill(f: NormalizedFormula,
                       beta: Dict[str, int]) -> Optional[Dict[str, str]]:
    """Each open variable's word at its length in beta, or None.

    Each character position of an open variable is a class, and so is
    each letter; the equations merge the classes they align (union-find).
    A class with two letters, or sides of unequal length, gives None, and
    a class with none takes the alphabet's first letter.  None too when
    the lengths sum past _MODEL_WORD_CAP."""
    lens = f.length_map()
    want = {v: beta.get(lens[v], 0) for v in _open_vars(f)}
    if sum(want.values()) > _MODEL_WORD_CAP:
        return None
    up: dict = {}  # a position (var, i) to its class; letters are roots

    def find(x):
        while x in up:
            up[x] = up.get(up[x], up[x])  # path halving
            x = up[x]
        return x

    def cells(term: tuple) -> list:
        return [c for a in term for c in (
            (a.char,) if isinstance(a, CChar)
            else [(a.var, i) for i in range(want[a.var])])]

    for eq in f.equations:
        lhs, rhs = cells(eq.lhs), cells(eq.rhs)
        if len(lhs) != len(rhs):
            return None
        for pair in zip(lhs, rhs):
            # a position's class joins a letter's, never the other way
            a, b = sorted(map(find, pair), key=lambda r: isinstance(r, str))
            if a != b:
                if isinstance(a, str):
                    return None  # two letters in one class
                up[a] = b
    return {v: "".join(r if isinstance(r := find((v, i)), str)
                       else f.alphabet[0] for i in range(n))
            for v, n in want.items()}


def _memberships_accept(f: NormalizedFormula, words: Dict[str, str]) -> bool:
    """Whether every membership's automaton accepts the word its term
    spells with the open variables' ``words``.  A name with no word reads
    as empty, as in ``_finish_model``."""
    return all(_regexes.accepts(m.dfa, "".join(
        a.char if isinstance(a, CChar) else words.get(a.var, "")
        for a in m.term)) for m in f.memberships)


# ---------------------------------------------------------------------------
# Cyclic back-links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theta:
    """Substitution making a leaf an instance of an ancestor: the string
    variable map of the equations, a letter-to-letter character map
    (identity where it is silent), and an integer renaming."""

    svar_map: tuple
    char_map: tuple
    ivar_map: tuple

    def ints(self) -> dict:
        return dict(self.ivar_map)


def _unify_equations(pairs: Iterable[tuple]):
    """One injective string, character and length map under which the
    equations of each pair's first formula are the second's, or None."""
    smap: Dict[str, str] = {}
    cmap: Dict[str, str] = {}
    imap: Dict[str, str] = {}

    def bind(m: dict, a: str, b: str) -> bool:
        if a in m:
            return m[a] == b
        m[a] = b
        return True

    for leaf, anc in pairs:
        if len(leaf.equations) != len(anc.equations):
            return None
        for el, ea in zip(leaf.equations, anc.equations):
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


def _residual(m: Membership):
    """(residual state, open variable or None) of a membership whose term
    is characters then at most one predicate; None for any other shape."""
    k = next((i for i, a in enumerate(m.term) if not isinstance(a, CChar)),
             len(m.term))
    rest = m.term[k:]
    states = _regexes.residual_states(m.dfa, m.term[:k])
    if len(rest) > 1 or len(states) != 1:
        return None
    return next(iter(states)), rest[0].var if rest else None


def _memberships_entailed(leaf: NormalizedFormula, anc: NormalizedFormula,
                          smap: dict, cmap: dict) -> bool:
    """Whether each leaf membership entails the ancestor's (unfolding only
    rewrites their terms, so they pair up by index, on the same variable
    and regex): the leaf's open variable maps to the ancestor's, and its
    residual language, renamed by the character map, is included in the
    ancestor's.  A variable the equation map leaves untouched (neither a
    key nor a value) maps to itself."""
    if len(leaf.memberships) != len(anc.memberships):
        return False
    targets = set(smap.values())
    for ml, ma in zip(leaf.memberships, anc.memberships):
        if (ml.var, ml.regex) != (ma.var, ma.regex):
            return False
        got = [_residual(ml), _residual(ma)]
        if None in got:
            return False
        (ql, vl), (qa, va) = got
        # a fully known word (None) pairs only with a known one
        if vl in smap:
            if smap[vl] != va:
                return False
        elif vl != va or vl in targets:
            return False
        if not _regexes.residual_included(ml.dfa, ql, ma.dfa, qa, cmap):
            return False
    return True


def link_back(leaf: NormalizedFormula, ancestors: List[NormalizedFormula],
              hyp: Optional[_arith.Hypothesis] = None):
    """First ancestor (nearest first) the leaf is an instance of, with the
    substitution.  Memberships must be entailed by residual inclusion;
    other subterm constraints are discarded on both sides.

    Progress demands a structural unfolding step on the segment and, more
    importantly, that the leaf's own constraints imply the leaf equations
    are strictly shorter than the ancestor's (the ancestor's length
    variables survive in the leaf through the arithmetic chain, so both
    measures are expressible there).  Without the strict decrease the
    cyclic argument would admit loops that consume nothing.

    The ancestor's arithmetic is read with its dead lengths projected out
    (``NormalizedFormula.projected_arith``; all of it where that is not
    exact).  A dead length occurs in no equation and no membership of the
    ancestor, whose subterms the link discards and whose measure reads
    only equation lengths, so where the projection holds the dead lengths
    can be chosen to give the ancestor a model.

    Counter-models come before proofs.  ``hyp`` is the leaf's node
    hypothesis when the caller keeps one; its model ``w`` satisfies the
    leaf's arithmetic, so, ``full_imap`` being injective,
    ``env[full_imap[v]] = w[v]`` (an unbound name reads 0) satisfies the
    renamed one.  A candidate whose shrink fails under ``w``, or one of
    whose ancestor atoms fails under ``env``, is skipped unproved.  Every
    link is proved, by one ``arith_implies`` on the leaf's arithmetic,
    prepared on first need and shared by the candidates, of the shrink
    and the ancestor's atoms renamed back by the inverse of ``full_imap``
    (the same entailment, the renaming being injective).  An ancestor
    name that is also a leaf name the renaming sends elsewhere is renamed
    apart (``$fq<i>``), or the leaf's would capture it.  The query solves
    one small system per conclusion atom the hypothesis does not state
    literally.
    """
    if not leaf.equations:
        return None
    w = hyp.model() if hyp is not None else None
    leaf_hyp = leaf_ivars = None
    for a_index, anc in enumerate(ancestors):
        if leaf.progress_steps <= anc.progress_steps:
            continue
        got = _unify_equations([(leaf, anc)])
        if got is None:
            continue
        smap, cmap, imap = got
        if not _memberships_entailed(leaf, anc, smap, cmap):
            continue
        shrink = atom_le(AAdd(leaf.measure, AInt(1)), anc.measure)
        # where both paths match level by level up to the root, rename along
        # them: the ancestor's dropped lengths meet the leaf path's own
        path = _unify_equations(zip([leaf] + ancestors, ancestors[a_index:]))
        imap = path[2] if path else imap
        # extend the integer renaming: leaf variables that collide with a
        # target of the positional match must move out of the way
        targets = set(imap.values())
        if leaf_ivars is None:
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
        concl = anc.projected_arith
        if w is not None:
            if not eval_atom(shrink, w):
                continue
            env = defaultdict(int, {t: w[v] for v, t in full_imap.items()})
            if not all(eval_atom(a, env) for a in concl):
                continue
        back = {t: v for v, t in full_imap.items()}
        captured = (vars_of_atoms(concl) & full_imap.keys()) - back.keys()
        for i, v in enumerate(sorted(captured)):
            back[v] = f"$fq{i}"
        if leaf_hyp is None:
            leaf_hyp = _arith.Hypothesis(leaf.arith)
        if _arith.arith_implies(leaf_hyp, [shrink] + [
                rename_atom_vars(a, back) for a in concl]):
            theta = Theta(tuple(sorted(smap.items())),
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
    how: str  # "base" (under-approximation) | "length probe"


@dataclass(frozen=True)
class GaveUp:
    reason: str


@dataclass
class TreeNode:
    id: int
    formula: NormalizedFormula
    parent: Optional[int]
    depth: int
    rule: str
    children: List[int] = field(default_factory=list)
    status: object = Open()


class UnfoldingTree:
    def __init__(self, root: NormalizedFormula):
        self.nodes: List[TreeNode] = [TreeNode(0, root, None, 0, "init")]

    @cached_property
    def fragment(self) -> Fragment:
        """The root's fragment, classified on first read: by the search
        at its first unfolding, or by ``Answer.fragment``."""
        return classify_fragment(self.nodes[0].formula)

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

    def max_path_length(self) -> int:
        return max((n.depth + 1 for n in self.nodes if not n.children),
                   default=1)


@dataclass(frozen=True)
class Answer:
    verdict: str  # "sat" | "unsat" | "unknown"
    model: Optional[Model] = None
    tree: Optional[UnfoldingTree] = None
    unfoldings: int = 0

    @property
    def fragment(self) -> Fragment:
        """The classification of the tree's root, computed on first read
        unless the search already needed it, and kept on the tree."""
        return self.tree.fragment


def solve_conjunction(conjuncts: Iterable[Formula], alphabet: Iterable[str],
                      budget: int = DEFAULT_BUDGET,
                      oa_mode: str = OA_FULL) -> Answer:
    """Run the full search loop on one conjunction of parsed leaves.

    The root is classified at the first unfolding, the only step that
    reads its fragment (for the acyclic path bound), or when
    ``Answer.fragment`` is first read; a conjunction decided at the root
    is never classified during the search."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    root = init_normalize(conjuncts, alphabet)
    tree = UnfoldingTree(root)
    spent = 0
    zero_sea_bound = None  # set at the first unfolding

    # Open leaves with their node hypotheses, the deepest with the lowest
    # id on top.  Only the last expansion's children can be deeper than
    # every other open leaf, and each expansion pushes its still-open
    # children in reverse id order, so popping the top expands the deepest
    # open leaf, lowest id first.  A closed leaf's hypothesis is dropped
    # with it.
    stack: List[Tuple[TreeNode, _arith.Hypothesis]] = []
    unchecked = [(tree.nodes[0], node_hypothesis(root))]

    def sat(leaf: TreeNode, model: Model, how: str) -> Answer:
        # the answer keeps the input's names: the parser rejects "$"
        leaf.status = SatLeaf(model, how)
        own = Model(*(tuple(p for p in part if not p[0].startswith("$"))
                      for part in (model.strings, model.ints)))
        return Answer("sat", own, tree, spent)

    while True:
        for leaf, hyp in unchecked:
            if oa_mode == OA_FULL:
                member = residual_empty(leaf.formula)
                if member is not None:
                    leaf.status = ClosedUnsat(
                        f"membership residual empty: {member}")
                    continue
            capped = None
            try:
                ua = under_approx_check(leaf.formula, hyp)
            except _arith.CapExceeded as e:
                ua, capped = UAResult("notbase"), e
            if ua.status == "sat":
                return sat(leaf, ua.model, "base")
            if ua.status == "unsat":
                leaf.status = ClosedUnsat(f"base: {ua.reason}")
                continue
            try:
                if oa_unsat(leaf.formula, oa_mode, hyp):
                    leaf.status = ClosedUnsat("length abstraction unsat")
                    continue
                if oa_mode == OA_FULL:
                    model = length_probe(leaf.formula, hyp)
                    if model is not None:
                        return sat(leaf, model, "length probe")
                ancestors = tree.ancestors(leaf.id)
                linked = link_back(leaf.formula,
                                   [a.formula for a in ancestors], hyp)
            except _arith.CapExceeded as e:
                linked, capped = None, e
            if linked is not None:
                a_index, theta = linked
                leaf.status = BackLinkedTo(ancestors[a_index].id, theta)
            elif capped is not None:
                leaf.status = GaveUp(str(capped))
        stack += [(n, h) for n, h in reversed(unchecked)
                  if isinstance(n.status, Open)]

        if not stack:
            gave_up = any(isinstance(n.status, GaveUp) for n in tree.nodes)
            return Answer("unknown" if gave_up else "unsat", tree=tree,
                          unfoldings=spent)
        if spent >= budget:
            return Answer("unknown", tree=tree, unfoldings=spent)

        if spent == 0 and tree.fragment.tag is FragmentTag.ACYCLIC \
                and root.equations:
            m = len(root.equations)
            n = max(equation_size(eq) for eq in root.equations)
            zero_sea_bound = 4 * (2 ** m) * max(n, 1)
        pick, pick_hyp = stack.pop()
        children = unfold(pick.formula)
        spent += 1
        if not children:
            pick.status = ClosedUnsat("no unfolding (constant clash)")
        unchecked = []
        for child in children:
            node = tree.add_child(pick.id, child.rule, child.formula)
            hyp = node_hypothesis(child.formula, pick.formula, pick_hyp)
            if zero_sea_bound is not None and node.depth + 1 > zero_sea_bound:
                raise EngineInternalError(
                    "acyclic path bound exceeded: "
                    f"{node.depth + 1} > {zero_sea_bound}")
            unchecked.append((node, hyp))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_tree(tree: UnfoldingTree) -> str:
    """Render the tree for graphviz: tree edges solid, back-links dashed,
    closed leaves grey, given-up leaves yellow, SAT leaves bold."""
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
            label += "\\nSAT" + ("" if n.status.how == "base"
                                 else f" by {n.status.how}")
        elif isinstance(n.status, GaveUp):
            style = ', style="filled,dashed", fillcolor=lightyellow'
            label += f"\\ngave up: {_dot_escape(n.status.reason)}"
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
