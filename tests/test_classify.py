import random
import time
from collections import Counter

from corpus import draw_acyclic
from stringsat import engine
from stringsat.classify import (FragmentTag, _first_nonperiodic,
                                _first_repeated, build_dep_graph,
                                classify_fragment, cycle_count, side_vars)
from stringsat.terms import (AAdd, AInt, ALen, AMax, AMod, ANeg, AVar, CChar,
                             Equation, FAtom, FEq, FIn, NormalizedFormula,
                             RCat, RStar, RWord, SVar, atom_eq, atom_le, word)


def _nf(*eqs, arith=()):
    return NormalizedFormula(equations=tuple(eqs), arith=tuple(arith))


def _out(edges):
    # the out-edge map of a list of edges, parallel edges repeated
    out = {}
    for s, d in edges:
        out.setdefault(s, []).append(d)
    return out


def test_is_linear():
    assert _first_repeated(
        [Equation((SVar("s"),), (SVar("t"), SVar("u")))], 1) is None
    rotation = Equation(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    assert _first_repeated([rotation], 1) == (rotation, "s")
    # per-equation check: s in two different equations is fine
    assert _first_repeated([Equation((SVar("s"),), (SVar("t"),)),
                            Equation((SVar("s"),), (SVar("u"),))], 1) is None


def test_first_repeated_more_than_twice():
    rotation = Equation(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    assert _first_repeated([rotation], 2) is None
    # the first equation past the bound, and its first variable past it
    cube = Equation((SVar("t"), SVar("s"), SVar("s"), SVar("s")),
                    (SVar("t"), SVar("t")))
    assert _first_repeated([rotation, cube], 2) == (cube, "t")


def test_dep_graph_fan_out():
    g = build_dep_graph("s", side_vars([Equation((SVar("s"),),
                                                 (SVar("t"), SVar("u")))]))
    assert g == {"s": ["t", "u"]}


def test_dep_graph_ground_side_marks_leaves():
    # s and t are leaves, which have no out-edges
    g = build_dep_graph("s", side_vars([Equation((SVar("s"), SVar("t")),
                                                 word("ab"))]))
    assert g == {}


def test_dep_graph_self_loop_survives():
    rotation = Equation(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    g = build_dep_graph("s", side_vars([rotation]))
    assert g == {"s": ["s"]}
    assert cycle_count(g) == 1


def test_dep_graph_consumes_each_equation_once():
    eqs = [Equation((SVar("s"),), (SVar("t"),)) for _ in range(4)]
    g = build_dep_graph("s", side_vars(eqs))
    # one dequeue consumes one equation: s and t take turns, one edge
    # each, until all four are consumed
    assert g == {"s": ["t", "t"], "t": ["s", "s"]}


def test_cycle_count_examples():
    g = build_dep_graph("s", side_vars([Equation((SVar("s"),),
                                                 (SVar("t"), SVar("u")))]))
    assert cycle_count(g) == 0
    assert cycle_count({"s": ["s"]}) == 1
    assert cycle_count({"s": ["t", "s"], "t": ["s"]}) == 2


def test_cycle_count_multi_edges():
    assert cycle_count({"s": ["t", "t"], "t": ["s"]}) == 2


def _recursive_cycle_count(out):
    # the recursive walk cycle_count replaced, one Python frame per vertex
    adj = {}
    for (s, d), k in Counter((s, d) for s, ds in out.items()
                             for d in ds).items():
        adj.setdefault(s, []).append((d, k))
    total = 0
    for start in sorted(out):
        def walk(v, seen, weight):
            found = 0
            for d, k in adj.get(v, ()):
                if d == start:
                    found += weight * k
                elif d > start and d not in seen:
                    found += walk(d, seen | {d}, weight * k)
            return found

        total += walk(start, frozenset((start,)), 1)
    return total


def test_cycle_count_matches_the_recursive_walk():
    rng = random.Random(31)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 6))]
        edges = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randint(0, 12))]
        g = _out(edges)
        assert cycle_count(g) == min(_recursive_cycle_count(g), 2), edges


def test_cycle_count_on_long_paths_and_cycles():
    # far deeper than the interpreter's recursion limit
    names = [f"v{i:04d}" for i in range(3000)]
    path = list(zip(names, names[1:]))
    assert cycle_count(_out(path)) == 0
    assert cycle_count(_out(path + [(names[-1], names[0])])) == 1


def _scanned_dep_graph(var, equations):
    # the construction build_dep_graph replaced: every dequeue scans the
    # pool for the first equation mentioning the variable; a leaf has no
    # out-edges
    edges, leaves = [], set()
    pool = list(equations)
    wl = [var]
    while wl:
        cur = wl.pop(0)
        if cur in leaves:
            continue
        i = next((i for i, (l, r) in enumerate(pool) if cur in l | r), None)
        if i is None:
            if not any(s == cur for s, _ in edges):
                leaves.add(cur)
            continue
        lhs, rhs = pool.pop(i)
        tr_i, tr_d = (lhs, rhs) if cur in lhs else (rhs, lhs)
        for v in sorted(tr_d):
            edges.append((cur, v))
            if v not in leaves:
                wl.append(v)
        if not tr_d:
            leaves.update(tr_i)
            edges = [(s, d) for s, d in edges if s not in tr_i]
    return _out(edges)


def test_dep_graph_matches_the_pool_scan():
    rng = random.Random(37)
    names = ["s", "t", "u", "v"]
    cyclic = 0
    for _ in range(400):
        sides = [tuple(frozenset(rng.sample(names, rng.randint(0, 2)))
                       for _ in range(2))
                 for _ in range(rng.randint(1, 6))]
        for var in names:
            g = build_dep_graph(var, sides)
            assert g == _scanned_dep_graph(var, sides), (var, sides)
            assert cycle_count(g) == min(_recursive_cycle_count(g), 2), \
                (var, sides)
            cyclic += cycle_count(g) > 0
    assert cyclic > 100


def test_long_chain_classifies_quickly():
    # x_i = x_{i+1}.a, ..., x_n = b: the graph of x_i is the chain below
    # it, so building all graphs is quadratic; scanning the pool and every
    # edge made it cubic (12 s at this size)
    n = 600
    conj = [FEq((SVar(f"x{i}"),), (SVar(f"x{i + 1}"),) + word("a"))
            for i in range(n)] + [FEq((SVar(f"x{n}"),), word("b"))]
    f = engine.init_normalize(conj, "ab")
    start = time.perf_counter()
    assert classify_fragment(f).tag is FragmentTag.ACYCLIC
    assert time.perf_counter() - start < 4.0


def _complete_system(n):
    # x_i.ab = ba.(the other variables in index order), asserted in
    # sorted-name order: the graph of x0 is complete
    xs = [SVar(f"x{i}") for i in range(n)]
    return [FEq((x,) + word("ab"), word("ba") + tuple(y for y in xs if y != x))
            for x in sorted(xs, key=lambda x: x.name)]


def test_dense_graphs_classify_without_counting_cycles():
    # the complete graph on 11 vertices has more than 10^7 simple cycles,
    # far too many to enumerate in a second
    f = engine.init_normalize(_complete_system(11), "ab")
    start = time.perf_counter()
    frag = classify_fragment(f)
    assert time.perf_counter() - start < 1.0
    assert frag.tag is FragmentTag.GENERAL
    assert "has more than one cycle" in frag.witness


def test_is_periodic_arith():
    def periodic(atoms):
        return _first_nonperiodic(atoms) is None

    n = AVar("n")
    assert periodic([atom_eq(AMod(n, AInt(2)), AInt(0))])
    assert periodic([atom_eq(AAdd(AVar("x1"), ANeg(AVar("x2"))), AInt(5))])
    assert not periodic([atom_eq(AMax(AVar("x"), AVar("y")), AInt(3))])
    # three-variable sums fall outside the octagonal shape
    assert not periodic(
        [atom_le(AAdd(AVar("x"), AAdd(AVar("y"), AVar("z"))), AInt(3))])


def test_classify_worked_example_is_one_cycle():
    r = RCat(RStar(RWord("ab")), RWord("a"))
    conjs = [FEq(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba")),
             FIn((SVar("s"),), r),
             FAtom(atom_eq(AMod(ALen("s"), AInt(2)), AInt(0)))]
    nf = engine.init_normalize(conjs, "ab")
    frag = classify_fragment(nf)
    assert frag.tag is FragmentTag.ONE_CYCLE
    assert frag.witness


def test_a_variable_three_times_in_one_equation_is_general():
    # x.x.x = y.ab has one cycle in x's graph and no arithmetic, but the
    # one-cycle fragment allows at most two occurrences per equation
    x, y = SVar("x"), SVar("y")
    nf = engine.init_normalize([FEq((x, x, x), (y,) + word("ab"))], "ab")
    frag = classify_fragment(nf)
    assert frag.tag is FragmentTag.GENERAL
    assert "x occurs more than twice in x.x.x = y.a.b" in frag.witness
    # twice on one side is still one-cycle
    nf = engine.init_normalize([FEq((x, x), (y,) + word("ab"))], "ab")
    assert classify_fragment(nf).tag is FragmentTag.ONE_CYCLE


def test_classify_linear_acyclic():
    conjs = [FEq((SVar("s"),), (SVar("t"), SVar("u"))),
             FIn((SVar("t"),), RStar(RWord("ab")))]
    nf = engine.init_normalize(conjs, "ab")
    assert classify_fragment(nf).tag is FragmentTag.ACYCLIC


def test_classify_general_on_non_periodic_arith():
    conjs = [FEq((SVar("s"), SVar("s"), SVar("s")), (SVar("t"), CChar("a"))),
             FAtom(atom_eq(AMax(ALen("t"), AInt(3)), AInt(3)))]
    nf = engine.init_normalize(conjs, "ab")
    frag = classify_fragment(nf)
    assert frag.tag is FragmentTag.GENERAL
    assert "non-periodic" in frag.witness


def test_random_acyclic_instances_classify_acyclic():
    rng = random.Random(7)
    for conjs in draw_acyclic(rng, 40):
        nf = engine.init_normalize(conjs, "ab")
        assert classify_fragment(nf).tag is FragmentTag.ACYCLIC
