import random
import time
from collections import Counter

from corpus import draw_acyclic
from stringsat import engine
from stringsat.classify import (DepGraph, FragmentTag, _first_nonperiodic,
                                _first_repeated, build_dep_graph,
                                classify_fragment, cycle_count, side_vars)
from stringsat.terms import (AAdd, AInt, ALen, AMax, AMod, ANeg, AVar, CChar,
                             Equation, FAtom, FEq, FIn, NormalizedFormula,
                             RCat, RStar, RWord, SVar, atom_eq, atom_le, word)


def _nf(*eqs, arith=()):
    return NormalizedFormula(equations=tuple(eqs), arith=tuple(arith))


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
    assert sorted(g.edges) == [("s", "t"), ("s", "u")]


def test_dep_graph_ground_side_marks_leaves():
    g = build_dep_graph("s", side_vars([Equation((SVar("s"), SVar("t")),
                                                 word("ab"))]))
    assert g.leaves == {"s", "t"}
    assert g.edges == []


def test_dep_graph_self_loop_survives():
    rotation = Equation(word("ab") + (SVar("s"),), (SVar("s"),) + word("ba"))
    g = build_dep_graph("s", side_vars([rotation]))
    assert ("s", "s") in g.edges
    assert cycle_count(g) == 1


def test_dep_graph_consumes_each_equation_once():
    eqs = [Equation((SVar("s"),), (SVar("t"),)) for _ in range(4)]
    g = build_dep_graph("s", side_vars(eqs))
    # one dequeue consumes one equation; the graph stays finite and sane
    assert g.vertices >= {"s", "t"}


def test_leaf_invariant():
    rng = random.Random(3)
    for conjs in draw_acyclic(rng, 20):
        nf = engine.init_normalize(conjs, "ab")
        for eq in nf.equations:
            for v in sorted({a.var for a in eq.lhs + eq.rhs
                             if hasattr(a, "var")}):
                g = build_dep_graph(v, side_vars(nf.equations))
                for leaf in g.leaves:
                    assert g.out_degree(leaf) == 0


def test_cycle_count_examples():
    g = build_dep_graph("s", side_vars([Equation((SVar("s"),),
                                                 (SVar("t"), SVar("u")))]))
    assert cycle_count(g) == 0
    loop = DepGraph(root="s", vertices={"s"}, edges=[("s", "s")])
    assert cycle_count(loop) == 1
    two = DepGraph(root="s", vertices={"s", "t"},
                   edges=[("s", "t"), ("t", "s"), ("s", "s")])
    assert cycle_count(two) == 2


def test_cycle_count_multi_edges():
    g = DepGraph(root="s", vertices={"s", "t"},
                 edges=[("s", "t"), ("s", "t"), ("t", "s")])
    assert cycle_count(g) == 2


def _recursive_cycle_count(g):
    # the recursive walk cycle_count replaced, one Python frame per vertex
    adj = {}
    for (s, d), k in Counter(g.edges).items():
        adj.setdefault(s, []).append((d, k))
    total = 0
    for start in sorted(g.vertices):
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
        g = DepGraph(root=names[0], vertices=set(names), edges=edges)
        assert cycle_count(g) == _recursive_cycle_count(g), edges


def test_cycle_count_on_long_paths_and_cycles():
    # far deeper than the interpreter's recursion limit
    names = [f"v{i:04d}" for i in range(3000)]
    path = list(zip(names, names[1:]))
    g = DepGraph(root=names[0], vertices=set(names), edges=path)
    assert cycle_count(g) == 0
    g.edges = path + [(names[-1], names[0])]
    assert cycle_count(g) == 1


def _scanned_dep_graph(var, equations):
    # the construction build_dep_graph replaced: every dequeue scans the
    # pool for the first equation mentioning the variable
    g = DepGraph(root=var, vertices={var})
    pool = list(equations)
    wl = [var]
    while wl:
        cur = wl.pop(0)
        if cur in g.leaves:
            continue
        i = next((i for i, (l, r) in enumerate(pool) if cur in l | r), None)
        if i is None:
            if not any(s == cur for s, _ in g.edges):
                g.mark_leaf(cur)
            continue
        lhs, rhs = pool.pop(i)
        tr_i, tr_d = (lhs, rhs) if cur in lhs else (rhs, lhs)
        for v in sorted(tr_d):
            g.add_vertex(v)
            g.add_edge(cur, v)
            if v not in g.leaves:
                wl.append(v)
        if not tr_d:
            for v in sorted(tr_i):
                g.mark_leaf(v)
    return g


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
            want = _scanned_dep_graph(var, sides)
            assert (g.vertices, g.leaves, sorted(g.edges)) == \
                (want.vertices, want.leaves, sorted(want.edges)), (var, sides)
            assert cycle_count(g) == _recursive_cycle_count(g), (var, sides)
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
