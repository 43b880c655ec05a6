import io
import os
import random
import time

import pytest

from corpus import draw_acyclic, draw_one_cycle, rand_regex
from stringsat import arith, engine, terms
from stringsat.cli import (EXIT_ERROR, EXIT_SAT, EXIT_UNKNOWN, EXIT_UNSAT,
                           RunConfig, config_from_args, main, run)
from stringsat.frontend import MAX_NESTING, Problem, render_problem
from stringsat.terms import (FAnd, FIn, SVar, formula_int_vars,
                             formula_len_vars, formula_string_vars)

WORKED = """
(declare-str s)
(assert (= (str.++ "ab" s) (str.++ s "ba")))
(assert (str.in_re s (re.++ (re.* (str.to_re "ab")) (str.to_re "a"))))
(assert (= (mod (str.len s) 2) 0))
"""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAT_ONE = """
(declare-str s)
(assert (= (str.++ "ab" s) (str.++ s "ba")))
"""

SYSTEM = """
(declare-str x)
(declare-str y)
(assert (= (str.++ "a" x) (str.++ x "a")))
(assert (= y (str.++ x "b")))
"""


def _run(tmp_path, text, args=()):
    path = tmp_path / "problem.smt2"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cfg = config_from_args([str(path), *args])
    code = run(cfg, out, err)
    return code, out.getvalue(), err.getvalue()


def test_worked_example_unsat_exit_code(tmp_path):
    code, out, err = _run(tmp_path, WORKED)
    assert code == EXIT_UNSAT
    assert out == "unsat\n"


def test_sat_with_model(tmp_path):
    code, out, err = _run(tmp_path, SAT_ONE, ["--model"])
    assert code == EXIT_SAT
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert '(define s "a")' in lines


def test_missing_file_is_an_error():
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(path="no/such/file.smt2"), out, err)
    assert code == EXIT_ERROR
    assert "error" in err.getvalue()
    assert out.getvalue() == ""


def test_parse_error_reports_position(tmp_path):
    code, out, err = _run(tmp_path, "(assert (= s t))")
    assert code == EXIT_ERROR
    assert "error" in err and ":1:" in err


@pytest.mark.parametrize("term", ["(+)", "(max k)", "(max k j k)",
                                  "(mod k j)", "(mod k 0)"])
def test_bad_arith_term_exits_with_error(tmp_path, term):
    text = f"(declare-int k)(declare-int j)\n(assert (= {term} 1))"
    code, out, err = _run(tmp_path, text)
    assert code == EXIT_ERROR
    assert out == "" and ":2:" in err and "Traceback" not in err


def test_non_utf8_input_exits_with_error(tmp_path):
    path = tmp_path / "problem.smt2"
    path.write_bytes(b"(declare-str s)\n(assert (= s \"a\xff\"))\n")
    out, err = io.StringIO(), io.StringIO()
    code = run(config_from_args([str(path)]), out, err)
    assert code == EXIT_ERROR
    assert out.getvalue() == "" and ":2:16:" in err.getvalue()


def test_budget_zero_unknown(tmp_path):
    code, out, err = _run(tmp_path, WORKED,
                          ["--budget", "0", "--oa", "lengths-only"])
    assert code == EXIT_UNKNOWN
    assert out == "unknown\n"


def test_verdict_on_stdout_diagnostics_on_stderr(tmp_path):
    code, out, err = _run(tmp_path, WORKED, ["--fragment"])
    assert out == "unsat\n"
    assert "fragment: one-cycle" in err


def test_fragment_witness_names_the_input_variables():
    path = os.path.join(ROOT, "problems", "rotate.smt2")
    out, err = io.StringIO(), io.StringIO()
    code = run(config_from_args([path, "--fragment"]), out, err)
    assert (code, out.getvalue()) == (EXIT_UNSAT, "unsat\n")
    assert err.getvalue() == (
        "fragment: one-cycle (non-linear equation: a.b.s = s.b.a;"
        " dependency graph of s has 1 cycle(s))\n")


@pytest.mark.parametrize("argv", [
    [],                                         # no input file
    ["problem.smt2", "--no-such-flag"],         # an unknown flag
    ["problem.smt2", "--budget", "abc"],        # a malformed value
])
def test_usage_error_exits_3(capsys, argv):
    # argparse's own exit code 2 would read as unknown
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: stringsat")


def test_dot_export_written(tmp_path):
    path = tmp_path / "tree.dot"
    code, out, err = _run(tmp_path, WORKED,
                          ["--oa", "lengths-only", "--dot", str(path)])
    dot = path.read_text()
    assert dot.startswith("digraph")
    assert dot.count("->") == 5


def test_oracle_check_agreement(tmp_path):
    code, out, err = _run(tmp_path, WORKED, ["--oracle-check", "6"])
    assert code == EXIT_UNSAT
    assert "consistent with unsat" in err
    code, out, err = _run(tmp_path, SAT_ONE, ["--oracle-check", "4"])
    assert code == EXIT_SAT
    assert "model verified" in err


COMMUTE = """
(declare-str x)
(declare-str y)
(assert (= (str.++ x y) (str.++ y x)))
(assert (= (str.len x) 3))
"""


@pytest.mark.parametrize("text, code", [(COMMUTE, EXIT_UNSAT),
                                        (SAT_ONE, EXIT_SAT)])
def test_negative_oracle_bound_is_an_error(tmp_path, capsys, text, code):
    # rejected before solving, whatever the verdict would have been
    path = tmp_path / "problem.smt2"
    path.write_text(text)
    assert main([str(path), "--oracle-check", "-1"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: oracle-check bound must be non-negative\n"
    assert main([str(path), "--oracle-check", "0"]) == code


UNTOUCHED_MEMBER = """
(declare-str x)
(declare-str y)
(declare-str z)
(assert (= (str.++ x z "aa") (str.++ "ab" x)))
(assert (= (mod (str.len x) 2) 1))
(assert (str.in_re y (re.* (str.to_re "ab"))))
"""


def test_a_member_in_no_equation_does_not_block_back_links(tmp_path):
    # x.z.aa = ab.x with |x| odd is unsat; y occurs in no equation, so a
    # back-link maps it to itself and checks its membership as it stands
    dot = tmp_path / "tree.dot"
    code, out, err = _run(tmp_path, UNTOUCHED_MEMBER,
                          ["--budget", "50", "--oracle-check", "7",
                           "--dot", str(dot)])
    assert (code, out) == (EXIT_UNSAT, "unsat\n"), err
    assert "consistent with unsat" in err
    assert "linked to" in dot.read_text()


def test_reduce_to_single_flag(tmp_path):
    code, out, err = _run(tmp_path, SYSTEM,
                          ["--reduce-to-single", "--oracle-check", "3"])
    assert code == EXIT_SAT


def test_disjunction_splitting(tmp_path):
    text = '(declare-str s)(assert (or (= s "ab") (= (str.++ s "a") "")))'
    code, out, err = _run(tmp_path, text, ["--model"])
    assert code == EXIT_SAT
    assert '(define s "ab")' in out


def test_exit_codes_are_distinct():
    assert len({EXIT_SAT, EXIT_UNSAT, EXIT_UNKNOWN, EXIT_ERROR}) == 4


def test_reduce_to_single_on_one_letter_alphabet_is_an_error(tmp_path):
    text = """
(declare-str x)
(declare-str y)
(declare-chars "a")
(assert (= x y))
(assert (= (str.++ x "a") y))
"""
    code, out, err = _run(tmp_path, text, ["--reduce-to-single"])
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:") and "two characters" in err
    # --fragment reduces before it classifies, and fails the same way
    assert _run(tmp_path, text, ["--reduce-to-single", "--fragment"]) == \
        (code, out, err)


@pytest.mark.parametrize("args, tag", [
    ([], "one-cycle"),                  # x occurs twice in a.x = x.a
    (["--reduce-to-single"], "general"),  # the pairing repeats x more
])
def test_fragment_classifies_the_disjunct_that_is_solved(args, tag):
    path = os.path.join(ROOT, "problems", "system.smt2")
    out, err = io.StringIO(), io.StringIO()
    code = run(config_from_args([path, "--fragment", *args]), out, err)
    assert (code, out.getvalue()) == (EXIT_SAT, "sat\n")
    assert err.getvalue().startswith(f"fragment: {tag} ("), err.getvalue()


def test_unwritable_dot_path_is_an_error(tmp_path):
    path = tmp_path / "missing" / "tree.dot"
    code, out, err = _run(tmp_path, WORKED, ["--dot", str(path)])
    assert code == EXIT_ERROR
    assert out == "unsat\n"  # the verdict was already printed
    assert err.startswith("error:")


def test_long_equation_sides_are_solved(tmp_path):
    # 1201 atoms a side; the length abstraction must not recurse per atom
    text = (f'(declare-str s)(assert (= (str.++ "{"ab" * 600}" s) '
            f'(str.++ s "{"ba" * 600}")))')
    code, out, err = _run(tmp_path, text, ["--model"])
    assert code == EXIT_SAT
    assert '(define s "a")' in out


@pytest.mark.parametrize("prefix,suffix,verdict,code", [
    ("", "", "sat", EXIT_SAT),            # 1000|s| = 2|s|: s is empty
    ('"ab" ', ' "ba"', "unsat", EXIT_UNSAT),  # then "ab" = "ba"
], ids=["empty-word", "constant-clash"])
def test_many_variable_occurrences_are_solved(tmp_path, prefix, suffix,
                                              verdict, code):
    # 1000 occurrences of s on one side: the length sum must stay shallow
    # for every recursive walk over arithmetic
    many = " ".join(["s"] * 1000)
    text = (f"(declare-str s)(assert (= (str.++ {prefix}{many}) "
            f"(str.++ s s{suffix})))")
    got, out, err = _run(tmp_path, text)
    assert (got, out) == (code, verdict + "\n"), err


CYCLE = '(declare-str x)(assert (= (str.++ "a" x) (str.++ x "b")))'


@pytest.mark.parametrize("text,oa", [
    (CYCLE + "(declare-int i)(assert (<= i (str.len x)))", "full"),
    (CYCLE + "(declare-int i)(assert (<= 0 i))(assert (<= i (str.len x)))",
     "full"),
    (CYCLE + "(declare-str z)(assert (<= (str.len z) (str.len x)))", "full"),
    (WORKED + "(declare-int i)(assert (<= i (str.len s)))", "lengths-only"),
], ids=["int-bounded-on-one-side", "int-bounded-on-both-sides",
        "string-only-in-arithmetic", "worked-example-with-an-int"])
def test_a_variable_dead_at_the_root_does_not_block_the_back_link(
        tmp_path, text, oa):
    # the leaf links to the root only once the root's arithmetic is read
    # with i (or |z|) projected out.  No unit equality defines that
    # variable, so projection takes the bound rule (or Fourier-Motzkin);
    # with all of the root's arithmetic the leaf would have to imply
    # i <= |x| in the root's names, and no link would ever close
    dot = tmp_path / "tree.dot"
    code, out, err = _run(tmp_path, text,
                          ["--budget", "200", "--oa", oa, "--dot", str(dot)])
    assert (code, out) == (EXIT_UNSAT, "unsat\n"), err
    assert dot.read_text().count('label="back"') == 1


def test_nested_max_stops_at_the_case_split_cap(tmp_path):
    # the lowering cap decides nothing: the leaf is given up, not an error
    term = "k"
    for _ in range(19):
        term = f"(max 1 {term})"
    text = f"(declare-int k)(assert (<= {term} 5))"
    code, out, err = _run(tmp_path, text)
    assert (code, out, err) == (EXIT_UNKNOWN, "unknown\n", "")


def test_deep_nesting_is_a_positioned_error(tmp_path):
    # the reader keeps its own stack; nesting past what the formula
    # builder can take is refused at the first list too deep
    depth = 3000
    text = ("(declare-str s)\n(assert " + "(and " * depth + '(= s "a")'
            + ")" * depth + ")")
    code, out, err = _run(tmp_path, text)
    assert code == EXIT_ERROR
    col = len("(assert ") + 5 * (MAX_NESTING - 1) + 1
    assert out == "" and f":2:{col}:" in err and "nesting" in err
    assert "Traceback" not in err
    # the deepest nest accepted is solved
    depth = MAX_NESTING - 2
    text = ("(declare-str s)(assert " + "(and " * depth + '(= s "a")'
            + ")" * depth + ")")
    assert _run(tmp_path, text)[:2] == (EXIT_SAT, "sat\n")


STALL = """
(declare-str z)
(declare-str w)
(declare-str u)
(declare-str y)
(declare-str v)
(assert (= (str.++ z w "ba") "aba"))
(assert (= (str.++ u "aba" w) (str.++ "aa" y "a" v)))
(assert (<= (str.len w) 1))
(assert (= (mod (str.len u) 2) 0))
(assert (= (mod (str.len y) 2) 1))
"""


def test_implied_equality_does_not_stall_branch_and_bound(tmp_path):
    # the length abstraction implies an equality that arrives as two
    # opposite inequalities; unless it is found and eliminated, branch
    # and bound climbs unbounded quotient variables for minutes
    start = time.perf_counter()
    code, out, err = _run(tmp_path, STALL, ["--oracle-check", "4"])
    assert time.perf_counter() - start < 5
    assert (code, out) == (EXIT_SAT, "sat\n")
    assert "model verified" in err


def test_many_summands_are_solved(tmp_path):
    # n-ary + folds balanced, so 2,000 summands nest 11 deep
    many = " ".join(["k"] * 2000)
    text = f"(declare-int k)(assert (= (+ {many}) 4000))"
    code, out, err = _run(tmp_path, text, ["--model"])
    assert code == EXIT_SAT, err
    assert "(define k 2)" in out


@pytest.mark.parametrize("op,part", [
    ("re.++", '(re.* (str.to_re "ab"))'),
    ("re.union", '(str.to_re "aba")'),
    ("re.inter", '(re.++ (re.* (str.to_re "ab")) (str.to_re "a"))'),
])
def test_many_regex_operands_are_solved(tmp_path, op, part):
    # n-ary regex operators fold balanced; each form below denotes a
    # language holding "aba" once the last operand is (ab)*.a
    last = '(re.++ (re.* (str.to_re "ab")) (str.to_re "a"))'
    regex = f"({op} {' '.join([part] * 1999)} {last})"
    text = (f"(declare-str s)(assert (str.in_re s {regex}))"
            "(assert (= (str.len s) 3))")
    code, out, err = _run(tmp_path, text, ["--model"])
    assert code == EXIT_SAT, err
    assert '(define s "aba")' in out


def test_long_regex_concatenation_is_solved_quickly(tmp_path):
    # 2,000 one-letter operands make a chain automaton, which partition
    # refinement by rounds minimizes in quadratic time
    regex = "(re.++ " + " ".join(['(str.to_re "a")'] * 2000) + ")"
    start = time.perf_counter()
    code, out, err = _run(tmp_path, f"(declare-str s)(assert (str.in_re s "
                          f"{regex}))", ["--model"])
    assert time.perf_counter() - start < 5
    assert code == EXIT_SAT, err
    assert f'(define s "{"a" * 2000}")' in out


CAPPED = """
(declare-str x)
(declare-str y)
(declare-str z)
(assert (= (str.++ x y z) (str.++ z y x)))
(assert (= (str.len x) (+ (str.len z) 1)))
(assert (str.in_re x (re.* (str.to_re "ab"))))
"""


def test_membership_state_space_cap_answers_unknown(tmp_path, monkeypatch):
    # base leaves whose boundary search tries more targets than the UA cap
    # allows are given up: the search goes on, and the answer is unknown,
    # not an error
    monkeypatch.setattr(engine, "_UA_COMBO_CAP", 1)
    dot = tmp_path / "tree.dot"
    code, out, err = _run(tmp_path, CAPPED,
                          ["--budget", "20", "--dot", str(dot)])
    assert (code, out) == (EXIT_UNKNOWN, "unknown\n"), err
    assert "gave up: membership state space over _UA_COMBO_CAP" \
        in dot.read_text()


@pytest.mark.parametrize("text", [
    '(declare-str x)(declare-chars "a")'
    '(assert (= (str.len x) 1000000000000))',
    '(declare-str x)(assert (str.in_re x (re.* (str.to_re "ab"))))'
    '(assert (= (str.len x) 100000000))'])
def test_huge_model_words_answer_unknown(tmp_path, text):
    # a model whose word would pass the cap is given up before it is
    # built: no memory error, no endless witness search
    dot = tmp_path / "tree.dot"
    start = time.perf_counter()
    code, out, err = _run(tmp_path, text, ["--dot", str(dot)])
    assert time.perf_counter() - start < 5
    assert (code, out) == (EXIT_UNKNOWN, "unknown\n"), err
    assert "over _MODEL_WORD_CAP = 10000" in dot.read_text()


def test_unfolding_rebuilds_only_the_memberships_it_rewrites(tmp_path,
                                                            monkeypatch):
    # nothing resolves a membership through the subterms: each unfolding
    # substitutes the defined predicate into the terms that contain it,
    # and a child shares every other membership with its parent; the
    # definition it appends is the word it substitutes, and only a word
    # ending in the fresh rest pairs that rest with its length
    real = engine._define
    seen = {"shared": 0, "rewritten": 0, "rest": 0, "no rest": 0}

    def checking(f, p, rhs, atoms):
        child = real(f, p, rhs, atoms)
        for old, new in zip(f.memberships, child.memberships):
            if p in old.term:
                assert new.term == terms.term_subst(old.term, p, rhs)
                seen["rewritten"] += 1
            else:
                assert new is old
                seen["shared"] += 1
        named = tuple(SVar(a.var) if isinstance(a, terms.SPred) else a
                      for a in rhs)
        assert child.subterms == f.subterms + (terms.Define(p.var, named),)
        fresh = engine._fresh(f)
        rest = rhs[-1:] == (fresh,)
        assert child.next_index == f.next_index + rest
        assert ((fresh.var, fresh.length) in child.lengths) == rest
        assert (fresh.var, fresh.length) not in f.lengths
        seen["rest" if rest else "no rest"] += 1
        return child

    monkeypatch.setattr(engine, "_define", checking)
    code, out, err = _run(tmp_path, CAPPED, ["--budget", "100"])
    assert (code, out) == (EXIT_UNKNOWN, "unknown\n"), err
    assert seen["rewritten"] > 100 and seen["shared"] > 0, seen
    assert seen["rest"] > 0 and seen["no rest"] > 0, seen


def test_unfolding_keeps_the_root_length_components_of_every_membership(
        tmp_path, monkeypatch):
    # a membership's length-abstraction components are built once, at the
    # root: a child reads its parent's object for every membership, and a
    # rewritten term keeps the old term's length under the child's
    # arithmetic, so the components still place the right length
    real, seen = engine._define, {"shared": 0, "rewritten": 0}

    def checking(f, p, rhs, atoms):
        child = real(f, p, rhs, atoms)
        for old, new in zip(f.memberships, child.memberships):
            assert new.components is old.components
            if p in old.term:
                assert arith.arith_implies(child.arith, [terms.atom_eq(
                    terms.length_expr(new.term),
                    terms.length_expr(old.term))])
                seen["rewritten"] += 1
            else:
                seen["shared"] += 1
        return child

    monkeypatch.setattr(engine, "_define", checking)
    code, out, err = _run(tmp_path, CAPPED, ["--budget", "100"])
    assert (code, out) == (EXIT_UNKNOWN, "unknown\n"), err
    assert seen["rewritten"] > 100 and seen["shared"] > 0, seen


# --- fixed-seed fuzz: every input ends in a documented exit code -----------

def _problem_text(conjs) -> str:
    f = FAnd(tuple(conjs))
    strs = sorted(formula_string_vars(f) | formula_len_vars(f))
    return render_problem(Problem(tuple(strs),
                                  tuple(sorted(formula_int_vars(f))), (),
                                  tuple(conjs)))


def _fuzz_inputs(rng: random.Random):
    good = [_problem_text(c) for c in draw_one_cycle(rng, 30)]
    for conjs in draw_acyclic(rng, 20):
        names = sorted(formula_string_vars(FAnd(tuple(conjs))))
        if names:
            conjs = conjs + [FIn((SVar(rng.choice(names)),),
                                 rand_regex(rng, "ab", 3))]
        good.append(_problem_text(conjs))
    yield from good
    operators = ["str.++", "re.++", "re.union", "re.inter", "+", "and",
                 "or", "not", "re.*", "re.comp", "str.len", "mod", "max"]
    for _ in range(150):
        text = rng.choice(good)
        kind = rng.randrange(6)
        if kind == 0:  # truncated
            yield text[:rng.randrange(len(text))]
        elif kind == 1:  # one parenthesis too few or too many
            i = rng.randrange(len(text))
            yield text[:i] + rng.choice("()") + text[i + 1:]
        elif kind == 2:  # deep parentheses around an assertion
            depth = rng.choice([99, 150])
            yield text + "(assert " + "(and " * depth + "true" \
                + ")" * depth + ")"
        elif kind == 3:  # an unknown or misused operator
            bad = rng.choice(["str.replace", "re.opt", "frob", "*", "-"])
            yield text.replace(rng.choice(operators), bad, 1)
        elif kind == 4:  # a 2,000-argument term
            op, arg = rng.choice([("+", "(str.len s)"), ("and", "true"),
                                  ("re.union", '(str.to_re "ab")'),
                                  ("str.++", '"a"')])
            many = " ".join([arg] * 2000)
            if op == "+":
                yield text + f"(assert (<= ({op} {many}) 3))"
            elif op == "and":
                yield text + f"(assert ({op} {many}))"
            elif op == "re.union":
                yield text + f"(assert (str.in_re s ({op} {many})))"
            else:
                yield text + f"(assert (= s ({op} {many})))"
        else:  # random bytes spliced in
            i = rng.randrange(len(text))
            junk = "".join(rng.choice('()" ab1-+=\\') for _ in range(5))
            yield text[:i] + junk + text[i:]


def test_fuzzed_inputs_end_in_a_documented_exit_code(tmp_path):
    start = time.perf_counter()
    rng = random.Random(61)
    seen = set()
    for text in _fuzz_inputs(rng):
        budget = rng.choice(["0", "5", "50"])
        code, out, err = _run(tmp_path, text, ["--budget", budget])
        assert code in (EXIT_SAT, EXIT_UNSAT, EXIT_UNKNOWN, EXIT_ERROR), text
        if code == EXIT_UNSAT:
            assert out == "unsat\n", text
        assert "Traceback" not in err, text
        seen.add(code)
    assert seen == {EXIT_SAT, EXIT_UNSAT, EXIT_UNKNOWN, EXIT_ERROR}, seen
    assert time.perf_counter() - start < 20
