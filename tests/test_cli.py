import io

import pytest

from stringsat.cli import (EXIT_ERROR, EXIT_SAT, EXIT_UNKNOWN, EXIT_UNSAT,
                           RunConfig, config_from_args, run)

WORKED = """
(declare-str s)
(assert (= (str.++ "ab" s) (str.++ s "ba")))
(assert (str.in_re s (re.++ (re.* (str.to_re "ab")) (str.to_re "a"))))
(assert (= (mod (str.len s) 2) 0))
"""

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


def test_nested_max_stops_at_the_case_split_cap(tmp_path):
    term = "k"
    for _ in range(19):
        term = f"(max 1 {term})"
    text = f"(declare-int k)(assert (<= {term} 5))"
    code, out, err = _run(tmp_path, text)
    assert code == EXIT_ERROR
    assert "case split explosion" in err
