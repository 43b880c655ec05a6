"""Answer checking that does not trust the solver.

Runs in the benchmark's parent process, after the timed passes, so none of
it is timed and none of it warms the measured process's caches.

* A ``sat`` answer's model (declared variables the model leaves out
  default to "" and 0, as in ``cli.solve_problem``) must satisfy the
  problem under ``oracle.eval_formula``.
* An ``unsat`` answer must survive ``oracle.brute_force_solve`` up to a
  word length chosen per problem so that the search stays small.
* Problems whose verdict was recorded (``reference/verdicts.json``, keyed
  by a hash of the problem text) must not flip between ``sat`` and
  ``unsat``.

Every wrong answer counts as a failed problem.  Only a flip makes the
run's result incorrect: the reference holds the verdicts of the recorded
seeds' corpora that the checks confirmed, so a flip is a regression, while
an answer the oracle refutes may be a defect the solver already had.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "verdicts.json")

# Largest number of word tuples the brute-force search may enumerate for
# one problem (before its length-profile pruning).
ORACLE_TUPLES = 2000
ORACLE_MAX_LEN = 6


def text_key(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def load_recorded() -> Dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def oracle_bound(n_vars: int, n_chars: int) -> int:
    """Largest word length L such that all tuples of words of length at
    most L over the alphabet number at most ORACLE_TUPLES."""
    best = 0
    for length in range(1, ORACLE_MAX_LEN + 1):
        words = sum(n_chars ** k for k in range(length + 1))
        if words ** n_vars > ORACLE_TUPLES:
            break
        best = length
    return best


FLIP = "verdict flipped"


def check_answer(text: str, row: dict,
                 recorded: Dict[str, str]) -> Optional[str]:
    """None when the answer holds up, else why it is wrong (starting with
    FLIP for a flip against the recorded verdict)."""
    from stringsat import frontend, oracle
    from stringsat.terms import Model, formula_string_vars

    verdict = row["verdict"]
    if verdict not in ("sat", "unsat"):
        return None
    was = recorded.get(text_key(text))
    if was in ("sat", "unsat") and was != verdict:
        return f"{FLIP}: recorded {was}, now {verdict}"
    problem = frontend.parse_problem(text)
    sigma = problem.alphabet()
    formula = problem.formula()
    if verdict == "sat":
        strings, ints = row["model"]
        for v in problem.str_vars:
            strings.setdefault(v, "")
        for v in problem.int_vars:
            ints.setdefault(v, 0)
        try:
            ok = oracle.eval_formula(formula, Model.make(strings, ints),
                                     sigma)
        except oracle.UnassignedVariableError as e:
            return f"sat model leaves {e} unassigned"
        return None if ok else "sat model fails evaluation"
    n_vars = len(formula_string_vars(formula))
    bound = oracle_bound(n_vars, len(sigma))
    found = oracle.brute_force_solve(formula, sigma,
                                     oracle.Bound(bound, bound))
    if found is not None:
        return (f"unsat, but the oracle found {dict(found.strings)} "
                f"(word length <= {bound})")
    return None


def check_all(corpus: List[Tuple[str, str]], rows: List[dict],
              recorded: Optional[Dict[str, str]] = None
              ) -> List[Tuple[str, str]]:
    """(problem id, reason) for every wrong answer; ``recorded`` defaults
    to the checked-in reference verdicts."""
    if recorded is None:
        recorded = load_recorded()
    wrong = []
    for (pid, text), row in zip(corpus, rows):
        why = check_answer(text, row, recorded)
        if why is not None:
            wrong.append((pid, why))
    return wrong
