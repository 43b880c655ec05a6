"""String-constraint solver for word equations, regular membership and
length arithmetic, built on unfolding trees with cyclic back-links."""

from .classify import Fragment, FragmentTag, classify_fragment
from .engine import (Answer, solve_conjunction, unfold, init_normalize,
                     over_approx, under_approx_check, export_tree)
from .frontend import Problem, parse_problem, render_answer, render_problem
from .oracle import Bound, brute_force_solve, eval_formula
from .terms import Model, NormalizedFormula

__all__ = [
    "Answer", "Bound", "Fragment", "FragmentTag", "Model",
    "NormalizedFormula", "Problem", "brute_force_solve", "classify_fragment",
    "eval_formula", "export_tree", "init_normalize",
    "over_approx", "parse_problem", "render_answer", "render_problem",
    "solve_conjunction", "under_approx_check", "unfold",
]

__version__ = "0.1.0"
