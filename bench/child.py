"""One measured pass: a fresh process that solves a whole corpus.

Reads a job from stdin as JSON::

    {"src": "<dir holding stringsat>", "budget": 10, "trace": false,
     "spans_path": null, "problems": [["<id>", "<SMT text>"], ...]}

imports ``stringsat`` (timed: that is the set-up cost), then solves each
problem the way ``cli.solve_problem`` does: ``frontend.parse_problem``,
``Problem.disjuncts()`` and ``engine.solve_conjunction`` per disjunct,
where ``sat`` wins and ``unknown`` taints ``unsat``.  One problem at a
time, on one thread, each within PROBLEM_LIMIT_S.  The regex cache starts
cold in the process and warms across the corpus, as it would for a batch
user.

The machine this runs on is shared, and its speed drifts by a fifth
within a minute.  So the pass also times a fixed calibration unit, plain
Python work that does not touch the solver: five units right after the
import, and one more after every CAL_EVERY_S of solving (outside the
solve times).  The parent scales the pass's times by the units' speed.

Writes one JSON object to stdout: set-up time, every calibration unit's
time and their mean after the import and over the whole pass, peak
resident memory, and per problem the verdict (or the exception), the
solve time in milliseconds, the number of units timed before it ended,
the model of a ``sat`` answer, unfoldings, tree nodes and tree depth.
With ``trace`` it also carries the per-layer summary and writes every
span to ``spans_path``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

CAL_EVERY_S = 0.02
CAL_AT_START = 5
# Wall-clock limit per problem.  Every problem of the corpora ends within
# a second, except those that send branch and bound after its node cap
# (minutes); those count as failed instead of stalling the run.
PROBLEM_LIMIT_S = 5.0


class ProblemTimeout(BaseException):
    """Raised inside the solver when a problem outruns PROBLEM_LIMIT_S.
    A BaseException, so that no handler in the solver can swallow it."""


def _on_alarm(signum, frame):
    raise ProblemTimeout()


def calibration_unit() -> float:
    """Seconds taken by a fixed piece of interpreter work: tuples, a dict,
    strings and integer arithmetic.  The collector is off meanwhile, so
    the solver's heap cannot slow it down."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    d: dict = {}
    acc = 0
    for i in range(2000):
        t = (i, i * 7 % 13, str(i))
        d[t] = d.get(t[1], 0) + i
        acc += (i * 2654435761) % 1000003
        if i % 3 == 0:
            acc ^= len(d)
    dt = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return dt


def _solve(engine, frontend, text: str, budget: int) -> dict:
    t0 = time.perf_counter()
    trees = []
    model = None
    unfoldings = 0
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
    try:
        try:
            problem = frontend.parse_problem(text)
            sigma = problem.alphabet()
            verdict = "unsat"
            for disjunct in problem.disjuncts():
                ans = engine.solve_conjunction(disjunct, sigma, budget=budget)
                trees.append(ans.tree)
                unfoldings += ans.unfoldings
                if ans.verdict == "sat":
                    verdict, model = "sat", ans.model
                    break
                if ans.verdict == "unknown":
                    verdict = "unknown"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except ProblemTimeout:
        verdict, error = "timeout", f"no verdict within {PROBLEM_LIMIT_S:g} s"
        model = None
    except Exception as e:  # noqa: BLE001 - every exception is a failure
        verdict, error = "error", f"{type(e).__name__}: {e}"
        model = None
    ms = (time.perf_counter() - t0) * 1e3
    row = {"verdict": verdict, "ms": ms, "unfoldings": unfoldings,
           "nodes": sum(len(t.nodes) for t in trees),
           "depth": max((n.depth for t in trees for n in t.nodes),
                        default=0)}
    if error is not None:
        row["error"] = error
    if model is not None:
        row["model"] = [model.string_map(), model.int_map()]
    return row


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import stringsat
    setup_s = time.perf_counter() - t0
    from stringsat import engine, frontend

    where = os.path.abspath(stringsat.__file__)
    if not where.startswith(src + os.sep):
        print(f"stringsat imported from {where}, not from {src}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(stringsat)

    units = [calibration_unit() for _ in range(CAL_AT_START)]
    cal_start_s = sum(units) / len(units)
    results = []
    since = 0.0
    for i, (_, text) in enumerate(job["problems"]):
        if tracer is not None:
            tracer.problem_id = i
        row = _solve(engine, frontend, text, job["budget"])
        row["cal_ix"] = len(units)
        results.append(row)
        since += row["ms"] / 1e3
        while since >= CAL_EVERY_S:
            since -= CAL_EVERY_S
            units.append(calibration_unit())

    out = {"setup_s": setup_s,
           "cal_start_s": cal_start_s,
           "cal_pass_s": sum(units) / len(units),
           "units": units,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "results": results}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        if job.get("spans_path"):
            out["spans"] = tracer.write(job["spans_path"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
