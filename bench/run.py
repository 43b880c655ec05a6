"""stringsat benchmark: time to verdict and decided share on seeded corpora.

Usage (from the repository root)::

    python3 bench/run.py --workload fragments --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The seed makes the corpus (``gen.py``); the solver sees only the generated
problem text.  Closed loop, one caller: each pass is a fresh process
(``child.py``) that imports ``stringsat`` from ``src/`` and solves the
whole corpus, one problem at a time on one thread.  Passes repeat, one
after another, until ``--seconds`` have been spent (at least
``MIN_PASSES``); every figure is the median over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` mixes
untraced and traced passes and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count one pass over the corpus (every pass must agree); ``failed``
counts exceptions and wrong answers (see ``check.py``), and ``correct`` is
false when a verdict flips between sat and unsat against the recorded
reference.

The run fails (exit code 1, no result line) when passes disagree on a
verdict or a count, when the traced verdicts differ from the untraced
ones, or when a traced boundary the workload is expected to reach never
fires.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import check
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".bench_trace")

MIN_PASSES = 2
# Import-only passes at the start of a run, so that set-up time is a
# median over several imports even when the corpus passes are few.
SETUP_PROBES = 5
# Times are reported at the speed where one calibration unit
# (child.calibration_unit) takes this long: each pass's times are scaled
# by NOMINAL_UNIT_S / (the pass's mean unit time), which takes out most of
# the shared machine's drift.  Raw times are printed alongside.
NOMINAL_UNIT_S = 1e-3
# A problem's time is scaled by the mean of the units timed nearest to it:
# this many on each side.
CAL_WINDOW = 3
# A pass that runs this long means something is broken; the whole run
# must stay well inside three minutes.
PASS_TIMEOUT_S = 100.0

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
WORKLOADS: Dict[str, dict] = CONFIG["workloads"]

Metrics = Dict[str, Tuple[float, str]]


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(corpus: gen.Corpus, budget: int, trace: bool,
             spans_path: Optional[str] = None) -> dict:
    job = {"src": SRC, "budget": budget, "trace": trace,
           "spans_path": spans_path, "problems": corpus}
    # a fixed hash seed keeps set iteration, and so the search, the same
    # in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, CHILD], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran longer than {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"a pass exited with code {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_passes(corpus: gen.Corpus, budget: int, seconds: float,
               trace: bool, spans_path: str
               ) -> Tuple[List[dict], List[dict], List[dict]]:
    """Import-only probes, then passes until ``seconds`` would be overrun
    by one more.  Untraced only, at least MIN_PASSES of them; or, with
    ``trace``, untraced, traced, traced, then alternating, at least those
    three (two traced passes, so that their counts can be compared)."""
    plain: List[dict] = []
    traced: List[dict] = []
    t0 = time.monotonic()
    probes = [run_pass([], budget, trace=False) for _ in range(SETUP_PROBES)]
    minimum = 3 if trace else MIN_PASSES
    schedule = (itertools.chain("ptt", itertools.cycle("pt")) if trace
                else itertools.repeat("p"))
    for n, kind in enumerate(schedule):
        p0 = time.monotonic()
        if kind == "t":
            traced.append(run_pass(corpus, budget, trace=True,
                                   spans_path=None if traced else spans_path))
        else:
            plain.append(run_pass(corpus, budget, trace=False))
        now = time.monotonic()
        if n + 1 >= minimum and now + (now - p0) > t0 + seconds:
            return probes, plain, traced


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

_FIXED = ("verdict", "error", "unfoldings", "nodes", "depth")


def check_repeatable(corpus: gen.Corpus, passes: List[dict]) -> None:
    """Every pass gives every problem the same verdict, exception and
    search counts; traced passes make the same calls at every boundary."""
    first = passes[0]["results"]
    for p in passes[1:]:
        for (pid, _), a, b in zip(corpus, first, p["results"]):
            for key in _FIXED:
                if a.get(key) != b.get(key):
                    raise BenchError(f"{pid}: {key} differs between passes: "
                                     f"{a.get(key)!r} vs {b.get(key)!r}")
    layered = [p["layers"] for p in passes if "layers" in p]
    for other in layered[1:]:
        for name in tracing.NAMES:
            if layered[0][name]["calls"] != other[name]["calls"]:
                raise BenchError(f"{name}: calls differ between traced "
                                 "passes")


def check_boundaries_fire(workload: str, layers: dict) -> None:
    quiet = set(WORKLOADS[workload]["may_not_fire"])
    silent = [n for n in tracing.NAMES
              if layers[n]["calls"] == 0 and n not in quiet]
    if silent:
        raise BenchError("traced boundaries never fired on "
                         f"{workload}: {', '.join(silent)}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _p90(xs: List[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scale(p: dict, key: str = "cal_pass_s") -> float:
    """Factor from the pass's measured times to reference speed."""
    return NOMINAL_UNIT_S / p[key]


def _solve_ms(p: dict, scaled: bool) -> List[float]:
    """Solve times of the problems that ended within the time limit, each
    scaled by the calibration units timed around it (the machine's speed
    drifts within a pass, too)."""
    units = p["units"]
    out = []
    for r in p["results"]:
        if r["verdict"] == "timeout":
            continue
        if scaled:
            ix = r["cal_ix"]
            near = units[max(0, ix - CAL_WINDOW):ix + CAL_WINDOW]
            out.append(r["ms"] * NOMINAL_UNIT_S * len(near) / sum(near))
        else:
            out.append(r["ms"])
    return out


def timings(probes: List[dict], passes: List[dict], scaled: bool = True
            ) -> Metrics:
    """Medians over passes of set-up time, per-problem p50 and p90 and
    problems per second of solving."""
    med = statistics.median
    per_pass = [_solve_ms(p, scaled) for p in passes]
    setups = [p["setup_s"] * (_scale(p, "cal_start_s") if scaled else 1.0)
              for p in probes + passes]
    return {
        "setup_s": (med(setups), "s"),
        "solve_ms.p50": (med(statistics.median(ms) for ms in per_pass), "ms"),
        "solve_ms.p90": (med(_p90(ms) for ms in per_pass), "ms"),
        "throughput_pps": (med(len(ms) / (sum(ms) / 1e3) for ms in per_pass),
                           "1/s"),
    }


def end_to_end(probes: List[dict], passes: List[dict], n_failed: int
               ) -> Metrics:
    rows = passes[0]["results"]
    n = len(rows)
    decided = sum(r["verdict"] in ("sat", "unsat") for r in rows)
    out = timings(probes, passes)
    out["decided_ratio"] = (decided / n, "ratio")
    out["ok_ratio"] = ((n - n_failed) / n, "ratio")
    out["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in passes),
                          "MiB")
    return out


# Counters the wrappers keep (tracing.BOUNDARIES), reported as they are:
# (metric, boundary, counter).
_COUNTS = [
    ("frontend.disjuncts.out", "frontend.disjuncts", "out"),
    ("engine.unfold.children", "engine.unfold", "children"),
    ("engine.under_approx_check.errors", "engine.under_approx_check",
     "errors"),
    ("arith.lower.errors", "arith.lower", "errors"),
]
# ... and per call of their boundary: (metric, boundary, counter, unit).
_PER_CALL = [
    ("engine.under_approx_check.decided_ratio", "engine.under_approx_check",
     "decided", "ratio"),
    ("engine.oa_unsat.prune_ratio", "engine.oa_unsat", "pruned", "ratio"),
    ("engine.over_approx.disjuncts_per_call", "engine.over_approx",
     "disjuncts", "count/call"),
    ("engine.link_back.hit_ratio", "engine.link_back", "hits", "ratio"),
    ("arith.arith_sat.sat_ratio", "arith.arith_sat", "sat", "ratio"),
    ("arith.arith_sat.atoms_per_call", "arith.arith_sat", "atoms",
     "count/call"),
    ("arith.quick_unsat.unsat_ratio", "arith.quick_unsat", "unsat", "ratio"),
    ("arith.lower.systems_per_call", "arith.lower", "systems", "count/call"),
    ("arith.solve_system.sat_ratio", "arith.solve_system", "sat", "ratio"),
]


def per_layer(plain: List[dict], traced: List[dict]) -> Metrics:
    """Calls and counters of the first traced pass (every traced pass
    makes the same), self times as medians over traced passes, search
    counts from the answers, and the tracing overhead."""
    layers = traced[0]["layers"]

    def calls(name: str) -> int:
        return layers[name]["calls"]

    out: Metrics = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = (calls(name), "count")
        if name != "regexes.compiled":  # a dictionary lookup
            out[f"{name}.self_s"] = (statistics.median(
                p["layers"][name]["self_s"] * _scale(p) for p in traced),
                "s")
    for metric, name, key in _COUNTS:
        out[metric] = (layers[name].get(key, 0), "count")
    for metric, name, key, unit in _PER_CALL:
        out[metric] = (_ratio(layers[name].get(key, 0), calls(name)), unit)
    out["arith.sat_per_implies"] = (
        _ratio(layers["arith.arith_sat"]["in_implies"],
               calls("arith.arith_implies")), "count/call")
    out["regexes.cache_hit_ratio"] = (
        1.0 - _ratio(calls("regexes.compile_regex"),
                     calls("regexes.compiled")), "ratio")

    rows = plain[0]["results"]
    out["engine.nodes"] = (sum(r["nodes"] for r in rows), "count")
    out["engine.unfoldings"] = (sum(r["unfoldings"] for r in rows), "count")
    out["engine.max_depth"] = (max(r["depth"] for r in rows), "count")

    def wall(p: dict) -> float:
        return sum(_solve_ms(p, scaled=True))

    out["trace.overhead_ratio"] = (
        statistics.median(wall(p) for p in traced)
        / statistics.median(wall(p) for p in plain), "ratio")
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> Tuple[dict, Metrics]:
    cfg = WORKLOADS[workload]
    corpus = gen.corpus(workload, seed)
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.tsv.gz")
    t0 = time.monotonic()
    probes, plain, traced = run_passes(corpus, cfg["budget"], seconds,
                                       trace, spans_path)
    t1 = time.monotonic()
    check_repeatable(corpus, plain + traced)
    rows = plain[0]["results"]
    if traced:
        check_boundaries_fire(workload, traced[0]["layers"])

    errors = [(pid, r["error"]) for (pid, _), r in zip(corpus, rows)
              if "error" in r]
    wrong = check.check_all(corpus, rows)
    t2 = time.monotonic()
    n = len(corpus)
    n_failed = len(errors) + len(wrong)
    e2e = end_to_end(probes, plain, n_failed)
    raw = timings(probes, plain, scaled=False)
    metrics = per_layer(plain, traced) if trace else e2e

    print(f"workload {workload}: seed {seed}, budget {cfg['budget']} "
          f"unfoldings, {n} problems per pass, {len(plain)} untraced and "
          f"{len(traced)} traced passes ({t1 - t0:.1f} s), answers checked "
          f"in {t2 - t1:.1f} s")
    speed = [NOMINAL_UNIT_S / p["cal_pass_s"] for p in plain]
    print(f"  times at reference speed; this machine ran at "
          f"{min(speed):.3f}..{max(speed):.3f} of it over the passes")
    for name, (value, unit) in sorted(e2e.items()):
        extra = f"   (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{extra}")
    print(f"  {'failed_ratio':<28} {n_failed / n:>14.6g} ratio "
          f"({len(errors)} exceptions or timeouts, {len(wrong)} wrong "
          "answers)")
    if trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<46} {value:>14.6g} {unit}")
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    for pid, why in errors:
        print(f"  failed on {pid}: {why}")
    for pid, why in wrong:
        print(f"  WRONG ANSWER on {pid}: {why}")

    flipped = any(why.startswith(check.FLIP) for _, why in wrong)
    result = {"correct": not flipped, "attempted": n, "failed": n_failed}
    return result, metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stringsat", "__init__.py")):
        print(f"error: no stringsat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0}
    metrics: Metrics = {}
    try:
        for w in names:
            result, m = run_workload(w, args.seed, args.seconds,
                                     bool(args.trace))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = f"{w}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    total["metrics"] = {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
