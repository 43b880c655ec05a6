"""Record the reference verdicts the benchmark checks for flips.

Usage (from the repository root)::

    python3 bench/record.py

Solves the corpus of every workload at both recorded seeds (see
``workloads.json``) in one untraced pass each, checks every answer the way
the benchmark does, and writes ``reference/verdicts.json``: the verdict of
each problem, keyed by a hash of its text.  Answers the checker finds
wrong are left out and listed on stdout, so that a later fix is not
reported as a flip.  Re-record only when the generators change.
"""

from __future__ import annotations

import json
import sys

import check
import gen
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    seeds = run.CONFIG["seeds"]
    verdicts = {}
    for workload, cfg in sorted(run.WORKLOADS.items()):
        for label, seed in sorted(seeds.items()):
            corpus = gen.corpus(workload, seed)
            rows = run.run_pass(corpus, cfg["budget"], trace=False)["results"]
            wrong = dict(check.check_all(corpus, rows, recorded={}))
            for (pid, text), row in zip(corpus, rows):
                if pid in wrong:
                    print(f"{workload} seed {seed}: left out {pid}: "
                          f"{wrong[pid]}")
                else:
                    verdicts[check.text_key(text)] = row["verdict"]
            print(f"{workload} seed {seed} ({label}): {len(corpus)} "
                  f"problems, {len(wrong)} wrong answers")
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(verdicts.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
