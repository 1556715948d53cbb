"""The scope family's scaling table, as ROADMAP.md quotes it.

    python3 tests/scaling.py [N] [--repeat R]

prints one row for each k = 0..N (default 4): *Bill seeks every
conversation with ... every unicorn* with k nested quantified obliques,
solved by R `readings_for_document` calls (default 1) in this process
under the default search budget.  The columns are the readings found
(Catalan(k + 2) when the search completes), the search steps, steps per
reading, the head rejects, the meaning equations solved, all the same on
every call, and the median wall time of the calls.
Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gluesem.glue import load_lexicon  # noqa: E402
from gluesem.prover import SearchBudget, readings_for_document  # noqa: E402

from helpers import scope_doc  # noqa: E402

HEADER = "| k | readings | steps | steps / reading | head rejects | equations | wall |"


def _n(x: int) -> str:
    return f"{x:,}".replace(",", " ")


def row(k: int, lexicon, budget: SearchBudget = SearchBudget(), repeat: int = 1) -> str:
    doc = scope_doc(["every"] * (k + 1))
    walls, works = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result, _ = readings_for_document(doc, lexicon, budget=budget)
        walls.append(time.perf_counter() - t0)
        works.append((result.stats, len(result.readings)))
    assert all(w == works[0] for w in works), f"the work differs between calls at k={k}"
    wall = statistics.median(walls)
    s, found = result.stats, len(result.readings)
    want = math.comb(2 * (k + 2), k + 2) // (k + 3)
    if s.limit:
        readings, steps, per = f"{_n(found)} of {_n(want)}", f"{_n(s.steps)}, {s.limit} hit", "—"
    else:
        readings, steps, per = _n(found), _n(s.steps), f"{s.steps / found:.3g}"
    return (f"| {k} | {readings} | {steps} | {per} | {_n(s.head_rejects)} "
            f"| {_n(s.equations)} | {wall:.2g} s |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The scope family's scaling table.")
    parser.add_argument("N", type=int, nargs="?", default=4, help="the largest k")
    parser.add_argument("--repeat", type=int, default=1, metavar="R",
                        help="calls per row; the wall is their median")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    lexicon = load_lexicon(str(ROOT / "corpus" / "lexicon.glue"))
    print(HEADER)
    print("|" + "---|" * 7)
    for k in range(args.N + 1):
        print(row(k, lexicon, repeat=args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
