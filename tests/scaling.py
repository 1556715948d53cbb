"""The scope family's scaling table, as ROADMAP.md quotes it.

    python3 tests/scaling.py [N] [--repeat R] [--profile]

prints one row for each k = 0..N (default 4): *Bill seeks every
conversation with ... every unicorn* with k nested quantified obliques,
solved by R `readings_for_document` calls (default 1) in this process
under the default search budget.  The columns are the readings found
(Catalan(k + 2) when the search completes), the search steps, steps per
reading, the head rejects, the meaning equations solved, the derivation
nodes the search made, all the same on every call, and the median wall time
of the calls.

With `--profile`, the R calls at k = N alone run under `cProfile`, and the
table is ROADMAP.md's "Where a call's time goes": each part's cumulative
share of the profiled time, and the self time of the search's own frames.
Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import cProfile
import math
import pstats
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gluesem import prover, terms, unify  # noqa: E402
from gluesem.glue import load_lexicon  # noqa: E402
from gluesem.prover import Prover, SearchBudget, readings_for_document  # noqa: E402

from helpers import scope_doc  # noqa: E402

HEADER = "| k | readings | steps | steps / reading | head rejects | equations | nodes | wall |"


def _n(x: int) -> str:
    return f"{x:,}".replace(",", " ")


class _Kept(Prover):
    """A prover that keeps itself, so that `row` can count its nodes."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        _Kept.last = self


def row(k: int, lexicon, budget: SearchBudget = SearchBudget(), repeat: int = 1) -> str:
    doc = scope_doc(["every"] * (k + 1))
    walls, works = [], []
    prover.Prover = _Kept
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            result, _ = readings_for_document(doc, lexicon, budget=budget)
            walls.append(time.perf_counter() - t0)
            works.append((result.stats, len(result.readings), len(_Kept.last._nodes)))
    finally:
        prover.Prover = Prover
    assert all(w == works[0] for w in works), f"the work differs between calls at k={k}"
    wall = statistics.median(walls)
    s, found = result.stats, len(result.readings)
    want = math.comb(2 * (k + 2), k + 2) // (k + 3)
    if s.limit:
        readings, steps, per = f"{_n(found)} of {_n(want)}", f"{_n(s.steps)}, {s.limit} hit", "—"
    else:
        readings, steps, per = _n(found), _n(s.steps), f"{s.steps / found:.3g}"
    return (f"| {k} | {readings} | {steps} | {per} | {_n(s.head_rejects)} "
            f"| {_n(s.equations)} | {_n(works[0][2])} | {wall:.2g} s |")


# The parts of a call that ROADMAP.md's profile table names: cumulative time
# of each function, then self time summed over the search's own frames.
PARTS = [
    ("meaning equations (`_solve_meanings`)", [prover._solve_meanings]),
    ("… of which `unify.solve`", [unify.solve]),
    ("… of which `terms.abstract`", [terms.abstract]),
    ("… of which the Focus memo's `_recall`", [Prover._recall]),
    ("printing readings (`print_term`)", [terms.print_term]),
    ("`check_linearity`", [prover.check_linearity]),
    ("`_table_key`", [Prover._table_key]),
    ("`Prover._node`", [Prover._node]),
]
SELF = ("self time of `prove`, `_focuses`, `_focus`, `_prove_pendings`",
        [Prover.prove, Prover._focuses, Prover._focus, Prover._prove_pendings])


def _key(fn) -> tuple:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile(k: int, lexicon, repeat: int = 1) -> list[str]:
    """The profile table of `repeat` calls at `k`, one line per row."""
    doc = scope_doc(["every"] * (k + 1))
    profiler = cProfile.Profile()
    for _ in range(repeat):
        profiler.runcall(readings_for_document, doc, lexicon)
    stats = pstats.Stats(profiler)
    total = stats.total_tt

    def seconds(fns, field):  # field 2: self time, 3: cumulative time
        return sum(stats.stats.get(_key(f), (0,) * 4)[field] for f in fns)

    rows = [(label, seconds(fns, 3)) for label, fns in PARTS] + [(SELF[0], seconds(SELF[1], 2))]
    calls = f"{repeat} call{'s' if repeat > 1 else ''}"
    return ([f"cProfile, cumulative shares: {calls} at k={k}, {total:.2f} s",
             f"| part | k={k} |", "|---|---|"]
            + [f"| {label} | {t / total:.1%} |" for label, t in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The scope family's scaling table.")
    parser.add_argument("N", type=int, nargs="?", default=4, help="the largest k")
    parser.add_argument("--repeat", type=int, default=1, metavar="R",
                        help="calls per row; the wall is their median")
    parser.add_argument("--profile", action="store_true",
                        help="profile the calls at k = N and print each part's share")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    lexicon = load_lexicon(str(ROOT / "corpus" / "lexicon.glue"))
    if args.profile:
        print("\n".join(profile(args.N, lexicon, args.repeat)))
        return 0
    print(HEADER)
    print("|" + "---|" * 8)
    for k in range(args.N + 1):
        print(row(k, lexicon, repeat=args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
