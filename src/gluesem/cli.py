"""Command-line driver.

    glue readings --fstructure F --lexicon L [--goal LABEL] [--goal-type T]
                  [--trace] [--json] [--extensional] [--explicit-parens]
                  [--max-steps N] [--max-depth N]
    glue prove    --lexicon L --formula PHI [--trace] [--max-steps N]
                  [--max-depth N]

Exit status for `readings`: 0 with at least one reading, 2 with none
(functional incompleteness or incoherence), 3 when the search budget ran out,
1 on input errors.  `prove` exits 0 when the formula is derivable and 2 when
it is not.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fstruct import parse_fstructure
from .glue import load_lexicon, parse_formula_document, print_formula
from .prover import (
    BudgetExhausted,
    SearchBudget,
    check_theorem,
    readings_for_document,
    render_trace,
)
from .terms import GlueError, parse_type, print_term


def _add_budget_args(sub):
    sub.add_argument("--max-steps", type=int, default=100_000, metavar="N")
    sub.add_argument("--max-depth", type=int, default=40, metavar="N")
    sub.add_argument("--trace", action="store_true", help="print one proof tree per result")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glue",
        description="Enumerate sentence readings by linear-logic proof search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    readings = sub.add_parser("readings", help="derive all readings of an f-structure")
    readings.add_argument("--fstructure", required=True, metavar="FILE")
    readings.add_argument("--lexicon", required=True, metavar="FILE")
    readings.add_argument("--goal", metavar="LABEL", help="goal f-structure label (default: root)")
    readings.add_argument("--goal-type", default="t", metavar="TYPE")
    readings.add_argument("--json", action="store_true", dest="as_json")
    readings.add_argument(
        "--extensional",
        action="store_true",
        help="use the extensional determiner constructors",
    )
    readings.add_argument("--explicit-parens", action="store_true")
    _add_budget_args(readings)

    prove = sub.add_parser("prove", help="check derivability of a closed glue formula")
    prove.add_argument("--lexicon", required=True, metavar="FILE")
    prove.add_argument("--formula", required=True, metavar="FILE")
    _add_budget_args(prove)
    return parser


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _in_file(path, fn):
    """Run `fn`, which reads and parses `path`; any failure is an error naming the file."""
    try:
        return fn()
    except GlueError as e:
        raise GlueError(f"{path}: {e}") from e
    except OSError as e:
        raise GlueError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise GlueError(f"{path}: not UTF-8 text (offset {e.start}: {e.reason})") from e


def _run_readings(args) -> int:
    doc = _in_file(args.fstructure, lambda: parse_fstructure(_read(args.fstructure)))
    lexicon = _in_file(
        args.lexicon, lambda: load_lexicon(args.lexicon, extensional=args.extensional)
    )
    budget = SearchBudget(args.max_steps, args.max_depth)
    goal_type = parse_type(args.goal_type)
    result, prems = readings_for_document(
        doc, lexicon, goal_label=args.goal, budget=budget, goal_type=goal_type
    )
    texts = [print_term(r.term, explicit_parens=args.explicit_parens) for r in result.readings]

    if args.as_json:
        payload = {
            "fstructure": args.fstructure,
            "goal": {"label": args.goal or doc.root.label, "type": args.goal_type},
            "premises": [
                {"word": p.word, "label": p.label, "formula": print_formula(p.formula)}
                for p in prems
            ],
            "readings": texts,
            "count": len(texts),
            "budget": {
                "max_steps": budget.max_steps,
                "max_depth": budget.max_depth,
                "steps_used": result.stats.steps,
                "head_rejects": result.stats.head_rejects,
                "exhausted": result.stats.exhausted,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for text, reading in zip(texts, result.readings):
            print(text)
            if args.trace:
                print(render_trace(reading.derivation, reading.substitution))
                print()
        if result.stats.exhausted:
            print("warning: search budget exhausted; results may be incomplete", file=sys.stderr)
        print(f"readings: {len(texts)}")

    if result.stats.exhausted:
        return 3
    return 0 if texts else 2


def _run_prove(args) -> int:
    lexicon = _in_file(args.lexicon, lambda: load_lexicon(args.lexicon))
    formula = _in_file(
        args.formula, lambda: parse_formula_document(_read(args.formula), lexicon.ctx)
    )
    budget = SearchBudget(args.max_steps, args.max_depth)
    ok, derivation = check_theorem(formula, budget)
    if ok:
        print("provable")
        if args.trace and derivation is not None:
            print(render_trace(derivation))
        return 0
    print("not provable")
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "readings":
            return _run_readings(args)
        return _run_prove(args)
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GlueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
