"""Command-line driver for `glue readings` and `glue prove`.

USAGE holds the synopsis and the exit statuses; `glue --help` prints it (a
constant rather than this docstring, which `python -OO` strips).
"""

from __future__ import annotations

import os
import sys

from .fstruct import parse_fstructure
from .glue import load_lexicon, parse_formula_document, print_formula
from .prover import (
    BudgetExhausted,
    SearchBudget,
    Sequent,
    prove_sequent,
    readings_for_document,
    render_trace,
)
from .terms import GlueError, parse_type, print_term

_DEFAULT = SearchBudget()
USAGE = f"""\
usage:
    glue readings --fstructure F --lexicon L [--goal LABEL] [--goal-type T]
                  [--trace] [--json] [--extensional] [--explicit-parens]
                  [--max-steps N] [--max-depth N]
    glue prove    --lexicon L --formula PHI [--trace] [--max-steps N]
                  [--max-depth N]

Options are spelled in full and take their value as `--opt VALUE` or
`--opt=VALUE`.  N is a non-negative integer (defaults: {_DEFAULT.max_steps} steps, depth
{_DEFAULT.max_depth}).

Exit status for `readings`: 0 with at least one reading, 2 with none
(functional incompleteness or incoherence), 3 when the search budget ran out,
1 on input errors, a malformed command line included.  `prove` exits 0 when
the formula is derivable, 2 when it is not, 3 when the search budget ran out
and 1 on input errors.
"""

# Each command's options with their defaults: False marks a flag, None a
# required option, and every other option takes a value.
_BUDGET = {"--max-steps": str(_DEFAULT.max_steps), "--max-depth": str(_DEFAULT.max_depth),
           "--trace": False}
_OPTIONS = {
    "readings": {
        "--fstructure": None, "--lexicon": None, "--goal": "", "--goal-type": "t",
        "--json": False, "--extensional": False, "--explicit-parens": False, **_BUDGET,
    },
    "prove": {"--lexicon": None, "--formula": None, **_BUDGET},
}


def _parse_args(argv: list[str]):
    """The command and its options, or None when the command line asks for
    help; a malformed command line raises GlueError."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in _OPTIONS:
        got = f", got {argv[0]!r}" if argv else ""
        raise GlueError(f"expected a command, readings or prove{got}")
    command, table = argv[0], _OPTIONS[argv[0]]
    opts = dict(table)
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in table:
            what = "option" if arg.startswith("-") else "argument"
            raise GlueError(f"{command}: unknown {what} {name!r}")
        if table[name] is False:
            if eq:
                raise GlueError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(rest, None)
            if value is None:
                raise GlueError(f"{name} needs a value")
        opts[name] = value
    for name, value in opts.items():
        if value is None:
            raise GlueError(f"{command}: {name} is required")
    for name in ("--max-steps", "--max-depth"):
        value = opts[name]
        if not (value.isascii() and value.isdigit()):
            raise GlueError(f"{name}: expected a non-negative integer, got {value!r}")
        opts[name] = int(value)
    return command, opts


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


def _run_readings(opts) -> int:
    fpath, lpath = opts["--fstructure"], opts["--lexicon"]
    doc = _in_file(fpath, lambda: parse_fstructure(_read(fpath)))
    lexicon = _in_file(lpath, lambda: load_lexicon(lpath, extensional=opts["--extensional"]))
    budget = SearchBudget(opts["--max-steps"], opts["--max-depth"])
    goal_type = parse_type(opts["--goal-type"])
    result, prems = readings_for_document(
        doc, lexicon, goal_label=opts["--goal"] or None, budget=budget, goal_type=goal_type
    )
    texts = [print_term(r.term, True) if opts["--explicit-parens"] else r.text
             for r in result.readings]
    stats = result.stats

    if opts["--json"]:
        import json

        payload = {
            "fstructure": fpath,
            "goal": {"label": opts["--goal"] or doc.root.label, "type": opts["--goal-type"]},
            "premises": [
                {"word": p.word, "label": p.label, "formula": print_formula(p.formula)}
                for p in prems
            ],
            "readings": texts,
            "count": len(texts),
            "budget": {
                "max_steps": budget.max_steps,
                "max_depth": budget.max_depth,
                "steps_used": stats.steps,
                "head_rejects": stats.head_rejects,
                "equations": stats.equations,
                "exhausted": stats.exhausted,
                "limit": stats.limit,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for text, reading in zip(texts, result.readings):
            print(text)
            if opts["--trace"]:
                print(render_trace(reading.derivation, reading.substitution))
                print()
        if stats.exhausted:
            print(f"warning: search budget exhausted ({stats.limit}); results may be incomplete",
                  file=sys.stderr)
        print(f"readings: {len(texts)}")

    if stats.exhausted:
        return 3
    return 0 if texts else 2


def _run_prove(opts) -> int:
    lpath, fpath = opts["--lexicon"], opts["--formula"]
    lexicon = _in_file(lpath, lambda: load_lexicon(lpath))
    formula = _in_file(fpath, lambda: parse_formula_document(_read(fpath), lexicon.ctx))
    budget = SearchBudget(opts["--max-steps"], opts["--max-depth"])
    for su, derivation in prove_sequent(Sequent((), formula), budget):
        print("provable")
        if opts["--trace"]:
            print(render_trace(derivation, su))
        return 0
    print("not provable")
    return 2


def main(argv=None) -> int:
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else list(argv))
        status = 0
        if parsed is None:
            print(USAGE, end="")
        else:
            command, opts = parsed
            status = _run_readings(opts) if command == "readings" else _run_prove(opts)
        sys.stdout.flush()  # an output closed early fails here, not at exit
        return status
    except BrokenPipeError:  # the reader closed stdout: exit flushes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (GlueError, RecursionError) as e:  # RecursionError: see terms.MAX_NESTING
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
