"""The CLI runs whose output a refactor keeps byte for byte.

    python3 tests/cli_runs.py REPO OUT_DIR

runs, from the root of the checkout REPO and through its own
`gluesem.cli.main` in this process, `glue readings` on every corpus
f-structure under both lexicon variants, plain and with `--json`, `--trace`
and `--explicit-parens`, and `glue prove` on the type-raising formula, plain
and with `--trace`: 74 runs on the shipped corpus.  Each run writes one file
to OUT_DIR holding its exit code, its stdout and its stderr, so `diff -r` of
the directories written from two checkouts shows every run whose output
differs.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

LEXICON = "corpus/lexicon.glue"
VARIANTS = {"intensional": [], "extensional": ["--extensional"]}
MODES = {"plain": [], "json": ["--json"], "trace": ["--trace"],
         "parens": ["--explicit-parens"]}
PROVE = ["prove", "--lexicon", LEXICON, "--formula", "corpus/type-raising.glue"]


def runs():
    """(name, argv) of every run, for the corpus in the current directory."""
    for fstr in sorted(Path("corpus").glob("*.fstr")):
        for variant, vflags in VARIANTS.items():
            for mode, mflags in MODES.items():
                yield (f"readings-{fstr.stem}-{variant}-{mode}",
                       ["readings", "--fstructure", fstr.as_posix(), "--lexicon", LEXICON,
                        *vflags, *mflags])
    yield "prove-type-raising-plain", PROVE
    yield "prove-type-raising-trace", [*PROVE, "--trace"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 tests/cli_runs.py REPO OUT_DIR")
    repo, out = (Path(a).resolve() for a in argv)
    os.chdir(repo)
    sys.path.insert(0, str(repo / "src"))
    from gluesem.cli import main as glue

    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, args in runs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = glue(args)
        (out / f"{name}.txt").write_text(
            f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}",
            encoding="utf-8",
        )
        count += 1
    print(f"{count} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
