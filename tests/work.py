"""The work table: how much the search does on each pinned input.

    python3 tests/work.py

rewrites tests/work.txt, one line per input: the scope family for
k = 0..5 (*Bill seeks every conversation with ... every unicorn*), every
corpus f-structure under both lexicon variants, and the corpus sentences
with readings under their goldens' variant with 1-3 identity modifiers at
the root.  Each input is one `enumerate_readings` call under the default
search budget; the columns are its steps, proofs, readings, meaning
equations solved and head rejects.  `test_work_table_is_current` recomputes
the table, so a change that alters the work rewrites this file and says why.
Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gluesem import glue  # noqa: E402
from gluesem.fstruct import ROOT as ROOT_PATH, SemStruct, parse_fstructure  # noqa: E402
from gluesem.prover import enumerate_readings  # noqa: E402

from helpers import scope_doc  # noqa: E402

TABLE = ROOT / "tests" / "work.txt"
COLUMNS = ("steps", "proofs", "readings", "equations", "head_rejects")

# An identity sentence modifier, instantiated at the root once per modifier.
INDEED = """
(entry "indeed" Adv (trigger PRED "indeed")
  (constructor (forall ((M t)) (limp (means (sig up) M t) (means (sig up) M t)))))
"""
# The corpus sentences with readings, each under its golden's variant.
READ = [("bah", False), ("convince-every-voter", True), ("every-candidate-a-manager", True),
        ("admirer-of-his", False), ("seeks-al", False), ("seeks-a-unicorn", False),
        ("conversation-every-unicorn", False)]


def lexicon(extensional: bool):
    text = (ROOT / "corpus" / "lexicon.glue").read_text(encoding="utf-8")
    return glue.parse_lexicon(text + INDEED, extensional)


def inputs():
    """(name, premises, goal structure) for every pinned input."""
    lexicons = {ext: lexicon(ext) for ext in (False, True)}
    for k in range(6):
        prems = glue.premises(scope_doc(["every"] * (k + 1)), lexicons[False])
        yield f"scope-k{k}", prems, SemStruct("f", ROOT_PATH)
    docs = {}
    for path in sorted((ROOT / "corpus").glob("*.fstr")):
        docs[path.stem] = doc = parse_fstructure(path.read_text(encoding="utf-8"))
        for ext in (False, True):
            prems = glue.premises(doc, lexicons[ext])
            yield f"{path.stem}{'/ext' if ext else ''}", prems, SemStruct(doc.root.label, ROOT_PATH)
    for name, ext in READ:
        doc = docs[name]
        (indeed,) = [e for e in lexicons[ext].entries if e.headword == "indeed"]
        for mods in (1, 2, 3):
            prems = glue.premises(doc, lexicons[ext]) + [
                glue.Premise("indeed", doc.root.label, glue.instantiate(indeed, doc.root, doc))
                for _ in range(mods)
            ]
            yield f"{name}+{mods}", prems, SemStruct(doc.root.label, ROOT_PATH)


def table() -> str:
    rows = [("input",) + COLUMNS]
    for name, prems, goal in inputs():
        result = enumerate_readings(prems, goal)
        s = result.stats
        assert not s.exhausted, name
        rows.append((name, s.steps, s.proofs, len(result.readings), s.equations, s.head_rejects))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "".join(
        " ".join([str(row[0]).ljust(widths[0])] + [str(c).rjust(w) for c, w in zip(row[1:], widths[1:])])
        + "\n"
        for row in rows
    )


def main() -> int:
    TABLE.write_text(table(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
