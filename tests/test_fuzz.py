"""Seeded mutation fuzzing: whatever is done to a shipped f-structure,
lexicon or formula file, `glue` answers with an exit status, and an input
error is one `error:` line, never a traceback.

Each case strips the `;` comments from one shipped file (so that a mutation
is not swallowed by a comment), applies one to three token-level mutations
and runs `cli.main` in-process on the result with a small step budget.
"""

import pathlib
import random
import re

import pytest

from gluesem.cli import main

SEEDS = range(300)
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FSTRUCTURES = sorted(CORPUS.glob("*.fstr"))
LEXICON = CORPUS / "lexicon.glue"
FORMULA = CORPUS / "type-raising.glue"

# a token with the whitespace before it, so that line breaks survive
_TOKEN = re.compile(r'\s*(?:[()]|"[^"\n]*"|[^\s();"]+)')
_TYPES = ["e", "t", "s", "sem", "(-> e t)", "(-> s e t)", "(-> e)", "(->)"]
_VOCABULARY = _TYPES + [
    "(", ")", '"', '"pro"', '""', "up", "fstruct", "ref", "ant", "PRED", "SPEC",
    "forall", "limp", "tensor", "means", "atom", "cap", "cup", "lam", "sig", "path",
    "svar", "srestr", "sant", "entry", "const", "trigger", "variant", "syn",
    "constructor", "X", "x",
]


def _tokens(path):
    return _TOKEN.findall(re.sub(r";[^\n]*", "", path.read_text()))


def _subtree_end(toks, start):
    """The index just past the list that opens at toks[start]."""
    depth = 0
    for i in range(start, len(toks)):
        depth += {"(": 1, ")": -1}.get(toks[i].strip(), 0)
        if depth == 0:
            return i + 1
    return len(toks)


def _respell(tok, word):
    """`word` with the whitespace that came before `tok`."""
    return tok[: len(tok) - len(tok.lstrip())] + " " + word


def _mutate(toks, rng):
    toks = list(toks)
    i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
    op = rng.choice(["delete", "duplicate", "swap", "truncate", "replace", "subtree",
                     "rename", "retype"])
    if op == "delete":
        del toks[i]
    elif op == "duplicate":
        toks.insert(i, toks[i])
    elif op == "swap":
        toks[i], toks[j] = toks[j], toks[i]
    elif op == "truncate":
        del toks[i:]
    elif op == "replace":
        toks[i] = _respell(toks[i], rng.choice(_VOCABULARY + [t.strip() for t in toks]))
    elif op == "subtree":
        opens = [k for k, t in enumerate(toks) if t.strip() == "("]
        if opens:
            start = rng.choice(opens)
            end = _subtree_end(toks, start)
            toks[end:end] = toks[start:end]
    elif op == "rename":
        symbols = sorted({t.strip() for t in toks} - {"(", ")"})
        old, new = rng.choice(symbols), rng.choice(symbols + ["fresh"])
        every = rng.random() < 0.5
        for k, t in enumerate(toks):
            if t.strip() == old and (every or k >= i):
                toks[k] = _respell(t, new)
                if not every:
                    break
    else:
        typed = [k for k, t in enumerate(toks) if t.strip() in ("e", "t", "s", "sem")]
        if typed:
            k = rng.choice(typed)
            toks[k] = _respell(toks[k], rng.choice(_TYPES))
    return toks or [""]


def _case(seed, tmp_path):
    """The command line of case `seed` and the mutated text it reads."""
    rng = random.Random(seed)
    fstr = rng.choice(FSTRUCTURES)
    target = rng.choice(["fstructure", "lexicon", "formula"])
    source = {"fstructure": fstr, "lexicon": LEXICON, "formula": FORMULA}[target]
    toks = _tokens(source)
    for _ in range(rng.randint(1, 3)):
        toks = _mutate(toks, rng)
    text = "".join(toks) + "\n"
    mutated = tmp_path / f"case{seed}{source.suffix}"
    mutated.write_text(text)
    if target == "formula":
        argv = ["prove", "--lexicon", str(LEXICON), "--formula", str(mutated)]
    else:
        files = {"fstructure": fstr, "lexicon": LEXICON, target: mutated}
        argv = ["readings", "--fstructure", str(files["fstructure"]),
                "--lexicon", str(files["lexicon"])]
        if rng.random() < 0.5:
            argv.append("--extensional")
    return argv + ["--max-steps", "3000"], text


def test_mutated_inputs_never_raise(capsys, tmp_path):
    codes = []
    for seed in SEEDS:
        argv, text = _case(seed, tmp_path)
        try:
            code = main(argv)
        except Exception as e:  # any escape is the failure sought: name its case
            pytest.fail(f"seed {seed}: {type(e).__name__}: {e}\ninput:\n{text}")
        out = capsys.readouterr()
        assert code in (0, 1, 2, 3), f"seed {seed}: exit {code}"
        if code == 1:
            assert out.out == "", f"seed {seed}"
            assert out.err.startswith("error: ") and out.err.count("\n") == 1, (
                f"seed {seed}: {out.err!r}\ninput:\n{text}"
            )
        codes.append(code)
    # the mutations must leave some inputs well-formed, or only the first
    # error branch of each parser is exercised
    assert sum(code in (0, 2) for code in codes) >= len(codes) // 20
