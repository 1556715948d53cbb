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


def _form_end(toks, k):
    """The index just past the top-level form that holds toks[k]."""
    depth = 0
    for i in range(len(toks)):
        depth += {"(": 1, ")": -1}.get(toks[i].strip(), 0)
        if i >= k and depth <= 0:
            return i + 1
    return len(toks)


def _rewrite_meaning(toks, rng):
    """Pick a quantified meaning variable V of type e or t and either apply
    it to the constant Bill (V gets type e -> TY and each later V in its form
    becomes (V Bill)) or let its first later occurrence, usually the
    antecedent that fixes it, name a fresh variable bound beside it, so that
    nothing fixes V.  Either way the meaning equations leave the fragment the
    matcher solves."""
    toks = list(toks)
    binders = [
        k for k in range(len(toks) - 3)
        if toks[k].strip() == "(" and re.fullmatch(r"[A-Za-z]\w*", toks[k + 1].strip())
        and toks[k + 2].strip() in ("e", "t") and toks[k + 3].strip() == ")"
    ]
    if not binders:
        return toks
    k = rng.choice(binders)
    name, ty = toks[k + 1].strip(), toks[k + 2].strip()
    later = [i for i in range(k + 4, _form_end(toks, k)) if toks[i].strip() == name]
    if rng.random() < 0.5:
        toks[k + 2] = _respell(toks[k + 2], f"(-> e {ty})")
        for i in later:
            toks[i] = _respell(toks[i], f"({name} Bill)")
    elif later:
        toks[later[0]] = _respell(toks[later[0]], f"{name}2")
        toks[k + 4:k + 4] = [" (", f"{name}2", f" {ty}", ")"]
    return toks


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


def _run_case(capsys, seed, argv, text):
    """Run one case: its exit status and stderr, checked to be an exit
    status and, for exit 1, a single `error:` line."""
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
    return code, out.err


def test_mutated_inputs_never_raise(capsys, tmp_path):
    codes = []
    for seed in SEEDS:
        argv, text = _case(seed, tmp_path)
        codes.append(_run_case(capsys, seed, argv, text)[0])
    # the mutations must leave some inputs well-formed, or only the first
    # error branch of each parser is exercised
    assert sum(code in (0, 2) for code in codes) >= len(codes) // 20


def test_rewritten_meanings_never_raise(capsys, tmp_path):
    # well-typed lexicons and formulas whose meaning equations fall outside
    # the matched fragment: the matcher's NonPatternError is one error line
    codes, matcher_errors = [], 0
    for seed in range(100):
        rng = random.Random(seed)
        target = rng.choice(["lexicon", "formula"])
        source = LEXICON if target == "lexicon" else FORMULA
        text = "".join(_rewrite_meaning(_tokens(source), rng)) + "\n"
        mutated = tmp_path / f"meaning{seed}{source.suffix}"
        mutated.write_text(text)
        if target == "formula":
            argv = ["prove", "--lexicon", str(LEXICON), "--formula", str(mutated)]
        else:
            argv = ["readings", "--fstructure", str(rng.choice(FSTRUCTURES)),
                    "--lexicon", str(mutated)]
        code, err = _run_case(capsys, seed, argv + ["--max-steps", "3000"], text)
        codes.append(code)
        matcher_errors += "non-pattern arguments" in err or "no antecedent fixes" in err
    assert matcher_errors > 0
    assert sum(code in (0, 2) for code in codes) >= len(codes) // 20


# a --goal-type value is mutated from a well-formed type; a --goal value
# from a label of the f-structure read
_GOAL_TYPES = ["t", "e", "s", "e -> t", "(s -> e -> t) -> t", "(e -> t) -> t"]
_VALUE_PIECES = ["(", ")", "->", "-", ">", "e", "t", "s", "x", "E", " ", "\t", "=", "é",
                 "ROOT", "f g", "-h"]


def _mutate_value(value, rng):
    """One to three mutations of a command-line value: delete a span, insert
    a piece, repeat a short span many times, or wrap a span in parentheses up
    to far beyond the nesting limit."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(value))
        j = rng.randint(i, len(value))
        op = rng.choice(["delete", "insert", "repeat", "wrap"])
        if op == "delete":
            value = value[:i] + value[j:]
        elif op == "insert":
            value = value[:i] + rng.choice(_VALUE_PIECES) + value[i:]
        elif op == "repeat":
            value = value[:i] + value[i:j][:8] * rng.choice([2, 3, 150, 1200]) + value[j:]
        else:
            n = rng.choice([1, 2, 99, 100, 101, 2000])
            value = value[:i] + "(" * n + value[i:j] + ")" * n + value[j:]
    return value


def test_mutated_goal_values_never_raise(capsys):
    codes = []
    for seed in SEEDS:
        rng = random.Random(seed)
        fstr = rng.choice(FSTRUCTURES)
        labels = re.findall(r"\(fstruct\s+([^\s()]+)", fstr.read_text())
        argv = ["readings", "--fstructure", str(fstr), "--lexicon", str(LEXICON),
                "--max-steps", "3000"]
        which = rng.choice([("--goal-type",), ("--goal",), ("--goal-type", "--goal")])
        for option in which:
            start = rng.choice(_GOAL_TYPES if option == "--goal-type" else labels)
            value = start if rng.random() < 0.2 else _mutate_value(start, rng)
            argv += [f"{option}={value}"] if rng.random() < 0.3 else [option, value]
        codes.append(_run_case(capsys, seed, argv, " ".join(argv))[0])
    # both well-formed values and input errors are exercised
    assert sum(code in (0, 2) for code in codes) >= len(codes) // 20
    assert codes.count(1) >= len(codes) // 20
