"""Command-line driver tests: exit codes, golden outputs, JSON round trips."""

import json
import os
import re
import pathlib
import subprocess
import sys

import pytest

import gluesem
from gluesem import cli
from gluesem.cli import main
from gluesem.glue import load_lexicon
from gluesem.prover import SearchBudget
from gluesem.terms import alpha_equal, print_term

from helpers import parse_term

GOLDEN_RUNS = [
    ("bah", [], 0),
    ("convince-every-voter", ["--extensional"], 0),
    ("every-candidate-a-manager", ["--extensional"], 0),
    ("admirer-of-his", [], 0),
    ("seeks-al", [], 0),
    ("seeks-a-unicorn", [], 0),
    ("conversation-every-unicorn", [], 0),
    ("john-devoured", [], 2),
    ("john-arrived-bill-the-sink", [], 2),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readings_args(name, extra=()):
    return [
        "readings",
        "--fstructure",
        f"corpus/{name}.fstr",
        "--lexicon",
        "corpus/lexicon.glue",
        *extra,
    ]


@pytest.mark.parametrize("name,extra,expected_code", GOLDEN_RUNS)
def test_golden_outputs(capsys, name, extra, expected_code):
    code, out, _ = run(capsys, *readings_args(name, extra))
    assert code == expected_code
    with open(f"corpus/golden/{name}.out", encoding="utf-8") as fh:
        assert out == fh.read()


def _reading_set(capsys, name, extra=()):
    code, out, _ = run(capsys, *readings_args(name, extra))
    assert code == 0
    return set(out.splitlines()[:-1])


@pytest.mark.parametrize("name,holds", [
    ("bah", True), ("convince-every-voter", True), ("every-candidate-a-manager", True),
    ("admirer-of-his", True), ("seeks-a-unicorn", False),
])
def test_erasing_intensions_gives_the_extensional_readings(capsys, name, holds):
    # the determiners' ^ is the only difference between the variants unless
    # an intensional verb such as seek takes an intension of its own
    erased = {text.replace("^", "") for text in _reading_set(capsys, name)}
    assert (erased == _reading_set(capsys, name, ["--extensional"])) == holds


# the paper's theorem, and the converse and the structural rules that
# linear logic does not have: each resource is used exactly once
@pytest.mark.parametrize("name,expected_code", [
    ("type-raising", 0), ("lowering", 2), ("contraction", 2), ("weakening", 2),
])
def test_prove_golden(capsys, name, expected_code):
    code, out, _ = run(
        capsys, "prove", "--lexicon", "corpus/lexicon.glue",
        "--formula", f"corpus/{name}.glue",
    )
    assert code == expected_code
    with open(f"corpus/golden/{name}.out", encoding="utf-8") as fh:
        assert out == fh.read()


def test_prove_underivable_exits_2(capsys, tmp_path):
    bad = tmp_path / "dup.glue"
    bad.write_text("(limp (atom A) (tensor (atom A) (atom A)))")
    code, out, _ = run(capsys, "prove", "--lexicon", "corpus/lexicon.glue",
                       "--formula", str(bad))
    assert code == 2
    assert out.strip() == "not provable"


def test_prove_meaning_clash_exits_2(capsys, tmp_path):
    # structures and types match; only the meanings Bill and Hillary clash
    f = tmp_path / "clash.glue"
    f.write_text("(forall ((G sem)) (limp (means G Bill e) (means G Hillary e)))")
    code, out, _ = run(capsys, "prove", "--lexicon", "corpus/lexicon.glue",
                       "--formula", str(f))
    assert (code, out) == (2, "not provable\n")


def test_lambda_constructor_reads_its_beta_normal_form(capsys, tmp_path):
    lex = tmp_path / "lam.glue"
    lex.write_text(
        '(const Bill e)\n(const sleep (-> e t))\n'
        '(entry "Bill" NP (trigger PRED) (constructor (means (sig up) Bill e)))\n'
        '(entry "sleep" V (trigger PRED) (constructor (forall ((X e))\n'
        '  (limp (means (sig (path up SUBJ)) X e) (means (sig up) ((lam (x e) (sleep x)) X) t)))))\n'
    )
    fstr = tmp_path / "sleeps.fstr"
    fstr.write_text('(fstruct f (PRED "sleep") (SUBJ (fstruct g (PRED "Bill"))))')
    code, out, err = run(capsys, "readings", "--fstructure", str(fstr), "--lexicon", str(lex))
    assert (code, out, err) == (0, "sleep(Bill)\nreadings: 1\n", "")


def _read_bill(capsys, tmp_path, lexicon):
    """Run `readings` at type e on the f-structure of "Bill" alone."""
    lex = tmp_path / "bill.glue"
    lex.write_text(lexicon)
    fstr = tmp_path / "bill.fstr"
    fstr.write_text('(fstruct g (PRED "Bill"))')
    return run(capsys, "readings", "--fstructure", str(fstr), "--lexicon", str(lex),
               "--goal-type", "e")


def test_constant_named_up_reads(capsys, tmp_path):
    # `up` names the anchor only inside a sigma form; as a term it is a constant
    got = _read_bill(capsys, tmp_path,
                     '(const up e)\n(entry "Bill" NP (constructor (means (sig up) up e)))\n')
    assert got == (0, "up\nreadings: 1\n", "")


def test_sigma_path_to_an_atom_is_an_input_error(capsys, tmp_path):
    got = _read_bill(capsys, tmp_path, '(const Bill e)\n'
                     '(entry "Bill" NP (constructor (means (sig (path up PRED)) Bill e)))\n')
    assert got == (
        1, "", "error: path ('PRED',) from g names the atom 'Bill', not an f-structure\n"
    )


@pytest.mark.parametrize(
    "constructor,fragment",
    [
        # the only proof equates the goal meaning with P(X): P applied to a
        # unification variable lies outside the pattern fragment
        ("(forall ((X e) (P (-> e t)))\n"
         "  (limp (means (sig (path up SUBJ)) X e) (means (sig up) (P X) t)))",
         "non-pattern arguments"),
        # no antecedent fixes P, so the goal meaning and P are both unbound
        ("(forall ((X e) (P t))\n"
         "  (limp (means (sig (path up SUBJ)) X e) (means (sig up) P t)))",
         "no antecedent fixes P?"),
    ],
    ids=["applied-to-a-flex-variable", "fixed-by-no-antecedent"],
)
def test_non_pattern_meaning_is_an_input_error(capsys, tmp_path, constructor, fragment):
    lex = tmp_path / "odd.glue"
    lex.write_text(
        '(const Bill e)\n'
        '(entry "Bill" NP (trigger PRED) (constructor (means (sig up) Bill e)))\n'
        f'(entry "sleep" V (trigger PRED) (constructor {constructor}))\n'
    )
    fstr = tmp_path / "sleeps.fstr"
    fstr.write_text('(fstruct f (PRED "sleep") (SUBJ (fstruct g (PRED "Bill"))))')
    code, out, err = run(capsys, "readings", "--fstructure", str(fstr), "--lexicon", str(lex))
    assert code == 1 and out == ""
    assert err.startswith("error:") and fragment in err
    assert err.count("\n") == 1


def _twice(k):
    """A term k levels deep that normalizes to `s` applied 2**k times."""
    term = "s"
    for _ in range(k):
        term = f"((lam (f (-> e e)) (lam (x e) (f (f x)))) {term})"
    return term


def _too_deep_meaning(tmp_path):
    # the meaning is written 9 levels deep; its normal form nests 512
    lex = tmp_path / "deep.glue"
    lex.write_text(
        "(const s (-> e e))\n(const Bill e)\n(const arrive (-> e t))\n"
        f'(entry "Bill" NP (trigger PRED) (constructor (means (sig up) ({_twice(9)} Bill) e)))\n'
        '(entry "arrived" V (trigger PRED "arrive") (constructor (forall ((X e))\n'
        "  (limp (means (sig (path up SUBJ)) X e) (means (sig up) (arrive X) t)))))\n"
    )
    fstr = tmp_path / "arrived.fstr"
    fstr.write_text('(fstruct f (PRED "arrive") (SUBJ (fstruct g (PRED "Bill"))))')
    return ["readings", "--fstructure", str(fstr), "--lexicon", str(lex)]


def _too_deep_search(tmp_path):
    # an assumption of 250 identity conjuncts, each focused below the last,
    # under a raised depth budget
    f = tmp_path / "deep.glue"
    ids = " ".join(["(limp (atom A) (atom A))"] * 250)
    f.write_text(f"(limp (tensor {ids}) (limp (atom A) (atom A)))")
    return ["prove", "--lexicon", "corpus/lexicon.glue", "--formula", str(f),
            "--max-depth", "100000"]


@pytest.mark.parametrize("argv", [_too_deep_meaning, _too_deep_search],
                         ids=["normal-form", "search"])
def test_recursion_too_deep_is_an_input_error(tmp_path, argv):
    # in a child process: at the recursion limit, a `sys.settrace` tracer
    # such as tests/untraced.py's fails too, and Python removes it
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "gluesem.cli", *argv(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize(
    "formula",
    [
        "(limp (atom A) (atom A))",
        # the goal's side fixes the focused assumption's Y: matching binds
        # a flex variable on either side of the equation
        "(forall ((G sem)) (limp (forall ((Y e)) (means G Y e)) (means G Bill e)))",
    ],
    ids=["atoms", "goal-fixes-the-focused-side"],
)
def test_prove_linear_identity(capsys, tmp_path, formula):
    f = tmp_path / "id.glue"
    f.write_text(formula)
    argv = ["prove", "--lexicon", "corpus/lexicon.glue", "--formula", str(f)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("provable")
    if formula.startswith("(limp (atom"):
        # a propositional atom is printed by its name alone
        code, out, _ = run(capsys, *argv, "--trace")
        assert code == 0
        assert out == "provable\nLimpR: assume assumption#1\n  Identity: assumption#1   |- A\n"


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, *readings_args("seeks-a-unicorn", ["--json"]))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["budget"]["exhausted"] is False
    assert payload["budget"]["head_rejects"] > 0
    assert 0 < payload["budget"]["equations"] < payload["budget"]["steps_used"]
    assert len(payload["premises"]) == 4
    lex = load_lexicon("corpus/lexicon.glue")
    for text in payload["readings"]:
        assert alpha_equal(parse_term(text, lex.ctx), parse_term(text, lex.ctx))


def test_json_readings_reparse_to_printed_forms(capsys):
    code, out, _ = run(
        capsys, *readings_args("conversation-every-unicorn", ["--json"])
    )
    payload = json.loads(out)
    lex = load_lexicon("corpus/lexicon.glue")
    code2, plain, _ = run(capsys, *readings_args("conversation-every-unicorn"))
    printed = [l for l in plain.splitlines() if not l.startswith("readings:")]
    assert [
        alpha_equal(parse_term(a, lex.ctx), parse_term(b, lex.ctx))
        for a, b in zip(payload["readings"], printed)
    ] == [True] * 5


def test_trace_mentions_substituted_resources(capsys):
    code, out, _ = run(capsys, *readings_args("bah", ["--trace"]))
    assert code == 0
    assert "Identity: Bill[g]" in out
    assert "PiL: appointed[f]" in out


def test_prove_trace_shows_solutions_and_atoms(capsys):
    code, out, _ = run(
        capsys, "prove", "--lexicon", "corpus/lexicon.glue",
        "--formula", "corpus/type-raising.glue", "--trace",
    )
    assert code == 0 and out.startswith("provable\n")
    lines = out.splitlines()
    assert any(re.search(r"PiL: assumption#\d+: x\?\d+ := Z!\d+$", l) for l in lines)
    identities = [l for l in lines if "Identity:" in l]
    assert len(identities) == 2
    assert all(re.search(r"   \|- \S+ ~>_[et] ", l) for l in identities)


TRACES = pathlib.Path(__file__).resolve().parent / "traces"
PROVE_TYPE_RAISING = ["prove", "--lexicon", "corpus/lexicon.glue",
                      "--formula", "corpus/type-raising.glue"]


@pytest.mark.parametrize("name,argv", [
    # PiR, LimpR, LimpL, PiL, Identity and TensorR
    ("seeks-a-unicorn", readings_args("seeks-a-unicorn", ["--trace"])),
    # TensorL and the parts it splits out
    ("admirer-of-his", readings_args("admirer-of-his", ["--trace"])),
    ("type-raising", PROVE_TYPE_RAISING + ["--trace"]),
])
def test_trace_lines_are_pinned(capsys, name, argv):
    # whole lines: each rule with its resource, variables, solutions and
    # consumed atoms; only the counter digits of ?N and !N names are free
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = (TRACES / f"{name}.trace").read_text(encoding="utf-8")
    assert re.sub(r"([?!])\d+", r"\1N", out) == want


# One malformed form per line.  Each of the first twelve used to end in an
# IndexError traceback; the next three were skipped without a word.
MALFORMED_LEXICON_FORMS = [
    '(entry "Bill" NP (trigger) (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (variant) (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (syn) (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP () (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (constructor))',
    '(entry "Bill" NP (constructor (means (svar) Bill e)))',
    '(entry "Bill" NP (constructor (means (sig (path)) Bill e)))',
    '(entry "Bill" NP (constructor (means (sig up) (cap) e)))',
    '(entry "Bill" NP (constructor (means (sig up) (lam) e)))',
    '(entry "Bill" NP (constructor (means (sig up) (lam (x e)) e)))',
    '(entry "Bill" NP (constructor (means (sig up) (lam (x sem) Bill) e)))',
    '(entry "Bill" NP (constructor (atom)))',
    '(entry "Bill" NP (constructor (forall)))',
    '()',
    '(entyr "Bill" NP (constructor (means (sig up) Bill e)))',
    '(cosnt Bill e)',
    # a repeated clause used to replace the earlier one without a word
    '(entry "Bill" NP (constructor (means (sig up) Bill e)) (constructor (means (sig up) Hillary e)))',
    '(entry "Bill" NP (trigger PRED) (trigger PRED "Bill") (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (variant intensional) (variant extensional) (constructor (means (sig up) Bill e)))',
    # checks that no other case reaches
    '(entry "Bill" NP (constructor (means (sig (path down SUBJ)) Bill e)))',
    '(entry "Bill" NP (constructor (forall ((X sem)) (means (svar X) Bill e))))',
    '(entry "Bill" NP (constructor (means (sig up) "Bill" e)))',
    '(entry "Bill" NP (trigger FOO) (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (trigger PRED))',
    # sem is a quantifier kind, not a type
    '(const Foo sem)',
    '(entry "Bill" NP (constructor (means (sig up) Bill sem)))',
    '(const Foo (-> sem t))',
    # a syn clause tests an f-structure path; its slot used to be dropped
    '(entry "Bill" NP (syn (svar (sig (path up CASE))) "nom") (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (syn (srestr (sig (path up CASE))) "nom") (constructor (means (sig up) Bill e)))',
    '(entry "Bill" NP (syn (sant (sig (path up CASE))) "nom") (constructor (means (sig up) Bill e)))',
]

# A formula file has no anchor: it names structures by variables, so every
# sigma form in it is an input error (each of these used to run the search).
SIGMA_FORMULAS = [
    "(means (sig up) Bill e)",
    "(means (sig (path up SUBJ)) Bill e)",
    "(means (svar (sig up)) Bill e)",
    "(means (srestr (sig up)) Bill e)",
    "(limp (means (sant (sig up)) Bill e) (means (sig up) Bill e))",
]


@pytest.mark.parametrize(
    "command,text",
    [("readings", form) for form in MALFORMED_LEXICON_FORMS]
    + [("prove", "(forall)"), ("prove", "(atom)")]
    + [("prove", form) for form in SIGMA_FORMULAS],
)
def test_malformed_forms_are_one_line_errors(capsys, tmp_path, command, text):
    bad = tmp_path / "bad.glue"
    if command == "readings":
        bad.write_text(f"(const Bill e)\n{text}\n")
        argv = ["readings", "--fstructure", "corpus/bah.fstr", "--lexicon", str(bad)]
    else:
        bad.write_text(f"\n{text}\n")
        argv = ["prove", "--lexicon", "corpus/lexicon.glue", "--formula", str(bad)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: line 2: ") and err.count("\n") == 1


# One malformed f-structure per case: a fragment of its error message and
# the line the error names (None: the error names no line).
MALFORMED_FSTRUCTURES = [
    ('(fstruct f\n  (PRED "arrive"))\n)\n', "unexpected )", 3),
    ('(fstruct f\n  (SUBJ (fstruct g (PRED "John")))\n  (PRED "arrive"\n', "missing )", 3),
    ('(fstruct f\n  (PRED "arr\nive"))\n', "unterminated string", 2),
    ('; a comment\n(PRED "arrive")\n', "fstruct", 2),
    ('\n(fstruct)\n', "fstruct", 2),
    ('(fstruct f (PRED "arrive")\n  (SUBJ (ref g)))\n', "unknown label g", 2),
    ('; only a comment\n', "empty document", None),
    ('(fstruct f (PRED "arrive"))\n(ant f)\n', "(ant PRONOUN ANTECEDENT)", 2),
    ('(fstruct f (PRED "arrive")\n  (SUBJ (fstruct g (PRED "pro"))))\n\n(ant g h)\n',
     "unknown label h", 4),
    ('(fstruct f (PRED "arrive")\n  (SUBJ (fstruct g (PRED "John"))))\n(ant g f)\n',
     'g lacks PRED "pro"', 3),
    # a second link for one pronoun used to be ignored without a word
    ('(fstruct f (PRED "appoint") (SUBJ (fstruct g (PRED "Bill")))\n'
     '  (OBJ (fstruct h (PRED "admirer") (OBL-OF (fstruct i (PRED "pro"))))))\n'
     '(ant i g)\n(ant i h)\n', "pronoun i has two ant links", 4),
    # a pronoun that is its own antecedent used to run to "readings: 0"
    ('(fstruct f (PRED "arrive")\n  (SUBJ (fstruct g (PRED "pro"))))\n(ant g g)\n',
     "pronoun g is linked to itself", 3),
]


@pytest.mark.parametrize("text,fragment,line", MALFORMED_FSTRUCTURES)
def test_malformed_fstructures_are_one_line_errors(capsys, tmp_path, text, fragment, line):
    bad = tmp_path / "bad.fstr"
    bad.write_text(text)
    code, out, err = run(
        capsys, "readings", "--fstructure", str(bad), "--lexicon", "corpus/lexicon.glue"
    )
    assert (code, out) == (1, "")
    prefix = f"error: {bad}: "
    assert err.startswith(prefix) and err.count("\n") == 1
    message = err[len(prefix):]
    assert fragment in message
    assert message.startswith(f"line {line}: ") if line else "line" not in message


def test_explicit_parens_flag(capsys):
    code, out, _ = run(capsys, *readings_args("bah", ["--explicit-parens"]))
    assert code == 0
    assert out.splitlines()[0] == "appoint(Bill, Hillary)"


def test_plain_readings_print_each_reading_once(capsys, monkeypatch):
    # the search prints each proof's reading once, to deduplicate, and the
    # CLI writes that text; each of these five readings has one proof
    from gluesem import cli, prover

    printed = []
    for module in (cli, prover):
        real = module.print_term
        monkeypatch.setattr(module, "print_term", lambda t, *a, real=real, **k:
                            printed.append(t) or real(t, *a, **k))
    code, out, _ = run(capsys, *readings_args("conversation-every-unicorn"))
    assert code == 0 and out.endswith("readings: 5\n")
    assert len(printed) == 5 and len({id(t) for t in printed}) == 5
    assert sorted(out.splitlines()[:-1]) == sorted(map(print_term, printed))


def test_goal_label_override(capsys):
    code, out, _ = run(capsys, *readings_args("bah", ["--goal", "g", "--goal-type", "e"]))
    assert code == 2  # g's meaning alone never consumes the other premises


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, *readings_args("no-such-file"))
    assert code == 1
    assert "error" in err


def test_parse_error_reports_line(capsys, tmp_path):
    broken = tmp_path / "broken.fstr"
    broken.write_text('(fstruct f\n  (PRED "appoint") (PRED "again"))')
    code, _, err = run(
        capsys, "readings", "--fstructure", str(broken),
        "--lexicon", "corpus/lexicon.glue",
    )
    assert code == 1
    assert "line 2" in err


def test_deep_nesting_is_an_input_error(capsys, tmp_path):
    inner = '(fstruct n0 (PRED "unicorn"))'
    for i in range(1, 1200):
        inner = f'(fstruct n{i} (PRED "conversation")\n (OBL-WITH {inner}))'
    deep = tmp_path / "deep.fstr"
    deep.write_text(f'(fstruct f (PRED "seek") (OBJ {inner}))\n')
    code, _, err = run(
        capsys, "readings", "--fstructure", str(deep),
        "--lexicon", "corpus/lexicon.glue",
    )
    assert code == 1
    assert err.startswith("error:") and "line 50" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("goal_type,fragment", [
    ("(" * 2000 + "e" + ")" * 2000, "parentheses nest deeper than 100 levels"),
    ("e -> " * 1500 + "t", "arrows nest deeper than 100 levels"),
])
def test_deep_goal_type_is_an_input_error(capsys, goal_type, fragment):
    code, out, err = run(capsys, *readings_args("bah", ["--goal-type", goal_type]))
    assert (code, out) == (1, "")
    assert err == f"error: bad type: {fragment}\n"


def test_unreadable_goal_type_is_an_input_error(capsys):
    # characters outside the type syntax used to be dropped, so this ran as t
    code, out, err = run(capsys, *readings_args("bah", ["--goal-type", "t 42!"]))
    assert (code, out, err) == (1, "", "error: bad type syntax: 't 42!'\n")


def _deep_arrow(n):
    return "(-> " + "e " * n + "t)"  # n arrows, right-nested


@pytest.mark.parametrize("old,new", [
    ("(const Bill e)", "(const Bill e)\n(const Foo {ty})"),
    ("(means (sig up) Bill e)", "(forall ((X {ty})) (means (sig up) Bill e))"),
], ids=["const", "binder"])
def test_deep_lexicon_type_is_an_input_error(capsys, tmp_path, old, new):
    # a flat arrow list folds into arrows nested as deep as it is long
    with open("corpus/lexicon.glue", encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    lex = tmp_path / "deep.glue"
    line = text[: text.index(old)].count("\n") + 1 + new.count("\n")
    for n, code in ((100, 0), (1500, 1)):
        lex.write_text(text.replace(old, new.format(ty=_deep_arrow(n))))
        got, out, err = run(
            capsys, "readings", "--fstructure", "corpus/bah.fstr", "--lexicon", str(lex)
        )
        assert got == code, err
        if code:
            assert out == ""
            assert err == (
                f"error: {lex}: line {line}: bad type: arrows nest deeper than 100 levels\n"
            )


def test_budget_exhaustion_exits_3(capsys):
    code, out, err = run(
        capsys, *readings_args("conversation-every-unicorn", ["--max-steps", "25"])
    )
    assert code == 3
    assert "budget exhausted" in err


def test_depth_budget_also_exits_3(capsys):
    code, _, _ = run(
        capsys, *readings_args("seeks-a-unicorn", ["--max-depth", "4"])
    )
    assert code == 3


@pytest.mark.parametrize("limit,value", [("max-steps", "25"), ("max-depth", "4")])
def test_exhaustion_names_the_limit(capsys, limit, value):
    argv = readings_args("conversation-every-unicorn", [f"--{limit}", value])
    code, out, err = run(capsys, *argv)
    assert code == 3 and out.endswith("readings: 0\n")
    assert err == f"warning: search budget exhausted ({limit}); results may be incomplete\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    assert json.loads(out)["budget"]["limit"] == limit
    code, out, _ = run(capsys, *readings_args("conversation-every-unicorn", ["--json"]))
    assert code == 0 and json.loads(out)["budget"]["limit"] is None


def test_prove_budget_exhaustion_exits_3(capsys):
    code, _, err = run(
        capsys, "prove", "--lexicon", "corpus/lexicon.glue",
        "--formula", "corpus/type-raising.glue", "--max-steps", "3",
    )
    assert code == 3
    assert "budget" in err


def test_errors_name_the_offending_file(capsys, tmp_path):
    broken = tmp_path / "broken.fstr"
    broken.write_text("(fstruct f (PRED))")
    code, _, err = run(
        capsys, "readings", "--fstructure", str(broken),
        "--lexicon", "corpus/lexicon.glue",
    )
    assert code == 1
    assert "broken.fstr" in err


def test_output_stable_under_premise_order(capsys):
    # the f-structure file determines premise order; scrambling attribute
    # order must not change printed output
    scrambled = """
    (fstruct f
      (OBJ (fstruct h (PRED "Hillary")))
      (SUBJ (fstruct g (PRED "Bill")))
      (PRED "appoint"))
    """
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".fstr", delete=False) as fh:
        fh.write(scrambled)
        path = fh.name
    try:
        code, out, _ = run(
            capsys, "readings", "--fstructure", path, "--lexicon", "corpus/lexicon.glue"
        )
        with open("corpus/golden/bah.out", encoding="utf-8") as fh:
            assert out == fh.read()
    finally:
        os.unlink(path)


def test_reentrant_fstructure_gives_its_premises_once(capsys, tmp_path):
    path = tmp_path / "topic.fstr"
    path.write_text(
        '(fstruct f (PRED "arrive") (SUBJ (fstruct g (PRED "John"))) (TOPIC (ref g)))\n'
    )
    code, out, _ = run(
        capsys, "readings", "--fstructure", str(path), "--lexicon", "corpus/lexicon.glue"
    )
    assert (code, out) == (0, "arrive(John)\nreadings: 1\n")


def test_cyclic_ref_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "cycle.fstr"
    path.write_text('(fstruct f (PRED "arrive")\n  (SUBJ (ref f)))\n')
    code, out, err = run(
        capsys, "readings", "--fstructure", str(path), "--lexicon", "corpus/lexicon.glue"
    )
    assert code == 1 and out == ""
    assert err == f"error: {path}: line 2: reference to f, which encloses it\n"


@pytest.mark.parametrize("option", ["--fstructure", "--lexicon", "--formula"])
@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_unreadable_input_is_an_input_error(capsys, tmp_path, option, kind):
    if kind == "directory":
        bad, reason = tmp_path, "Is a directory"
    else:
        bad = tmp_path / "latin1.txt"
        bad.write_bytes('(fstruct f (PRED "café"))'.encode("latin-1"))
        reason = "not UTF-8 text (offset 21: invalid continuation byte)"
    files = {
        "--fstructure": "corpus/bah.fstr",
        "--lexicon": "corpus/lexicon.glue",
        "--formula": "corpus/type-raising.glue",
    }
    files[option] = str(bad)
    if option == "--formula":
        argv = ["prove", "--lexicon", files["--lexicon"], "--formula", files["--formula"]]
    else:
        argv = ["readings", "--fstructure", files["--fstructure"], "--lexicon", files["--lexicon"]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: {reason}\n"


PROVE_ARGS = ["prove", "--lexicon", "corpus/lexicon.glue", "--formula", "corpus/type-raising.glue"]


def assert_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    [],
    ["bah"],
    ["readings", "--lexicon", "corpus/lexicon.glue"],
    ["prove", "--lexicon", "corpus/lexicon.glue"],
    readings_args("bah", ["--bogus"]),
    readings_args("bah", ["--lex", "corpus/lexicon.glue"]),  # no abbreviations
    readings_args("bah", ["--formula", "corpus/type-raising.glue"]),
    readings_args("bah", ["stray"]),
    readings_args("bah", ["--max-steps", "many"]),
    readings_args("bah", ["--max-steps"]),
    readings_args("bah", ["--trace=yes"]),
], ids=["none", "no-command", "missing-readings-flag", "missing-prove-flag", "unknown-flag",
        "abbreviated-flag", "other-command-flag", "positional", "non-integer", "no-value",
        "flag-with-value"])
def test_usage_errors_are_input_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("flag", ["--max-steps", "--max-depth"])
@pytest.mark.parametrize("command", ["readings", "prove"])
def test_negative_budgets_are_input_errors(capsys, command, flag):
    base = readings_args("bah") if command == "readings" else PROVE_ARGS
    assert_usage_error(capsys, [*base, flag, "-1"])
    assert_usage_error(capsys, [*base, f"{flag}=-1"])


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["readings", "-h"], PROVE_ARGS + ["--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage:") and "glue readings --fstructure" in out


def test_help_survives_stripped_docstrings():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-OO", "-m", "gluesem.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage:")


@pytest.mark.parametrize("argv", [
    readings_args("conversation-every-unicorn"),
    readings_args("conversation-every-unicorn", ["--json"]),
    readings_args("conversation-every-unicorn", ["--trace"]),
    PROVE_ARGS + ["--trace"],
], ids=["plain", "json", "trace", "prove"])
def test_closed_output_exits_1_without_a_traceback(argv):
    # a reader that stops early, as `glue readings ... | head -1` does: the
    # output's read end is closed before the command writes to it
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "gluesem.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


@pytest.mark.parametrize("argv", [readings_args("bah"), PROVE_ARGS], ids=["readings", "prove"])
def test_budget_defaults_are_the_search_budget(argv):
    # the command line's defaults are read from SearchBudget, not spelled again
    _, opts = cli._parse_args(argv)
    default = SearchBudget()
    assert (opts["--max-steps"], opts["--max-depth"]) == (default.max_steps, default.max_depth)
    assert f"(defaults: {default.max_steps} steps, depth\n{default.max_depth})" in cli.USAGE


def test_option_values_may_follow_an_equals_sign(capsys):
    code, out, _ = run(capsys, "readings", "--fstructure=corpus/bah.fstr",
                       "--lexicon=corpus/lexicon.glue", "--max-steps=100")
    assert code == 0
    with open("corpus/golden/bah.out", encoding="utf-8") as fh:
        assert out == fh.read()


def test_readings_import_neither_argparse_nor_json():
    # -S: only what the package itself imports, not site customisations
    src = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from gluesem.cli import main; "
        "code = main(['readings', '--fstructure', 'corpus/seeks-a-unicorn.fstr', "
        "'--lexicon', 'corpus/lexicon.glue']); "
        "print(code, sorted(m for m in ('argparse', 'json') if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    lines = out.stdout.splitlines()
    assert lines[-2] == "readings: 2"
    assert lines[-1] == "0 []"


def test_cli_runs_script_writes_every_run(tmp_path):
    subprocess.run([sys.executable, "tests/cli_runs.py", ".", str(tmp_path)],
                   capture_output=True, check=True)
    texts = {f.stem: f.read_text(encoding="utf-8") for f in tmp_path.iterdir()}
    assert len(texts) == 74
    underivable = [name for name, _, code in GOLDEN_RUNS if code == 2]
    for stem, text in texts.items():
        code = 2 if any(stem.startswith(f"readings-{n}-") for n in underivable) else 0
        assert text.startswith(f"exit {code}\n--- stdout\n"), stem
    with open("corpus/golden/bah.out", encoding="utf-8") as fh:
        golden = fh.read()
    assert texts["readings-bah-intensional-plain"] == f"exit 0\n--- stdout\n{golden}--- stderr\n"


def test_untraced_script_lists_package_lines():
    out = subprocess.run([sys.executable, "tests/untraced.py", "-q", "tests/test_fstruct.py"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines and all(re.match(r"\w+\.py:\d+: ", line) for line in lines)
    # test_fstruct.py never runs the search
    assert any(line.startswith("prover.py:") for line in lines)


_PARSE_TYPE_TEST = """
from gluesem.terms import parse_type


def test_parse_type():
    parse_type("e -> t")
"""

_TOO_DEEP_TEST = """
import sys

import pytest

from gluesem.terms import App, Const, normalize


def test_normal_form_too_deep():
    t = Const("f", None)
    for _ in range(5 * sys.getrecursionlimit()):
        t = App(t, Const("a", None))
    with pytest.raises(RecursionError):
        normalize(t)
"""


def test_untraced_script_traces_the_tests_after_the_recursion_limit(tmp_path):
    # at the recursion limit the call into the tracer fails too, and Python
    # removes it; the lines that the next test runs must still count
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    def untraced(name, source):
        path = tmp_path / name / "test_case.py"
        path.parent.mkdir()
        path.write_text(source)
        out = subprocess.run(
            [sys.executable, "tests/untraced.py", "-q", "-p", "no:cacheprovider", str(path)],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        return set(out.stdout.splitlines())

    alone = untraced("alone", _PARSE_TYPE_TEST)
    after = untraced("after", _TOO_DEEP_TEST + _PARSE_TYPE_TEST)
    assert not [line for line in after if "bad type syntax" in line]  # parse_type's first
    assert after <= alone


def test_the_package_exports_the_documented_pipeline():
    # every other name is imported from its module
    assert sorted(gluesem.__all__) == [
        "GlueError", "load_lexicon", "parse_fstructure", "parse_lexicon", "readings_for_document"]
    assert all(hasattr(gluesem, name) for name in gluesem.__all__)


def test_readme_library_example_prints_the_golden_readings(capsys):
    readme = pathlib.Path("README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    with open("corpus/golden/every-candidate-a-manager.out", encoding="utf-8") as fh:
        readings = fh.read().splitlines()[:-1]  # less the `readings: N` line
    assert len(readings) == 2
    assert capsys.readouterr().out.splitlines() == readings
