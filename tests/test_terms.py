"""Meaning-language tests: typing, substitution, normalization, printing."""

import random

import pytest

from gluesem.glue import load_lexicon
from gluesem.prover import enumerate_readings
from gluesem.terms import (
    Abs,
    App,
    Arrow,
    BVar,
    Cap,
    Const,
    Cup,
    E,
    GlueError,
    MAX_NESTING,
    MetaVar,
    S,
    T,
    TypeMismatch,
    UnboundName,
    Var,
    alpha_equal,
    app,
    free_names,
    normalize,
    parse_type,
    print_term,
)

import work
from helpers import (
    RANDOM_SIGNATURE,
    arrow,
    parse_term,
    random_reduction,
    random_term,
    reference_print_term,
    substitute,
    typecheck,
)

CTX = load_lexicon("corpus/lexicon.glue").ctx


def t(text):
    return parse_term(text, CTX)


# ---------------------------------------------------------------------------
# typecheck


def test_typecheck_sentence_meaning():
    assert typecheck(t("appoint(Bill, Hillary)"), CTX) == T


def test_typecheck_identity_application():
    term = App(Abs(E, BVar(0)), Const("Bill", E))
    assert typecheck(term, CTX) == E


def test_typecheck_quantified_proposition():
    # determiners relate properties of type s -> e -> t
    term = t("every(^unicorn, ^\\x. appoint(Bill, x))")
    assert typecheck(term, CTX) == T
    assert CTX["every"] == arrow(
        Arrow(S, Arrow(E, T)), Arrow(S, Arrow(E, T)), T
    )


def test_typecheck_rejects_bad_application():
    with pytest.raises(TypeMismatch):
        typecheck(app(Const("voter", Arrow(E, T)), Const("voter", Arrow(E, T))), CTX)


def test_unbound_name_is_an_error():
    with pytest.raises(UnboundName):
        typecheck(Const("zorp", None), CTX)


def test_cap_cup_types():
    assert typecheck(Cap(Const("unicorn", Arrow(E, T))), CTX) == Arrow(S, Arrow(E, T))
    assert typecheck(Cup(Cap(Const("Bill", E))), CTX) == E


# ---------------------------------------------------------------------------
# substitute


def test_substitute_scope_variable():
    # S(x) with S := \z. convince(Bill, z) normalizes to convince(Bill, x)
    term = App(MetaVar("S", Arrow(E, T)), Var("x", E))
    repl = Abs(E, app(Const("convince", None), Const("Bill", None), BVar(0)))
    out = normalize(substitute(term, "S", repl))
    assert out == app(Const("convince", None), Const("Bill", None), Var("x", E))


def test_substitute_variable_for_variable():
    assert substitute(Var("x", E), "x", Const("Bill", E)) == Const("Bill", E)


def test_substitution_cannot_capture():
    # \x. rel(x, y) with y := x keeps the binder and the free x distinct
    body = Abs(E, app(Const("rel", arrow(E, E, T)), BVar(0), Var("y", E)))
    out = substitute(body, "y", Var("x", E))
    assert out == Abs(E, app(Const("rel", arrow(E, E, T)), BVar(0), Var("x", E)))
    assert set(free_names(out)) == {"x"}


# ---------------------------------------------------------------------------
# normalize


def test_beta_reduction_of_np_scope():
    # (\P. a(^unicorn, P))(p) -> a(^unicorn, p)
    fn = Abs(
        Arrow(S, Arrow(E, T)),
        app(Const("a", None), Cap(Const("unicorn", None)), BVar(0)),
    )
    arg = Var("p", Arrow(S, Arrow(E, T)))
    out = normalize(App(fn, arg))
    assert out == app(Const("a", None), Cap(Const("unicorn", None)), arg)


def test_extension_of_intension_collapses():
    assert normalize(Cup(Cap(Const("unicorn", None)))) == Const("unicorn", None)


def test_eta_contraction():
    # \x. voter(x) -> voter
    term = Abs(E, App(Const("voter", Arrow(E, T)), BVar(0)))
    assert normalize(term) == Const("voter", Arrow(E, T))


def test_intension_of_variable_extension_collapses():
    # ^(!x) -> x for a variable (index-independent denotation)
    v = Var("p", Arrow(S, Arrow(E, T)))
    assert normalize(Cap(Cup(v))) == v
    # but not for arbitrary terms
    term = Cap(Cup(App(Const("prop", arrow(E, S, T)), Const("c", E))))
    assert isinstance(normalize(term), Cap)


def test_normalize_idempotent_on_examples():
    for text in [
        "appoint(Bill, Hillary)",
        "seek(Bill, ^\\P. a(^unicorn, P))",
        "every(^candidate, ^\\x. a(^\\y. admirer(y, x), ^\\y. appoint(x, y)))",
    ]:
        n = t(text)
        assert normalize(n) == n


# ---------------------------------------------------------------------------
# alpha equality


def test_alpha_equal_ignores_binder_names():
    assert alpha_equal(t("\\x. voter(x)"), t("\\y. voter(y)"))


def test_alpha_distinguishes_structure():
    a = Abs(E, app(Const("appoint", None), BVar(0), BVar(0)))
    b = Abs(E, Abs(E, app(Const("appoint", None), BVar(1), BVar(0))))
    assert not alpha_equal(a, b)


def test_the_two_scope_readings_differ():
    ext = load_lexicon("corpus/lexicon.glue", extensional=True).ctx
    wide = parse_term("every(candidate, \\x. a(manager, \\y. appoint(x, y)))", ext)
    narrow = parse_term("a(manager, \\y. every(candidate, \\x. appoint(x, y)))", ext)
    assert not alpha_equal(wide, narrow)


# ---------------------------------------------------------------------------
# free_names


def test_free_vars_of_open_scope():
    term = Abs(E, app(Const("appoint", None), MetaVar("X", E), BVar(0)))
    assert set(free_names(term)) == {"X"}


def test_free_vars_closed():
    assert set(free_names(t("appoint(Bill, Hillary)"))) == set()


def test_free_vars_mixed():
    term = App(MetaVar("S", Arrow(E, T)), Var("x", E))
    assert set(free_names(term)) == {"S", "x"}


# ---------------------------------------------------------------------------
# printing and parsing


def test_print_parse_round_trip():
    for text in [
        "appoint(Bill, Hillary)",
        "seek(Bill, ^\\P. (!P)(Al))",
        "a(^unicorn, ^\\x. seek(Bill, ^\\P. (!P)(x)))",
        "every(^unicorn, ^\\x. a(^\\y. conv-with(y, x), ^\\y. seek(Bill, ^\\P. (!P)(y))))",
    ]:
        term = t(text)
        again = parse_term(print_term(term), CTX)
        assert alpha_equal(term, again)


def test_explicit_parens_also_round_trips():
    term = t("every(^unicorn, ^\\x. seek(Bill, ^a(^\\y. conv-with(y, x))))")
    again = parse_term(print_term(term, explicit_parens=True), CTX)
    assert alpha_equal(term, again)


def test_printing_is_alpha_invariant():
    assert print_term(t("\\x. voter(x)")) == print_term(t("\\u. voter(u)"))


def test_parse_type():
    assert parse_type("e -> t") == Arrow(E, T)
    assert parse_type("(s -> e -> t) -> t") == Arrow(Arrow(S, Arrow(E, T)), T)
    assert parse_type("((e)) -> (t)") == Arrow(E, T)
    assert parse_type("e->t") == Arrow(E, T)
    for bad in ("", "()", "(e", "e)", "e e", "-> e", "e ->", "e -> ) t",
                "t 42!", "e -> t!!", "t,"):
        with pytest.raises(GlueError, match="bad type syntax"):
            parse_type(bad)
    with pytest.raises(GlueError, match="unknown base type 'x'"):
        parse_type("e -> x")


def test_parse_type_nesting_limit():
    # a type nests at most MAX_NESTING levels, in parentheses or in arrows,
    # and deeper input is an error rather than a RecursionError
    n = MAX_NESTING
    left = "e -> e"
    for _ in range(n):
        left = f"({left}) -> e"  # n parentheses, n + 1 arrows
    assert parse_type("(" * n + "e" + ")" * n) == E
    assert parse_type("e -> " * n + "t") == arrow(*[E] * n, T)
    assert parse_type("(" * n + "e -> " * n + "t" + ")" * n) == arrow(*[E] * n, T)
    for deeper, what in [("(" * (n + 1) + "e" + ")" * (n + 1), "parentheses"),
                         ("e -> " * (n + 1) + "t", "arrows"),
                         (left, "arrows"),
                         ("(" * 5000 + "e" + ")" * 5000, "parentheses"),
                         ("e -> " * 5000 + "t", "arrows")]:
        with pytest.raises(GlueError, match=f"{what} nest deeper than {n} levels"):
            parse_type(deeper)


_BINDER_TYPES = [E, E, T, Arrow(E, T), Arrow(S, Arrow(E, T)), None]
# free names that bound names must skip, and a constant that they need not
_LEAF_NAMES = ["x", "y", "P", "Q", "x1", "P1", "c"]


def _printer_term(rng, depth, binders=0):
    """A random term for the printers, typed only as far as binder names
    depend on it: chains of up to 9 binders, free variables and
    metavariables named like bound ones, and loose indices."""
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.randrange(4)
        if kind == 0:
            return BVar(rng.randrange(binders + 2))  # loose when >= binders
        cls = (Var, MetaVar, Const)[kind - 1]
        return cls(rng.choice(_LEAF_NAMES), rng.choice([E, T]))
    kind = rng.choice(["abs", "chain", "app", "app", "cap", "cup"])
    if kind in ("abs", "chain"):
        n = 1 if kind == "abs" else rng.randint(2, 9)
        ty = rng.choice(_BINDER_TYPES)
        t = _printer_term(rng, depth - 1, binders + n)
        for _ in range(n):
            t = Abs(ty, t)
        return t
    if kind == "app":
        return App(_printer_term(rng, depth - 1, binders), _printer_term(rng, depth - 1, binders))
    return (Cap if kind == "cap" else Cup)(_printer_term(rng, depth - 1, binders))


def test_printer_matches_reference_on_random_terms():
    rng = random.Random(1999)
    rolled = 0
    for term in (_printer_term(rng, 5) for _ in range(1200)):
        for explicit in (False, True):
            text = print_term(term, explicit_parens=explicit)
            assert text == reference_print_term(term, explicit_parens=explicit)
        rolled += "x1." in text or "P1." in text or "x2." in text
    assert rolled > 20  # the generator reaches renamed binders


def test_printer_edge_cases_match_reference():
    x, p = Var("x", E), MetaVar("P", Arrow(E, T))
    rel = Const("rel", Arrow(E, Arrow(E, T)))
    ents = app(rel, BVar(7), BVar(0))
    for _ in range(8):  # 8 entity binders: x ... w, then x1, y1
        ents = Abs(E, ents)
    ents7 = app(rel, BVar(0), Var("x1", E))
    for _ in range(7):
        ents7 = Abs(E, ents7)
    props = BVar(6)
    for _ in range(7):  # 7 others: P ... T, then P1, Q1
        props = Abs(T, props)
    cases = {
        ents: "\\x. \\y. \\z. \\u. \\v. \\w. \\x1. \\y1. rel(x, y1)",
        props: "\\P. \\Q. \\R. \\S. \\T. \\P1. \\Q1. P",
        # free x and P: bound names skip them
        Abs(E, Abs(T, app(rel, x, BVar(1), p))): "\\y. \\Q. rel(x, y, P)",
        App(Abs(E, BVar(3)), BVar(0)): "(\\x. #3)(#0)",  # loose indices
        Cap(App(Cup(Abs(E, App(p, BVar(0)))), x)): "^(!\\y. P(y))(x)",
        Cup(Abs(T, Cap(App(p, BVar(0))))): "!\\Q. ^P(Q)",
        # a free x1: the seventh entity binder, named by the second walk, skips it
        ents7: "\\x. \\y. \\z. \\u. \\v. \\w. \\y1. rel(y1, x1)",
        app(rel, Cap(App(p, x)), Cup(Cap(Abs(E, App(p, BVar(0)))))): "rel(^P(x), !^\\y. P(y))",
    }
    for term, expected in cases.items():
        for explicit in (False, True):
            text = print_term(term, explicit_parens=explicit)
            assert text == reference_print_term(term, explicit_parens=explicit)
        assert print_term(term) == expected
    term = app(rel, Cap(App(p, x)), Cup(Abs(E, x)))
    assert print_term(term, explicit_parens=True) == "rel((^(P(x))), (!\\y. x))"


def test_printer_matches_reference_on_every_reading():
    # every reading of the work table's inputs, in both parenthesis modes
    printed = 0
    for name, prems, goal in work.inputs():
        for r in enumerate_readings(prems, goal).readings:
            for explicit in (False, True):
                assert print_term(r.term, explicit) == reference_print_term(r.term, explicit)
            printed += 1
    assert printed == 689  # the sum of tests/work.txt's readings column


def test_annotated_binders_parse_with_tight_arrows():
    term = t("\\P:(s->e->t)->t. P(^unicorn)")
    assert typecheck(term, CTX) == Arrow(Arrow(Arrow(S, Arrow(E, T)), T), T)
    assert "conv-with" in print_term(t("conv-with(Bill, Hillary)"))


# ---------------------------------------------------------------------------
# property suites


def test_normalization_confluent_and_idempotent():
    rng = random.Random(20240917)
    for _ in range(1000):
        term = random_term(rng, rng.choice([T, E, Arrow(E, T)]), 4)
        nf = normalize(term)
        assert normalize(nf) == nf
        assert random_reduction(rng, term) == nf


def test_normalization_preserves_types():
    rng = random.Random(5150)
    for _ in range(300):
        ty = rng.choice([T, E, Arrow(E, T), Arrow(S, Arrow(E, T))])
        term = random_term(rng, ty, 4)
        assert typecheck(term, RANDOM_SIGNATURE) == ty
        assert typecheck(normalize(term), RANDOM_SIGNATURE) == ty


def test_substitution_respects_alpha_classes():
    # alpha-variants share one positional skeleton, so this holds by
    # construction; assert it anyway as the contract
    one = Abs(E, App(MetaVar("S", Arrow(E, T)), BVar(0)))
    two = Abs(E, App(MetaVar("S", Arrow(E, T)), BVar(0)))
    repl = Abs(E, App(Const("voter", Arrow(E, T)), BVar(0)))
    assert alpha_equal(one, two)
    assert alpha_equal(
        substitute(one, "S", repl), substitute(two, "S", repl)
    )
