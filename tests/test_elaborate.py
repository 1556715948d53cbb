"""The typechecker that lexicons run: type synthesis over annotated binders,
checked against the unification-based inference in tests/helpers.py."""

import random

from gluesem.fstruct import read_sexps
from gluesem.glue import Forall, Limp, Means, Tensor, load_lexicon, parse_formula_sexp
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
    S,
    T,
    elaborate,
)

from helpers import RANDOM_SIGNATURE, reference_elaborate, random_term, term_size

LEXICON = "corpus/lexicon.glue"
TYPES = [E, T, Arrow(E, T), Arrow(Arrow(E, T), T), Arrow(S, Arrow(E, T))]


def _constructors(text, variant):
    """The constructor formulas, before typechecking, of the entries that
    `variant` selects."""
    for val, _ in read_sexps(text):
        if val[0][0] != "entry":
            continue
        clauses = {plist[0][0]: plist for plist, _ in val[3:]}
        tag = clauses.get("variant")
        if tag is None or tag[1][0] == variant:
            yield parse_formula_sexp(clauses["constructor"][1])


def _atoms(f):
    match f:
        case Means():
            yield f
        case Tensor(l, r) | Limp(l, r):
            yield from _atoms(l)
            yield from _atoms(r)
        case Forall(_, _, b):
            yield from _atoms(b)


def outcome(check, term, ctx):
    """The elaborated term and its type, or the class of the error raised."""
    try:
        return check(term, ctx)
    except GlueError as e:
        return type(e)


def test_synthesis_agrees_with_inference_on_every_constructor_atom():
    with open(LEXICON, encoding="utf-8") as fh:
        text = fh.read()
    for extensional, variant in ((False, "intensional"), (True, "extensional")):
        ctx = load_lexicon(LEXICON, extensional).ctx
        atoms = [m for f in _constructors(text, variant) for m in _atoms(f)]
        assert len(atoms) > 50
        for m in atoms:
            term, ty = elaborate(m.term, ctx)
            assert (term, ty) == reference_elaborate(m.term, ctx)
            assert ty == m.ty


def test_a_typed_constant_the_context_lacks_keeps_its_type():
    assert elaborate(Const("c", E), {}) == (Const("c", E), E)


def test_synthesis_agrees_with_inference_on_type_raising():
    ctx = load_lexicon(LEXICON).ctx
    with open("corpus/type-raising.glue", encoding="utf-8") as fh:
        (node,) = read_sexps(fh.read())
    atoms = list(_atoms(parse_formula_sexp(node)))
    assert len(atoms) == 4
    for m in atoms:
        assert elaborate(m.term, ctx) == reference_elaborate(m.term, ctx)
        assert elaborate(m.term, ctx)[1] == m.ty


def _untyped_constants(t):
    match t:
        case Const(n, _):
            return Const(n, None)
        case Abs(ty, b):
            return Abs(ty, _untyped_constants(b))
        case App(f, a):
            return App(_untyped_constants(f), _untyped_constants(a))
        case Cap(b) | Cup(b):
            return type(t)(_untyped_constants(b))
    return t


def test_synthesis_agrees_with_inference_on_random_terms():
    for seed in range(300):
        rng = random.Random(seed)
        ty = rng.choice(TYPES)
        term = random_term(rng, ty, 4)
        want = reference_elaborate(term, RANDOM_SIGNATURE)
        assert want[1] == ty
        assert elaborate(term, RANDOM_SIGNATURE) == want
        # constants without types take theirs from the context
        bare = _untyped_constants(term)
        assert elaborate(bare, RANDOM_SIGNATURE) == want


def _mutate(rng, term):
    """`term` with one node, chosen in preorder, replaced by a variation that
    is often ill-typed."""
    target = rng.randrange(term_size(term))
    seen = 0

    def go(t):
        nonlocal seen
        seen += 1
        if seen - 1 == target:
            name, ty = rng.choice(list(RANDOM_SIGNATURE.items()))
            other = Const(name, ty)
            options = [other, Cup(t), Cap(t), App(t, other), App(other, t), Const("nosuch", None),
                       Const(name, rng.choice(TYPES))]  # may clash with the declared type
            if isinstance(t, Abs):
                options.append(Abs(rng.choice(TYPES), t.body))
            if isinstance(t, BVar):
                options.append(BVar(t.index + 1))
            return rng.choice(options)
        match t:
            case Abs(ty, b):
                return Abs(ty, go(b))
            case App(f, a):
                return App(go(f), go(a))
            case Cap(b) | Cup(b):
                return type(t)(go(b))
        return t

    return go(term)


def test_synthesis_and_inference_reject_the_same_mutations():
    rejected = 0
    for seed in range(300):
        rng = random.Random(seed)
        term = _mutate(rng, random_term(rng, rng.choice(TYPES), 4))
        got = outcome(elaborate, term, RANDOM_SIGNATURE)
        assert got == outcome(reference_elaborate, term, RANDOM_SIGNATURE), seed
        rejected += isinstance(got, type)
    assert rejected >= 150
