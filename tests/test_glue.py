"""Lexicon and premise-construction tests."""

import random

import pytest

from gluesem.fstruct import ROOT, SemStruct, parse_fstructure
from gluesem.glue import (
    AmbiguousEntry,
    Forall,
    IllTypedConstructor,
    Limp,
    Means,
    NoEntry,
    PropAtom,
    Tensor,
    entry_matches,
    formula_free_vars,
    inst_term_var,
    instantiate,
    load_lexicon,
    map_formula,
    parse_lexicon,
    premises,
    print_formula,
)
from gluesem.terms import Abs, App, Arrow, Cap, Const, Cup, E, MetaVar, T, Var, normalize

from helpers import free_meta_vars, random_term, subst_map

LEXICON_PATH = "corpus/lexicon.glue"


@pytest.fixture(scope="module")
def lex():
    return load_lexicon(LEXICON_PATH)


@pytest.fixture(scope="module")
def lex_ext():
    return load_lexicon(LEXICON_PATH, extensional=True)


def entry(lex, word, attr="PRED"):
    matches = [e for e in lex.entries if e.headword == word and e.trigger_attr == attr]
    assert len(matches) == 1, matches
    return matches[0]


def test_name_entry_shape(lex):
    bill = entry(lex, "Bill")
    assert isinstance(bill.template, Means)
    assert bill.template.term == Const("Bill", E)
    assert bill.template.ty == E


def test_noun_entry_shape(lex):
    voter = entry(lex, "voter")
    # one universal over entities, an implication from VAR to RESTR
    assert isinstance(voter.template, Forall)
    body = voter.template.body
    assert isinstance(body, Limp)
    assert body.ant.sem.slot == "VAR"
    assert body.cons.sem.slot == "RESTR"


def test_determiner_entry_is_two_conjunct(lex):
    every = entry(lex, "every", attr="SPEC")
    f = every.template
    while isinstance(f, Forall):
        f = f.body
    assert isinstance(f, Limp)
    assert isinstance(f.ant, Tensor)


def test_templates_typecheck_in_both_variants(lex, lex_ext):
    assert {e.headword for e in lex.entries} == {e.headword for e in lex_ext.entries}


def test_ill_typed_constructor_rejected():
    bad = """
    (const Bill e)
    (const appoint (-> e e t))
    (entry "broken" V (trigger PRED)
      (constructor (means (sig up) (appoint Bill) t)))
    """
    with pytest.raises(IllTypedConstructor, match="declares type t but .* has type e -> t"):
        parse_lexicon(bad)


def test_instantiate_transitive_verb(lex):
    doc = parse_fstructure(open("corpus/bah.fstr").read())
    appointed = entry(lex, "appointed")
    inst = instantiate(appointed, doc.root, doc)
    text = print_formula(inst)
    assert "g_s ~>_e X" in text
    assert "h_s ~>_e Y" in text
    assert "f_s ~>_t appoint(X, Y)" in text
    assert not formula_free_vars(inst)


def test_print_formula_brackets_a_left_implication_or_tensor_and_an_arrow_type():
    a, b, c = PropAtom("A"), PropAtom("B"), PropAtom("C")
    assert print_formula(Limp(Limp(a, b), c)) == "(A -o B) -o C"
    assert print_formula(Tensor(Tensor(a, b), c)) == "(A * B) * C"
    run = Const("run", Arrow(E, T))
    assert print_formula(Means(SemStruct("f", ROOT), run, Arrow(E, T))) == "f_s ~>_(e -> t) run"


def test_instantiate_name(lex):
    doc = parse_fstructure('(fstruct g (PRED "Bill"))')
    inst = instantiate(entry(lex, "Bill"), doc.root, doc)
    assert inst == Means(SemStruct("g", ROOT), Const("Bill", E), E)


def test_instantiate_pronoun_through_link(lex):
    doc = parse_fstructure(open("corpus/admirer-of-his.fstr").read())
    his = entry(lex, "his")
    inst = instantiate(his, doc.by_label["i"], doc)
    text = print_formula(inst)
    # the antecedent's structure is consumed and reintroduced alongside i's
    assert text.count("g_s ~>_e X") == 2
    assert "i_s ~>_e X" in text


def test_premises_for_basic_sentence(lex):
    doc = parse_fstructure(open("corpus/bah.fstr").read())
    prems = premises(doc, lex)
    assert [p.word for p in prems] == ["appointed", "Bill", "Hillary"]


def test_premises_single_node(lex):
    doc = parse_fstructure('(fstruct f (PRED "Bill"))')
    assert len(premises(doc, lex)) == 1


def test_premises_for_anaphora_document(lex):
    doc = parse_fstructure(open("corpus/admirer-of-his.fstr").read())
    words = [p.word for p in premises(doc, lex)]
    assert words == ["appointed", "every", "candidate", "a", "admirer", "his"]


def test_determiner_and_noun_both_trigger(lex):
    doc = parse_fstructure('(fstruct f (SPEC "every") (PRED "voter"))')
    words = [p.word for p in premises(doc, lex)]
    assert words == ["every", "voter"]


def test_no_entry_error(lex):
    doc = parse_fstructure('(fstruct f (PRED "xylophone"))')
    with pytest.raises(NoEntry):
        premises(doc, lex)


def test_ambiguous_entry_error():
    doubled = open(LEXICON_PATH).read() + """
    (entry "Bill" NP (trigger PRED)
      (constructor (means (sig up) Hillary e)))
    """
    lex2 = parse_lexicon(doubled)
    doc = parse_fstructure('(fstruct f (PRED "Bill"))')
    with pytest.raises(AmbiguousEntry):
        premises(doc, lex2)


def test_premise_multiplicity_not_deduplicated(lex):
    doc = parse_fstructure(
        '(fstruct f (PRED "appoint")'
        ' (SUBJ (fstruct g (PRED "Bill")))'
        ' (OBJ (fstruct h (PRED "Bill"))))'
    )
    words = [p.word for p in premises(doc, lex)]
    assert words.count("Bill") == 2


def test_instantiation_commutes_with_typechecking(lex):
    # every instantiated premise references only structures from the document
    doc = parse_fstructure(open("corpus/conversation-every-unicorn.fstr").read())
    labels = set(doc.by_label)
    for p in premises(doc, lex):
        for sem in _atom_sems(p.formula):
            if isinstance(sem, SemStruct):  # bound structure variables remain
                assert sem.owner in labels
        assert not formula_free_vars(p.formula)


def _atom_sems(f):
    match f:
        case Means(sem, _, _):
            return [sem]
        case Tensor(l, r) | Limp(l, r):
            return _atom_sems(l) + _atom_sems(r)
        case Forall(_, _, b):
            return _atom_sems(b)
        case _:
            return []


def test_extensional_variant_changes_determiner_types(lex, lex_ext):
    assert lex.ctx["every"] != lex_ext.ctx["every"]
    every_int = entry(lex, "every", attr="SPEC").template
    every_ext = entry(lex_ext, "every", attr="SPEC").template
    assert every_int != every_ext


def test_unlinked_pronoun_is_an_error(lex):
    from gluesem.fstruct import NoAntecedent

    doc = parse_fstructure(
        '(fstruct f (PRED "appoint")'
        ' (SUBJ (fstruct g (PRED "Bill")))'
        ' (OBJ (fstruct i (PRED "pro"))))'
    )
    with pytest.raises(NoAntecedent):
        premises(doc, lex)


def test_const_declarations_extend_context():
    lex2 = parse_lexicon(
        '(const giraffe (-> e t))\n'
        '(entry "giraffe" N (trigger PRED)\n'
        '  (constructor (forall ((X e))\n'
        '    (limp (means (svar (sig up)) X e)\n'
        '          (means (srestr (sig up)) (giraffe X) t)))))'
    )
    assert lex2.ctx["giraffe"] is not None
    assert any(e.headword == "giraffe" for e in lex2.entries)


# ---------------------------------------------------------------------------
# instantiating a quantified meaning variable


def _with_var(t, x, rng):
    """`t` with some constants of x's type replaced by x."""
    match t:
        case Const(_, ty) if ty == x.ty and rng.random() < 0.5:
            return x
        case Abs(ty, b):
            return Abs(ty, _with_var(b, x, rng))
        case App(f, a):
            return App(_with_var(f, x, rng), _with_var(a, x, rng))
        case Cap(b) | Cup(b):
            return type(t)(_with_var(b, x, rng))
    return t


def _random_template(rng, x, depth=3):
    """A random formula whose atoms hold normal terms, some mentioning x."""
    if depth == 0 or rng.random() < 0.3:
        ty = rng.choice([E, T, Arrow(E, T)])
        term = normalize(_with_var(random_term(rng, ty, 3), x, rng))
        return Means(SemStruct(f"f{rng.randrange(3)}", ROOT), term, ty)
    kind = rng.choice([Tensor, Limp, Forall])
    if kind is Forall:
        return Forall("Y", E, _random_template(rng, x, depth - 1))
    return kind(_random_template(rng, x, depth - 1), _random_template(rng, x, depth - 1))


def _atoms(f):
    match f:
        case Means():
            return [f]
        case Tensor(a, b) | Limp(a, b):
            return _atoms(a) + _atoms(b)
        case Forall(_, _, b):
            return _atoms(b)
    return []


def test_inst_term_var_agrees_with_named_substitution():
    kept = changed = 0
    for seed in range(200):
        rng = random.Random(seed)
        x = MetaVar("X", rng.choice([E, Arrow(E, T)]))
        value = rng.choice([Var("X!9", x.ty), MetaVar("X?9", x.ty)])
        f = _random_template(rng, x)
        out = inst_term_var(f, "X", value)
        oracle = map_formula(
            f, lambda m: Means(m.sem, normalize(subst_map(m.term, {"X": value})), m.ty)
        )
        assert out == oracle
        for before, after in zip(_atoms(f), _atoms(out)):
            if "X" in free_meta_vars(before.term):
                changed += 1
                assert "X" not in free_meta_vars(after.term)
            else:
                kept += 1
                assert after is before
    assert kept > 100 and changed > 100


# ---------------------------------------------------------------------------
# (syn SIGMA VALUE) constraints

NAMED_BY_CASE = """
(const Bill e)
(const Hillary e)
(entry "Bill" NP (syn (sig (path up CASE)) "nom")
  (constructor (means (sig up) Bill e)))
(entry "Bill" NP (syn (sig (path up CASE)) "acc")
  (constructor (means (sig up) Hillary e)))
"""


@pytest.mark.parametrize("case,meaning", [("nom", "Bill"), ("acc", "Hillary")])
def test_syn_constraints_choose_between_entries_with_one_pred(case, meaning):
    lex2 = parse_lexicon(NAMED_BY_CASE)
    doc = parse_fstructure(f'(fstruct f (PRED "Bill") (CASE "{case}"))')
    [premise] = premises(doc, lex2)
    assert premise.formula.term == Const(meaning, E)
    assert [e.constraints for e in lex2.entries] == [((("CASE",), "nom"),), ((("CASE",), "acc"),)]


@pytest.mark.parametrize(
    "fstructure",
    [
        '(fstruct f (PRED "Bill"))',
        '(fstruct f (PRED "Bill") (CASE "dat"))',
        '(fstruct f (PRED "Bill") (CASE (fstruct g (PRED "nom"))))',
    ],
)
def test_syn_constraint_on_a_missing_or_other_value_does_not_match(fstructure):
    lex2 = parse_lexicon(NAMED_BY_CASE)
    doc = parse_fstructure(fstructure)
    assert not any(entry_matches(e, doc.root) for e in lex2.entries)
    with pytest.raises(NoEntry):
        premises(doc, lex2)


def test_syn_constraint_through_a_path_the_node_lacks_does_not_match():
    lex2 = parse_lexicon(
        '(const Bill e)\n'
        '(entry "Bill" NP (syn (sig (path up SUBJ NUM)) "sg")\n'
        '  (constructor (means (sig up) Bill e)))\n'
    )
    [entry_] = lex2.entries
    assert not entry_matches(entry_, parse_fstructure('(fstruct f (PRED "Bill"))').root)
    assert not entry_matches(
        entry_, parse_fstructure('(fstruct f (PRED "Bill") (SUBJ "x"))').root
    )
    assert entry_matches(
        entry_,
        parse_fstructure('(fstruct f (PRED "Bill") (SUBJ (fstruct g (NUM "sg"))))').root,
    )


def test_an_entry_may_repeat_its_syn_clause_and_each_constraint_applies():
    lex2 = parse_lexicon(
        '(const Bill e)\n'
        '(entry "Bill" NP (syn (sig (path up CASE)) "nom") (syn (sig (path up NUM)) "sg")\n'
        '  (constructor (means (sig up) Bill e)))\n'
    )
    [entry_] = lex2.entries
    assert entry_.constraints == ((("CASE",), "nom"), (("NUM",), "sg"))
    matches = [
        entry_matches(entry_, parse_fstructure(f'(fstruct f (PRED "Bill") {attrs})').root)
        for attrs in ('(CASE "nom") (NUM "sg")', '(CASE "nom") (NUM "pl")',
                      '(CASE "acc") (NUM "sg")', '(CASE "nom")')
    ]
    assert matches == [True, False, False, False]


def test_constants_may_be_declared_after_the_entries_that_use_them():
    lex2 = parse_lexicon(
        '(entry "Bill" NP (constructor (means (sig up) Bill e)))\n(const Bill e)\n'
    )
    [premise] = premises(parse_fstructure('(fstruct f (PRED "Bill"))'), lex2)
    assert premise.formula.term == Const("Bill", E)
