"""Attribute-value structure tests: parsing, paths, projections."""

import pathlib
import re

import pytest

from gluesem.fstruct import (
    ROOT,
    VAR,
    FStructError,
    MissingAttribute,
    NoAntecedent,
    SemStruct,
    parse_fstructure,
    read_sexps,
    resolve,
    sigma,
    sigma_ant,
)

from helpers import print_fstructure, walk_nodes

BAH = """
; Bill appointed Hillary.
(fstruct f
  (PRED "appoint")
  (SUBJ (fstruct g (PRED "Bill")))
  (OBJ (fstruct h (PRED "Hillary"))))
"""

ADMIRER = """
(fstruct f
  (PRED "appoint")
  (SUBJ (fstruct g (SPEC "every") (PRED "candidate")))
  (OBJ (fstruct h (SPEC "a") (PRED "admirer")
    (OBL-OF (fstruct i (PRED "pro"))))))
(ant i g)
"""


def test_parse_basic_document():
    doc = parse_fstructure(BAH)
    assert doc.root.label == "f"
    assert doc.root.attrs["PRED"] == "appoint"
    assert doc.root.attrs["SUBJ"].label == "g"
    assert doc.root.attrs["OBJ"].label == "h"


def test_parse_single_node():
    doc = parse_fstructure('(fstruct f (PRED "Bill"))')
    assert doc.root.attrs == {"PRED": "Bill"}


def test_parse_oblique_and_link():
    doc = parse_fstructure(ADMIRER)
    assert resolve(doc.root, ("OBJ", "OBL-OF")).label == "i"
    assert doc.links == {"i": "g"}


def test_duplicate_label_rejected():
    with pytest.raises(FStructError):
        parse_fstructure('(fstruct f (SUBJ (fstruct f (PRED "Bill"))))')


def test_duplicate_attribute_rejected():
    with pytest.raises(FStructError):
        parse_fstructure('(fstruct f (PRED "a") (PRED "b"))')


def test_attribute_names_canonicalize_case():
    doc = parse_fstructure('(fstruct f (pred "appoint") (subj (fstruct g (PRED "Bill"))))')
    assert doc.root.attrs["PRED"] == "appoint"
    assert doc.root.attrs["SUBJ"].label == "g"


def test_syntax_error_reports_line():
    with pytest.raises(FStructError) as err:
        parse_fstructure('(fstruct f\n  (PRED "unterminated))')
    assert "line 2" in str(err.value)


def test_reader_keeps_strings_lines_and_comments():
    text = '(a "b c" ; (not read\n  ("" (d)))\n; x\ne'
    assert read_sexps(text) == [
        ([("a", 1), ('"b c', 1), ([('"', 2), ([("d", 2)], 2)], 2)], 1),
        ("e", 4),
    ]


@pytest.mark.parametrize(
    "text,error",
    [
        # the first error of a document; an unterminated string outranks
        # any error in the nesting of the parentheses
        ('(a))\n(b', "line 1: unexpected )"),
        (')\n"x', "line 2: unterminated string"),
        ("(" * 101 + '\n"x', "line 2: unterminated string"),
        ("(\n" * 101 + "))", "line 101: lists nest deeper than 100 levels"),
        ("(a\n(b)\n(c", "line 3: missing )"),
    ],
)
def test_reader_errors_name_the_line(text, error):
    with pytest.raises(FStructError, match=re.escape(error)):
        read_sexps(text)


def test_resolve_paths():
    doc = parse_fstructure(BAH)
    assert resolve(doc.root, ("SUBJ",)).label == "g"
    assert resolve(doc.root, ()) is doc.root
    with pytest.raises(MissingAttribute):
        resolve(doc.root, ("OBL-OF",))


def test_resolution_is_compositional():
    doc = parse_fstructure(ADMIRER)
    two_step = resolve(resolve(doc.root, ("OBJ",)), ("OBL-OF",))
    assert two_step is resolve(doc.root, ("OBJ", "OBL-OF"))


def test_sigma_identity():
    doc = parse_fstructure(ADMIRER)
    h = doc.by_label["h"]
    assert sigma(h, VAR) == SemStruct("h", VAR)
    assert sigma(h, VAR) != sigma(h, ROOT)
    assert sigma(h) == sigma(h)  # idempotent identity


def test_sigma_ant_resolves_through_link():
    doc = parse_fstructure(ADMIRER)
    assert sigma_ant(doc.by_label["i"], doc) == SemStruct("g", ROOT)


def test_sigma_ant_requires_link():
    doc = parse_fstructure('(fstruct f (OBJ (fstruct i (PRED "pro"))))')
    with pytest.raises(NoAntecedent):
        sigma_ant(doc.by_label["i"], doc)


def test_print_parse_round_trip():
    for text in (BAH, ADMIRER):
        doc = parse_fstructure(text)
        doc2 = parse_fstructure(print_fstructure(doc))
        assert print_fstructure(doc) == print_fstructure(doc2)
        assert sorted(doc2.by_label) == sorted(doc.by_label)


def test_reentrancy_via_ref():
    doc = parse_fstructure(
        '(fstruct f (SUBJ (fstruct g (PRED "Bill"))) (TOPIC (ref g)))'
    )
    assert resolve(doc.root, ("TOPIC",)) is resolve(doc.root, ("SUBJ",))


def test_reentrant_structure_is_one_node():
    doc = parse_fstructure(
        '(fstruct f (PRED "arrive") (SUBJ (fstruct g (PRED "John")))\n'
        "  (TOPIC (ref g)) (ADJ (fstruct h (PRED \"quickly\") (OF (ref g)))))"
    )
    assert [n.label for n in doc.nodes()] == ["f", "g", "h"]
    assert doc.nodes()[1] is doc.by_label["g"]


CORPUS = sorted(pathlib.Path("corpus").glob("*.fstr"))
# several (ref ...) to structures of other subtrees, each followed by
# structures defined after it
SHARED = [
    '(fstruct f (SUBJ (fstruct g (PRED "John") (POSS (fstruct k (PRED "pro")))))\n'
    '  (TOPIC (ref k)) (OBJ (fstruct h (PRED "book") (OF (ref g))\n'
    '    (ADJ (fstruct m (PRED "red") (MOD (ref g)) (ALSO (ref k)))))) (FOCUS (ref m)))',
    '(fstruct f (XCOMP (fstruct g (SUBJ (fstruct h (PRED "Bill")))\n'
    '  (OBJ (fstruct i (PRED "it"))))) (SUBJ (ref h)) (OBJ (ref i))\n'
    '  (ADJ (fstruct j (OF (ref g)) (AT (fstruct k (PRED "k") (TO (ref i)))))))',
]


@pytest.mark.parametrize(
    "text",
    [path.read_text(encoding="utf-8") for path in CORPUS] + SHARED,
    ids=[path.stem for path in CORPUS] + [f"shared-{i}" for i in range(len(SHARED))],
)
def test_nodes_are_the_label_table_in_preorder(text):
    # the label table is filled in preorder, so nodes() equals a walk from
    # the root that skips a structure reached again through (ref ...)
    doc = parse_fstructure(text)
    assert [id(n) for n in doc.nodes()] == [id(n) for n in walk_nodes(doc)]


def test_reentrant_premises_are_given_once():
    from gluesem.glue import load_lexicon, premises

    lexicon = load_lexicon("corpus/lexicon.glue")
    plain = parse_fstructure('(fstruct f (PRED "arrive") (SUBJ (fstruct g (PRED "John"))))')
    shared = parse_fstructure(
        '(fstruct f (PRED "arrive") (SUBJ (fstruct g (PRED "John"))) (TOPIC (ref g)))'
    )
    assert premises(shared, lexicon) == premises(plain, lexicon)


@pytest.mark.parametrize(
    "text",
    [
        '(fstruct f (PRED "arrive")\n  (SUBJ (ref f)))',
        '(fstruct f (PRED "arrive")\n  (SUBJ (fstruct g (PRED "John") (TOPIC (ref f)))))',
        '(fstruct f (PRED "arrive")\n  (SUBJ (fstruct g (PRED "John") (SELF (ref g)))))',
    ],
)
def test_ref_to_an_enclosing_structure_is_rejected(text):
    with pytest.raises(FStructError, match="line 2: reference to [fg], which encloses it"):
        parse_fstructure(text)


def test_ref_needs_one_label():
    with pytest.raises(FStructError, match=r"line 2: expected \(ref LABEL\)"):
        parse_fstructure('(fstruct f (PRED "arrive")\n  (SUBJ (ref)))')
