"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected meaning terms are written in surface syntax and compared up to
renaming of bound variables after normalization, so eta-variants of the
published forms compare equal.
"""

import itertools
import random
import sys
import time


from gluesem.cli import main as cli_main
from gluesem.fstruct import ROOT, SemStruct, parse_fstructure
from gluesem.glue import Limp, PropAtom, Tensor, load_lexicon, premises
from gluesem.prover import (
    enumerate_readings,
    prove_sequent,
    readings_for_document,
)
from gluesem.terms import normalize, print_term

from helpers import (
    RANDOM_SIGNATURE,
    free_meta_vars,
    free_named_terms,
    mill_provable,
    parse_term,
    random_reduction,
    random_term,
    typecheck,
    unify,
)

LEX = load_lexicon("corpus/lexicon.glue")
LEX_EXT = load_lexicon("corpus/lexicon.glue", extensional=True)

ALL_CORPUS = [
    ("bah", LEX),
    ("convince-every-voter", LEX_EXT),
    ("every-candidate-a-manager", LEX_EXT),
    ("admirer-of-his", LEX),
    ("seeks-al", LEX),
    ("seeks-a-unicorn", LEX),
    ("conversation-every-unicorn", LEX),
    ("john-devoured", LEX),
    ("john-arrived-bill-the-sink", LEX),
]


def check(number, desc, fn):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"[acceptance] criterion {number:>3}: FAIL  {desc}", file=sys.__stdout__)
        raise
    elapsed = time.monotonic() - start
    print(
        f"[acceptance] criterion {number:>3}: PASS  {desc}  ({elapsed:.2f}s)",
        file=sys.__stdout__,
    )
    assert elapsed < 5.0, f"criterion must finish within 5s, took {elapsed:.1f}"


def doc_for(name):
    with open(f"corpus/{name}.fstr", encoding="utf-8") as fh:
        return parse_fstructure(fh.read())


def canonical(text, lex):
    return print_term(parse_term(text, lex.ctx))


def reading_set(name, lex):
    result, _ = readings_for_document(doc_for(name), lex)
    assert not result.stats.exhausted
    return {r.text for r in result.readings}


def test_criterion_1_bill_appointed_hillary():
    def body():
        got = reading_set("bah", LEX)
        assert got == {canonical("appoint(Bill, Hillary)", LEX)}

    check(1, "one reading for a simple transitive clause", body)


def test_criterion_2_unambiguous_single_quantifier():
    def body():
        got = reading_set("convince-every-voter", LEX_EXT)
        assert got == {canonical("every(voter, \\z. convince(Bill, z))", LEX_EXT)}

    check(2, "single quantifier yields exactly one reading", body)


def test_criterion_3_two_quantifier_scope_ambiguity():
    def body():
        got = reading_set("every-candidate-a-manager", LEX_EXT)
        expected = {
            canonical("every(candidate, \\u. a(manager, \\v. appoint(u, v)))", LEX_EXT),
            canonical("a(manager, \\v. every(candidate, \\u. appoint(u, v)))", LEX_EXT),
        }
        assert got == expected

    check(3, "double quantification yields exactly the two scopings", body)


def test_criterion_4_bound_anaphora_blocks_wide_scope():
    def body():
        got = reading_set("admirer-of-his", LEX)
        expected = {
            canonical(
                "every(^candidate, ^\\w. a(^\\z. admirer(z, w), ^\\z. appoint(w, z)))",
                LEX,
            )
        }
        assert got == expected

    check(4, "pronoun bound by the subject forces narrow scope", body)


def test_criterion_5_de_dicto_and_de_re():
    def body():
        got = reading_set("seeks-a-unicorn", LEX)
        expected = {
            canonical("seek(Bill, ^\\P. a(^unicorn, P))", LEX),
            canonical("a(^unicorn, ^\\z. seek(Bill, ^\\P. (!P)(z)))", LEX),
        }
        assert got == expected

    check(5, "intensional verb with indefinite object: de dicto and de re", body)


def test_criterion_6_nonquantified_object():
    def body():
        got = reading_set("seeks-al", LEX)
        assert got == {canonical("seek(Bill, ^\\P. (!P)(Al))", LEX)}

    check(6, "a name supplies the quantifier meaning an intensional verb needs", body)


def test_criterion_7_type_raising_theorem(capsys):
    def body():
        code = cli_main(
            ["prove", "--lexicon", "corpus/lexicon.glue",
             "--formula", "corpus/type-raising.glue"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "provable"

    check(7, "the general type-raising sequent is derivable", body)


def test_criterion_8_five_readings():
    def body():
        got = reading_set("conversation-every-unicorn", LEX)
        expected = {
            canonical(
                "seek(Bill, ^\\P. every(^unicorn, ^\\u. a(^\\z. conv-with(z, u), P)))",
                LEX,
            ),
            canonical(
                "seek(Bill, ^\\P. a(^\\z. every(^unicorn, ^\\u. conv-with(z, u)), P))",
                LEX,
            ),
            canonical(
                "every(^unicorn, ^\\u. seek(Bill, ^\\P. a(^\\z. conv-with(z, u), P)))",
                LEX,
            ),
            canonical(
                "every(^unicorn, ^\\u. a(^\\z. conv-with(z, u),"
                " ^\\z. seek(Bill, ^\\P. (!P)(z))))",
                LEX,
            ),
            canonical(
                "a(^\\z. every(^unicorn, ^\\u. conv-with(z, u)),"
                " ^\\z. seek(Bill, ^\\P. (!P)(z)))",
                LEX,
            ),
        }
        assert got == expected
        assert len(got) == 5

    check(8, "the embedded-quantifier sentence has exactly five readings", body)


def test_criterion_9_completeness_and_coherence(capsys):
    def body():
        for name in ("john-devoured", "john-arrived-bill-the-sink"):
            code = cli_main(
                ["readings", "--fstructure", f"corpus/{name}.fstr",
                 "--lexicon", "corpus/lexicon.glue"]
            )
            out = capsys.readouterr().out
            assert code == 2
            assert out.strip().endswith("readings: 0")

    check(9, "incomplete and incoherent inputs yield no readings, exit 2", body)


def test_criterion_10a_exchange_invariance():
    def body():
        rng = random.Random(1848)
        for name, lex in ALL_CORPUS:
            doc = doc_for(name)
            prems = premises(doc, lex)
            goal = SemStruct(doc.root.label, ROOT)
            baseline = [r.text for r in enumerate_readings(prems, goal).readings]
            for _ in range(20):
                perm = prems[:]
                rng.shuffle(perm)
                texts = [r.text for r in enumerate_readings(perm, goal).readings]
                assert texts == baseline, name

    check("10a", "reading sets invariant under premise exchange (20 shuffles/file)", body)


def test_criterion_10b_normalization_properties():
    def body():
        from gluesem.terms import Arrow, E, S, T

        rng = random.Random(60902)
        pool = [T, E, Arrow(E, T), Arrow(S, Arrow(E, T))]
        for _ in range(1000):
            ty = rng.choice(pool)
            term = random_term(rng, ty, 4)
            nf = normalize(term)
            assert normalize(nf) == nf
            assert random_reduction(rng, term) == nf
            assert typecheck(nf, RANDOM_SIGNATURE) == ty

    check("10b", "confluence, idempotence, type preservation on 1000 terms", body)


def test_criterion_10c_unifier_soundness_and_generality():
    def body():
        from test_unify import _random_pattern_problem

        from gluesem.terms import (
            App,
            Arrow,
            Const,
            E,
            MetaVar,
            T,
            Var,
            alpha_equal,
            app,
        )
        from gluesem.unify import EIGEN, FLEX, Substitution, VarClass

        rng = random.Random(140699)
        solved = 0
        for _ in range(1000):
            vc, f, lhs, rhs, args = _random_pattern_problem(rng)
            su = unify([(lhs, rhs)], vc)
            if su is None:
                continue
            solved += 1
            assert alpha_equal(su.nf(lhs), su.nf(rhs))
        assert solved >= 400

        # generality against exhaustive enumeration of solutions up to size 5
        voter = Const("voter", Arrow(E, T))
        bill = Const("Bill", E)
        x = Var("x", E)
        problems = [
            (App(MetaVar("F", Arrow(E, E)), x), x),
            (App(MetaVar("F", Arrow(E, T)), x), App(voter, x)),
            (App(MetaVar("F", Arrow(E, T)), x), App(voter, bill)),
            (MetaVar("F", E), bill),
        ]
        for lhs, rhs in problems:
            vc = VarClass()
            head = lhs
            while isinstance(head, App):
                head = head.fn
            vc.classify(head.name, FLEX)
            vc.classify("x", EIGEN)
            su = unify([(lhs, rhs)], vc)
            binding = su.nf(head)
            spine_args = []
            walk = lhs
            while isinstance(walk, App):
                spine_args.append(walk.arg)
                walk = walk.fn
            spine_args.reverse()
            for cand in free_named_terms(
                head.ty, 5, [("Bill", E), ("voter", Arrow(E, T))], []
            ):
                if not alpha_equal(
                    normalize(app(cand, *spine_args)), normalize(rhs)
                ):
                    continue
                inst = VarClass()
                for name in free_meta_vars(binding):
                    inst.classify(name, FLEX)
                assert unify([(binding, cand)], inst, Substitution()) is not None

    check("10c", "unifier soundness (1000 problems) and generality (size <= 5)", body)


def test_criterion_10d_linearity_accounting():
    def body():
        for name, lex in ALL_CORPUS:
            doc = doc_for(name)
            result, prems = readings_for_document(doc, lex)
            for r in result.readings:
                seen = []

                def walk(n):
                    if n.rule == "Focus":  # consumes n.res
                        seen.append(n.res)
                    for c in n.children:
                        walk(c)

                walk(r.derivation)
                assert len(seen) == len({res.rid for res in seen}), name
                # premises, and only they, have a class of equal formulas
                assert sum(res.dup is not None for res in seen) == len(prems), name

    check("10d", "every premise consumed exactly once in every derivation", body)


def test_criterion_10e_propositional_brute_force_agreement():
    def body():
        a, b = PropAtom("A"), PropAtom("B")
        universe = [
            a, b,
            Tensor(a, a), Tensor(a, b), Tensor(b, a), Tensor(b, b),
            Limp(a, a), Limp(a, b), Limp(b, a), Limp(b, b),
        ]
        checked = 0
        for k in range(0, 4 + 1):
            for ctx in itertools.combinations_with_replacement(universe, k):
                for goal in (a, b):
                    engine = bool(list(prove_sequent(tuple(ctx), goal)))
                    oracle = mill_provable(list(ctx), goal)
                    assert engine == oracle, (ctx, goal)
                    checked += 1
        assert checked == 2 * sum(
            len(list(itertools.combinations_with_replacement(universe, k)))
            for k in range(5)
        )

    check("10e", "reading counts match a brute-force resource enumerator (<= 4 premises)", body)
