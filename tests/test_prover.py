"""Proof-search tests: linearity, theorems, scope constraints, determinism."""

import gc
import itertools
import pathlib
import random
import subprocess
import sys
import weakref

import pytest

from gluesem.fstruct import ROOT, SemStruct, SemVar, parse_fstructure
from gluesem.glue import (
    SEM,
    Forall,
    Limp,
    Means,
    Premise,
    PropAtom,
    Tensor,
    load_lexicon,
    parse_formula_document,
    premises,
)
from gluesem import prover
from gluesem.prover import (
    Derivation,
    Prover,
    SearchBudget,
    enumerate_readings,
    prove_sequent,
    readings_for_document,
    render_trace,
)
from gluesem.terms import (
    Arrow,
    Const,
    Cup,
    E,
    GlueError,
    MetaVar,
    S,
    T,
    App,
    free_names,
    normalize,
    print_term,
)
from gluesem.unify import Substitution, VarClass

import scaling
import work
from reference_unifier import OpenSubstitution
from helpers import (
    EagerProver,
    check_theorem,
    free_meta_vars,
    full_atom_match,
    mill_provable,
    scope_doc,
    typecheck,
    with_prover,
)

A = PropAtom("A")
B = PropAtom("B")
PROP = Arrow(S, Arrow(E, T))

LEX = load_lexicon("corpus/lexicon.glue")
LEX_EXT = load_lexicon("corpus/lexicon.glue", extensional=True)
CORPUS = sorted(p.stem for p in pathlib.Path("corpus").glob("*.fstr"))


def doc_for(name):
    with open(f"corpus/{name}.fstr", encoding="utf-8") as fh:
        return parse_fstructure(fh.read())


def reading_texts(name, lex=LEX, budget=SearchBudget()):
    result, _ = readings_for_document(doc_for(name), lex, budget=budget)
    return [r.text for r in result.readings]


# ---------------------------------------------------------------------------
# sequent-level behaviour


def test_atomic_identity_has_exactly_one_proof():
    proofs = list(prove_sequent((A,), A))
    assert len(proofs) == 1
    assert proofs[0][1].rule == "Identity"


def test_every_complete_proof_is_checked_for_linearity(monkeypatch):
    # sequents and readings alike: one check per proof, before it is returned
    checked = []
    real = prover.check_linearity
    monkeypatch.setattr(prover, "check_linearity",
                        lambda d, ctx: checked.append(d) or real(d, ctx))
    proofs = list(prove_sequent((A, Limp(A, B)), B))
    assert len(proofs) == 1 and checked == [proofs[0][1]]
    checked.clear()
    result, _ = readings_for_document(doc_for("every-candidate-a-manager"), LEX)
    assert len(checked) == result.stats.proofs == 2


def test_resource_surplus_fails():
    assert list(prove_sequent((A, A), A)) == []


def test_resource_duplication_fails():
    assert list(prove_sequent((A,), Tensor(A, A))) == []


def test_tensor_splits():
    assert list(prove_sequent((A, B), Tensor(A, B)))
    assert list(prove_sequent((A, B), Tensor(B, A)))


def test_implication_chaining():
    assert list(prove_sequent((A, Limp(A, B)), B))
    assert not list(prove_sequent((Limp(A, B),), B))


def test_open_sequent_is_an_input_error():
    # prove_sequent takes a closed sequent: a free name is refused before
    # the search starts, in either the context or the goal
    f = Means(SemVar("X"), MetaVar("M", T), T)
    with pytest.raises(GlueError, match="not closed: X is free"):
        prove_sequent((f,), f)
    with pytest.raises(GlueError, match="not closed: M is free"):
        prove_sequent((A,), Limp(A, Means(SemStruct("g", ROOT), MetaVar("M", T), T)))


def test_goal_variable_is_an_input_error():
    # the readings of a variable are refused before the search starts
    prems = [Premise("Bill", "g", Means(SemStruct("g", ROOT), Const("Bill", E), E))]
    with pytest.raises(GlueError, match="not a semantic structure: G"):
        enumerate_readings(prems, SemVar("G"))


def test_head_filter_keeps_flex_structures():
    # the filter must let a flex structure on either side through to the
    # unifier.  A goal: H is bound by the focused formula, whose head is A,
    # so its antecedent's goal H ~> c is still flex.  A resource: the
    # assumption H ~> c made while proving the antecedent of q.
    gs, c, h = SemStruct("g", ROOT), Const("c", E), SemVar("H")
    p = Forall("H", SEM, Limp(Means(h, c, E), A))
    assert len(list(prove_sequent((p, Means(gs, c, E)), A))) == 1
    q = Forall("H", SEM, Limp(Limp(Means(h, c, E), A), B))
    r = Forall("x", E, Limp(Means(gs, MetaVar("x", E), E), A))
    assert len(list(prove_sequent((q, r), B))) == 1


def test_al_functions_as_a_quantifier():
    # h ~> Al proves the type-raised NP meaning at any fixed scope structure
    hs, ss = SemStruct("h", ROOT), SemStruct("s", ROOT)
    al = Const("Al", E)
    p = MetaVar("P", PROP)
    x = MetaVar("x", E)
    goal = Forall(
        "P",
        PROP,
        Limp(
            Forall("x", E, Limp(Means(hs, x, E), Means(ss, App(Cup(p), x), T))),
            Means(ss, App(Cup(p), al), T),
        ),
    )
    proofs = list(prove_sequent((Means(hs, al, E),), goal))
    assert proofs


def test_check_theorem_type_raising():
    formula = parse_formula_document(
        open("corpus/type-raising.glue", encoding="utf-8").read(), LEX.ctx
    )
    ok, derivation = check_theorem(formula)
    assert ok and derivation is not None


def test_check_theorem_no_premise_no_proof():
    assert check_theorem(Means(SemStruct("s", ROOT), Const("Bill", E), E))[0] is False


def test_check_theorem_linear_identity():
    assert check_theorem(Limp(A, A))[0] is True
    assert check_theorem(Limp(A, Tensor(A, A)))[0] is False


# ---------------------------------------------------------------------------
# readings


def test_identity_reading():
    prem = Premise("Bill", "g", Means(SemStruct("g", ROOT), Const("Bill", E), E))
    result = enumerate_readings([prem], SemStruct("g", ROOT), goal_type=E)
    assert [r.text for r in result.readings] == ["Bill"]


def test_no_reading_is_a_valid_outcome():
    prem = Premise("Bill", "g", Means(SemStruct("g", ROOT), Const("Bill", E), E))
    result = enumerate_readings([prem], SemStruct("h", ROOT), goal_type=E)
    assert result.readings == []


def test_scope_constraint_for_bound_anaphora():
    # §-constraint: with the pronoun linked to the subject quantifier, the
    # indefinite cannot outscope it: exactly one reading, narrow scope
    texts = reading_texts("admirer-of-his")
    assert texts == [
        "every(^candidate, ^\\x. a(^\\y. admirer(y, x), ^appoint(x)))"
    ]


def test_type_subscript_blocks_degenerate_scope():
    # adding the derivable identity e->e premise does not create a reading
    # with the identity as scope: the subscript on the meaning relation
    # requires a dependency of a proposition on an individual
    doc = doc_for("convince-every-voter")
    prems = premises(doc, LEX_EXT)
    hs = SemStruct("h", ROOT)
    identity = Forall(
        "Y", E, Limp(Means(hs, MetaVar("Y", E), E), Means(hs, MetaVar("Y", E), E))
    )
    extended = prems + [Premise("noop", "h", identity)]
    base = enumerate_readings(prems, SemStruct("f", ROOT))
    more = enumerate_readings(extended, SemStruct("f", ROOT))
    assert [r.text for r in base.readings] == [r.text for r in more.readings]
    assert len(base.readings) == 1


# An identity sentence modifier at the root f: forall M:t. f~>M -o f~>M
_fs, _m = SemStruct("f", ROOT), MetaVar("M", T)
MODIFIER = Premise("indeed", "f", Forall("M", T, Limp(Means(_fs, _m, T), Means(_fs, _m, T))))
MODIFIED = [("admirer-of-his", LEX, 2), ("every-candidate-a-manager", LEX_EXT, 1)]


def test_readings_deduplicate_alpha_equal_proofs():
    # An identity sentence modifier at the root can take scope at several
    # points of the derivation, so each one multiplies the proofs of a single
    # meaning; no corpus sentence alone has more proofs than readings.
    # `proofs > readings` is the evidence that deduplication ran: if a later
    # search change stops producing these spurious proofs, revisit the
    # fixture, not the assertion.
    for name, lex, n_modifiers in MODIFIED:
        prems = premises(doc_for(name), lex) + [MODIFIER] * n_modifiers
        result = enumerate_readings(prems, _fs)
        assert result.stats.proofs > len(result.readings) >= 1
        with open(f"corpus/golden/{name}.out", encoding="utf-8") as fh:
            golden = [line for line in fh.read().splitlines() if not line.startswith("readings:")]
        assert [r.text for r in result.readings] == golden


def test_head_filter_rejects_only_failing_focuses(monkeypatch):
    # every corpus document under its golden's lexicon variant, and the
    # modifier fixture above: the same proofs and readings whether or not
    # the head filter runs, in strictly fewer steps when it does.  Unfiltered,
    # the head index offers every available resource as a candidate, and the
    # full atom match rejects the heads that the index would have.
    cases = [
        (name, LEX_EXT if name in ("convince-every-voter", "every-candidate-a-manager") else LEX, 0)
        for name in CORPUS
    ] + MODIFIED

    def search():
        out = []
        for name, lex, n_modifiers in cases:
            doc = doc_for(name)
            prems = premises(doc, lex) + [MODIFIER] * n_modifiers
            result = enumerate_readings(prems, SemStruct(doc.root.label, ROOT))
            assert not result.stats.exhausted
            out.append((result.stats, [r.text for r in result.readings]))
        return out

    filtered = search()
    monkeypatch.setattr(Prover, "_candidates", lambda self, su, ctx, goal: ctx)
    monkeypatch.setattr(Prover, "_unify_atoms", full_atom_match)
    unfiltered = search()
    for (name, _, _), (on, on_texts), (off, off_texts) in zip(cases, filtered, unfiltered):
        assert (on.proofs, on_texts) == (off.proofs, off_texts), name
        assert on.steps < off.steps, name
        assert on.head_rejects > 0 and off.head_rejects == 0, name


def test_scaling_script_prints_the_catalan_counts():
    out = subprocess.run(
        [sys.executable, "tests/scaling.py", "2", "--repeat", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == scaling.HEADER
    cells = [line.split(" | ") for line in out[2:]]
    assert [(c[0], c[1]) for c in cells] == [("| 0", "2"), ("| 1", "5"), ("| 2", "14")]
    assert [c[5] for c in cells] == ["12", "29", "65"]  # equations
    cut = scaling.row(2, LEX, SearchBudget(max_steps=100)).split(" | ")
    assert cut[1].endswith(" of 14") and cut[2] == "101, max-steps hit"


def test_work_table_is_current():
    # the steps, proofs, readings, equations and head rejects of the scope
    # family, the corpus and the modifier shapes; a change in the work
    # rewrites the table with `python3 tests/work.py`
    assert work.table() == work.TABLE.read_text(encoding="utf-8")


def rule_tree(d):
    """The rules of `d` with the resource each Identity or TensorL node consumes."""
    rid = d.res.rid if d.rule in ("Identity", "TensorL") else None
    return d.rule, rid, tuple(rule_tree(c) for c in d.children)


def readings_run(prems, goal_sem, goal_type=T):
    def run():
        result = enumerate_readings(prems, goal_sem, goal_type=goal_type)
        return [(r.text, rule_tree(r.derivation)) for r in result.readings]

    return run


def sequent_run(context, goal):
    return lambda: [rule_tree(d) for _, d in prove_sequent(context, goal)]


_DETS = ("a", "every", "the")
_gs, _hs, _ks = SemStruct("g", ROOT), SemStruct("h", ROOT), SemStruct("k", ROOT)
_Y, _Z = MetaVar("Y", E), MetaVar("Z", E)
_BILL, _HILLARY = (Means(_gs, Const(n, E), E) for n in ("Bill", "Hillary"))
# structure and type match everywhere, but the meaning equations fail
REJECTED = [
    # Bill = Hillary: a constant clash
    sequent_run((_BILL,), _HILLARY),
    # the same clash at a focus whose antecedent the skeleton search goes on
    # to prove
    sequent_run((Limp(A, _BILL), A), _HILLARY),
    # the goal meaning, made before the eigenvariable x, would have to be x:
    # Y := M, Z := Y, then M = x lets x escape its scope
    readings_run(
        [
            Premise("p", "h", Forall("Y", E, Limp(
                Forall("x", E, Limp(Means(_ks, MetaVar("x", E), E), Means(_gs, _Y, E))),
                Means(_hs, _Y, E)))),
            Premise("q", "g", Forall("Z", E, Limp(Means(_ks, _Z, E), Means(_gs, _Z, E)))),
        ],
        _hs,
        E,
    ),
]


def shipped_runs():
    """A run for every shipped input: the corpus under both lexicon
    variants, the modifier fixtures, the scope family up to k=3 and the
    type-raising theorem."""
    runs = []
    for name in CORPUS:
        for lex in (LEX, LEX_EXT):
            doc = doc_for(name)
            runs.append(readings_run(premises(doc, lex), SemStruct(doc.root.label, ROOT)))
    for name, lex, n_modifiers in MODIFIED:
        prems = premises(doc_for(name), lex) + [MODIFIER] * n_modifiers
        runs.append(readings_run(prems, _fs))
    for k in range(4):
        for i in range(len(_DETS)):
            doc = scope_doc([_DETS[(i + j) % len(_DETS)] for j in range(k + 1)])
            runs.append(readings_run(premises(doc, LEX), SemStruct("f", ROOT)))
    with open("corpus/type-raising.glue", encoding="utf-8") as fh:
        raising = parse_formula_document(fh.read(), LEX.ctx)
    runs.append(sequent_run((), raising))
    return runs


def untabled(monkeypatch):
    """Force every atomic goal's table lookup to miss."""
    monkeypatch.setattr(Prover, "_table_key", lambda self, su, ctx, goal: None)


def unmemoized(monkeypatch):
    """Force every PiL node's meaning-memo lookup to miss."""
    monkeypatch.setattr(Prover, "_recall", lambda self, su, d: None)


def test_deferred_meanings_match_the_eager_prover(monkeypatch):
    # every shipped input: the same proofs, readings and derivations as
    # solving each meaning equation where the search makes it, and, with
    # the table forced to miss as the eager prover's is, the same steps.
    # The eager prover binds open values, through the oracle's substitution;
    # the shipped prover never does
    runs = shipped_runs()
    open_binds = []
    real = OpenSubstitution.bind
    monkeypatch.setattr(OpenSubstitution, "bind",
                        lambda su, *args: open_binds.append(args) or real(su, *args))
    eager = [with_prover(EagerProver, run) for run in runs]
    eager_binds = len(open_binds)
    deferred = [with_prover(Prover, run) for run in runs]
    assert eager_binds > 0 and len(open_binds) == eager_binds
    untabled(monkeypatch)
    for (want, eager_stats), (got, stats), run in zip(eager, deferred, runs):
        _, untabled_stats = with_prover(Prover, run)
        assert got == want
        assert stats.proofs == untabled_stats.proofs == eager_stats.proofs
        assert untabled_stats.steps == eager_stats.steps


def test_failing_meaning_equations_drop_the_proof():
    # the skeleton search finds these proofs; solving their meanings rejects
    # them, as the eager prover does at the focus, in as many steps or more
    extra = []
    for run in REJECTED:
        eager, eager_stats = with_prover(EagerProver, run)
        deferred, stats = with_prover(Prover, run)
        assert deferred == eager == []
        assert stats.proofs == 0 and stats.equations > 0
        extra.append(stats.steps - eager_stats.steps)
    assert min(extra) >= 0 and max(extra) > 0
    assert check_theorem(Limp(_BILL, _HILLARY))[0] is False
    assert check_theorem(Limp(_BILL, _BILL))[0] is True


def test_equations_count_the_meanings_solved(monkeypatch):
    baseline = reading_texts("conversation-every-unicorn")
    calls = []
    real = prover.solve
    monkeypatch.setattr(prover, "solve", lambda *args: calls.append(args) or real(*args))
    result, _ = readings_for_document(doc_for("conversation-every-unicorn"), LEX)
    assert [r.text for r in result.readings] == baseline
    assert len(calls) == result.stats.equations < result.stats.steps


def test_focused_sides_are_closed_when_solved(monkeypatch):
    # solving antecedents first leaves no unbound flex variable on the
    # focused side of any equation of a shipped input, so one-way matching
    # suffices; solved in the order the search makes them, they are open
    open_sides = []
    solved = 0
    real = prover.solve

    def checked(su, focused, goal, classes):
        nonlocal solved
        solved += 1
        if free_meta_vars(su.nf(focused)):
            open_sides.append(print_term(su.nf(focused)))
        return real(su, focused, goal, classes)

    monkeypatch.setattr(prover, "solve", checked)
    for run in shipped_runs():
        run()
    assert solved > 0 and open_sides == []


def test_each_reading_is_closed_normal_and_propositional(monkeypatch):
    # extraction trusts the search to bind the goal variable to a closed
    # normal value: check every value it returns, one per complete proof
    extracted = []
    real = prover.extract_meaning

    def checked(su, goal_var):
        term = real(su, goal_var)
        extracted.append(term)
        return term

    monkeypatch.setattr(prover, "extract_meaning", checked)
    for run in _memo_runs():
        run()
    assert len(extracted) > 700
    assert [print_term(t) for t in extracted if free_names(t) or normalize(t) != t] == []
    for name, lex in [
        ("every-candidate-a-manager", LEX_EXT),
        ("seeks-a-unicorn", LEX),
        ("conversation-every-unicorn", LEX),
    ]:
        result, _ = readings_for_document(doc_for(name), lex)
        for r in result.readings:
            assert not free_names(r.term)
            assert normalize(r.term) == r.term
            assert typecheck(r.term, lex.ctx) == T


def test_derivations_are_retained_and_traceable():
    result, _ = readings_for_document(doc_for("bah"), LEX)
    reading = result.readings[0]
    trace = render_trace(reading.derivation, reading.substitution)
    assert "Identity" in trace
    assert "appointed[f]" in trace
    assert "LimpL" in trace


def test_trace_text_is_made_only_when_rendered(monkeypatch):
    calls = []
    real = prover.print_formula
    monkeypatch.setattr(prover, "print_formula", lambda f: calls.append(f) or real(f))
    result, _ = readings_for_document(doc_for("conversation-every-unicorn"), LEX)
    assert calls == []
    limps = []

    def walk(n):
        if n.rule == "LimpL":
            limps.append(n)
        for c in n.children:
            walk(c)

    reading = result.readings[0]
    walk(reading.derivation)
    lines = render_trace(reading.derivation, reading.substitution).splitlines()
    assert limps and [l.strip() for l in lines if l.strip().startswith("LimpL:")] == [
        f"LimpL: {real(n.children[0].goal)}" for n in limps
    ]


def test_determinism_across_runs():
    one = reading_texts("conversation-every-unicorn")
    two = reading_texts("conversation-every-unicorn")
    assert one == two


def test_exchange_invariance_quick():
    doc = doc_for("every-candidate-a-manager")
    prems = premises(doc, LEX_EXT)
    baseline = [r.text for r in enumerate_readings(prems, SemStruct("f", ROOT)).readings]
    for perm in itertools.permutations(prems):
        texts = [r.text for r in enumerate_readings(list(perm), SemStruct("f", ROOT)).readings]
        assert texts == baseline


def _prefix_quantifiers(f):
    """The quantifiers of the Forall/Limp spine a focus on `f` strips."""
    n = 0
    while isinstance(f, (Forall, Limp)):
        n += isinstance(f, Forall)
        f = f.body if isinstance(f, Forall) else f.cons
    return n


def test_each_resource_is_opened_once_per_search(monkeypatch):
    # focus-side instantiations (with a flex variable) are at most the
    # quantifiers of the resources the search made, however often each one
    # is focused; the readings are those of an uncounted run
    prems = premises(scope_doc(["a", "every", "the"]), LEX)
    baseline = [r.text for r in enumerate_readings(prems, SemStruct("f", ROOT)).readings]
    made, focused, focus_side = [], [], []
    real_resource, real_focus = Prover._resource, Prover._focus

    def resource(self, formula, premise, tag):
        made.append(_prefix_quantifiers(formula))
        return real_resource(self, formula, premise, tag)

    def focus(self, su, res, *rest):
        focused.append(res.rid)
        return real_focus(self, su, res, *rest)

    monkeypatch.setattr(Prover, "_resource", resource)
    monkeypatch.setattr(Prover, "_focus", focus)
    for name in ("inst_term_var", "inst_sem_var"):
        real = getattr(prover, name)

        def counted(body, var, v, real=real):
            focus_side.append("?" in v.name)
            return real(body, var, v)

        monkeypatch.setattr(prover, name, counted)
    result = enumerate_readings(prems, SemStruct("f", ROOT))
    assert [r.text for r in result.readings] == baseline and len(baseline) == 14
    assert 0 < sum(focus_side) <= sum(made)
    assert len(focused) > 2 * len(set(focused))  # most resources were focused again


def test_goals_are_posed_once_per_search(monkeypatch):
    # PiR eigenvariables, LimpR assumptions and TensorL parts are kept by
    # goal position, so the resources a search makes stay within twice its
    # premises, however often each position is proved.  With the table
    # forced to miss, steps, proofs and readings are those of making new
    # ones on every branch; tabled, only the steps fall.  The equations fall
    # with the sub-proofs the search shares: tabled or not, equal sub-proofs
    # are the same nodes, and with the meaning memo forced to miss too, each
    # proof solves all its own.
    made = []
    real = Prover._resource

    def resource(self, formula, premise, tag):
        made.append(tag)
        return real(self, formula, premise, tag)

    monkeypatch.setattr(Prover, "_resource", resource)
    prems = premises(scope_doc(["every"] * 5), LEX)
    for steps, equations, force_miss in [
        (6_143, 423, untabled), (20_836, 423, unmemoized), (20_836, 3_036, None)
    ]:
        made.clear()
        result = enumerate_readings(prems, SemStruct("f", ROOT))
        stats = result.stats
        assert len(prems) == 12 and len(made) <= 2 * len(prems)
        assert (stats.steps, stats.proofs, len(result.readings), stats.equations) == (
            steps, 132, 132, equations)
        if force_miss:
            force_miss(monkeypatch)  # for the next run


def _fresh_names(d):
    return d.fresh + tuple(n for c in d.children for n in _fresh_names(c))


def _run_recording_proofs(monkeypatch, run):
    """`run()`; the rule tree, the substitution and the birth order of the
    quantifier variables of every complete proof, in the order the search
    finds them; and the search's stats.  The birth order is checked to be
    the one the table re-stamps a replayed proof in."""
    proofs = []
    real = prover._complete_proofs

    def recording(prover_, *args):
        for su, d in real(prover_, *args):
            stamped = sorted(_fresh_names(d), key=prover_.classes.ts)
            assert stamped == prover._stamped(d, [])
            proofs.append((rule_tree(d), su.sems, su.terms, stamped))
            yield su, d

    monkeypatch.setattr(prover, "_complete_proofs", recording)
    out, stats = with_prover(Prover, run)
    monkeypatch.setattr(prover, "_complete_proofs", real)
    return out, proofs, stats


def test_tabled_goals_replay_the_proofs_of_the_search(monkeypatch):
    # every shipped input and the random propositional sequents of the two
    # MILL tests: the same proofs, with the same resource ids and
    # substitutions, in the same order, whether atomic goals are replayed
    # from the table or proved afresh; strictly fewer steps when tabled on
    # the scope family from k=2
    sequents = []
    monkeypatch.setitem(
        globals(), "prove_sequent", lambda *s: sequents.append(s) or prover.prove_sequent(*s))
    test_propositional_counts_match_brute_force()
    test_shared_formula_objects_keep_the_search_sound()
    monkeypatch.undo()
    assert len(sequents) == 300 + 400 + 2
    scope = [readings_run(premises(scope_doc(["every"] * (k + 1)), LEX), SemStruct("f", ROOT))
             for k in (2, 3, 4)]
    runs = shipped_runs() + [sequent_run(*s) for s in sequents] + scope
    tabled = [_run_recording_proofs(monkeypatch, run) for run in runs]
    untabled(monkeypatch)
    fewer = []
    for run, (out, proofs, stats) in zip(runs, tabled):
        plain_out, plain_proofs, plain_stats = _run_recording_proofs(monkeypatch, run)
        assert (out, proofs) == (plain_out, plain_proofs)
        assert stats.steps <= plain_stats.steps
        fewer.append(stats.steps < plain_stats.steps)
    assert all(fewer[-len(scope):])


def _atom(sem, ty=E):
    return Means(SemVar(sem) if sem.isupper() else SemStruct(sem, ROOT), Const("a", E), ty)


# Sequents whose atomic goals repeat with one goal object and one context
# mask, where only the table key's other parts tell the visits apart, and
# one whose birth order a replay must keep.
KEYED = [
    # the first premise's last antecedent poses the assumption Y ~> a once,
    # but Y is f on the branch that gives f ~> a to its first antecedent and
    # h on the one that gives it h ~> a; the last premise consumes the
    # assumption only when Y is f, so there is exactly one proof
    ((
        Forall("Y", SEM, Forall("W", SEM, Limp(_atom("Y"), Limp(_atom("W"), Limp(
            Limp(_atom("Y", T), _atom("g", T)), _atom("k", T)))))),
        _atom("f"),
        _atom("h"),
        Limp(_atom("f", T), _atom("g", T)),
    ), _atom("k", T), 1),
    # split in either order, the two tensors give k ~> a the same parts, but
    # the variable opened first is the older, so unifying U with V binds V
    # on one branch and U on the other; each branch has two proofs, one per
    # way of giving the two e-parts to the two e-antecedents
    ((
        Forall("U", SEM, Tensor(_atom("U"), Limp(_atom("U", T), Limp(_atom("U"), Limp(
            _atom("U", E), _atom("k", T)))))),
        Forall("V", SEM, Tensor(_atom("V", T), _atom("V", E))),
    ), _atom("k", T), 4),
    # not a repeated key: the search stamps the body of a tensor head (V,
    # focused to prove k ~> a from the parts) before its antecedent (W), as
    # a replay must re-stamp them
    ((
        Limp(_atom("m"), Tensor(_atom("m", T), _atom("m", E))),
        Forall("W", SEM, _atom("W")),
        Forall("V", SEM, Limp(_atom("V", T), Limp(_atom("V", E), _atom("k", T)))),
    ), _atom("k", T), 1),
]


def test_table_keys_on_context_bindings_and_birth_order(monkeypatch):
    tabled = [_run_recording_proofs(monkeypatch, sequent_run(ctx, goal))
              for ctx, goal, _ in KEYED]
    untabled(monkeypatch)
    for (ctx, goal, n), (out, proofs, stats) in zip(KEYED, tabled):
        assert (out, proofs) == _run_recording_proofs(monkeypatch, sequent_run(ctx, goal))[:2]
        assert len(proofs) == n


def _memo_runs():
    """The meaning memo's inputs: the corpus under both variants, the scope
    family up to k=4 under three determiner mixes, the modifier shapes and
    the sequents whose table keys need their bindings and birth order."""
    runs = [readings_run(prems, goal) for name, prems, goal in work.inputs()
            if not name.startswith("scope-")]
    for k in range(5):
        for i in range(len(_DETS)):
            doc = scope_doc([_DETS[(i + j) % len(_DETS)] for j in range(k + 1)])
            runs.append(readings_run(premises(doc, LEX), SemStruct("f", ROOT)))
    return runs + [sequent_run(ctx, goal) for ctx, goal, _ in KEYED]


def _solved_proofs(monkeypatch, run):
    """`run()`, and every complete proof in the search's order: its rule
    tree, its trace with solutions and its term bindings; and the stats."""
    proofs = []
    real = prover._complete_proofs

    def recording(prover_, *args):
        for su, d in real(prover_, *args):
            proofs.append((rule_tree(d), render_trace(d, su), su.terms))
            yield su, d

    monkeypatch.setattr(prover, "_complete_proofs", recording)
    out, stats = with_prover(Prover, run)
    monkeypatch.setattr(prover, "_complete_proofs", real)
    return out, proofs, stats


def test_meaning_memo_matches_solving_every_proof(monkeypatch):
    # the same readings, derivations, traces and bound terms whether a PiL
    # node's equations are recalled or solved again for every proof, and the
    # same steps and proofs in as many equations or fewer: strictly fewer on
    # the scope family from k=0
    runs = _memo_runs()
    memo = [_solved_proofs(monkeypatch, run) for run in runs]
    unmemoized(monkeypatch)
    fewer = []
    for run, (out, proofs, stats) in zip(runs, memo):
        plain_out, plain_proofs, plain = _solved_proofs(monkeypatch, run)
        assert (out, proofs) == (plain_out, plain_proofs)
        assert (stats.steps, stats.proofs) == (plain.steps, plain.proofs)
        assert stats.equations <= plain.equations
        fewer.append(stats.equations < plain.equations)
    scope = fewer[-len(KEYED) - 5 * len(_DETS):-len(KEYED)]
    assert scope == [True] * (5 * len(_DETS))


def test_equal_sub_derivations_are_one_node(monkeypatch):
    # the search makes one node for each rule, children, goal, resource and
    # fresh names: over every complete proof of the scope family up to k=3
    # and of the modifier shapes, nodes that agree on all of these, their
    # children compared as nodes, are one object
    roots = []
    real = prover._complete_proofs

    def recording(prover_, *args):
        for su, d in real(prover_, *args):
            roots.append(d)
            yield su, d

    monkeypatch.setattr(prover, "_complete_proofs", recording)
    scope = {f"scope-k{k}" for k in range(4)}
    for name, prems, goal in work.inputs():
        if name not in scope and "+" not in name:
            continue
        roots.clear()
        enumerate_readings(prems, goal)
        by_id, by_key = {}, {}  # the roots hold every node, so no id is reused

        def key(d):
            if id(d) not in by_id:
                fields = (d.rule, tuple(map(key, d.children)), id(d.goal), id(d.res), d.fresh)
                by_id[id(d)] = by_key.setdefault(fields, len(by_key))
            return by_id[id(d)]

        for d in roots:
            key(d)
        assert len(by_id) == len(by_key), name


def test_the_search_binds_only_closed_normal_values(monkeypatch):
    # a Substitution stores and substitutes a term binding as it is, so each
    # value the shipped prover binds must be closed and normal, and a name
    # may not be bound twice
    bound = []
    real = Substitution.bind

    def checked(su, name, value):
        assert not free_meta_vars(value), name
        assert normalize(value) == value, name
        bound.append(name)
        return real(su, name, value)

    monkeypatch.setattr(Substitution, "bind", checked)
    for run in _memo_runs():
        run()
    assert len(bound) > 1000
    with pytest.raises(AssertionError, match="X bound twice"):
        Substitution().bind("X", Const("Bill", E)).bind("X", Const("Bill", E))


def test_outer_names_leave_out_what_a_focus_binds(monkeypatch):
    # a PiL node's outer names are metavariables of its equations, none
    # of them a variable that it or a node under it introduces; at the root
    # of each scope reading, the widest quantifier's focus, they are the
    # goal's meaning variable
    made = []
    real = Prover.__init__

    def init(self, *args):
        real(self, *args)
        made.append(self)

    monkeypatch.setattr(Prover, "__init__", init)
    nodes = []
    for name, prems, goal in work.inputs():
        if name != "scope-k5":
            for r in enumerate_readings(prems, goal).readings:
                nodes.append((name, made[-1], r.derivation))
    checked = 0
    for _, p, d in nodes:
        stack = [d]
        while stack:
            n = stack.pop()
            stack.extend(n.children)
            if n.rule == "PiL":
                outer = p._names_of(n)
                assert not outer & set(_fresh_names(n))
                checked += 1
    assert checked > 100
    roots = [(d.rule, p._names_of(d), free_meta_vars(d.goal.term))
             for name, p, d in nodes if name.startswith("scope-")]
    assert len(roots) == 2 + 5 + 14 + 42 + 132
    assert all(rule == "PiL" and outer == goal for rule, outer, goal in roots)


def test_a_focus_is_solved_again_under_other_outer_values():
    # one PiL node, the focus on forall X. g ~> X proving g ~> M, solved
    # under M := Bill, again under M := Bill, then under M := Hillary: the
    # second visit recalls X := Bill, the third solves X := Hillary
    p = Prover()
    res = p._resource(Forall("X", E, Means(_gs, MetaVar("X", E), E)), 0, "p")
    m = p.classes.fresh_flex("M", E)
    leaf = Derivation("Identity", (), Means(_gs, m, E), res)
    d = Derivation("PiL", (leaf,), leaf.goal, res, res.fresh)
    (x,) = res.fresh
    bill, hillary = Const("Bill", E), Const("Hillary", E)
    solved = []
    for value in (bill, bill, hillary):
        su = prover._solve_meanings(p, Substitution().bind(m.name, value), d)
        solved.append((su.terms[x], p.stats.equations))
    assert solved == [(bill, 1), (bill, 1), (hillary, 2)]
    # a recorded failure is recalled as a failure
    d2 = Derivation("PiL", (Derivation("Identity", (), _HILLARY, res),), _HILLARY, res, res.fresh)
    assert prover._solve_meanings(p, Substitution().bind(x, Const("Bill", E)), d2) is None


def test_replays_stop_at_the_depth_budget(monkeypatch):
    # a replay that could step deeper than the budget allows is proved
    # afresh instead, so each depth budget stops the search where it stops
    # without the table, after the same proofs.  From three copies of one
    # formula, the search meets a tabled goal again four levels deeper,
    # where afresh it would cross a budget of 9; from four, it meets a goal
    # deeper whose record replays another, and afresh it would cross 11.
    f = Limp(A, Limp(Limp(A, A), Limp(B, A)))
    scope = premises(scope_doc(["every"] * 3), LEX)

    def runs():
        out = {}
        for max_depth in range(24):
            budget = SearchBudget(max_depth=max_depth)
            result = enumerate_readings(scope, SemStruct("f", ROOT), budget)
            texts = [r.text for r in result.readings]
            out[max_depth, "scope"] = result.stats.proofs, result.stats.limit, texts
            for copies in (3, 4):
                proofs = prove_sequent((f,) * copies, f, budget)
                try:
                    out[max_depth, copies] = [rule_tree(d) for _, d in proofs]
                except prover.BudgetExhausted as e:
                    out[max_depth, copies] = e.limit
        return out

    tabled = runs()
    untabled(monkeypatch)
    assert tabled == runs()
    assert tabled[9, 3] == tabled[11, 4] == "max-depth" and tabled[23, 3] == tabled[23, 4] == []


def test_scope_k5_finishes_within_the_default_budget():
    prems = premises(scope_doc(["every"] * 6), LEX)
    result = enumerate_readings(prems, SemStruct("f", ROOT))
    assert not result.stats.exhausted and len(result.readings) == 429


def test_a_finished_search_is_freed_at_once(monkeypatch):
    # no reference cycle keeps the prover, its table or its resources alive
    # until a cyclic collection once the readings are returned
    made = []
    real = Prover.__init__

    def init(self, *args):
        real(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Prover, "__init__", init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        texts = reading_texts("seeks-a-unicorn")
        assert len(texts) == 2 and len(made) == 1
        assert made[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_refocused_variables_are_born_at_the_focus(monkeypatch):
    # a resource focused again reuses its variables with stamps newer than
    # every eigenvariable minted before the focus, so an eigenvariable of the
    # current branch may not escape into them: the de dicto reading of
    # `seeks` needs the object quantifier's scope variable to take seek's
    # hypothetical structure
    refocused = 0
    focused = set()
    real = Prover._focus

    def checked(self, su, res, *rest):
        # a focus consumes `res`, so nothing re-stamps its variables while
        # this one runs, and stamps only grow
        nonlocal refocused
        refocused += res.rid in focused
        focused.add(res.rid)
        eigens = [s for n, s in self.classes.stamps.items() if "!" in n]
        yield from real(self, su, res, *rest)
        assert all(self.classes.ts(n) > max(eigens, default=0) for n in res.fresh)

    monkeypatch.setattr(Prover, "_focus", checked)
    texts = reading_texts("seeks-a-unicorn")
    assert "seek(Bill, ^a(^unicorn))" in texts and len(texts) == 2
    assert refocused > 0


def test_reposed_eigenvariables_are_born_at_the_goal(monkeypatch):
    # a PiR goal proved again, on another branch, reuses its eigenvariable
    # with a stamp newer than every flex variable opened before it on that
    # branch.  p's antecedent may not fix p's Y to its own x, as q would.
    # Listed first, p is focused first at the root and its antecedent mints
    # x; focused again under the modifier m, p's Y gets a new stamp, and an
    # x that kept its first one would look older than Y and pass as the
    # reading c.
    y, z, w = (MetaVar(n, E) for n in "YZW")
    p = Premise("p", "h", Forall("Y", E, Limp(
        Forall("x", E, Limp(Means(_ks, MetaVar("x", E), E), Means(_gs, y, E))),
        Means(_hs, Const("c", E), E))))
    q = Premise("q", "g", Forall("Z", E, Limp(Means(_ks, z, E), Means(_gs, z, E))))
    m = Premise("m", "h", Forall("W", E, Limp(Means(_hs, w, E), Means(_hs, w, E))))
    for prems in itertools.permutations([p, q, m]):
        result = enumerate_readings(list(prems), _hs, goal_type=E)
        assert result.readings == [] and result.stats.equations > 0
    # on a shipped input, every re-stamped eigenvariable is the newest
    newest = []
    real = VarClass.restamp

    def checked(self, name):
        flex = [s for n, s in self.stamps.items() if "?" in n]
        real(self, name)
        if "!" in name:
            newest.append(self.ts(name) > max(flex))

    monkeypatch.setattr(VarClass, "restamp", checked)
    prems = premises(scope_doc(["a", "every", "the"]), LEX)
    assert len(enumerate_readings(prems, SemStruct("f", ROOT)).readings) == 14
    assert newest and all(newest)


def test_budget_exhaustion_is_reported():
    result, _ = readings_for_document(
        doc_for("conversation-every-unicorn"), LEX, budget=SearchBudget(max_steps=20)
    )
    assert result.stats.exhausted


def test_propositional_counts_match_brute_force():
    # small random propositional contexts: the engine and the independent
    # split-enumerating decision procedure agree
    rng = random.Random(2718281)
    atoms = [PropAtom(n) for n in "AB"]

    def formula(depth):
        if depth <= 0 or rng.random() < 0.45:
            return rng.choice(atoms)
        l, r = formula(depth - 1), formula(depth - 1)
        return Tensor(l, r) if rng.random() < 0.5 else Limp(l, r)

    checked = 0
    for _ in range(300):
        ctx = [formula(2) for _ in range(rng.randint(0, 4))]
        goal = rng.choice(atoms)
        engine = bool(list(prove_sequent(tuple(ctx), goal)))
        oracle = mill_provable(list(ctx), goal)
        assert engine == oracle, (ctx, goal)
        checked += 1
    assert checked == 300


def _size(f):
    if isinstance(f, PropAtom):
        return 1
    return 1 + sum(_size(g) for g in ((f.left, f.right) if isinstance(f, Tensor) else (f.ant, f.cons)))


def test_shared_formula_objects_keep_the_search_sound():
    # what a goal's proof makes (an eigenvariable, an assumption) is kept by
    # the goal's position, not by its formula: premises that repeat one
    # formula object, or a tensor of one object with itself, pose the same
    # object as a goal at distinct positions, possibly on one branch.  Both
    # hand cases are unprovable, and both are "proved" when an assumption is
    # kept by goal object and reused while still in the context.  Only
    # soundness is compared: the search misses proofs whose tensor parts
    # must feed both conjuncts of a tensor goal, such as B * C |- B * C.
    t = Tensor(Limp(B, B), Limp(Limp(B, B), B))
    f = Limp(Limp(Limp(A, B), Limp(A, B)), A)
    for ctx, goal in [([t, t], B), ([f, f, f], A)]:
        assert not list(prove_sequent(tuple(ctx), goal))
        assert not mill_provable(list(ctx), goal)
    rng = random.Random(1618033)
    atoms = [PropAtom(n) for n in "AB"]

    def formula(depth):
        if depth <= 0 or rng.random() < 0.25:
            return rng.choice(atoms)
        l, r = formula(depth - 1), formula(depth - 1)
        return Tensor(l, r) if rng.random() < 0.15 else Limp(l, r)

    proved = checked = 0
    while checked < 400:
        pool = [formula(3) for _ in range(rng.randint(1, 2))]
        ctx = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            x = rng.choice(pool)
            ctx[0] = Tensor(x, x)
        goal = rng.choice(atoms + pool)
        if sum(map(_size, ctx + [goal])) > 20:
            continue  # keeps the brute-force decider fast
        engine = bool(list(prove_sequent(tuple(ctx), goal)))
        assert engine <= mill_provable(list(ctx), goal), (ctx, goal)
        proved += engine
        checked += 1
    assert proved >= 20
