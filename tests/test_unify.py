"""Meaning-equation tests: worked examples, soundness, generality, escapes.

`unify` solves with the package's one-way matcher; the examples with unbound
flex variables on both sides, which the matcher rejects, are pinned to the
general unifier in `reference_unifier`.
"""

import random

import pytest

from gluesem.fstruct import SemStruct, SemVar
from gluesem.terms import (
    Abs,
    App,
    Arrow,
    BVar,
    Cap,
    Const,
    Cup,
    E,
    MetaVar,
    S,
    T,
    Var,
    alpha_equal,
    abstract,
    app,
    free_names,
    normalize,
)
from gluesem.unify import (
    EIGEN,
    FLEX,
    NonPatternError,
    Substitution,
    VarClass,
    solve_sem,
)

import gluesem.unify as unify_module
import reference_unifier
from reference_unifier import OpenSubstitution
from helpers import (
    RANDOM_SIGNATURE,
    InconsistentSubst,
    arrow,
    compose,
    free_meta_vars,
    free_named_terms,
    random_term,
    reference_bind_vars,
    reference_nf,
    reference_normalize,
    typecheck,
    unify,
)

APPOINT = Const("appoint", arrow(E, E, T))
CONVINCE = Const("convince", arrow(E, E, T))
VOTER = Const("voter", Arrow(E, T))
MANAGER = Const("manager", Arrow(E, T))
BILL = Const("Bill", E)
HILLARY = Const("Hillary", E)
PROP = Arrow(S, Arrow(E, T))  # intensional property


def reference_unify(equations, classes):
    return unify(equations, classes, solver=reference_unifier.solve)


def classes_for(**kinds):
    vc = VarClass()
    for name, kind in kinds.items():
        vc.classify(name, kind)
    return vc


# ---------------------------------------------------------------------------
# worked examples


def test_scope_extraction():
    # S(x) = appoint(Bill, x) with S flex, x eigen: S := \z. appoint(Bill, z)
    vc = classes_for(S=FLEX, x=EIGEN)
    s = MetaVar("S", Arrow(E, T))
    x = Var("x", E)
    su = unify([(App(s, x), app(APPOINT, BILL, x))], vc)
    assert su is not None
    expected = normalize(Abs(E, app(APPOINT, BILL, BVar(0))))
    assert alpha_equal(su.nf(s), expected)


def test_plain_instantiation():
    vc = classes_for(X=FLEX)
    x = MetaVar("X", E)
    su = unify([(x, BILL)], vc)
    assert su.nf(x) == BILL


def test_identity_is_the_unique_solution():
    # R(x) = x with x born inside R's scope.  Oracle: enumerate all normal
    # e -> e terms of size <= 3 over the empty signature; only \z. z works.
    vc = VarClass()
    vc.classify("R", FLEX)
    vc.classify("x", EIGEN)  # born after R
    r = MetaVar("R", Arrow(E, E))
    x = Var("x", E)
    su = unify([(App(r, x), x)], vc)
    identity = Abs(E, BVar(0))
    assert alpha_equal(su.nf(r), identity)
    # oracle agreement: brute-force candidates (x may not appear in R)
    candidates = [
        c
        for c in free_named_terms(Arrow(E, E), 3, [], [])
        if alpha_equal(normalize(App(c, x)), x)
    ]
    assert candidates == [identity]


def test_rigid_head_clash():
    vc = classes_for(x=EIGEN)
    x = Var("x", E)
    assert unify([(App(VOTER, x), App(MANAGER, x))], vc) is None


def test_occurs_check():
    vc = classes_for(F=FLEX, x=EIGEN)
    f = MetaVar("F", Arrow(E, E))
    x = Var("x", E)
    equation = (App(f, x), App(Const("g", Arrow(E, E)), App(f, x)))
    assert reference_unify([equation], vc) is None
    with pytest.raises(NonPatternError):  # F is unbound on both sides
        unify([equation], vc)


def test_non_pattern_is_an_error():
    # a flex variable applied to a compound argument is outside the fragment
    vc = classes_for(Y=FLEX, p=EIGEN)
    y = MetaVar("Y", Arrow(PROP, T))
    p = Var("p", Arrow(E, T))
    with pytest.raises(NonPatternError):
        unify([(App(y, Cap(p)), app(Const("a", arrow(PROP, PROP, T)), MetaVar("R", PROP), MetaVar("R", PROP)))], vc)


def test_restriction_extraction_through_extension():
    # (!R)(x) = voter(x): R := ^voter, as in the intensional determiners
    vc = VarClass()
    vc.classify("R", FLEX)
    vc.classify("x", EIGEN)
    r = MetaVar("R", PROP)
    x = Var("x", E)
    su = unify([(App(Cup(r), x), App(VOTER, x))], vc)
    assert alpha_equal(su.nf(r), Cap(VOTER))


def test_extension_pattern_keeps_variables_plain():
    # (!S)(x) = (!p)(x) solves to S := p itself, not ^(!p)
    vc = VarClass()
    vc.classify("p", EIGEN)
    vc.classify("S", FLEX)
    vc.classify("x", EIGEN)
    s = MetaVar("S", PROP)
    p = Var("p", PROP)
    x = Var("x", E)
    su = unify([(App(Cup(s), x), App(Cup(p), x))], vc)
    assert su.nf(s) == p


def test_eigen_escape_blocked():
    # S was born before x, so S may not swallow x
    vc = VarClass()
    vc.classify("S", FLEX)
    vc.classify("x", EIGEN)
    s = MetaVar("S", E)
    assert unify([(s, Var("x", E))], vc) is None


def test_escape_allowed_for_older_eigens():
    vc = VarClass()
    vc.classify("x", EIGEN)
    vc.classify("S", FLEX)
    s = MetaVar("S", E)
    su = unify([(s, Var("x", E))], vc)
    assert su.nf(s) == Var("x", E)


# ---------------------------------------------------------------------------
# branches that neither the shipped inputs nor the random problems reach


def _solved(l, r, vc, solver=unify):
    """The unifier of l = r, checked sound: both sides agree under it."""
    su = solver([(l, r)], vc)
    assert su is not None
    assert alpha_equal(su.nf(l), su.nf(r))
    return su


def test_flex_flex_with_one_head_prunes_the_differing_arguments():
    # F(x, y) = F(x, z) is solved by F := \a b. H(a) for a fresh H
    vc = classes_for(F=FLEX, x=EIGEN, y=EIGEN, z=EIGEN)
    f = MetaVar("F", arrow(E, E, T))
    x, y, z = (Var(n, E) for n in "xyz")
    with pytest.raises(NonPatternError):  # F is unbound on both sides
        unify([(app(f, x, y), app(f, x, z))], vc)
    binding = _solved(app(f, x, y), app(f, x, z), vc, reference_unify).nf(f)
    h = binding.body.body.fn
    assert isinstance(h, MetaVar) and h.name != "F"
    assert binding == Abs(E, Abs(E, App(h, BVar(1))))


@pytest.mark.parametrize(
    "body,expected",
    [
        (App(MetaVar("P", Arrow(E, T)), BVar(0)), MetaVar("P", Arrow(E, T))),
        (App(Const("run", Arrow(E, T)), BVar(0)), Const("run", Arrow(E, T))),
        (app(APPOINT, BVar(0), BVar(0)), Abs(E, app(APPOINT, BVar(0), BVar(0)))),
    ],
)
def test_abstraction_against_a_flex_variable(body, expected):
    # \x. body = Q binds Q to the abstraction (eta-short where it can be);
    # with P unbound in the body, only the reference unifier solves it
    vc = classes_for(P=FLEX, Q=FLEX)
    q = MetaVar("Q", Arrow(E, T))
    solver = reference_unify if isinstance(expected, MetaVar) else unify
    assert _solved(Abs(E, body), q, vc, solver).nf(q) == expected


def test_intensions_of_distinct_eigens_do_not_unify():
    vc = classes_for(a=EIGEN, b=EIGEN)
    assert unify([(Cap(Var("a", E)), Cap(Var("b", E)))], vc) is None


def test_intension_against_a_variable_binds_its_extension():
    # ^M = v is solved by M := !v, since ^(!v) is v
    vc = classes_for(v=EIGEN, M=FLEX)
    m, v = MetaVar("M", E), Var("v", Arrow(S, E))
    assert _solved(Cap(m), v, vc).nf(m) == Cup(v)
    # against a rigid constant there is no solution
    assert unify([(Cap(m), Const("c", Arrow(S, E)))], vc) is None


def test_distinct_eigen_heads_or_arguments_do_not_unify():
    vc = classes_for(f=EIGEN, g=EIGEN, r=EIGEN, x=EIGEN, y=EIGEN)
    f, g = Var("f", Arrow(E, T)), Var("g", Arrow(E, T))
    x, y = Var("x", E), Var("y", E)
    assert unify([(App(f, x), App(f, y))], vc) is None
    assert unify([(App(f, x), App(g, x))], vc) is None
    # the spines differ in length, or the heads in kind
    r = Var("r", arrow(E, E, T))
    assert unify([(App(f, x), app(r, x, y))], vc) is None
    assert unify([(App(f, x), App(Const("f", Arrow(E, T)), x))], vc) is None
    # a later argument is not compared once an earlier one has failed
    assert unify([(app(r, x, y), app(r, y, y))], vc) is None


# ---------------------------------------------------------------------------
# apply / compose


def test_apply_instantiates_and_normalizes():
    vc = classes_for(Y=FLEX)
    y = MetaVar("Y", E)
    su = unify([(y, HILLARY)], vc)
    assert su.nf(app(APPOINT, BILL, y)) == app(APPOINT, BILL, HILLARY)


def test_apply_empty_substitution():
    su = Substitution()
    term = app(APPOINT, BILL, HILLARY)
    assert su.nf(term) == term


def test_apply_touches_structure_variables():
    vc = classes_for(H=FLEX, S=FLEX, x=EIGEN)
    su = Substitution()
    su = solve_sem(su, SemVar("H"), SemStruct("f", "ROOT"), vc)
    scope = Abs(E, app(CONVINCE, BILL, BVar(0)))
    su = su.bind("S", scope)
    x = Var("x", E)
    assert su.walk_sem(SemVar("H")) == SemStruct("f", "ROOT")
    assert su.nf(App(MetaVar("S", Arrow(E, T)), x)) == app(CONVINCE, BILL, x)


def test_compose_disjoint():
    s1 = Substitution().bind("X", BILL)
    s2 = Substitution().bind("Y", HILLARY)
    c = compose(s1, s2)
    assert c.nf(MetaVar("X", E)) == BILL
    assert c.nf(MetaVar("Y", E)) == HILLARY


def test_compose_chains():
    s1 = OpenSubstitution().bind("X", MetaVar("Y", E))
    s2 = Substitution().bind("Y", Const("Al", E))
    c = compose(s1, s2)
    assert c.nf(MetaVar("X", E)) == Const("Al", E)
    assert c.nf(MetaVar("Y", E)) == Const("Al", E)


def test_compose_conflict():
    s1 = Substitution().bind("X", BILL)
    s2 = Substitution().bind("X", HILLARY)
    with pytest.raises(InconsistentSubst):
        compose(s1, s2)


def test_compose_contract_on_random_terms():
    rng = random.Random(99)
    s1 = OpenSubstitution().bind("X", app(VOTER, MetaVar("Y", E)))
    s2 = Substitution().bind("Y", BILL)
    c = compose(s1, s2)
    for _ in range(50):
        parts = [MetaVar("X", T), app(MANAGER, MetaVar("Y", E)), app(VOTER, BILL)]
        t = rng.choice(parts)
        assert alpha_equal(c.nf(t), s2.nf(s1.nf(t)))


# ---------------------------------------------------------------------------
# structure variables


def test_sem_unification_is_first_order():
    vc = classes_for(H=FLEX)
    su = solve_sem(Substitution(), SemVar("H"), SemStruct("f", "ROOT"), vc)
    assert su.walk_sem(SemVar("H")) == SemStruct("f", "ROOT")
    assert solve_sem(su, SemVar("H"), SemStruct("g", "ROOT"), vc) is None


def test_sem_distinct_slots_never_unify():
    vc = VarClass()
    assert solve_sem(Substitution(), SemStruct("f", "VAR"), SemStruct("f", "RESTR"), vc) is None


def test_sem_eigen_escape():
    vc = VarClass()
    vc.classify("H", FLEX)
    vc.classify("s", EIGEN)  # born after H
    assert solve_sem(Substitution(), SemVar("H"), SemVar("s"), vc) is None
    vc2 = VarClass()
    vc2.classify("s", EIGEN)
    vc2.classify("H", FLEX)  # born after s
    assert solve_sem(Substitution(), SemVar("H"), SemVar("s"), vc2) is not None


# ---------------------------------------------------------------------------
# property suites


SUC = Const("next", Arrow(E, E))


def _random_pattern_problem(rng):
    """A random flex-rigid equation F(args) = t over eigens x, y, z."""
    vc = VarClass()
    old = Var("o", E)
    vc.classify("o", EIGEN)
    vc.classify("F", FLEX)
    eigens = [Var(n, E) for n in ("x", "y", "z")]
    for v in eigens:
        vc.classify(v.name, EIGEN)
    args = rng.sample(eigens, rng.randint(0, 3))
    # entities built only from argument eigens (solvable) or sometimes from
    # all eigens (possibly unsolvable: escape)
    allowed = list(args) if rng.random() < 0.7 else eigens

    def build_e(depth):
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice(allowed + [old, BILL, HILLARY])
        return App(SUC, build_e(depth - 1))

    def build_t(depth):
        roll = rng.random()
        if roll < 0.4:
            return App(VOTER, build_e(depth - 1))
        if roll < 0.8:
            return app(APPOINT, build_e(depth - 1), build_e(depth - 1))
        return app(CONVINCE, build_e(depth - 1), build_e(depth - 1))

    rhs = build_t(3) if rng.random() < 0.6 else build_e(3)
    rty = typecheck(rhs, {})
    f = MetaVar("F", arrow(*([v.ty for v in args] + [rty])))
    lhs = app(f, *args)
    return vc, f, lhs, rhs, args


def test_unifier_soundness_on_random_problems():
    rng = random.Random(424242)
    solved = 0
    for _ in range(1000):
        vc, f, lhs, rhs, args = _random_pattern_problem(rng)
        su = unify([(lhs, rhs)], vc)
        if su is None:
            continue
        solved += 1
        assert alpha_equal(su.nf(lhs), su.nf(rhs))
    assert solved > 400  # the generator mostly produces solvable problems


def test_unifier_generality_against_enumeration():
    # for small solvable problems, every brute-force solution must factor
    # through the returned unifier
    sig = [("Bill", E), ("voter", Arrow(E, T))]
    x = Var("x", E)
    problems = [
        (App(MetaVar("F", Arrow(E, E)), x), x),
        (App(MetaVar("F", Arrow(E, T)), x), App(VOTER, x)),
        (App(MetaVar("F", Arrow(E, T)), x), App(VOTER, BILL)),
        (MetaVar("F", E), BILL),
    ]
    for lhs, rhs in problems:
        vc = VarClass()
        f, _ = (lhs, None) if isinstance(lhs, MetaVar) else (lhs.fn, None)
        while isinstance(f, App):
            f = f.fn
        vc.classify(f.name, FLEX)
        vc.classify("x", EIGEN)
        su = unify([(lhs, rhs)], vc)
        assert su is not None
        mgu_binding = su.nf(f)
        for cand in free_named_terms(f.ty, 5, sig, []):
            if not alpha_equal(normalize(app(cand, *_args_of(lhs))), normalize(rhs)):
                continue
            # cand solves the equation: it must be an instance of the mgu
            inst_vc = VarClass()
            for name in free_meta_vars(mgu_binding):
                inst_vc.classify(name, FLEX)
            assert unify([(mgu_binding, cand)], inst_vc, Substitution()) is not None, (
                f"solution {cand} does not factor through {mgu_binding}"
            )


def _args_of(lhs):
    args = []
    while isinstance(lhs, App):
        args.append(lhs.arg)
        lhs = lhs.fn
    return list(reversed(args))


def test_escape_property_randomized():
    # unify(S(args), t) never lets a newer eigen that is not among the
    # arguments leak into S's binding
    rng = random.Random(777)
    for _ in range(1000):
        vc, f, lhs, rhs, args = _random_pattern_problem(rng)
        su = unify([(lhs, rhs)], vc)
        if su is None:
            continue
        binding = su.nf(f)
        from gluesem.terms import free_names

        argnames = {a.name for a in args}
        for name in free_names(binding):
            assert vc.ts(name) < vc.ts(f.name) or name in argnames


def test_unify_always_terminates_quickly():
    # decidability: a batch of random problems completes without budgets
    rng = random.Random(31337)
    for _ in range(500):
        vc, f, lhs, rhs, _ = _random_pattern_problem(rng)
        unify([(lhs, rhs)], vc)


# ---------------------------------------------------------------------------
# Substitution.nf, and the oracle's OpenSubstitution.nf on chains of open
# values, against the two-pass reference (expand the triangular chain, then
# normalize from scratch)

PV = Var("pv", PROP)  # a rigid intensional variable: ^(!pv) collapses to pv


def _with_metas(rng, t, leaves):
    """Replace about half the constants of `t` by a member of `leaves` of
    the same type."""
    match t:
        case Const(_, ty):
            choices = [v for v in leaves if v.ty == ty]
            if choices and rng.random() < 0.5:
                return rng.choice(choices)
            return t
        case Abs(ty, b):
            return Abs(ty, _with_metas(rng, b, leaves))
        case App(f, a):
            return App(_with_metas(rng, f, leaves), _with_metas(rng, a, leaves))
        case Cap(b):
            return Cap(_with_metas(rng, b, leaves))
        case Cup(b):
            return Cup(_with_metas(rng, b, leaves))
        case _:
            return t


def _random_chain(rng, n):
    """n metavariables bound in order; the value of X_i mentions only X_j
    with j > i, so each bind sees a chain that later binds extend (X -> Y,
    then Y -> c).  Values are unnormalized random terms: metavariables land
    at spine heads under beta redexes and under ^ and !."""
    tys = list(RANDOM_SIGNATURE.values())
    metas = [MetaVar(f"X{i}", rng.choice(tys)) for i in range(n)]
    rigid = [Var("v", E), PV]
    raw = []
    for i, m in enumerate(metas):
        value = random_term(rng, m.ty, 3)
        raw.append((m.name, _with_metas(rng, value, metas[i + 1 :] + rigid)))
    return metas, rigid, raw


def test_nf_matches_two_pass_reference_on_random_terms():
    rng = random.Random(4711)
    pool = [T, E, Arrow(E, T), PROP, Arrow(Arrow(E, T), T)]
    for _ in range(500):
        term = random_term(rng, rng.choice(pool), 4)
        assert Substitution().nf(term) == reference_normalize(term)
        su = Substitution().bind("Z", BILL)
        assert su.nf(term) == reference_normalize(term)


def test_nf_matches_two_pass_reference_on_random_chains():
    rng = random.Random(2004)
    pool = list(RANDOM_SIGNATURE.values())
    checked = 0
    for _ in range(150):
        metas, rigid, raw = _random_chain(rng, rng.randint(1, 6))
        queries = [
            _with_metas(rng, random_term(rng, rng.choice(pool), 4), metas + rigid)
            for _ in range(4)
        ] + metas
        su = OpenSubstitution()
        for k, (name, value) in enumerate(raw):
            # the parent first: a child's binding must not change what it resolves
            for q in queries:
                assert su.nf(q) == reference_nf(dict(raw[:k]), q)
            su = su.bind(name, value)
            for q in queries:
                assert su.nf(q) == reference_nf(dict(raw[: k + 1]), q)
                checked += 1
    assert checked > 2000


def test_a_child_resolves_chains_through_its_own_bindings():
    x, y = MetaVar("X", E), MetaVar("Y", E)
    parent = OpenSubstitution().bind("X", App(SUC, y))
    assert parent.nf(App(SUC, x)) == App(SUC, App(SUC, y))
    child = parent.bind("Y", BILL)
    assert child.nf(App(SUC, x)) == App(SUC, App(SUC, BILL))
    assert parent.nf(x) == App(SUC, y)
    # bind_sem keeps the term bindings, and binding through them still resolves
    sibling = parent.bind_sem("H", SemStruct("f", "ROOT"))
    assert sibling.nf(x) == App(SUC, y)
    assert sibling.bind("Y", HILLARY).nf(x) == App(SUC, HILLARY)


def test_bind_keeps_closed_bindings_resolved(monkeypatch):
    # X's value has no metavariable, so it is its own normal form in every
    # extension: a child resolves it as bound, as the same object, and
    # normalizes nothing but the query
    value = App(SUC, BILL)
    child = Substitution().bind("X", value).bind("Y", HILLARY)
    calls = []
    real = unify_module.normalize_with
    monkeypatch.setattr(
        unify_module, "normalize_with", lambda t, resolve: calls.append(t) or real(t, resolve)
    )
    query = app(APPOINT, MetaVar("X", E), MetaVar("Y", E))
    out = child.nf(query)
    assert out == app(APPOINT, value, HILLARY) and out.fn.arg is value
    assert calls == [query]
    assert child.nf(MetaVar("X", E)) is value


def test_bind_occurs_checks_open_values():
    with pytest.raises(AssertionError, match="occurs check"):
        OpenSubstitution().bind("X", App(SUC, MetaVar("X", E)))


def test_matcher_names_the_leftmost_open_variable():
    vc = classes_for(F=FLEX, A=FLEX, B=FLEX)
    rhs = app(APPOINT, App(SUC, MetaVar("B", E)), MetaVar("A", E))
    with pytest.raises(NonPatternError, match="no antecedent fixes F or B in"):
        unify([(MetaVar("F", T), rhs)], vc)


def test_open_and_escaping_value_is_an_error_not_a_failure():
    # x is born after F, so binding F would let it escape; but Y is unbound,
    # and an open value is outside the fragment whatever else is wrong
    vc = classes_for(F=FLEX, x=EIGEN, Y=FLEX)
    rhs = app(APPOINT, Var("x", E), MetaVar("Y", E))
    with pytest.raises(NonPatternError, match="F or Y"):
        unify([(MetaVar("F", T), rhs)], vc)


def test_matcher_binds_normal_values():
    # bind stores the matcher's values as given, so each must be normal:
    # abstracting variables out of a normal side can leave an eta redex or
    # ^(!v) at the top
    rng = random.Random(9090)
    for _ in range(1000):
        vc, f, lhs, rhs, _ = _random_pattern_problem(rng)
        su = unify([(lhs, rhs)], vc)
        if su is not None:
            assert normalize(su.terms["F"]) == su.terms["F"]
    x, y = Var("x", E), Var("y", E)
    g, h = MetaVar("G", PROP), MetaVar("H", Arrow(E, PROP))
    problems = [
        (App(Cup(g), x), App(VOTER, x), Cap(VOTER)),
        (App(Cup(g), x), App(Cup(PV), x), PV),
        (Cup(g), Cup(PV), PV),
        (App(Cup(App(h, y)), x), app(APPOINT, y, x), Abs(E, Cap(App(APPOINT, BVar(0))))),
        (App(Cup(App(h, y)), x), app(APPOINT, x, y),
         Abs(E, Cap(Abs(E, app(APPOINT, BVar(0), BVar(1)))))),
        (app(MetaVar("F", arrow(E, E, T)), x, y), app(APPOINT, x, y), APPOINT),
    ]
    for lhs, rhs, expected in problems:
        vc = classes_for(pv=EIGEN, x=EIGEN, y=EIGEN, G=FLEX, H=FLEX, F=FLEX)
        su = unify([(lhs, rhs)], vc)
        (value,) = su.terms.values()
        assert value == expected


def test_nf_reduces_redexes_created_at_spine_heads():
    # S := \z. convince(Bill, z); P := ^voter; S(x) and (!P)(x) become redexes
    x = Var("x", E)
    su = Substitution().bind("S", Abs(E, app(CONVINCE, BILL, BVar(0))))
    su = su.bind("P", Cap(VOTER))
    both = Const("and", arrow(T, T, T))
    s, p = MetaVar("S", Arrow(E, T)), MetaVar("P", PROP)
    term = Abs(E, app(both, App(s, BVar(0)), App(Cup(p), x)))
    assert su.nf(term) == reference_nf(su.terms, term)
    assert su.nf(App(Cup(p), x)) == App(VOTER, x)
    # ^(!Q) with Q := pv collapses to pv
    su = su.bind("Q", PV)
    assert su.nf(Cap(Cup(MetaVar("Q", PROP)))) == PV


def test_nf_returns_unchanged_terms_as_the_same_object():
    su = Substitution().bind("X", BILL)
    term = Abs(E, app(APPOINT, BVar(0), MetaVar("Y", E)))
    assert su.nf(term) is term
    bound = App(VOTER, MetaVar("X", E))
    assert su.nf(bound).fn is bound.fn


def test_abstract_matches_per_parameter_reference():
    # the value is the per-parameter abstraction, under a ^ between the outer
    # and inner parameters with `cap`, and the names are its free names
    rng = random.Random(1701)
    frees = [Var("x", E), Var("y", E), MetaVar("Z", E), Var("w", Arrow(E, T))]
    pool = [T, E, Arrow(E, T), PROP]
    for _ in range(300):
        body = _with_metas(rng, random_term(rng, rng.choice(pool), 4), frees)
        params = rng.sample(frees, rng.randint(0, len(frees)))
        value, names = abstract([], params, body)
        assert value == reference_bind_vars(params, body)
        assert list(names.items()) == list(free_names(value).items())
        cut = rng.randint(0, len(params))
        outer, inner = params[:cut], params[cut:]
        value, names = abstract(outer, inner, body, cap=True)
        assert value == reference_bind_vars(outer, Cap(reference_bind_vars(inner, body)))
        assert list(names.items()) == list(free_names(value).items())


def test_nf_shifts_arguments_substituted_under_binders():
    # \w. (\y. \z. rel(z, y))(w) = \w. \z. rel(z, w): w moves under \z
    rel = Const("rel", arrow(E, E, T))
    inner = Abs(E, Abs(E, app(rel, BVar(0), BVar(1))))
    term = Abs(E, App(inner, BVar(0)))
    expected = Abs(E, Abs(E, app(rel, BVar(0), BVar(1))))
    assert reference_normalize(term) == expected
    assert Substitution().nf(term) == expected
    su = Substitution().bind("F", inner)
    assert su.nf(Abs(E, App(MetaVar("F", arrow(E, E, T)), BVar(0)))) == expected
