"""Contract of the record classes behind terms, types, formulas and semantic
structures: slotted instances, positional match patterns in constructor
order, equality that hashes consistently and never crosses classes, and a
repr that tells unequal terms apart (tests/helpers.py deduplicates by it).
Types and semantic structures are interned: one object per value."""

import gc
import inspect
import os
import pathlib
import random
import subprocess
import sys

import pytest

import gluesem
from gluesem import fstruct, glue, prover, terms, unify
from gluesem.fstruct import SemStruct, SemVar
from gluesem.glue import Forall, Limp, Means, PropAtom, SigmaPath, Tensor
from gluesem.terms import (
    Abs,
    App,
    Arrow,
    Base,
    BVar,
    Cap,
    Const,
    Cup,
    E,
    Interned,
    MetaVar,
    Record,
    T,
    Var,
    normalize,
)

import helpers
from helpers import TVar, random_term

# one instance of every node class, built twice: equal objects are the same
# object exactly for the interned classes
NODES = {
    Base: lambda: Base("e"),
    Arrow: lambda: Arrow(Base("e"), Base("t")),
    TVar: lambda: TVar("t0"),
    Const: lambda: Const("f", Arrow(E, T)),
    Var: lambda: Var("x!1", E),
    MetaVar: lambda: MetaVar("X?1", E),
    BVar: lambda: BVar(0),
    Abs: lambda: Abs(E, App(Const("f", Arrow(E, T)), BVar(0))),
    App: lambda: App(Const("f", Arrow(E, T)), Const("c", E)),
    Cap: lambda: Cap(Const("c", E)),
    Cup: lambda: Cup(Const("c", E)),
    SemStruct: lambda: SemStruct("f", fstruct.ROOT),
    SemVar: lambda: SemVar("H"),
    SigmaPath: lambda: SigmaPath(("SUBJ",), fstruct.ROOT),
    Means: lambda: Means(SemStruct("g", fstruct.ROOT), MetaVar("X", E), E),
    PropAtom: lambda: PropAtom("a"),
    Tensor: lambda: Tensor(PropAtom("a"), PropAtom("b")),
    Limp: lambda: Limp(PropAtom("a"), PropAtom("b")),
    Forall: lambda: Forall("X", E, Means(SemVar("H"), MetaVar("X", E), E)),
}
INTERNED = {Base, Arrow, SemStruct}


def all_records():
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def test_every_record_class_is_in_the_package():
    # helpers: TVar, the type variable of the reference typechecker
    modules = {terms, fstruct, glue, prover, unify, helpers}
    found = {cls for cls in all_records() if sys.modules[cls.__module__] in modules}
    assert set(NODES) <= found
    # the remaining records: lexicon, document and search bookkeeping
    assert {c.__name__ for c in found - set(NODES)} == {
        "FStructure", "FDocument", "LexEntry", "Lexicon", "Premise",
        "SearchBudget", "Sequent", "Resource", "Derivation", "Reading", "SearchStats",
        "EnumerationResult", "VarClass",
    }


@pytest.mark.parametrize("cls", sorted(all_records(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_slots_and_match_args_follow_the_constructor(cls):
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert cls.__match_args__ == tuple(params) == cls.__slots__
    # slots on every class of the hierarchy: no instance gets a __dict__
    assert all("__slots__" in vars(k) for k in cls.__mro__[:-1])


@pytest.mark.parametrize("cls", list(NODES), ids=lambda c: c.__name__)
def test_node_instances_are_values(cls):
    a, b = NODES[cls](), NODES[cls]()
    assert not hasattr(a, "__dict__")
    assert (a is b) == (cls in INTERNED)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


def test_interned_classes_are_the_types_and_structures():
    assert {cls for cls in all_records() if issubclass(cls, Interned)} == INTERNED


def test_an_unreferenced_interned_object_leaves_its_table():
    s = SemStruct("only-here", fstruct.VAR)
    key = ("only-here", fstruct.VAR)
    assert SemStruct._live[key] is s
    del s
    gc.collect()
    assert key not in SemStruct._live


def test_sem_vars_stay_plain_values():
    # fresh names are minted in every search, so a table would only fill up
    a, b = SemVar("H?1"), SemVar("H?1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert not isinstance(a, Interned)


def test_mutable_records_are_unhashable():
    for rec in (prover.SearchStats(), unify.VarClass(), fstruct.FStructure("f")):
        with pytest.raises(TypeError):
            hash(rec)
    assert prover.SearchStats(steps=3) == prover.SearchStats(3)
    assert prover.SearchStats(steps=3) != prover.SearchStats(4)


def test_classes_with_the_same_fields_are_unequal():
    terms_ = [
        (Var("x", E), MetaVar("x", E), Const("x", E)),
        (Cap(Const("c", E)), Cup(Const("c", E))),
    ]
    others = [
        (Tensor(PropAtom("a"), PropAtom("b")), Limp(PropAtom("a"), PropAtom("b"))),
        (Base("e"), TVar("e"), SemVar("e"), PropAtom("e")),
    ]
    for group in terms_ + others:
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                assert x != y and y != x and not x == y
        assert len(set(group)) == len(group)
    for group in terms_:
        assert len({repr(t) for t in group}) == len(group)


def _with_variables(t, rng):
    """`t` with some entity constants turned into free variables or
    metavariables of the same name."""
    match t:
        case Const(n, ty) if ty == E:
            return rng.choice([Const, Var, MetaVar])(n, ty)
        case Abs(ty, b):
            return Abs(ty, _with_variables(b, rng))
        case App(f, a):
            return App(_with_variables(f, rng), _with_variables(a, rng))
        case Cap(b) | Cup(b):
            return type(t)(_with_variables(b, rng))
    return t


def test_random_terms_hash_and_print_consistently():
    by_repr = {}
    for seed in range(300):
        ty = random.Random(seed).choice([E, T, Arrow(E, T), Arrow(Arrow(E, T), T)])
        first = random_term(random.Random(seed), ty, 4)
        again = random_term(random.Random(seed), ty, 4)
        assert first == again and hash(first) == hash(again)
        for t in (first, normalize(first), _with_variables(first, random.Random(seed))):
            by_repr.setdefault(repr(t), []).append(t)
    assert len(by_repr) > 300
    for text, group in by_repr.items():
        assert all(t == group[0] and hash(t) == hash(group[0]) for t in group), text


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: only what the package itself imports, not site customisations
    src = str(pathlib.Path(gluesem.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gluesem.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
