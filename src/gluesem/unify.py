"""One-way higher-order pattern matching for the meaning language.

Equations are solved modulo alpha/beta/eta and the ^/! reductions.
Variables are classified as flex (essentially existential, to be
instantiated) or eigen (essentially universal, local constants); each
carries a birth timestamp, and no flex variable may be bound to a term
mentioning an eigen variable born after it unless that eigen is one of its
pattern arguments.

A proof's meaning equations are solved antecedents first (see
`prover._complete_proofs`), so when an equation needs a flex variable
bound, the other side is already closed: no unbound flex variable occurs
in it.  `solve` therefore matches rather than unifies.  A flex side, F(x...)
or (!F(y...))(x...) with F applied to distinct eigenvariables, is bound
first, to the other side abstracted over them.  Only between two rigid
sides is an abstraction opened, with a fresh eigenvariable; rigid spines
are compared head and arguments, `^` heads as `!` heads are.  An equation
with unbound flex variables on both sides, or a flex variable applied to
anything but distinct eigenvariables, is outside this fragment and raises
NonPatternError.  So every value `solve` binds is closed and normal: the walk
that abstracts it finds its names for the open-variable, escape and occurs
checks, and a `Substitution`, which holds only such values, puts it in
place as it is.
"""
from __future__ import annotations

import itertools
from typing import Optional

from .fstruct import SemTerm, SemVar
from .terms import (
    Abs,
    App,
    Cap,
    Const,
    Cup,
    GlueError,
    MeaningTerm,
    MetaVar,
    Record,
    Var,
    abstract,
    alpha_equal,
    normalize,
    normalize_with,
    print_term,
    spine,
)

FLEX = "flex"
EIGEN = "eigen"


class NonPatternError(GlueError):
    """The problem falls outside the supported pattern fragment; with the
    shipped lexicon this indicates a malformed meaning constructor."""


class VarClass(Record):
    """Classification of glue variables: flex or eigen, with birth stamps.
    `fresh` mints each variable the search makes."""

    __slots__ = ("kinds", "stamps", "_counter")
    __hash__ = None  # grows as the search mints variables

    def __init__(self, kinds: Optional[dict[str, str]] = None,
                 stamps: Optional[dict[str, int]] = None, _counter=None):
        self.kinds = {} if kinds is None else kinds
        self.stamps = {} if stamps is None else stamps
        self._counter = itertools.count(1) if _counter is None else _counter

    def classify(self, name: str, kind: str) -> int:
        stamp = next(self._counter)
        self.kinds[name] = kind
        self.stamps[name] = stamp
        return stamp

    def restamp(self, name: str) -> None:
        """Give `name` a birth stamp newer than every variable's so far."""
        self.stamps[name] = next(self._counter)

    def fresh(self, hint: str, kind: str, ty=None):
        """A new `kind` variable named after `hint`: a structure variable
        when `ty` is None, else a meaning variable of type `ty`."""
        name = f"{hint}{'?' if kind == FLEX else '!'}{next(self._counter)}"
        self.classify(name, kind)
        if ty is None:
            return SemVar(name)
        return MetaVar(name, ty) if kind == FLEX else Var(name, ty)

    def is_flex_sem(self, v: SemVar) -> bool:
        return self.kinds[v.name] == FLEX

    def ts(self, name: str) -> int:
        return self.stamps[name]


class Substitution:
    """Map from flex variables to terms and semantic structures.

    Every term binding is closed and normal, as the matcher's values are, so
    `nf` replaces a bound variable by its value and never resolves or
    normalizes that value again.  Structure bindings may chain through
    variables bound later; `walk_sem` follows them.
    """

    def __init__(self, terms=None, sems=None):
        self.terms: dict[str, MeaningTerm] = terms or {}
        self.sems: dict[str, SemTerm] = sems or {}

    def nf(self, t: MeaningTerm) -> MeaningTerm:
        """Normal form of `t` with every bound variable replaced by its value."""
        return normalize_with(t, self.terms.get if self.terms else None)

    def walk_sem(self, s: SemTerm) -> SemTerm:
        while isinstance(s, SemVar) and s.name in self.sems:
            s = self.sems[s.name]
        return s

    def bind(self, name: str, value: MeaningTerm) -> "Substitution":
        """Extend with name := value, which must be closed and normal."""
        assert name not in self.terms, f"{name} bound twice"
        return Substitution(self.terms | {name: value}, self.sems)

    def extend(self, other: "Substitution", n: int) -> "Substitution":
        """Extend with the term bindings that `other` made after its first `n`."""
        new = itertools.islice(other.terms.items(), n, None)
        return Substitution(self.terms | dict(new), self.sems)

    def bind_sem(self, name: str, value: SemTerm) -> "Substitution":
        value = self.walk_sem(value)
        sems = dict(self.sems)
        sems[name] = value
        return Substitution(self.terms, sems)


# ---------------------------------------------------------------------------
# One-way matching


def _flex_binding(head: MeaningTerm, xs: list[MeaningTerm], other: MeaningTerm):
    """For a flex side with spine `head`(xs...), F(x...) or (!F(y...))(x...),
    its variable, the normal value that equates it to the normal `other`
    (\\x... other, or \\y... ^\\x... other since !^u = u) and the value's free
    names.  None when the side is rigid; NonPatternError unless F's
    arguments are distinct eigenvariables."""
    f, ys = spine(head.body) if type(head) is Cup else (head, [])
    if type(f) is not MetaVar:
        return None
    args = ys + xs
    if any(type(a) is not Var for a in args) or len(set(args)) < len(args):
        raise NonPatternError(
            f"{f.name} applied to non-pattern arguments (outside the decidable fragment)"
        )
    value, free = abstract(ys, xs, other, f is not head)
    # abstracting variables out of a normal term leaves a redex only at the
    # top: an eta redex \\x. g(x), or ^(!v); contracting it keeps the names
    if type(other) is Cup or xs and type(other) is App and other.arg == xs[-1]:
        value = normalize(value)
    return f, value, free


def solve(
    su: Substitution, l: MeaningTerm, r: MeaningTerm, classes: VarClass
) -> Optional[Substitution]:
    """Extend `su` to make l and r equal modulo the term theory, or return
    None.  A flex side, l before r, is bound to the other side, which must be
    closed under `su`; only between two rigid sides is an abstraction opened,
    and `^` heads are compared as `!` heads are.  Raises NonPatternError
    outside the matched fragment (see the module docstring)."""
    l, r = su.nf(l), su.nf(r)
    if alpha_equal(l, r):
        return su
    hl, al = spine(l)
    hr, ar = spine(r)
    for head, xs, other in ((hl, al, r), (hr, ar, l)):
        found = _flex_binding(head, xs, other)
        if found is not None:
            f, value, free = found
            # l and r are resolved: every metavariable is unbound
            for v in free.values():
                if type(v) is MetaVar:
                    raise NonPatternError(
                        f"no antecedent fixes {f.name} or {v.name} in "
                        f"{print_term(l)} = {print_term(r)} (outside the matched fragment)"
                    )
            fts = classes.ts(f.name)
            if any(classes.ts(name) > fts for name in free):
                return None  # an eigenvariable would escape its scope
            return su.bind(f.name, value)
    if type(l) is Abs or type(r) is Abs:
        v = classes.fresh("w", EIGEN, l.var_ty if type(l) is Abs else r.var_ty)
        return solve(su, normalize(App(l, v)), normalize(App(r, v)), classes)
    for capped, other in ((l, r), (r, l)):
        if type(capped) is Cap and type(other) is Var:
            # ^b = v only if b = !v: variables denote index-independent values
            return solve(su, capped.body, Cup(other), classes)
    if len(al) != len(ar) or type(hl) is not type(hr):
        return None
    if type(hl) is Cup or type(hl) is Cap:
        su = solve(su, hl.body, hr.body, classes)
    elif type(hl) not in (Const, Var) or hl.name != hr.name:
        return None
    for x, y in zip(al, ar):
        if su is None:
            return None
        su = solve(su, x, y, classes)
    return su


def solve_sem(
    su: Substitution, a: SemTerm, b: SemTerm, classes: VarClass
) -> Optional[Substitution]:
    """First-order unification over semantic structures."""
    a, b = su.walk_sem(a), su.walk_sem(b)
    if a == b:
        return su
    aflex = isinstance(a, SemVar) and classes.is_flex_sem(a)
    bflex = isinstance(b, SemVar) and classes.is_flex_sem(b)
    if aflex and bflex:
        if classes.ts(a.name) < classes.ts(b.name):
            a, b = b, a
        return su.bind_sem(a.name, b)
    if aflex or bflex:
        var, val = (a, b) if aflex else (b, a)
        if isinstance(val, SemVar) and classes.ts(val.name) > classes.ts(var.name):
            return None  # eigen structure would escape its scope
        return su.bind_sem(var.name, val)
    return None
