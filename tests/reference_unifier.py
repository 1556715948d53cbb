"""Reference higher-order pattern unifier: the general solver the package
used before it solved meanings by one-way matching.

Equations are solved modulo alpha/beta/eta and the ^/! reductions, restricted
to the decidable pattern fragment: a unification variable may only be applied
to distinct local constants.  Unlike the package's `solve`, both sides may
hold unbound flex variables.

Flex variables occurring under the extension operator, F in (!F)(x), are
re-parameterized as F = ^F' so every flex occurrence is a plain applied
spine.  Flex subterms on the rigid side of an equation are raised (given the
abstracted eigenvariables they may legally depend on as extra arguments) and
pruned (stripped of dependencies that would escape), which keeps the solved
form most general.

Its values may be open, so it binds through `OpenSubstitution`, the
triangular substitution that resolves chains of bindings; `solve` turns a
package `Substitution`, whose values are closed, into one when it gets it.

It is the oracle of the eager prover (tests/helpers.py) and of the unifier
tests whose equations have flex variables on both sides.  The code is the
package's former solver; besides that switch, `_fresh_over` sets the birth
stamp of the variable it mints itself, `_solve_abs` opens an abstraction by
normalizing its application to the fresh variable, and `_solve_head`
compares `^` heads as it compares `!` heads, as the package's matcher does.
"""

from __future__ import annotations

from typing import Optional

from gluesem.terms import (
    Abs,
    App,
    Arrow,
    BVar,
    Cap,
    Const,
    Cup,
    MeaningTerm,
    MetaVar,
    S,
    Var,
    abstract,
    alpha_equal,
    app,
    free_names,
    normalize,
    normalize_with,
    spine,
)
from gluesem.unify import EIGEN, FLEX, NonPatternError, Substitution, VarClass


class OpenSubstitution(Substitution):
    """A substitution whose values may mention variables bound later (X := Y,
    then Y := c).  `nf` resolves such chains recursively, unmemoized; `bind`
    normalizes its value and occurs-checks it, so the chains stay acyclic
    and applying twice equals applying once."""

    def _resolve(self, name: str) -> Optional[MeaningTerm]:
        value = self.terms.get(name)
        return None if value is None else normalize_with(value, self._resolve)

    def nf(self, t: MeaningTerm) -> MeaningTerm:
        return normalize_with(t, self._resolve)

    def bind(self, name: str, value: MeaningTerm) -> "OpenSubstitution":
        assert name not in self.terms, f"{name} bound twice"
        value = self.nf(value)
        assert name not in free_names(value), f"occurs check slipped for {name}"
        return OpenSubstitution(self.terms | {name: value}, self.sems)

    def extend(self, other: Substitution, n: int) -> "OpenSubstitution":
        return OpenSubstitution(super().extend(other, n).terms, self.sems)

    def bind_sem(self, name: str, value) -> "OpenSubstitution":
        return OpenSubstitution(self.terms, super().bind_sem(name, value).sems)


def _find_cup_flex(t: MeaningTerm) -> Optional[MetaVar]:
    """First flex variable heading a spine under a ! operator, if any."""
    match t:
        case Cup(b):
            head, _ = spine(b)
            if isinstance(head, MetaVar):
                return head
            return _find_cup_flex(b)
        case Abs(_, b) | Cap(b):
            return _find_cup_flex(b)
        case App(f, a):
            return _find_cup_flex(f) or _find_cup_flex(a)
        case _:
            return None


def _fresh_over(classes: VarClass, g: MetaVar, arg_tys, result_ty, ts: int) -> MetaVar:
    """A fresh flex variable named after g, of type arg_tys -> result_ty."""
    for ty in reversed(arg_tys):
        result_ty = Arrow(ty, result_ty)
    fresh = classes.fresh(g.name.split("?")[0], FLEX, result_ty)
    classes.stamps[fresh.name] = ts
    return fresh


def _abstract(arg_tys, body: MeaningTerm) -> MeaningTerm:
    """\\z1 ... zn. body, with binders of the types arg_tys; in `body`, zi
    is BVar(n - i)."""
    for ty in reversed(arg_tys):
        body = Abs(ty, body)
    return body


def _bvars(n: int, kept) -> list[BVar]:
    """The bound variables of `_abstract` over n binders at the positions kept."""
    return [BVar(n - 1 - i) for i in kept]


def _reparam_cup(su: Substitution, g: MetaVar, classes: VarClass) -> Substitution:
    """Bind g = \\z... ^g'(z...) so (!g)(x...) spines become plain patterns."""
    arg_tys = []
    ty = g.ty
    while not (isinstance(ty, Arrow) and ty.left == S):
        if not isinstance(ty, Arrow):
            raise NonPatternError(f"! applied to non-intensional flex {g.name}")
        arg_tys.append(ty.left)
        ty = ty.right
    n = len(arg_tys)
    g2 = _fresh_over(classes, g, arg_tys, ty.right, classes.ts(g.name))
    return su.bind(g.name, _abstract(arg_tys, Cap(app(g2, *_bvars(n, range(n))))))


def _pattern_args(f: MetaVar, args: list[MeaningTerm], kinds=(Var,)) -> list:
    """The arguments `args` of f, checked to be distinct eigens (inside a
    rigid right-hand side, kinds=(Var, BVar) also admits locally bound
    variables)."""
    if any(type(a) not in kinds for a in args) or len(set(args)) < len(args):
        raise NonPatternError(
            f"{f.name} applied to non-pattern arguments (outside the decidable fragment)"
        )
    return args


class _Fail(Exception):
    """Internal: the current equation has no solution."""


def _split_ty(ty, n):
    """The first n argument types of the function type `ty`, and the rest."""
    args = []
    for _ in range(n):
        args.append(ty.left)
        ty = ty.right
    return args, ty


def _needs_rewrite(g: MetaVar, gargs, f: MetaVar, argnames, classes) -> bool:
    fts = classes.ts(f.name)
    gts = classes.ts(g.name)
    if gts > fts:
        return True  # lowering: g may not outlive f's horizon
    have = set()
    for a in gargs:
        if isinstance(a, Var):
            have.add(a.name)
            if a.name not in argnames and classes.ts(a.name) >= fts:
                return True  # pruning: this dependency could never be abstracted
    # raising: an abstracted eigen old enough for g's solution to mention it
    # must be routed through an explicit argument
    return any(n not in have and classes.ts(n) < gts for n in argnames)


def _scan_rigid(t, f: MetaVar, argnames: set[str], classes: VarClass):
    """Find the first flex subterm of `t` that must be raised, pruned or
    lowered before f can be bound to (an abstraction of) t.  Raises _Fail on
    eigen escape or occurs violation.  Returns (g, g_args) or None.  Each
    spine is split once and scanned head first, then argument by argument."""
    fts = classes.ts(f.name)

    def scan(t):
        head, args = spine(t)
        cls = type(head)
        if cls is MetaVar:
            if head.name == f.name:
                raise _Fail  # occurs check
            gargs = _pattern_args(head, args, (Var, BVar))
            if _needs_rewrite(head, gargs, f, argnames, classes):
                return (head, gargs)
            return None
        if cls is Var:
            if head.name not in argnames and classes.ts(head.name) > fts:
                raise _Fail
        elif cls is Abs or cls is Cap or cls is Cup:
            args = [head.body, *args]
        for a in args:
            found = scan(a)
            if found is not None:
                return found
        return None

    return scan(t)


def _rewrite_flex(su, g: MetaVar, gargs, f: MetaVar, argvars: list[Var], classes):
    """Replace g by a fresh variable whose arguments are exactly those it may
    keep (pruning) plus the abstracted eigens it may depend on (raising)."""
    fts = classes.ts(f.name)
    argnames = {v.name for v in argvars}
    by_name = {v.name: v for v in argvars}
    kept_idx = []
    for i, a in enumerate(gargs):
        if isinstance(a, BVar):
            kept_idx.append(i)
        elif a.name in argnames or classes.ts(a.name) < fts:
            kept_idx.append(i)
        # otherwise pruned: such a dependency could never be abstracted
    have = {a.name for a in gargs if isinstance(a, Var)}
    gts = classes.ts(g.name)
    raised = [
        by_name[n]
        for n in sorted(argnames - have, key=lambda n: classes.ts(n))
        if classes.ts(n) < gts
    ]
    n = len(gargs)
    orig_tys, result_ty = _split_ty(g.ty, n)
    new_args = [orig_tys[i] for i in kept_idx] + [v.ty for v in raised]
    g2 = _fresh_over(classes, g, new_args, result_ty, min(fts, gts))
    return su.bind(g.name, _abstract(orig_tys, app(g2, *_bvars(n, kept_idx), *raised)))


def _flex_rigid(su, f: MetaVar, args, rhs, classes) -> Optional[Substitution]:
    argvars = _pattern_args(f, args)
    argnames = {v.name for v in argvars}
    while True:  # rhs is normal under su
        try:
            found = _scan_rigid(rhs, f, argnames, classes)
        except _Fail:
            return None
        if found is None:
            break
        g, gargs = found
        su = _rewrite_flex(su, g, gargs, f, argvars, classes)
        rhs = su.nf(rhs)
    value, _ = abstract([], argvars, rhs)
    return su.bind(f.name, value)


def _flex_flex(su, f: MetaVar, fargs, g: MetaVar, gargs, classes):
    fvars = _pattern_args(f, fargs)
    gvars = _pattern_args(g, gargs)
    if f.name == g.name:
        if len(fvars) != len(gvars):
            return None
        kept = [i for i in range(len(fvars)) if fvars[i].name == gvars[i].name]
        if len(kept) == len(fvars):
            return su
        n = len(fvars)
        orig_tys, result_ty = _split_ty(f.ty, n)
        h = _fresh_over(classes, f, [orig_tys[i] for i in kept], result_ty, classes.ts(f.name))
        return su.bind(f.name, _abstract(orig_tys, app(h, *_bvars(n, kept))))
    if not fvars and not gvars:
        if classes.ts(f.name) < classes.ts(g.name):
            f, g = g, f  # bind the younger to the older
        return _flex_rigid_flexhead(su, f, g, g, [], classes)
    if not fvars:
        return _flex_rigid_flexhead(su, f, app(g, *gvars), g, gvars, classes)
    if not gvars:
        return _flex_rigid_flexhead(su, g, app(f, *fvars), f, fvars, classes)
    # different heads, arguments on both sides: both collapse onto a fresh
    # variable over the arguments they can each still see
    gnames = {v.name for v in gvars}
    shared = [v for v in fvars if v.name in gnames]
    h = _fresh_over(classes, f, [v.ty for v in shared], _split_ty(f.ty, len(fvars))[1],
                    min(classes.ts(f.name), classes.ts(g.name)))

    def binding(params, ty):
        at = {v.name: i for i, v in enumerate(params)}
        kept = [at[v.name] for v in shared]
        return _abstract(_split_ty(ty, len(params))[0], app(h, *_bvars(len(params), kept)))

    su = su.bind(f.name, binding(fvars, f.ty))
    return su.bind(g.name, binding(gvars, g.ty))


def _flex_rigid_flexhead(su, f, rhs, g, gvars, classes):
    """Bind the 0-ary f to the flex-headed spine g(ys), lowering/pruning g
    first when needed."""
    fts = classes.ts(f.name)
    bad = [v for v in gvars if classes.ts(v.name) >= fts]
    if classes.ts(g.name) > fts or bad:
        su = _rewrite_flex(su, g, list(gvars), f, [], classes)
        return _flex_rigid(su, f, [], su.nf(rhs), classes)
    return su.bind(f.name, rhs)


def solve(
    su: Substitution, l: MeaningTerm, r: MeaningTerm, classes: VarClass
) -> Optional[Substitution]:
    """Extend `su` to make l and r equal modulo the term theory, or return
    None.  Raises NonPatternError outside the fragment."""
    if type(su) is Substitution:
        su = OpenSubstitution(su.terms, su.sems)
    l, r = su.nf(l), su.nf(r)
    if alpha_equal(l, r):
        return su
    g = _find_cup_flex(l) or _find_cup_flex(r)
    if g is not None:
        return solve(_reparam_cup(su, g, classes), l, r, classes)
    if isinstance(l, Abs) or isinstance(r, Abs):
        return _solve_abs(su, l, r, classes)
    hl, al = spine(l)
    hr, ar = spine(r)
    lfx = isinstance(hl, MetaVar)
    rfx = isinstance(hr, MetaVar)
    if lfx and rfx:
        return _flex_flex(su, hl, al, hr, ar, classes)
    if lfx:
        return _flex_rigid(su, hl, al, r, classes)
    if rfx:
        return _flex_rigid(su, hr, ar, l, classes)
    if isinstance(l, Cap) or isinstance(r, Cap):
        if isinstance(l, Cap) and isinstance(r, Cap):
            return solve(su, l.body, r.body, classes)
        capped, other = (l, r) if isinstance(l, Cap) else (r, l)
        if isinstance(other, Var):
            # ^b = v only if b = !v: variables denote index-independent values
            return solve(su, capped.body, Cup(other), classes)
        return None
    # rigid-rigid
    if len(al) != len(ar):
        return None
    su2 = _solve_head(su, hl, hr, classes)
    if su2 is None:
        return None
    for x, y in zip(al, ar):
        su2 = solve(su2, x, y, classes)
        if su2 is None:
            return None
    return su2


def _solve_abs(su, l, r, classes):
    lty = l.var_ty if isinstance(l, Abs) else r.var_ty
    v = classes.fresh("w", EIGEN, lty)
    return solve(su, normalize(App(l, v)), normalize(App(r, v)), classes)


def _solve_head(su, hl, hr, classes):
    match hl, hr:
        case Const(a, _), Const(b, _):
            return su if a == b else None
        case Var(a, _), Var(b, _):
            return su if a == b else None
        case (Cup(a), Cup(b)) | (Cap(a), Cap(b)):
            return solve(su, a, b, classes)
        case _:
            return None
