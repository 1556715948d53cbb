"""Higher-order pattern unification for the meaning language.

Equations are solved modulo alpha/beta/eta and the ^/! reductions, restricted
to the decidable pattern fragment: a unification variable may only be applied
to distinct local constants.  Variables are classified as flex (essentially
existential, to be instantiated) or eigen (essentially universal, local
constants); each carries a birth timestamp, and no flex variable may be bound
to a term mentioning an eigen variable born after it unless that eigen is one
of its pattern arguments.

Flex variables occurring under the extension operator, F in (!F)(x), are
re-parameterized as F = ^F' so every flex occurrence is a plain applied
spine.  Flex subterms on the rigid side of an equation are raised (given the
abstracted eigenvariables they may legally depend on as extra arguments) and
pruned (stripped of dependencies that would escape), which keeps the solved
form most general.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .fstruct import SemTerm, SemVar
from .terms import (
    Abs,
    App,
    Arrow,
    BVar,
    Cap,
    Const,
    Cup,
    GlueError,
    MeaningTerm,
    MetaVar,
    Record,
    S,
    Var,
    alpha_equal,
    app,
    bind_vars,
    free_vars,
    normalize,
    normalize_with,
    open_abs,
    print_term,
    spine,
)

FLEX = "flex"
EIGEN = "eigen"

_OLDEST = 0
_NEWEST = 1 << 60


class NonPatternError(GlueError):
    """The problem falls outside the supported pattern fragment; with the
    shipped lexicon this indicates a malformed meaning constructor."""


class VarClass(Record):
    """Classification of glue variables: flex or eigen, with birth stamps."""

    __slots__ = ("kinds", "stamps", "_counter")
    __hash__ = None  # grows as the search mints variables

    def __init__(self, kinds: Optional[dict[str, str]] = None,
                 stamps: Optional[dict[str, int]] = None, _counter=None):
        self.kinds = {} if kinds is None else kinds
        self.stamps = {} if stamps is None else stamps
        self._counter = itertools.count(1) if _counter is None else _counter

    def classify(self, name: str, kind: str, ts: Optional[int] = None) -> int:
        if name in self.kinds and self.kinds[name] != kind:
            raise GlueError(f"variable {name} classified twice")
        stamp = ts if ts is not None else next(self._counter)
        self.kinds[name] = kind
        self.stamps[name] = stamp
        return stamp

    def _fresh(self, hint: str, kind: str, ts: Optional[int] = None) -> str:
        name = f"{hint}{'?' if kind == FLEX else '!'}{next(self._counter)}"
        self.classify(name, kind, ts)
        return name

    def fresh_flex(self, hint: str, ty, ts: Optional[int] = None) -> MetaVar:
        return MetaVar(self._fresh(hint, FLEX, ts), ty)

    def fresh_eigen(self, hint: str, ty) -> Var:
        return Var(self._fresh(hint, EIGEN), ty)

    def fresh_sem_flex(self, hint: str) -> SemVar:
        return SemVar(self._fresh(hint, FLEX))

    def fresh_sem_eigen(self, hint: str) -> SemVar:
        return SemVar(self._fresh(hint, EIGEN))

    def kind(self, name: str, default: str) -> str:
        return self.kinds.get(name, default)

    def is_flex_sem(self, v: SemVar) -> bool:
        return self.kind(v.name, FLEX) == FLEX

    def ts(self, name: str) -> int:
        if name in self.stamps:
            return self.stamps[name]
        # unregistered: engine-minted names carry ?/!; anything else is
        # treated as oldest (an unscoped local constant)
        return _NEWEST if "?" in name else _OLDEST


class Substitution:
    """Triangular map from flex variables to terms / semantic structures.

    Bindings may mention variables bound later; application resolves them
    recursively (the occurs check keeps the chains acyclic), so observable
    application is idempotent: applying twice equals applying once.  Each
    substitution memoizes the fully applied normal form of every binding it
    resolves.  A child made by `bind` may resolve a chain differently, so it
    starts with only its new binding; one made by `bind_sem` or `defer` keeps
    the same term bindings and shares the memo.

    `eqs` holds the meaning equations recorded by `defer` and not yet
    solved, newest first, as a persistent list of `(left, right, older)`
    cells: substitutions that extend one another share their common tail.
    """

    def __init__(self, terms=None, sems=None, memo=None, eqs=None):
        self.terms: dict[str, MeaningTerm] = terms or {}
        self.sems: dict[str, SemTerm] = sems or {}
        self._memo: dict[str, MeaningTerm] = memo if memo is not None else {}
        self.eqs: Optional[tuple] = eqs

    def __repr__(self):
        items = [f"{k} -> {print_term(v)}" for k, v in self.terms.items()]
        items += [f"{k} -> {v!r}" for k, v in self.sems.items()]
        return "{" + ", ".join(items) + "}"

    def is_empty(self) -> bool:
        return not self.terms and not self.sems

    def _resolve(self, name: str) -> Optional[MeaningTerm]:
        value = self._memo.get(name)
        if value is None:
            value = self.terms.get(name)
            if value is not None:
                value = self._memo[name] = normalize_with(value, self._resolve)
        return value

    def nf(self, t: MeaningTerm) -> MeaningTerm:
        """Normal form of `t` with every bound variable replaced by its value."""
        return normalize_with(t, self._resolve if self.terms else None)

    def walk_sem(self, s: SemTerm) -> SemTerm:
        while isinstance(s, SemVar) and s.name in self.sems:
            s = self.sems[s.name]
        return s

    def bind(self, name: str, value: MeaningTerm) -> "Substitution":
        assert name not in self.terms, f"{name} bound twice"
        value = self.nf(value)
        assert name not in free_vars(value), f"occurs check slipped for {name}"
        terms = dict(self.terms)
        terms[name] = value
        # `value` mentions no bound variable, so it is its own normal form
        return Substitution(terms, self.sems, {name: value}, self.eqs)

    def bind_sem(self, name: str, value: SemTerm) -> "Substitution":
        value = self.walk_sem(value)
        sems = dict(self.sems)
        sems[name] = value
        return Substitution(self.terms, sems, self._memo, self.eqs)

    def defer(self, l: MeaningTerm, r: MeaningTerm) -> "Substitution":
        """This substitution with the equation l = r recorded, unsolved."""
        return Substitution(self.terms, self.sems, self._memo, (l, r, self.eqs))


# ---------------------------------------------------------------------------
# Core solver


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
    return classes.fresh_flex(g.name.split("?")[0], result_ty, ts=ts)


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
    value = bind_vars(argvars, rhs)
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
    v = classes.fresh_eigen("w", lty)
    lb = open_abs(l, v) if isinstance(l, Abs) else normalize(App(l, v))
    rb = open_abs(r, v) if isinstance(r, Abs) else normalize(App(r, v))
    return solve(su, lb, rb, classes)


def _solve_head(su, hl, hr, classes):
    match hl, hr:
        case Const(a, _), Const(b, _):
            return su if a == b else None
        case Var(a, _), Var(b, _):
            return su if a == b else None
        case Cup(a), Cup(b):
            return solve(su, a, b, classes)
        case _:
            return None


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
