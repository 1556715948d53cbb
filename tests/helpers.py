"""Independent oracles, generators and test-only API used across the suite.

Nothing in the oracles goes through the package's proof-search or
unification code paths: the sequent decision procedure enumerates multiset
splits directly, the term enumerator builds normal forms by brute force and
the reference typechecker infers types by unification.  The eager prover
solves each meaning equation where the search makes it, with the general
unifier of `reference_unifier`, as the prover did before it deferred them
to complete proofs and matched them antecedents first.  The reference printer
is the package's printer as it was written before it became one pass.  The
surface-syntax term parser, named substitution, f-structure printing,
equation-list unification and the scope-family sentences live here too:
only tests use them, so the package does not ship them.
"""

from __future__ import annotations

import itertools
import random
import re

from gluesem import prover
from gluesem.fstruct import FStructure, parse_fstructure
from gluesem.glue import Limp, Means, PropAtom, Tensor
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
    GlueError,
    MetaVar,
    Record,
    S,
    T,
    TypeMismatch,
    UnboundName,
    Var,
    alpha_equal,
    app,
    free_names,
    normalize,
    print_term,
    spine,
)
from gluesem.unify import Substitution, VarClass, solve, solve_sem

import reference_unifier

# ---------------------------------------------------------------------------
# Brute-force decision procedure for the propositional tensor fragment.
# Splits the context into all sub-multisets at every two-premise rule.


def _fkey(f):
    if isinstance(f, PropAtom):
        return f.name
    if isinstance(f, Tensor):
        return f"({_fkey(f.left)}*{_fkey(f.right)})"
    return f"({_fkey(f.ant)}-o{_fkey(f.cons)})"


def _ctx_key(ctx):
    return tuple(sorted(_fkey(f) for f in ctx))


def _splits(ctx):
    for mask in range(1 << len(ctx)):
        left = [f for i, f in enumerate(ctx) if mask >> i & 1]
        right = [f for i, f in enumerate(ctx) if not mask >> i & 1]
        yield left, right


def mill_provable(ctx, goal, _memo=None) -> bool:
    """Decide ctx |- goal in multiplicative intuitionistic linear logic
    (propositional: atoms, *, -o)."""
    memo = _memo if _memo is not None else {}
    key = (_ctx_key(ctx), _fkey(goal))
    if key in memo:
        return memo[key]
    memo[key] = False  # cycles are failures; sizes shrink so none arise
    result = _mill(ctx, goal, memo)
    memo[key] = result
    return result


def _mill(ctx, goal, memo) -> bool:
    # invertible rules first: context tensors decompose eagerly
    for i, f in enumerate(ctx):
        if isinstance(f, Tensor):
            return mill_provable(
                ctx[:i] + ctx[i + 1 :] + [f.left, f.right], goal, memo
            )
    if isinstance(goal, Limp):
        return mill_provable(ctx + [goal.ant], goal.cons, memo)
    if isinstance(goal, Tensor) and any(
        mill_provable(l, goal.left, memo) and mill_provable(r, goal.right, memo)
        for l, r in _splits(ctx)
    ):
        return True
    if (
        isinstance(goal, PropAtom)
        and len(ctx) == 1
        and isinstance(ctx[0], PropAtom)
        and ctx[0].name == goal.name
    ):
        return True
    # left implication: applicable whatever the goal's shape
    for i, f in enumerate(ctx):
        rest = ctx[:i] + ctx[i + 1 :]
        if isinstance(f, Limp):
            for l, r in _splits(rest):
                if mill_provable(l, f.ant, memo) and mill_provable(
                    r + [f.cons], goal, memo
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# Eager reference prover: the differential oracle for deferred meanings.


def full_atom_match(self, su, f, goal):
    """A `Prover._unify_atoms` for any focused head `f`, candidate or not:
    the kinds, names and types that the head index decides, then the
    structures."""
    if isinstance(f, PropAtom) and isinstance(goal, PropAtom):
        return su if f.name == goal.name else None
    if not (isinstance(f, Means) and isinstance(goal, Means)) or f.ty != goal.ty:
        return None
    return solve_sem(su, f.sem, goal.sem, self.classes)


class EagerProver(prover.Prover):
    """Solves the meaning equation at every atom match, so a failing equation
    prunes its branch where it is made and none is left for the end.  Its
    substitutions carry term bindings, which the shipped prover's table of
    atomic goals does not key on, so it tables nothing: each visit's fresh
    key matches no record."""

    def _table_key(self, su, ctx, goal):
        return object()

    def _unify_atoms(self, su, f, goal):
        su2 = full_atom_match(self, su, f, goal)
        if su2 is None or isinstance(goal, PropAtom):
            return su2
        return reference_unifier.solve(su2, f.term, goal.term, self.classes)


def check_theorem(formula, budget=prover.SearchBudget()):
    """Is `formula` derivable from the empty context?  With a derivation."""
    for _, d in prover.prove_sequent((), formula, budget):
        return True, d
    return False, None


def with_prover(cls, run):
    """`run()` with every prover the package's entry points make being a
    `cls`; returns its result and the last prover's stats."""
    made = []

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    shipped = prover.Prover
    prover.Prover = Recording
    try:
        result = run()
    finally:
        prover.Prover = shipped
    return result, made[-1].stats


def arrow(*types):
    """Right-associated function type: arrow(a, b, c) == a -> (b -> c)."""
    ty = types[-1]
    for arg in reversed(types[:-1]):
        ty = Arrow(arg, ty)
    return ty


# ---------------------------------------------------------------------------
# Exhaustive enumeration of normal terms (for unifier generality checks).
# Size counts nodes: leaves 1, unary wrappers 1 + child, App 1 + fn + arg.


def term_size(t):
    match t:
        case Abs(_, b) | Cap(b) | Cup(b):
            return 1 + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
        case _:
            return 1


def _head_result_chains(ty, want):
    """Argument-type lists turning a head of type `ty` into a term of type
    `want`."""
    chains = []
    args = []
    while True:
        if ty == want:
            chains.append(list(args))
        if not isinstance(ty, Arrow):
            return chains
        args.append(ty.left)
        ty = ty.right


def normal_terms(ty, size, signature, _env=()):
    """All normal terms of type `ty` with at most `size` nodes over the given
    (name, type) signature.  Bound variables come from _env."""
    if size <= 0:
        return []
    out = []
    # lambda
    if isinstance(ty, Arrow) and ty.left != S:
        for body in normal_terms(ty.right, size - 1, signature, (ty.left,) + _env):
            out.append(Abs(ty.left, body))
    # intension
    if isinstance(ty, Arrow) and ty.left == S:
        for body in normal_terms(ty.right, size - 1, signature, _env):
            out.append(Cap(body))
    # neutral spines: a head applied to argument lists
    heads = [(Const(n, t), t) for n, t in signature]
    heads += [(BVar(i), t) for i, t in enumerate(_env)]
    for head, hty in heads:
        for chain in _head_result_chains(hty, ty):
            budget = size - 1 - len(chain)  # head node + one App node per arg
            if not chain:
                out.append(head)
                continue
            if budget < len(chain):
                continue
            for args in _arg_lists(chain, budget, signature, _env):
                out.append(app(head, *args))
    # extension of an intensional neutral
    for body in normal_terms(Arrow(S, ty), size - 1, signature, _env):
        if not isinstance(body, Cap):
            out.append(Cup(body))
    # keep only genuine normal forms (filters eta redexes etc.)
    seen = set()
    uniq = []
    for t in out:
        if alpha_equal(t, normalize(t)) and repr(t) not in seen:
            seen.add(repr(t))
            uniq.append(t)
    return uniq


def _arg_lists(types, budget, signature, env):
    if not types:
        yield []
        return
    first, rest = types[0], types[1:]
    for sz in range(1, budget - len(rest) + 1):
        for t in normal_terms(first, sz, signature, env):
            if term_size(t) != sz:
                continue
            for others in _arg_lists(rest, budget - sz, signature, env):
                yield [t] + others


def free_named_terms(ty, size, signature, frees):
    """Like normal_terms but the signature also offers free named variables."""
    sig = list(signature) + [(n, t) for n, t in frees]
    found = []
    for t in normal_terms(ty, size, sig, ()):
        found.append(_consts_to_vars(t, dict(frees)))
    return found


def _consts_to_vars(t, frees):
    match t:
        case Const(n, ty) if n in frees:
            return Var(n, frees[n])
        case Abs(ty, b):
            return Abs(ty, _consts_to_vars(b, frees))
        case App(f, a):
            return App(_consts_to_vars(f, frees), _consts_to_vars(a, frees))
        case Cap(b):
            return Cap(_consts_to_vars(b, frees))
        case Cup(b):
            return Cup(_consts_to_vars(b, frees))
        case _:
            return t


# ---------------------------------------------------------------------------
# Random well-typed terms (for normalization properties)

_TYPE_POOL = [
    E,
    T,
    Arrow(E, T),
    Arrow(E, E),
    Arrow(Arrow(E, T), T),
    Arrow(S, Arrow(E, T)),
    Arrow(E, Arrow(E, T)),
]

RANDOM_SIGNATURE = {
    "c": E,
    "d": E,
    "p": Arrow(E, T),
    "q": Arrow(E, T),
    "rel": Arrow(E, Arrow(E, T)),
    "big": Arrow(Arrow(E, T), T),
    "prop": Arrow(S, Arrow(E, T)),
}


def random_term(rng: random.Random, ty, depth, env=()):
    """A random well-typed term of type `ty`; may contain beta redexes."""
    choices = []
    if isinstance(ty, Arrow) and ty.left == S:
        choices += ["cap"] * 3
    elif isinstance(ty, Arrow):
        choices += ["abs"] * 3
    if depth > 0:
        choices += ["app", "app", "redex", "cup"]
    choices += ["leaf", "leaf"]
    kind = rng.choice(choices)
    if kind == "abs":
        return Abs(ty.left, random_term(rng, ty.right, depth - 1, (ty.left,) + env))
    if kind == "cap":
        return Cap(random_term(rng, ty.right, depth - 1, env))
    if kind == "cup":
        return Cup(random_term(rng, Arrow(S, ty), depth - 1, env))
    if kind == "app":
        arg_ty = rng.choice(_TYPE_POOL)
        fn = random_term(rng, Arrow(arg_ty, ty), depth - 1, env)
        arg = random_term(rng, arg_ty, depth - 1, env)
        return App(fn, arg)
    if kind == "redex":
        arg_ty = rng.choice(_TYPE_POOL)
        body = random_term(rng, ty, depth - 1, (arg_ty,) + env)
        arg = random_term(rng, arg_ty, depth - 1, env)
        return App(Abs(arg_ty, body), arg)
    # leaf: a bound variable, a constant, or a minimal constructed term
    options = [BVar(i) for i, t in enumerate(env) if t == ty]
    options += [Const(n, t) for n, t in RANDOM_SIGNATURE.items() if t == ty]
    if options:
        return rng.choice(options)
    return _minimal(ty)


def _minimal(ty):
    if ty == E:
        return Const("c", E)
    if ty == T:
        return App(Const("p", Arrow(E, T)), Const("c", E))
    if isinstance(ty, Arrow) and ty.left == S:
        return Cap(_minimal(ty.right))
    if isinstance(ty, Arrow):
        return Abs(ty.left, _minimal(ty.right))
    raise AssertionError(f"cannot inhabit {ty!r}")


# ---------------------------------------------------------------------------
# Reference reduction: single redex contractions at explicit positions, and
# the plain two-pass substitution the unifier once used (expand every bound
# metavariable through the triangular chain, then normalize from scratch).
# Written without the package's own traversals, so it can serve as an oracle
# for them.
#
# Redex kinds:
#   beta    (\x. b)(a)        -> b[x := a]
#   cupcap  !(^M)             -> M
#   capcup  ^(!v)             -> v          (v a variable)
#   eta     \x. f(x)          -> f          (x not free in f)


def _shift(t, d, cutoff=0):
    match t:
        case BVar(i):
            return BVar(i + d) if i >= cutoff else t
        case Abs(ty, b):
            return Abs(ty, _shift(b, d, cutoff + 1))
        case App(f, a):
            return App(_shift(f, d, cutoff), _shift(a, d, cutoff))
        case Cap(b):
            return Cap(_shift(b, d, cutoff))
        case Cup(b):
            return Cup(_shift(b, d, cutoff))
        case _:
            return t


def _subst_bvar(t, k, repl):
    match t:
        case BVar(i):
            if i == k:
                return _shift(repl, k)
            return BVar(i - 1) if i > k else t
        case Abs(ty, b):
            return Abs(ty, _subst_bvar(b, k + 1, repl))
        case App(f, a):
            return App(_subst_bvar(f, k, repl), _subst_bvar(a, k, repl))
        case Cap(b):
            return Cap(_subst_bvar(b, k, repl))
        case Cup(b):
            return Cup(_subst_bvar(b, k, repl))
        case _:
            return t


def _bvar_free(t, k):
    match t:
        case BVar(i):
            return i == k
        case Abs(_, b):
            return _bvar_free(b, k + 1)
        case App(f, a):
            return _bvar_free(f, k) or _bvar_free(a, k)
        case Cap(b) | Cup(b):
            return _bvar_free(b, k)
        case _:
            return False


def _children(t):
    match t:
        case Abs(_, b) | Cap(b) | Cup(b):
            return [b]
        case App(f, a):
            return [f, a]
        case _:
            return []


def _rebuild(t, kids):
    match t:
        case Abs(ty, _):
            return Abs(ty, kids[0])
        case Cap(_):
            return Cap(kids[0])
        case Cup(_):
            return Cup(kids[0])
        case App(_, _):
            return App(kids[0], kids[1])
        case _:
            return t


def _redex_kind(t):
    match t:
        case App(Abs(), _):
            return "beta"
        case Cup(Cap(_)):
            return "cupcap"
        case Cap(Cup(Var() | BVar())):
            return "capcup"
        case Abs(_, App(f, BVar(0))) if not _bvar_free(f, 0):
            return "eta"
        case _:
            return None


def redexes(t, path=()):
    """All redex positions in `t`, preorder.  Paths index into _children."""
    found = []
    kind = _redex_kind(t)
    if kind:
        found.append((path, kind))
    for i, c in enumerate(_children(t)):
        found.extend(redexes(c, path + (i,)))
    return found


def _contract(t, kind):
    match kind, t:
        case "beta", App(Abs(_, b), a):
            return _subst_bvar(b, 0, a)
        case "cupcap", Cup(Cap(b)):
            return b
        case "capcup", Cap(Cup(v)):
            return v
        case "eta", Abs(_, App(f, _)):
            return _shift(f, -1)
    raise AssertionError(f"not a {kind} redex: {t!r}")


def reduce_at(t, path, kind):
    if not path:
        return _contract(t, kind)
    kids = _children(t)
    i = path[0]
    kids[i] = reduce_at(kids[i], path[1:], kind)
    return _rebuild(t, kids)


def random_reduction(rng: random.Random, term):
    """Reduce to normal form contracting randomly chosen redexes."""
    while True:
        rs = redexes(term)
        if not rs:
            return term
        path, kind = rng.choice(rs)
        term = reduce_at(term, path, kind)


def reference_normalize(term):
    """Normal form by recursive descent: normalize the children, then
    contract the node if that made it a redex (substituting the unnormalized
    argument of a beta redex and normalizing the result again)."""
    match term:
        case App(f, a):
            f = reference_normalize(f)
            if isinstance(f, Abs):
                return reference_normalize(_subst_bvar(f.body, 0, a))
            return App(f, reference_normalize(a))
        case Abs(ty, b):
            b = reference_normalize(b)
            if isinstance(b, App) and b.arg == BVar(0) and not _bvar_free(b.fn, 0):
                return _shift(b.fn, -1)
            return Abs(ty, b)
        case Cup(b):
            b = reference_normalize(b)
            if isinstance(b, Cap):
                return b.body
            return Cup(b)
        case Cap(b):
            b = reference_normalize(b)
            if isinstance(b, Cup) and isinstance(b.body, (Var, BVar)):
                return b.body
            return Cap(b)
        case _:
            return term


def reference_nf(bindings, term):
    """Apply the triangular `bindings` (name -> term) by re-walking the whole
    chain at every bound metavariable, then normalize from scratch."""

    def expand(t):
        match t:
            case MetaVar(n, _) if n in bindings:
                return expand(bindings[n])
            case Abs(ty, b):
                return Abs(ty, expand(b))
            case App(f, a):
                return App(expand(f), expand(a))
            case Cap(b):
                return Cap(expand(b))
            case Cup(b):
                return Cup(expand(b))
            case _:
                return t

    return reference_normalize(expand(term))


def reference_bind_vars(params, body):
    """Abstract the named variables one parameter at a time, innermost
    first, one pass over the term per parameter."""

    def close(t, name, depth):
        match t:
            case Var(n, _) | MetaVar(n, _) if n == name:
                return BVar(depth)
            case Abs(ty, b):
                return Abs(ty, close(b, name, depth + 1))
            case App(f, a):
                return App(close(f, name, depth), close(a, name, depth))
            case Cap(b):
                return Cap(close(b, name, depth))
            case Cup(b):
                return Cup(close(b, name, depth))
            case _:
                return t

    t = body
    for v in reversed(params):
        t = Abs(v.ty, close(t, v.name, 0))
    return t


# ---------------------------------------------------------------------------
# Reference typechecker: unification-based type inference.  Unlike
# `gluesem.terms.elaborate`, which synthesizes types from annotated binders,
# it also infers the types of unannotated binders (the surface syntax below
# allows them), so it serves as the oracle the synthesis is checked against.


class TVar(Record):
    """Type variable; appears only transiently while instantiating ^/! and
    unannotated binders."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class _TyUnifier:
    def __init__(self):
        self.sub = {}
        self._n = itertools.count()

    def fresh(self) -> TVar:
        return TVar(f"t{next(self._n)}")

    def resolve(self, ty):
        while isinstance(ty, TVar) and ty.name in self.sub:
            ty = self.sub[ty.name]
        return ty

    def deep(self, ty):
        ty = self.resolve(ty)
        if isinstance(ty, Arrow):
            return Arrow(self.deep(ty.left), self.deep(ty.right))
        return ty

    def unify(self, a, b, where) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if self._occurs(a.name, b):
                raise TypeMismatch(where, a, b)
            self.sub[a.name] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, where)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        raise TypeMismatch(where, a, b)

    def _occurs(self, name: str, ty) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, TVar):
            return ty.name == name
        if isinstance(ty, Arrow):
            return self._occurs(name, ty.left) or self._occurs(name, ty.right)
        return False


def _infer(t, ctx, env, uni: _TyUnifier, annotate: bool):
    """Returns (elaborated term, type).  `env` is the stack of binder types."""
    match t:
        case Const(name, ty):
            declared = ctx.get(name)
            if ty is None:
                if declared is None:
                    raise UnboundName(name)
                return t if not annotate else Const(name, declared), declared
            if declared is not None:
                uni.unify(ty, declared, name)
            return t, ty
        case Var(name, ty) | MetaVar(name, ty):
            if ty is None:
                raise UnboundName(name)
            return t, ty
        case BVar(i):
            if i >= len(env):
                raise GlueError(f"loose bound variable {i}")
            return t, env[i]
        case Abs(ty, b):
            vt = ty if ty is not None else uni.fresh()
            b2, bt = _infer(b, ctx, [vt] + env, uni, annotate)
            return Abs(vt, b2), Arrow(vt, bt)
        case App(f, a):
            f2, ft = _infer(f, ctx, env, uni, annotate)
            a2, at_ = _infer(a, ctx, env, uni, annotate)
            res = uni.fresh()
            uni.unify(ft, Arrow(at_, res), print_term(t))
            return App(f2, a2), res
        case Cap(b):
            b2, bt = _infer(b, ctx, env, uni, annotate)
            return Cap(b2), Arrow(S, bt)
        case Cup(b):
            b2, bt = _infer(b, ctx, env, uni, annotate)
            res = uni.fresh()
            uni.unify(bt, Arrow(S, res), print_term(t))
            return Cup(b2), res
    raise AssertionError(f"bad term {t!r}")


def _zonk(t, uni: _TyUnifier):
    match t:
        case Const(n, ty):
            return Const(n, uni.deep(ty) if ty is not None else None)
        case Var(n, ty):
            return Var(n, uni.deep(ty))
        case MetaVar(n, ty):
            return MetaVar(n, uni.deep(ty))
        case Abs(ty, b):
            ty = uni.deep(ty)
            if _has_tvar(ty):
                raise TypeMismatch(print_term(t), "a ground binder type", ty)
            return Abs(ty, _zonk(b, uni))
        case App(f, a):
            return App(_zonk(f, uni), _zonk(a, uni))
        case Cap(b):
            return Cap(_zonk(b, uni))
        case Cup(b):
            return Cup(_zonk(b, uni))
        case _:
            return t


def _has_tvar(ty) -> bool:
    if isinstance(ty, TVar):
        return True
    if isinstance(ty, Arrow):
        return _has_tvar(ty.left) or _has_tvar(ty.right)
    return False


def reference_elaborate(term, ctx):
    """Typecheck, fill in constant types from `ctx` and infer unannotated
    binders.  Returns the annotated term and its principal type."""
    uni = _TyUnifier()
    t2, ty = _infer(term, ctx, [], uni, annotate=True)
    return _zonk(t2, uni), uni.deep(ty)


def typecheck(term, ctx=None):
    """Principal type of `term`; raises TypeMismatch / UnboundName."""
    uni = _TyUnifier()
    _, ty = _infer(term, ctx or {}, [], uni, annotate=False)
    ty = uni.deep(ty)
    if _has_tvar(ty):
        # e.g. a bare unapplied binder with no constraining use
        raise TypeMismatch(print_term(term), "a ground type", ty)
    return ty


# ---------------------------------------------------------------------------
# Surface-syntax parser for meaning terms: f(a, b), \x. body, ^M, !M,
# optional binder annotations \x:e. body.  Identifiers may contain hyphens
# (conv-with).  Tests write expected readings in this syntax; binders may be
# unannotated, so parsing elaborates with the inference checker above.


# identifiers may contain hyphens (conv-with) but never swallow the -> arrow
_TOKEN = re.compile(r"\s*([A-Za-z_](?:[A-Za-z0-9_']|-(?!>))*|->|[\\^!():.,]|$)")


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[str] = []
        p = 0
        while p < len(text):
            m = _TOKEN.match(text, p)
            if not m or m.end() == m.start():
                raise GlueError(f"bad character in term at {text[p:p + 10]!r}")
            if m.group(1):
                self.toks.append(m.group(1))
            p = m.end()
            if not m.group(1):
                break

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise GlueError(f"unexpected end of term: {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise GlueError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def term(self, bound):
        if self.peek() == "\\":
            self.next()
            name = self.next()
            ty = None
            if self.peek() == ":":
                self.next()
                ty = self.type_expr()
            self.expect(".")
            body = self.term([name] + bound)
            return Abs(ty, body)
        return self.prefix(bound)

    def prefix(self, bound):
        tok = self.peek()
        if tok in ("^", "!"):
            self.next()
            inner = self.term(bound) if self.peek() == "\\" else self.prefix(bound)
            return Cap(inner) if tok == "^" else Cup(inner)
        return self.postfix(bound)

    def postfix(self, bound):
        t = self.atom(bound)
        while self.peek() == "(":
            self.next()
            args = [self.term(bound)]
            while self.peek() == ",":
                self.next()
                args.append(self.term(bound))
            self.expect(")")
            t = app(t, *args)
        return t

    def atom(self, bound):
        tok = self.next()
        if tok == "(":
            t = self.term(bound)
            self.expect(")")
            return t
        if not re.match(r"[A-Za-z_]", tok):
            raise GlueError(f"unexpected token {tok!r} in {self.text!r}")
        if tok in bound:
            return BVar(bound.index(tok))
        return Const(tok, None)

    def type_expr(self):
        left = self.type_atom()
        if self.peek() == "->":
            self.next()
            return Arrow(left, self.type_expr())
        return left

    def type_atom(self):
        tok = self.next()
        if tok == "(":
            ty = self.type_expr()
            self.expect(")")
            return ty
        if tok in ("e", "t", "s"):
            return Base(tok)
        raise GlueError(f"unknown type {tok!r} in {self.text!r}")


def parse_term(text: str, ctx):
    """Parse surface syntax and elaborate against `ctx`.  Free identifiers
    must be constants of the context (readings are closed terms)."""
    p = _TermParser(text)
    raw = p.term([])
    if p.peek() is not None:
        raise GlueError(f"trailing input in term: {text!r}")
    term, _ = reference_elaborate(raw, ctx)
    return normalize(term)


# ---------------------------------------------------------------------------
# Operations the engine itself never runs, kept as test vocabulary: named
# substitution, f-structure printing, and unification of equation lists
# with composition of the resulting substitutions.


def subst_map(term, mapping):
    """`term` with each free variable or metavariable named in `mapping`
    replaced by its value, rebuilding every node; no reduction."""

    def go(t, depth):
        match t:
            case Var(n, _) | MetaVar(n, _) if n in mapping:
                return _shift(mapping[n], depth)
            case Abs(ty, b):
                return Abs(ty, go(b, depth + 1))
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case Cap(b) | Cup(b):
                return type(t)(go(b, depth))
        return t

    return go(term, 0)


def free_meta_vars(term) -> set[str]:
    """Names of the glue metavariables of `term`."""
    match term:
        case MetaVar(n, _):
            return {n}
        case Abs(_, b) | Cap(b) | Cup(b):
            return free_meta_vars(b)
        case App(f, a):
            return free_meta_vars(f) | free_meta_vars(a)
    return set()


def substitute(term, name: str, repl):
    """Capture-avoiding substitution of `repl` for the free variable `name`.

    Bound variables are positional, so capture cannot occur; named frees in
    `repl` survive untouched.
    """
    return subst_map(term, {name: repl})


# ---------------------------------------------------------------------------
# Reference printer: a pattern-matching pass that draws each binder's name
# from a generator and copies the binder names and the used names per
# binder.  `print_term` must print every term exactly as this does.


_ENT_POOL = ["x", "y", "z", "u", "v", "w"]
_FUN_POOL = ["P", "Q", "R", "S", "T"]


def _name_pool(ty):
    pool = _ENT_POOL if ty == E else _FUN_POOL
    yield from pool
    for i in itertools.count(1):
        for n in pool:
            yield f"{n}{i}"


def reference_print_term(term, explicit_parens: bool = False) -> str:
    def go(t, names, used):
        # returns (text, kind) with kind in {atom, app, prefix, lam}
        match t:
            case Const(n, _) | Var(n, _) | MetaVar(n, _):
                return n, "atom"
            case BVar(i):
                return (names[i] if i < len(names) else f"#{i}"), "atom"
            case Abs(ty, b):
                n = next(n for n in _name_pool(ty) if n not in used)
                body, _ = go(b, [n] + names, used | {n})
                return f"\\{n}. {body}", "lam"
            case Cap(b) | Cup(b):
                op = "^" if isinstance(t, Cap) else "!"
                inner, kind = go(b, names, used)  # a lambda body extends right
                if kind == "app" and explicit_parens:
                    inner = f"({inner})"
                return f"{op}{inner}", "prefix"
            case App(_, _):
                head, args = spine(t)
                htext, hkind = go(head, names, used)
                if hkind != "atom":
                    htext = f"({htext})"
                parts = []
                for a in args:
                    atext, akind = go(a, names, used)
                    if explicit_parens and akind != "atom":
                        atext = f"({atext})"
                    parts.append(atext)
                return f"{htext}({', '.join(parts)})", "app"
        raise AssertionError(f"bad term {t!r}")

    text, _ = go(term, [], set(free_names(term)))
    return text


# ---------------------------------------------------------------------------
# The scope family


def scope_doc(dets, noun="unicorn"):
    """Bill seeks D0 conversation with D1 conversation with ... Dk noun."""
    k = len(dets) - 1
    inner = f'(fstruct n{k} (SPEC "{dets[k]}") (PRED "{noun}"))'
    for i in reversed(range(k)):
        inner = f'(fstruct n{i} (SPEC "{dets[i]}") (PRED "conversation") (OBL-WITH {inner}))'
    return parse_fstructure(
        f'(fstruct f (PRED "seek") (SUBJ (fstruct g (PRED "Bill"))) (OBJ {inner}))'
    )


def print_fstructure(doc) -> str:
    """Inverse of parse_fstructure, up to label-preserving isomorphism."""
    printed: set[str] = set()

    def go(fs, indent: str) -> str:
        if fs.label in printed:
            return f"(ref {fs.label})"
        printed.add(fs.label)
        parts = [f"(fstruct {fs.label}"]
        inner = indent + "  "
        for attr, v in fs.attrs.items():
            if isinstance(v, FStructure):
                parts.append(f"\n{inner}({attr} {go(v, inner)})")
            else:
                parts.append(f"\n{inner}({attr} \"{v}\")")
        return "".join(parts) + ")"

    out = go(doc.root, "")
    for pronoun, antecedent in doc.links.items():
        out += f"\n(ant {pronoun} {antecedent})"
    return out + "\n"


def walk_nodes(doc) -> list:
    """Every f-structure of `doc` once, in preorder from the root, skipping a
    structure reached again through `(ref ...)`: the reference for
    `FDocument.nodes`, which reads the label table instead."""
    out, seen = [], set()

    def walk(fs):
        if id(fs) in seen:
            return
        seen.add(id(fs))
        out.append(fs)
        for v in fs.attrs.values():
            if isinstance(v, FStructure):
                walk(v)

    walk(doc.root)
    return out


class InconsistentSubst(GlueError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"variable {name} received conflicting bindings")


def unify(equations, classes=None, subst=None, solver=solve):
    """Most general solution of the meaning-term equations, solved in order by
    `solver` (the package's matcher, or `reference_unifier.solve`), or None
    when rigid heads clash or a check fails."""
    su = subst or Substitution()
    classes = classes or VarClass()
    for l, r in equations:
        su = solver(su, l, r, classes)
        if su is None:
            return None
    return su


def compose(s1, s2):
    """compose(s1, s2).nf(t) == s2.nf(s1.nf(t))."""
    terms = {}
    for k, v in s1.terms.items():
        terms[k] = s2.nf(v)
    for k, v in s2.terms.items():
        if k in terms:
            if not alpha_equal(terms[k], s2.nf(v)):
                raise InconsistentSubst(k)
        else:
            terms[k] = v
    sems = {}
    for k, v in s1.sems.items():
        sems[k] = s2.walk_sem(v)
    for k, v in s2.sems.items():
        if k in sems:
            if sems[k] != s2.walk_sem(v):
                raise InconsistentSubst(k)
        else:
            sems[k] = v
    return Substitution(terms, sems)
