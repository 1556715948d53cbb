"""Independent oracles and generators used across the test suite.

Nothing here goes through the package's proof-search or unification code
paths: the sequent decision procedure enumerates multiset splits directly,
and the term enumerator builds normal forms by brute force.
"""

from __future__ import annotations

import random

from gluesem.glue import Limp, PropAtom, Tensor
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
    app,
    normalize,
)

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
