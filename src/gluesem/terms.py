"""Typed lambda terms of the meaning language.

Terms are simply typed over the base types e (entities), t (propositions)
and s (indices), extended with the intension operator ``^`` (type a -> (s -> a))
and the extension operator ``!`` (type (s -> a) -> a).  Binding is positional
(de Bruijn indices), so alpha-equivalent terms compare equal with ``==``;
readable bound-variable names are regenerated at print time.

Normal forms are beta-short, eta-short, contain no ``!(^M)`` subterm, and no
``^(!v)`` subterm for a variable v (variables denote index-independent values,
so collapsing the round trip is sound and keeps unifier output canonical).
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter
from typing import Iterator, Optional, Union


class GlueError(Exception):
    """Base class for all errors raised by this package."""


class TypeMismatch(GlueError):
    def __init__(self, location, expected, found):
        self.location = location
        self.expected = expected
        self.found = found
        super().__init__(
            f"type mismatch at {location}: expected {expected}, found {found}"
        )


class UnboundName(GlueError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound name: {name}")


class Record:
    """Base of the package's value classes.

    A record's fields are its `__slots__`, set once by its `__init__`, so
    instances carry no `__dict__`.  Nothing assigns a field after
    `__init__` except on `SearchStats`, whose counts grow during the search;
    it and the records that hold mutable containers (f-structures,
    documents, lexicons, results, the variable registry) declare
    `__hash__ = None`.  `__match_args__` follows `__slots__`, so positional
    `match` patterns see the constructor's field order.  Records of one
    class with equal fields are equal and hash alike; records of different
    classes are never equal.  Terms, types, semantic structures, `Means`
    and `Derivation` are compared in the search's inner loops and define a
    faster `__eq__` of their own: field by field, taking identical fields
    (shared subterms) as equal without descending into them.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)
        if "__eq__" in cls.__dict__ and cls.__dict__.get("__hash__") is None:
            cls.__hash__ = Record.__hash__  # defining __eq__ cleared it

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Types


class Base(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return other.__class__ is Base and self.name == other.name

    def __repr__(self):
        return self.name


class Arrow(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: MeaningType, right: MeaningType):
        self.left, self.right = left, right

    def __eq__(self, other):
        return (other.__class__ is Arrow and (self.left is other.left or self.left == other.left)
                and (self.right is other.right or self.right == other.right))

    def __repr__(self):
        l = f"({self.left!r})" if isinstance(self.left, Arrow) else repr(self.left)
        return f"{l} -> {self.right!r}"


class TVar(Record):
    """Type variable; appears only transiently while instantiating ^/! and
    unannotated binders."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


MeaningType = Union[Base, Arrow, TVar]

E = Base("e")
T = Base("t")
S = Base("s")


def arrow(*types: MeaningType) -> MeaningType:
    """Right-associated function type: arrow(a, b, c) == a -> (b -> c)."""
    ty = types[-1]
    for arg in reversed(types[:-1]):
        ty = Arrow(arg, ty)
    return ty


def parse_type(text: str) -> MeaningType:
    """Parse ``e``, ``t``, ``s`` and right-associative ``a -> b``."""
    toks = re.findall(r"->|[a-z]+|[()]", text)
    pos = 0

    def atom():
        nonlocal pos
        if pos >= len(toks):
            raise GlueError(f"bad type syntax: {text!r}")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            ty = arrow_ty()
            if pos >= len(toks) or toks[pos] != ")":
                raise GlueError(f"bad type syntax: {text!r}")
            pos += 1
            return ty
        if tok in ("e", "t", "s"):
            return Base(tok)
        raise GlueError(f"unknown base type {tok!r} in {text!r}")

    def arrow_ty():
        nonlocal pos
        left = atom()
        if pos < len(toks) and toks[pos] == "->":
            pos += 1
            return Arrow(left, arrow_ty())
        return left

    ty = arrow_ty()
    if pos != len(toks):
        raise GlueError(f"bad type syntax: {text!r}")
    return ty


# ---------------------------------------------------------------------------
# Terms


class Const(Record):
    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: Optional[MeaningType]):
        self.name, self.ty = name, ty

    def __eq__(self, other):
        return (other.__class__ is Const and self.name == other.name
                and (self.ty is other.ty or self.ty == other.ty))


class Var(Record):
    """Free named variable: eigenvariables and local constants in proofs."""

    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: MeaningType):
        self.name, self.ty = name, ty

    def __eq__(self, other):
        return (other.__class__ is Var and self.name == other.name
                and (self.ty is other.ty or self.ty == other.ty))


class MetaVar(Record):
    """Glue-language variable (essentially existential / unification variable)."""

    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: MeaningType):
        self.name, self.ty = name, ty

    def __eq__(self, other):
        return (other.__class__ is MetaVar and self.name == other.name
                and (self.ty is other.ty or self.ty == other.ty))


class BVar(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other):
        return other.__class__ is BVar and self.index == other.index


class Abs(Record):
    __slots__ = ("var_ty", "body")

    def __init__(self, var_ty: Optional[MeaningType], body: MeaningTerm):
        self.var_ty, self.body = var_ty, body

    def __eq__(self, other):
        return (other.__class__ is Abs and (self.body is other.body or self.body == other.body)
                and (self.var_ty is other.var_ty or self.var_ty == other.var_ty))


class App(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: MeaningTerm, arg: MeaningTerm):
        self.fn, self.arg = fn, arg

    def __eq__(self, other):
        return (other.__class__ is App and (self.fn is other.fn or self.fn == other.fn)
                and (self.arg is other.arg or self.arg == other.arg))


class Cap(Record):
    __slots__ = ("body",)

    def __init__(self, body: MeaningTerm):
        self.body = body

    def __eq__(self, other):
        return other.__class__ is Cap and (self.body is other.body or self.body == other.body)


class Cup(Record):
    __slots__ = ("body",)

    def __init__(self, body: MeaningTerm):
        self.body = body

    def __eq__(self, other):
        return other.__class__ is Cup and (self.body is other.body or self.body == other.body)


MeaningTerm = Union[Const, Var, MetaVar, BVar, Abs, App, Cap, Cup]


def app(fn: MeaningTerm, *args: MeaningTerm) -> MeaningTerm:
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: MeaningTerm) -> tuple[MeaningTerm, list[MeaningTerm]]:
    """Split nested applications: f(a)(b) -> (f, [a, b])."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# de Bruijn plumbing.  The traversals below dispatch on type() rather than
# pattern matching (they are the unifier's inner loop) and return unchanged
# subterms as the same object.


def _shift(t: MeaningTerm, d: int, cutoff: int = 0) -> MeaningTerm:
    cls = type(t)
    if cls is BVar:
        return BVar(t.index + d) if t.index >= cutoff else t
    if cls is App:
        f = _shift(t.fn, d, cutoff)
        a = _shift(t.arg, d, cutoff)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is Abs:
        b = _shift(t.body, d, cutoff + 1)
        return t if b is t.body else Abs(t.var_ty, b)
    if cls is Cap or cls is Cup:
        b = _shift(t.body, d, cutoff)
        return t if b is t.body else cls(b)
    return t


def open_abs(t: Abs, repl: MeaningTerm) -> MeaningTerm:
    """Instantiate the binder of a normal abstraction with the normal `repl`;
    the result is normal."""
    return _nf(t.body, None, 0, repl)


def bind_vars(params: list[Var], body: MeaningTerm) -> MeaningTerm:
    """Abstract the named free variables out of `body`: bind_vars([x, y], b)
    builds \\x. \\y. b with positional binding, in one pass."""
    n = len(params)
    index = {v.name: n - 1 - i for i, v in enumerate(params)}

    def close(t, depth):
        cls = type(t)
        if cls is Var or cls is MetaVar:
            i = index.get(t.name)
            return t if i is None else BVar(i + depth)
        if cls is App:
            f = close(t.fn, depth)
            a = close(t.arg, depth)
            return t if f is t.fn and a is t.arg else App(f, a)
        if cls is Abs:
            b = close(t.body, depth + 1)
            return t if b is t.body else Abs(t.var_ty, b)
        if cls is Cap or cls is Cup:
            b = close(t.body, depth)
            return t if b is t.body else cls(b)
        return t

    t = close(body, 0) if index else body
    for v in reversed(params):
        t = Abs(v.ty, t)
    return t


def substitute(term: MeaningTerm, name: str, repl: MeaningTerm) -> MeaningTerm:
    """Capture-avoiding substitution of `repl` for the free variable `name`.

    Bound variables are positional, so capture cannot occur; named frees in
    `repl` survive untouched.
    """
    return subst_map(term, {name: repl})


def subst_map(term: MeaningTerm, mapping: dict[str, MeaningTerm]) -> MeaningTerm:
    if not mapping:
        return term

    def go(t, depth):
        match t:
            case Var(n, _) | MetaVar(n, _) if n in mapping:
                return _shift(mapping[n], depth)
            case Abs(ty, b):
                return Abs(ty, go(b, depth + 1))
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case Cap(b):
                return Cap(go(b, depth))
            case Cup(b):
                return Cup(go(b, depth))
            case _:
                return t

    return go(term, 0)


def free_vars(term: MeaningTerm) -> set[str]:
    """Names of free variables and glue metavariables."""
    out: set[str] = set()

    def go(t):  # type() dispatch: bind runs this as its occurs check
        cls = type(t)
        if cls is App:
            go(t.fn)
            go(t.arg)
        elif cls is Var or cls is MetaVar:
            out.add(t.name)
        elif cls is Abs or cls is Cap or cls is Cup:
            go(t.body)

    go(term)
    return out


def free_meta_vars(term: MeaningTerm) -> set[str]:
    return {n for n in _iter_leaves(term, MetaVar)}


def _iter_leaves(term, cls) -> Iterator[str]:
    match term:
        case _ if isinstance(term, cls):
            yield term.name
        case Abs(_, b) | Cap(b) | Cup(b):
            yield from _iter_leaves(b, cls)
        case App(f, a):
            yield from _iter_leaves(f, cls)
            yield from _iter_leaves(a, cls)
        case _:
            return


# ---------------------------------------------------------------------------
# Reduction and normal forms
#
# Redex kinds:
#   beta    (\x. b)(a)        -> b[x := a]
#   cupcap  !(^M)             -> M
#   capcup  ^(!v)             -> v          (v a variable; see module docstring)
#   eta     \x. f(x)          -> f          (x not free in f)


def _bvar_free(t: MeaningTerm, k: int) -> bool:
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


_BVAR0 = BVar(0)


def _nf(t: MeaningTerm, resolve, k: int, a: Optional[MeaningTerm]) -> MeaningTerm:
    """Normal form of `t`, built bottom-up in one pass.

    With `a` given, BVar k is replaced by `a` (indices above k drop by one);
    with `resolve` given, each metavariable it maps to a term (normal and
    without loose bound variables) is replaced by that term.  Every node is
    rebuilt from normal children and contracted if that made it a redex, so
    a beta redex is reduced where it appears, by the same pass: on a normal
    `t` and `a` this is hereditary substitution.
    """
    cls = type(t)
    if cls is App:
        f = _nf(t.fn, resolve, k, a)
        x = _nf(t.arg, resolve, k, a)
        if type(f) is Abs:
            return _nf(f.body, None, 0, x)
        return t if f is t.fn and x is t.arg else App(f, x)
    if cls is Abs:
        b = _nf(t.body, resolve, k + 1, a)
        if type(b) is App and b.arg == _BVAR0 and not _bvar_free(b.fn, 0):
            return _shift(b.fn, -1)
        return t if b is t.body else Abs(t.var_ty, b)
    if cls is Cup:
        b = _nf(t.body, resolve, k, a)
        if type(b) is Cap:
            return b.body
        return t if b is t.body else Cup(b)
    if cls is Cap:
        b = _nf(t.body, resolve, k, a)
        if type(b) is Cup and type(b.body) in (Var, BVar):
            return b.body
        return t if b is t.body else Cap(b)
    if cls is BVar:
        if a is None or t.index < k:
            return t
        return _shift(a, k) if t.index == k else BVar(t.index - 1)
    if cls is MetaVar and resolve is not None:
        value = resolve(t.name)
        if value is not None:
            return value
    return t


def normalize(term: MeaningTerm) -> MeaningTerm:
    """Unique normal form under beta, eta, and the ^/! reductions."""
    return _nf(term, None, 0, None)


def normalize_with(term: MeaningTerm, resolve) -> MeaningTerm:
    """Normal form of `term` with every metavariable that `resolve` maps to a
    term (normal, without loose bound variables) replaced by it; `resolve`
    returns None for the rest.  One pass: resolving and reducing interleave."""
    return _nf(term, resolve, 0, None)


def alpha_equal(a: MeaningTerm, b: MeaningTerm) -> bool:
    """Equality up to bound-variable renaming (trivial under positional
    binding).  On normalized terms this is reading identity."""
    return a == b


# ---------------------------------------------------------------------------
# Typechecking.  Binders may be unannotated in surface syntax; a small
# unification pass instantiates them, along with the polymorphic types of
# ^ and !.


class _TyUnifier:
    def __init__(self):
        self.sub: dict[str, MeaningType] = {}
        self._n = itertools.count()

    def fresh(self) -> TVar:
        return TVar(f"t{next(self._n)}")

    def resolve(self, ty: MeaningType) -> MeaningType:
        while isinstance(ty, TVar) and ty.name in self.sub:
            ty = self.sub[ty.name]
        return ty

    def deep(self, ty: MeaningType) -> MeaningType:
        ty = self.resolve(ty)
        if isinstance(ty, Arrow):
            return Arrow(self.deep(ty.left), self.deep(ty.right))
        return ty

    def unify(self, a: MeaningType, b: MeaningType, where) -> None:
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

    def _occurs(self, name: str, ty: MeaningType) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, TVar):
            return ty.name == name
        if isinstance(ty, Arrow):
            return self._occurs(name, ty.left) or self._occurs(name, ty.right)
        return False


TypingContext = dict[str, MeaningType]


def standard_context(extensional: bool = False) -> TypingContext:
    """Constants used across the shipped lexicon and corpus.

    Determiners are relations between properties; under the extensional
    lexicon variant they relate bare e -> t properties instead.
    """
    gq = arrow(arrow(S, arrow(E, T)), arrow(S, arrow(E, T)), T)
    if extensional:
        gq = arrow(arrow(E, T), arrow(E, T), T)
    ctx: TypingContext = {
        "Bill": E,
        "Hillary": E,
        "Al": E,
        "John": E,
        "voter": arrow(E, T),
        "candidate": arrow(E, T),
        "manager": arrow(E, T),
        "unicorn": arrow(E, T),
        "sink": arrow(E, T),
        "arrive": arrow(E, T),
        "appoint": arrow(E, E, T),
        "convince": arrow(E, E, T),
        "devour": arrow(E, E, T),
        "admirer": arrow(E, E, T),
        "conv-with": arrow(E, E, T),
        "every": gq,
        "a": gq,
        "the": gq,
        # an NP-meaning intension as second argument: e -> (s -> GQ) -> t
        "seek": arrow(E, Arrow(S, arrow(arrow(S, arrow(E, T)), T)), T),
    }
    return ctx


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


def _has_tvar(ty: MeaningType) -> bool:
    if isinstance(ty, TVar):
        return True
    if isinstance(ty, Arrow):
        return _has_tvar(ty.left) or _has_tvar(ty.right)
    return False


def elaborate(term: MeaningTerm, ctx: TypingContext) -> tuple[MeaningTerm, MeaningType]:
    """Typecheck, fill in constant types from `ctx` and infer unannotated
    binders.  Returns the annotated term and its principal type."""
    uni = _TyUnifier()
    t2, ty = _infer(term, ctx, [], uni, annotate=True)
    return _zonk(t2, uni), uni.deep(ty)


def typecheck(term: MeaningTerm, ctx: Optional[TypingContext] = None) -> MeaningType:
    """Principal type of `term`; raises TypeMismatch / UnboundName."""
    uni = _TyUnifier()
    _, ty = _infer(term, ctx or {}, [], uni, annotate=False)
    ty = uni.deep(ty)
    if _has_tvar(ty):
        # e.g. a bare unapplied binder with no constraining use
        raise TypeMismatch(print_term(term), "a ground type", ty)
    return ty


# ---------------------------------------------------------------------------
# Printing.  Bound-variable names are regenerated deterministically from the
# structure, so alpha-equal terms print identically: entity-type binders draw
# from x, y, z, ...; all others from P, Q, R, ...


_ENT_POOL = ["x", "y", "z", "u", "v", "w"]
_FUN_POOL = ["P", "Q", "R", "S", "T"]


def _name_pool(ty) -> Iterator[str]:
    pool = _ENT_POOL if ty == E else _FUN_POOL
    yield from pool
    for i in itertools.count(1):
        for n in pool:
            yield f"{n}{i}"


def print_term(term: MeaningTerm, explicit_parens: bool = False) -> str:
    def fresh_name(ty, used):
        for n in _name_pool(ty):
            if n not in used:
                return n
        raise AssertionError

    def go(t, names, used):
        # returns (text, kind) with kind in {atom, app, prefix, lam}
        match t:
            case Const(n, _) | Var(n, _) | MetaVar(n, _):
                return n, "atom"
            case BVar(i):
                return (names[i] if i < len(names) else f"#{i}"), "atom"
            case Abs(ty, b):
                n = fresh_name(ty, used)
                body, _ = go(b, [n] + names, used | {n})
                return f"\\{n}. {body}", "lam"
            case Cap(b) | Cup(b):
                op = "^" if isinstance(t, Cap) else "!"
                inner, kind = go(b, names, used)
                if kind == "app" or kind == "atom" or kind == "prefix":
                    if kind == "app" and explicit_parens:
                        inner = f"({inner})"
                    return f"{op}{inner}", "prefix"
                return f"{op}{inner}", "prefix"  # lambda body extends right
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

    used0 = free_vars(term)
    text, _ = go(term, [], set(used0))
    return text


# ---------------------------------------------------------------------------
# Surface-syntax parser: f(a, b), \x. body, ^M, !M, optional binder
# annotations \x:e. body.  Identifiers may contain hyphens (conv-with).


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


def parse_term(text: str, ctx: TypingContext) -> MeaningTerm:
    """Parse surface syntax and elaborate against `ctx`.  Free identifiers
    must be constants of the context (readings are closed terms)."""
    p = _TermParser(text)
    raw = p.term([])
    if p.peek() is not None:
        raise GlueError(f"trailing input in term: {text!r}")
    term, _ = elaborate(raw, ctx)
    return normalize(term)
