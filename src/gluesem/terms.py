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

import re
import weakref
from operator import attrgetter
from typing import Optional, Union


class GlueError(Exception):
    """Base class for all errors raised by this package."""


# Lists and types may nest this deep and no deeper, which keeps the parsers
# and the passes over what they read within Python's stack.  A normal form can
# nest far deeper than the term as written, and so can the search under a
# raised `--max-depth`: `cli.main` reports their RecursionError as an input error.
MAX_NESTING = 100


class TypeMismatch(GlueError):
    def __init__(self, location, expected, found):
        super().__init__(
            f"type mismatch at {location}: expected {expected}, found {found}"
        )


class UnboundName(GlueError):
    def __init__(self, name):
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
    classes are never equal.  Records with several fields compare their
    field tuples, which take identical fields (shared subterms) as equal
    without descending into them.  `Base`, `Arrow` and `SemStruct` are
    `Interned`: the glue atoms that the search matches compare by identity.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Interned:
    """Mixin, before `Record`, for one live object per value: a call returns
    the object its class's weak table holds for equal fields, so `==` is `is`."""
    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._live = weakref.WeakValueDictionary()

    def __new__(cls, *fields):
        obj = cls._live.get(fields)
        if obj is None:
            obj = cls._live[fields] = super().__new__(cls)
        return obj


# ---------------------------------------------------------------------------
# Types


class Base(Interned, Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class Arrow(Interned, Record):
    __slots__ = ("left", "right")

    def __init__(self, left: MeaningType, right: MeaningType):
        self.left, self.right = left, right

    def __repr__(self):
        l = f"({self.left!r})" if isinstance(self.left, Arrow) else repr(self.left)
        return f"{l} -> {self.right!r}"


MeaningType = Union[Base, Arrow]

E = Base("e")
T = Base("t")
S = Base("s")


def _fold_arrows(parts: list) -> tuple[MeaningType, int]:
    """The type a -> b -> ... c of (type, depth) parts, and its depth."""
    ty, depth = parts[-1]
    for arg, d in reversed(parts[:-1]):
        ty, depth = Arrow(arg, ty), max(d, depth) + 1
    if depth > MAX_NESTING:
        raise GlueError(f"bad type: arrows nest deeper than {MAX_NESTING} levels")
    return ty, depth


def parse_type(text: str) -> MeaningType:
    """Parse ``e``, ``t``, ``s`` and right-associative ``a -> b``.  Open
    parentheses are kept on a stack and arrows are folded in a loop, so no
    input recurses."""
    bad = GlueError(f"bad type syntax: {text!r}")
    groups: list[list] = [[]]  # the parts of each open group
    for tok in re.findall(r"->|[a-z]+|[()]|\S", text):
        parts = groups[-1]
        if (tok in ("->", ")")) != (len(parts) % 2 == 1):
            raise bad  # "->" and ")" follow a type, and nothing else does
        if tok == "->":
            parts.append(tok)
        elif tok == "(":
            if len(groups) > MAX_NESTING:
                raise GlueError(f"bad type: parentheses nest deeper than {MAX_NESTING} levels")
            groups.append([])
        elif tok == ")":
            if len(groups) == 1:
                raise bad
            groups.pop()
            groups[-1].append(_fold_arrows(parts[::2]))
        elif tok in ("e", "t", "s"):
            parts.append((Base(tok), 0))
        else:
            raise GlueError(f"unknown base type {tok!r} in {text!r}")
    if len(groups) > 1 or len(groups[0]) % 2 == 0:
        raise bad
    return _fold_arrows(groups[0][::2])[0]


# ---------------------------------------------------------------------------
# Terms


class Const(Record):
    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: Optional[MeaningType]):
        self.name, self.ty = name, ty


class Var(Record):
    """Free named variable: eigenvariables and local constants in proofs."""

    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: MeaningType):
        self.name, self.ty = name, ty


class MetaVar(Record):
    """Glue-language variable (essentially existential / unification variable)."""

    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: MeaningType):
        self.name, self.ty = name, ty


class BVar(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Abs(Record):
    __slots__ = ("var_ty", "body")

    def __init__(self, var_ty: Optional[MeaningType], body: MeaningTerm):
        self.var_ty, self.body = var_ty, body


class App(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: MeaningTerm, arg: MeaningTerm):
        self.fn, self.arg = fn, arg


class Cap(Record):
    __slots__ = ("body",)

    def __init__(self, body: MeaningTerm):
        self.body = body


class Cup(Record):
    __slots__ = ("body",)

    def __init__(self, body: MeaningTerm):
        self.body = body


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
# de Bruijn plumbing.  Every traversal of a term in this module dispatches on
# type() rather than pattern matching (they are the unifier's inner loop), and
# those below return unchanged subterms as the same object.


class _Captured(Exception):
    """A lowering `_shift` met the variable of a binder that it removes."""


def _shift(t: MeaningTerm, d: int, cutoff: int = 0) -> MeaningTerm:
    cls = type(t)
    if cls is BVar:
        if t.index < cutoff:
            return t
        if t.index + d < cutoff:
            raise _Captured
        return BVar(t.index + d)
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


def abstract(outer: list[Var], inner: list[Var], body: MeaningTerm, cap: bool = False
             ) -> tuple[MeaningTerm, dict[str, MeaningTerm]]:
    """\\outer. \\inner. body, or \\outer. ^\\inner. body with `cap`, binding the
    named variables positionally, and its free names as `free_names` gives
    them: one walk of `body` finds both."""
    n = len(outer) + len(inner)
    index = {v.name: n - 1 - i for i, v in enumerate(outer + inner)}
    free: dict[str, MeaningTerm] = {}

    def close(t, depth):
        cls = type(t)
        if cls is Var or cls is MetaVar:
            i = index.get(t.name)
            if i is None:
                free.setdefault(t.name, t)
                return t
            return BVar(i + depth)
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

    t = close(body, 0)
    for v in reversed(inner):
        t = Abs(v.ty, t)
    if cap:
        t = Cap(t)
    for v in reversed(outer):
        t = Abs(v.ty, t)
    return t, free


def free_names(term: MeaningTerm) -> dict[str, MeaningTerm]:
    """The free variables and glue metavariables of `term`, each by name at
    its first occurrence, in left-to-right order."""
    out: dict[str, MeaningTerm] = {}

    def go(t):  # type() dispatch, as in the traversals above
        cls = type(t)
        if cls is App:
            go(t.fn)
            go(t.arg)
        elif cls is Var or cls is MetaVar:
            out.setdefault(t.name, t)
        elif cls is Abs or cls is Cap or cls is Cup:
            go(t.body)

    go(term)
    return out


# ---------------------------------------------------------------------------
# Reduction and normal forms
#
# Redex kinds:
#   beta    (\x. b)(a)        -> b[x := a]
#   cupcap  !(^M)             -> M
#   capcup  ^(!v)             -> v          (v a variable; see module docstring)
#   eta     \x. f(x)          -> f          (x not free in f)


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
        if type(b) is App and b.arg == _BVAR0:
            try:
                return _shift(b.fn, -1)  # eta, unless the binder's variable occurs
            except _Captured:
                pass
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
# Typechecking.  Every binder carries its type and every constant takes its
# type from the context, so a term's type is synthesized bottom-up.


TypingContext = dict[str, MeaningType]


def elaborate(term: MeaningTerm, ctx: TypingContext) -> tuple[MeaningTerm, MeaningType]:
    """Typecheck `term`, whose binders and variables all carry their types,
    and fill in constant types from `ctx`.  Returns the annotated term and
    its type; raises TypeMismatch or UnboundName."""

    def syn(t, env):
        cls = type(t)
        if cls is App:
            f, ft = syn(t.fn, env)
            a, at = syn(t.arg, env)
            if type(ft) is not Arrow:
                raise TypeMismatch(print_term(t), "a function type", ft)
            if ft.left != at:
                raise TypeMismatch(print_term(t), ft.left, at)
            return App(f, a), ft.right
        if cls is Abs:
            b, bt = syn(t.body, (t.var_ty,) + env)
            return Abs(t.var_ty, b), Arrow(t.var_ty, bt)
        if cls is Cap:
            b, bt = syn(t.body, env)
            return Cap(b), Arrow(S, bt)
        if cls is Cup:
            b, bt = syn(t.body, env)
            if type(bt) is not Arrow or bt.left != S:
                raise TypeMismatch(print_term(t), "an intension type s -> a", bt)
            return Cup(b), bt.right
        if cls is BVar:
            if t.index >= len(env):
                raise GlueError(f"loose bound variable {t.index}")
            return t, env[t.index]
        if cls is Const:
            declared = ctx.get(t.name)
            if t.ty is None:
                if declared is None:
                    raise UnboundName(t.name)
                return Const(t.name, declared), declared
            if declared is not None and declared != t.ty:
                raise TypeMismatch(t.name, t.ty, declared)
        return t, t.ty  # a typed Const, a Var or a MetaVar

    return syn(term, ())


# ---------------------------------------------------------------------------
# Printing.  Bound-variable names are regenerated deterministically from the
# structure, so alpha-equal terms print identically: entity-type binders draw
# from x, y, z, ...; all others from P, Q, R, ...


_ENT_POOL = ["x", "y", "z", "u", "v", "w"]
_FUN_POOL = ["P", "Q", "R", "S", "T"]
_ATOMS = (Const, Var, MetaVar, BVar)  # printed without parentheses


def _binder_name(ty, used: set[str]) -> str:
    """The first name of the pool for `ty` (then x1, y1, ..., x2, ...) not in `used`."""
    pool = _ENT_POOL if ty == E else _FUN_POOL
    i = 0
    while True:
        for n in pool:
            name = f"{n}{i}" if i else n
            if name not in used:
                return name
        i += 1


def print_term(term: MeaningTerm, explicit_parens: bool = False) -> str:
    names: list[str] = []  # the enclosing binders' names, innermost last
    used = set(free_names(term))  # names a binder may not take: free ones and `names`

    def go(t):
        cls = type(t)
        if cls is App:
            head, args = spine(t)
            text = go(head) if type(head) in _ATOMS else f"({go(head)})"
            parts = [go(a) if type(a) in _ATOMS or not explicit_parens else f"({go(a)})"
                     for a in args]
            return f"{text}({', '.join(parts)})"
        if cls is Abs:
            n = _binder_name(t.var_ty, used)
            names.append(n)
            used.add(n)
            text = f"\\{n}. {go(t.body)}"
            names.pop()
            used.remove(n)
            return text
        if cls is Cap or cls is Cup:
            text = go(t.body)  # a lambda body extends right
            if explicit_parens and type(t.body) is App:
                text = f"({text})"
            return f"{'^' if cls is Cap else '!'}{text}"
        if cls is BVar:
            return names[-1 - t.index] if t.index < len(names) else f"#{t.index}"
        return t.name

    return go(term)
