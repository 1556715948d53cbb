"""Glue-language formulas, the lexicon of meaning constructors, and premise
construction.

A lexical entry pairs a trigger (a PRED or SPEC value) with a constructor
template mentioning the anchor ``up``; instantiating the template against an
f-structure node resolves every sigma path to a concrete semantic structure.
The premises of a derivation are the instantiated constructors of all
triggered entries, one occurrence each.
"""

from __future__ import annotations

from typing import Optional, Union

from . import terms
from .fstruct import (
    RESTR,
    ROOT,
    VAR,
    FDocument,
    FStructError,
    FStructure,
    MissingAttribute,
    Path,
    SemStruct,
    SemTerm,
    SemVar,
    _form,
    _head,
    _string,
    read_sexps,
    resolve,
    sigma,
    sigma_ant,
    symbol,
)
from .terms import (
    Arrow,
    Base,
    Const,
    GlueError,
    MeaningTerm,
    MeaningType,
    MetaVar,
    Record,
    TypingContext,
    elaborate,
    free_names,
    normalize_with,
)
from .unify import Substitution

SEM = "sem"  # binder kind for quantification over semantic structures
VARIANTS = ("intensional", "extensional")  # indexed by `extensional`


class NoEntry(GlueError):
    def __init__(self, value, attr):
        super().__init__(f"no lexical entry for {attr} value {value!r}")


class AmbiguousEntry(GlueError):
    def __init__(self, value, attr):
        super().__init__(f"multiple lexical entries match {attr} value {value!r}")


class IllTypedConstructor(GlueError):
    def __init__(self, entry, detail):
        super().__init__(f"ill-typed constructor for {entry!r}: {detail}")


# ---------------------------------------------------------------------------
# Formulas


class SigmaPath(Record):
    """Template-only sigma term: the `slot` projection of the f-structure
    reached from the anchor by `fpath`.  slot ANT resolves through the
    document's anaphor links."""

    __slots__ = ("fpath", "slot")

    def __init__(self, fpath: Path, slot: str):
        self.fpath, self.slot = fpath, slot


class Means(Record):
    __slots__ = ("sem", "term", "ty")

    def __init__(self, sem: Union[SemTerm, SigmaPath], term: MeaningTerm, ty: MeaningType):
        self.sem, self.term, self.ty = sem, term, ty


class PropAtom(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Tensor(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: GlueFormula, right: GlueFormula):
        self.left, self.right = left, right


class Limp(Record):
    __slots__ = ("ant", "cons")

    def __init__(self, ant: GlueFormula, cons: GlueFormula):
        self.ant, self.cons = ant, cons


class Forall(Record):
    __slots__ = ("var", "kind", "body")

    def __init__(self, var: str, kind: Union[MeaningType, str], body: GlueFormula):
        self.var, self.kind, self.body = var, kind, body  # kind: a meaning type, or SEM


GlueFormula = Union[Means, PropAtom, Tensor, Limp, Forall]


def map_formula(f: GlueFormula, on_means) -> GlueFormula:
    match f:
        case Means():
            return on_means(f)
        case Tensor(l, r):
            return Tensor(map_formula(l, on_means), map_formula(r, on_means))
        case Limp(a, c):
            return Limp(map_formula(a, on_means), map_formula(c, on_means))
        case Forall(v, k, b):
            return Forall(v, k, map_formula(b, on_means))
        case _:
            return f


def inst_term_var(f: GlueFormula, name: str, value: MeaningTerm) -> GlueFormula:
    """Replace the quantified meaning variable `name` throughout by the atom
    `value`; an atom whose normal term does not mention `name` is kept."""
    resolve = lambda n: value if n == name else None

    def on_means(m):
        term = normalize_with(m.term, resolve)
        return m if term is m.term else Means(m.sem, term, m.ty)

    return map_formula(f, on_means)


def inst_sem_var(f: GlueFormula, name: str, value: SemTerm) -> GlueFormula:
    """Replace the quantified structure variable `name` throughout."""

    def on_means(m):
        sem = value if m.sem == SemVar(name) else m.sem
        return Means(sem, m.term, m.ty)

    return map_formula(f, on_means)


def subst_formula(f: GlueFormula, su: Substitution) -> GlueFormula:
    """Apply a unifier substitution to every atom (terms are normalized)."""
    return map_formula(
        f, lambda m: Means(su.walk_sem(m.sem), su.nf(m.term), m.ty)
    )


def formula_free_vars(f: GlueFormula, bound=frozenset()) -> dict[str, object]:
    """The free glue variables of a formula (meaning variables and
    metavariables, and structure variables), each by name at its first
    occurrence, in left-to-right order."""
    match f:
        case Means(sem, term, _):
            out = {sem.name: sem} if isinstance(sem, SemVar) else {}
            out.update(free_names(term))
            return {name: v for name, v in out.items() if name not in bound}
        case Tensor(l, r) | Limp(l, r):
            return formula_free_vars(l, bound) | formula_free_vars(r, bound)
        case Forall(v, _, b):
            return formula_free_vars(b, bound | {v})
        case _:
            return {}


def print_formula(f: GlueFormula) -> str:
    def go(g, prec):
        # precedence: 0 forall/limp body, 1 tensor, 2 atom
        match g:
            case Forall():
                binders = []
                while isinstance(g, Forall):
                    kind = "sem" if g.kind == SEM else repr(g.kind)
                    binders.append(f"{g.var}:{kind}")
                    g = g.body
                text = f"forall {', '.join(binders)}. {go(g, 0)}"
                return f"({text})" if prec > 0 else text
            case Limp(a, c):
                text = f"{go(a, 1)} -o {go(c, 0)}"
                return f"({text})" if prec > 0 else text
            case Tensor(l, r):
                text = f"{go(l, 2)} * {go(r, 1)}"
                return f"({text})" if prec > 1 else text
            case Means(sem, term, ty):
                ty_text = f"({ty!r})" if isinstance(ty, Arrow) else repr(ty)
                return f"{sem!r} ~>_{ty_text} {terms.print_term(term)}"
            case PropAtom(name):
                return name
        raise AssertionError(f"bad formula {g!r}")

    return go(f, 0)


# ---------------------------------------------------------------------------
# Lexicon


class LexEntry(Record):
    # trigger_attr is PRED or SPEC; constraints is a tuple of (path, value) pairs
    __slots__ = ("headword", "trigger_attr", "trigger_value", "constraints", "template")

    def __init__(self, headword: str, trigger_attr: str, trigger_value: str,
                 constraints: tuple[tuple[Path, str], ...], template: GlueFormula):
        self.headword, self.trigger_attr = headword, trigger_attr
        self.trigger_value, self.constraints, self.template = trigger_value, constraints, template


class Lexicon(Record):
    __slots__ = ("entries", "ctx")
    __hash__ = None  # holds a list and a dict

    def __init__(self, entries: list[LexEntry], ctx: TypingContext):
        self.entries, self.ctx = entries, ctx


def _variant(node) -> str:
    lst, line = _form(node, "(variant NAME)")
    if lst[1][0] not in VARIANTS:
        raise FStructError("expected (variant intensional) or (variant extensional)", line)
    return lst[1][0]


def _parse_type_sexp(node) -> MeaningType:
    return _type_and_depth(node)[0]


def _type_and_depth(node) -> tuple[MeaningType, int]:
    """The type `node` spells and how deep its arrows nest, which
    `terms.MAX_NESTING` caps as it does for `terms.parse_type`."""
    val, line = node
    if isinstance(val, str):
        if val in ("e", "t", "s"):
            return Base(val), 0
        if val == SEM:
            raise FStructError("sem is a quantifier kind, not a type", line)
        raise FStructError(f"unknown type {val!r}", line)
    _form(node, "(-> TYPE TYPE ...)")
    parts = [_type_and_depth(n) for n in val[1:]]
    try:
        return terms._fold_arrows(parts)
    except GlueError as e:
        raise FStructError(str(e), line) from None


def _parse_sem_sexp(node, binders, anchored) -> Union[SigmaPath, SemVar]:
    """A structure variable, or with an anchor a sigma path from it."""
    val, line = node
    if isinstance(val, str):
        if binders.get(val) == SEM:
            return SemVar(val)
        raise FStructError(f"unbound structure variable {val!r}", line)
    _, _, head = _head(node, "sigma operator")
    if head in ("sig", "svar", "srestr", "sant") and not anchored:
        raise FStructError(
            f"({head} ...) needs an f-structure: use a structure variable", line
        )
    if head == "sig":
        _form(node, "(sig F)")
        if val[1][0] == "up":
            return SigmaPath((), ROOT)
        usage = "(path up [ATTR] ...)"
        flist, fline = _form(val[1], usage)
        if symbol(flist[1], usage) != "up":
            raise FStructError(f"expected {usage}", fline)
        attrs = tuple(symbol(n, "attribute").upper() for n in flist[2:])
        return SigmaPath(attrs, ROOT)
    if head in ("svar", "srestr", "sant"):
        _form(node, f"({head} SIGMA)")
        inner = _parse_sem_sexp(val[1], binders, anchored)
        if not isinstance(inner, SigmaPath) or inner.slot != ROOT:
            raise FStructError(f"({head} ...) needs a (sig ...) argument", line)
        slot = {"svar": VAR, "srestr": RESTR, "sant": "ANT"}[head]
        return SigmaPath(inner.fpath, slot)
    raise FStructError(f"unknown sigma operator {head!r}", line)


def _parse_term_sexp(node, binders, lam_bound) -> MeaningTerm:
    val, line = node
    if isinstance(val, str):
        if val.startswith('"'):
            raise FStructError("strings are not terms", line)
        if val in lam_bound:
            return terms.BVar(lam_bound.index(val))
        kind = binders.get(val)
        if kind is not None and kind != SEM:
            return MetaVar(val, kind)
        return Const(val, None)
    _form(node, "(TERM [TERM] ...)")
    head_val = val[0][0]
    if head_val in ("cap", "cup"):
        _form(node, f"({head_val} TERM)")
        body = _parse_term_sexp(val[1], binders, lam_bound)
        return terms.Cap(body) if head_val == "cap" else terms.Cup(body)
    if head_val == "lam":
        _form(node, "(lam BINDER BODY)")
        blist, _ = _form(val[1], "(VAR TYPE)")
        name = symbol(blist[0], "variable")
        ty = _parse_type_sexp(blist[1])
        return terms.Abs(ty, _parse_term_sexp(val[2], binders, [name] + lam_bound))
    fn = _parse_term_sexp(val[0], binders, lam_bound)
    return terms.app(fn, *[_parse_term_sexp(n, binders, lam_bound) for n in val[1:]])


_CONNECTIVES = {
    "forall": "(forall BINDERS BODY)",
    "limp": "(limp ANT CONS)",
    "tensor": "(tensor A B ...)",
    "means": "(means SEM TERM TYPE)",
    "atom": "(atom NAME)",
}


def parse_formula_sexp(node, binders=None, anchored=True) -> GlueFormula:
    """Parse a glue formula from its s-expression form.  Every symbol in it
    becomes a quantified variable, a lambda-bound variable or a constant, so
    the formula is closed.  Sigma paths name structures from the anchor `up`
    of a lexicon entry; a formula that is not `anchored` names them by
    structure variables only."""
    binders = dict(binders or {})
    lst, line, head = _head(node, "glue formula")
    if head not in _CONNECTIVES:
        raise FStructError(f"unknown connective {head!r}", line)
    _form(node, _CONNECTIVES[head])
    if head == "forall":
        blist, _ = _form(lst[1], "([BINDER] ...)")
        names = []
        for b in blist:
            (var, kind), pline = _form(b, "(VAR TYPE)")
            name = symbol(var, "variable")
            if name in binders:
                raise FStructError(f"shadowed quantifier variable {name}", pline)
            binders[name] = SEM if kind[0] == SEM else _parse_type_sexp(kind)
            names.append(name)
        body = parse_formula_sexp(lst[2], binders, anchored)
        for name in reversed(names):
            body = Forall(name, binders[name], body)
        return body
    if head == "limp":
        return Limp(
            parse_formula_sexp(lst[1], binders, anchored),
            parse_formula_sexp(lst[2], binders, anchored),
        )
    if head == "tensor":
        parts = [parse_formula_sexp(n, binders, anchored) for n in lst[1:]]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Tensor(p, out)
        return out
    if head == "means":
        sem = _parse_sem_sexp(lst[1], binders, anchored)
        ty = _parse_type_sexp(lst[3])
        return Means(sem, _parse_term_sexp(lst[2], binders, []), ty)
    return PropAtom(symbol(lst[1], "atom name"))


def _check_template(entry_name: str, f: GlueFormula, ctx: TypingContext) -> GlueFormula:
    """Typecheck every atom of a constructor; returns the formula with
    constant types filled in from the context."""

    def on_means(m: Means) -> Means:
        try:
            term, ty = elaborate(m.term, ctx)
        except GlueError as e:
            raise IllTypedConstructor(entry_name, str(e)) from e
        if ty != m.ty:
            raise IllTypedConstructor(
                entry_name,
                f"atom declares type {m.ty!r} but term {terms.print_term(m.term)} "
                f"has type {ty!r}",
            )
        return Means(m.sem, term, m.ty)

    return map_formula(f, on_means)


_CLAUSES = {
    "trigger": "(trigger ATTR [VALUE])",
    "variant": "(variant NAME)",
    "syn": "(syn SIGMA VALUE)",
    "constructor": "(constructor FORMULA)",
}


def parse_lexicon(text: str, extensional: bool = False) -> Lexicon:
    """Parse a lexicon document of (const NAME TYPE) and (entry ...) forms.
    Entries are built once every form has been read, so a constructor may
    use a constant declared after it; entries and constants carrying a
    (variant ...) tag other than the selected one are skipped."""
    variant = VARIANTS[extensional]
    ctx: TypingContext = {}
    entry_nodes = []
    for node in read_sexps(text):
        lst, line, head = _head(node, "lexicon form")
        if head == "entry":
            entry_nodes.append(node)
            continue
        if head != "const":
            raise FStructError(f"unknown lexicon form {head!r}", line)
        _form(node, "(const NAME TYPE [VARIANT])")
        if len(lst) == 4 and _variant(lst[3]) != variant:
            continue
        name = symbol(lst[1], "constant name")
        ty = _parse_type_sexp(lst[2])
        if name in ctx and ctx[name] != ty:
            raise FStructError(f"constant {name} redeclared at a new type", line)
        ctx[name] = ty
    entries = (_entry(node, variant, ctx) for node in entry_nodes)
    return Lexicon([e for e in entries if e is not None], ctx)


def _entry(node, variant: str, ctx: TypingContext) -> Optional[LexEntry]:
    """The entry form `node`, or None when it belongs to the other variant."""
    lst, line = _form(node, '(entry "WORD" CAT CLAUSE ...)')
    headword = _string(lst[1], "headword")
    symbol(lst[2], "category")  # checked, not kept
    trigger_attr, trigger_value = "PRED", headword
    entry_variant = template_node = None
    constraints, seen = [], set()
    for part in lst[3:]:
        plist, pline, tag = _head(part, "entry clause")
        if tag not in _CLAUSES:
            raise FStructError(f"unknown entry clause {tag!r}", pline)
        _form(part, _CLAUSES[tag])
        if tag in seen and tag != "syn":
            raise FStructError(f"entry {headword!r} repeats its {tag} clause", pline)
        seen.add(tag)
        if tag == "trigger":
            trigger_attr = symbol(plist[1], "attribute").upper()
            if trigger_attr not in ("PRED", "SPEC"):
                raise FStructError("trigger attribute must be PRED or SPEC", pline)
            trigger_value = (
                _string(plist[2], "trigger value") if len(plist) > 2 else headword
            )
        elif tag == "variant":
            entry_variant = _variant(part)
        elif tag == "syn":
            sem = _parse_sem_sexp(plist[1], {}, True)
            if sem.slot != ROOT:
                raise FStructError("(syn ...) tests an f-structure path: use (sig ...)", pline)
            constraints.append((sem.fpath, _string(plist[2], "value")))
        else:
            template_node = plist[1]
    if template_node is None:
        raise FStructError(f"entry {headword!r} has no constructor", line)
    if entry_variant not in (None, variant):
        return None
    template = _check_template(headword, parse_formula_sexp(template_node), ctx)
    return LexEntry(headword, trigger_attr, trigger_value, tuple(constraints), template)


def load_lexicon(path: str, extensional: bool = False) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return parse_lexicon(fh.read(), extensional)


def parse_formula_document(text: str, ctx: TypingContext) -> GlueFormula:
    """Parse a standalone glue formula (for the theorem checker): closed, as
    every parsed formula is, and without an anchor."""
    sexps = read_sexps(text)
    if len(sexps) != 1:
        raise FStructError("formula file must hold exactly one formula")
    return _check_template("<formula>", parse_formula_sexp(sexps[0], anchored=False), ctx)


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(entry: LexEntry, node: FStructure, doc: FDocument) -> GlueFormula:
    """Replace the anchor by `node`: every sigma path becomes a concrete
    semantic structure.

    A path into a grammatical function the node lacks (a transitive verb
    with no OBJ, a relational noun with no oblique) resolves to a hole
    structure nothing can ever mean: the constructor survives as an
    unusable premise, so incompleteness surfaces as underivability rather
    than as a parse error.
    """

    def on_means(m: Means) -> Means:
        if not isinstance(m.sem, SigmaPath):
            return m
        try:
            target = resolve(node, m.sem.fpath)
        except MissingAttribute:
            hole = SemStruct(f"{node.label}:{'.'.join(m.sem.fpath)}", "MISSING")
            return Means(hole, m.term, m.ty)
        if not isinstance(target, FStructure):
            raise FStructError(
                f"path {m.sem.fpath} from {node.label} names the atom "
                f"{target!r}, not an f-structure"
            )
        if m.sem.slot == "ANT":
            sem = sigma_ant(target, doc)
        else:
            sem = sigma(target, m.sem.slot)
        return Means(sem, m.term, m.ty)

    return map_formula(entry.template, on_means)


def entry_matches(entry: LexEntry, node: FStructure) -> bool:
    if node.attrs.get(entry.trigger_attr) != entry.trigger_value:
        return False
    for path, value in entry.constraints:
        try:
            if resolve(node, path) != value:
                return False
        except GlueError:
            return False
    return True


class Premise(Record):
    __slots__ = ("word", "label", "formula")

    def __init__(self, word: str, label: str, formula: GlueFormula):
        self.word, self.label, self.formula = word, label, formula


def premises(doc: FDocument, lexicon: Lexicon) -> list[Premise]:
    """One instantiated constructor per (node, triggered entry) pair, in
    document order; determiners trigger via SPEC and heads via PRED, so a
    quantified NP node contributes twice."""
    out = []
    for node in doc.nodes():
        for attr in ("SPEC", "PRED"):
            value = node.attrs.get(attr)
            if value is None:
                continue
            if isinstance(value, FStructure):
                raise GlueError(f"{attr} of {node.label} is an f-structure, not a string")
            matches = [
                e
                for e in lexicon.entries
                if e.trigger_attr == attr and entry_matches(e, node)
            ]
            if not matches:
                raise NoEntry(value, attr)
            if len(matches) > 1:
                raise AmbiguousEntry(value, attr)
            out.append(
                Premise(matches[0].headword, node.label, instantiate(matches[0], node, doc))
            )
    return out
