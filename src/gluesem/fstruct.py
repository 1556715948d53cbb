"""Attribute-value structures: f-structures read from input files, and the
semantic structures their sigma projections denote.

A semantic structure is a pure identity (owner label, slot); quantified NPs
use the VAR and RESTR slots of their projection, and pronouns reach their
antecedent's projection through explicitly supplied links.
"""

from __future__ import annotations

from typing import Optional, Union

from .terms import GlueError, Record


class FStructError(GlueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")


class MissingAttribute(GlueError):
    def __init__(self, anchor, attr):
        self.anchor = anchor
        self.attr = attr
        super().__init__(f"f-structure {anchor} has no attribute {attr}")


class NoAntecedent(GlueError):
    def __init__(self, label):
        super().__init__(f"pronoun {label} has no antecedent link")


ROOT = "ROOT"
VAR = "VAR"
RESTR = "RESTR"


class SemStruct(Record):
    """A concrete semantic structure: the `slot` projection of the
    f-structure named `owner`."""

    __slots__ = ("owner", "slot")

    def __init__(self, owner: str, slot: str):
        self.owner, self.slot = owner, slot

    def __repr__(self):
        return f"{self.owner}_s" if self.slot == ROOT else f"({self.owner}_s {self.slot})"


class SemVar(Record):
    """A glue variable ranging over semantic structures (H, G, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


SemTerm = Union[SemStruct, SemVar]


class AnaphorLink(Record):
    __slots__ = ("pronoun", "antecedent")

    def __init__(self, pronoun: str, antecedent: str):
        self.pronoun, self.antecedent = pronoun, antecedent


class FStructure(Record):
    __slots__ = ("label", "attrs")
    __hash__ = None  # attrs grows while the document is parsed

    def __init__(self, label: str, attrs: Optional[list[tuple[str, FValue]]] = None):
        self.label = label
        self.attrs = [] if attrs is None else attrs

    def get(self, attr: str) -> Optional["FValue"]:
        for a, v in self.attrs:
            if a == attr:
                return v
        return None

    def __repr__(self):
        return f"<fstruct {self.label}>"


FValue = Union[str, FStructure]

Path = tuple[str, ...]


class FDocument(Record):
    """A parsed f-structure file: the root structure, its label table and
    any anaphor links."""

    __slots__ = ("root", "by_label", "links")
    __hash__ = None  # holds a dict and a list

    def __init__(
        self, root: FStructure, by_label: dict[str, FStructure], links: list[AnaphorLink]
    ):
        self.root, self.by_label, self.links = root, by_label, links

    def antecedent_of(self, label: str) -> Optional[str]:
        for link in self.links:
            if link.pronoun == label:
                return link.antecedent
        return None

    def nodes(self) -> list[FStructure]:
        """Every f-structure once, in document order (preorder); a structure
        reached again through `(ref ...)` is not visited twice."""
        out = []
        seen = set()

        def walk(fs):
            if id(fs) in seen:
                return
            seen.add(id(fs))
            out.append(fs)
            for _, v in fs.attrs:
                if isinstance(v, FStructure):
                    walk(v)

        walk(self.root)
        return out


def sigma(node: FStructure, slot: str = ROOT) -> SemStruct:
    """The sigma projection of `node` (or of its VAR/RESTR slot)."""
    if slot not in (ROOT, VAR, RESTR):
        raise GlueError(f"unknown sigma slot {slot}")
    return SemStruct(node.label, slot)


def sigma_ant(node: FStructure, doc: FDocument) -> SemStruct:
    """The value of the ANT attribute of `node`'s projection, resolved
    through the document's anaphor links."""
    ant = doc.antecedent_of(node.label)
    if ant is None:
        raise NoAntecedent(node.label)
    return SemStruct(ant, ROOT)


def resolve(anchor: FStructure, path: Path) -> FValue:
    """Follow attribute names from `anchor`; the empty path is `anchor`."""
    value: FValue = anchor
    for attr in path:
        if not isinstance(value, FStructure):
            raise MissingAttribute(anchor.label, attr)
        nxt = value.get(attr)
        if nxt is None:
            raise MissingAttribute(value.label, attr)
        value = nxt
    return value


# ---------------------------------------------------------------------------
# Parsing.  Example document:
#
#   ; Every candidate appointed an admirer of his.
#   (fstruct f
#     (PRED "appoint")
#     (SUBJ (fstruct g (SPEC "every") (PRED "candidate")))
#     (OBJ (fstruct h (SPEC "a") (PRED "admirer")
#       (OBL-OF (fstruct i (PRED "pro"))))))
#   (ant i g)
#
# Attribute names are case-insensitive (canonicalized to upper case); quoted
# values are case-sensitive.  `(ref g)` refers back to an already-named node,
# which then has two paths to it but is one structure; it may not name a
# structure that encloses the reference.


def _tokenize(text: str):
    toks = []  # (token, line)
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append((c, line))
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise FStructError("unterminated string", line)
                j += 1
            if j >= n:
                raise FStructError("unterminated string", line)
            toks.append(('"' + text[i + 1:j], line))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            toks.append((text[i:j], line))
            i = j
    return toks


# Lists may nest this deep and no deeper.  Every parser and every recursive
# pass over what they build (f-structures, formulas, terms) recurses once or
# a few times per level, so the limit keeps them all within Python's stack.
MAX_NESTING = 100


def _read_sexp(toks, pos):
    """Generic s-expression reader shared with the lexicon format.  Returns
    (tree, next_pos); strings keep a leading '\"' marker."""
    stack: list[tuple[list, int]] = []  # the open lists, innermost last
    while True:
        if pos >= len(toks):
            if stack:
                raise FStructError("missing )", stack[-1][1])
            raise FStructError("unexpected end of input")
        tok, line = toks[pos]
        pos += 1
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise FStructError(f"lists nest deeper than {MAX_NESTING} levels", line)
            stack.append(([], line))
            continue
        if tok == ")":
            if not stack:
                raise FStructError("unexpected )", line)
            node = stack.pop()
        else:
            node = (tok, line)
        if not stack:
            return node, pos
        stack[-1][0].append(node)


def read_sexps(text: str):
    toks = _tokenize(text)
    out = []
    pos = 0
    while pos < len(toks):
        sexp, pos = _read_sexp(toks, pos)
        out.append(sexp)
    return out


def symbol(node, what):
    """The bare symbol at an s-expression node, or an error naming its line."""
    val, line = node
    if not isinstance(val, str) or val.startswith('"'):
        raise FStructError(f"expected {what}", line)
    return val


def _build_fstruct(node, by_label, building) -> FStructure:
    """Build one (fstruct ...) form; `building` holds the labels of the
    structures that enclose it, which a (ref ...) may not name."""
    val, line = node
    if not isinstance(val, list) or not val or symbol(val[0], "fstruct") != "fstruct":
        raise FStructError("expected (fstruct LABEL ...)", line)
    if len(val) < 2:
        raise FStructError("fstruct needs a label", line)
    label = symbol(val[1], "label")
    if label in by_label:
        raise FStructError(f"duplicate label {label}", line)
    fs = FStructure(label)
    by_label[label] = fs
    building.add(label)
    for attr_node in val[2:]:
        aval, aline = attr_node
        if not isinstance(aval, list) or len(aval) != 2:
            raise FStructError("expected (ATTR value)", aline)
        attr = symbol(aval[0], "attribute name").upper()
        if fs.get(attr) is not None:
            raise FStructError(f"duplicate attribute {attr} in {label}", aline)
        vval, vline = aval[1]
        if isinstance(vval, str) and vval.startswith('"'):
            fs.attrs.append((attr, vval[1:]))
        elif isinstance(vval, list) and vval and vval[0][0] == "ref":
            if len(vval) != 2:
                raise FStructError("expected (ref LABEL)", vline)
            ref = symbol(vval[1], "label")
            if ref in building:
                raise FStructError(f"reference to {ref}, which encloses it", vline)
            if ref not in by_label:
                raise FStructError(f"reference to unknown label {ref}", vline)
            fs.attrs.append((attr, by_label[ref]))
        else:
            fs.attrs.append((attr, _build_fstruct(aval[1], by_label, building)))
    building.remove(label)
    return fs


def parse_fstructure(text: str) -> FDocument:
    """Parse one document: a root (fstruct ...) followed by (ant P A) links."""
    sexps = read_sexps(text)
    if not sexps:
        raise FStructError("empty document")
    by_label: dict[str, FStructure] = {}
    root = _build_fstruct(sexps[0], by_label, set())
    links = []
    for node in sexps[1:]:
        val, line = node
        if not isinstance(val, list) or len(val) != 3 or symbol(val[0], "ant") != "ant":
            raise FStructError("expected (ant PRONOUN ANTECEDENT)", line)
        pro, ant = symbol(val[1], "label"), symbol(val[2], "label")
        for lbl in (pro, ant):
            if lbl not in by_label:
                raise FStructError(f"ant link names unknown label {lbl}", line)
        if by_label[pro].get("PRED") != "pro":
            raise FStructError(f"ant link pronoun {pro} lacks PRED \"pro\"", line)
        links.append(AnaphorLink(pro, ant))
    return FDocument(root, by_label, links)
