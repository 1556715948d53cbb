"""Attribute-value structures: f-structures read from input files, and the
semantic structures their sigma projections denote.

A semantic structure is a pure identity (owner label, slot); quantified NPs
use the VAR and RESTR slots of their projection, and pronouns reach their
antecedent's projection through explicitly supplied links.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .terms import MAX_NESTING, GlueError, Interned, Record


class FStructError(GlueError):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")


class MissingAttribute(GlueError):
    def __init__(self, anchor, attr):
        super().__init__(f"f-structure {anchor} has no attribute {attr}")


class NoAntecedent(GlueError):
    def __init__(self, label):
        super().__init__(f"pronoun {label} has no antecedent link")


ROOT = "ROOT"
VAR = "VAR"
RESTR = "RESTR"


class SemStruct(Interned, Record):
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


class FStructure(Record):
    __slots__ = ("label", "attrs")
    __hash__ = None  # attrs grows while the document is parsed

    def __init__(self, label: str, attrs: Optional[dict[str, FValue]] = None):
        self.label = label
        self.attrs = {} if attrs is None else attrs

    def __repr__(self):
        return f"<fstruct {self.label}>"


FValue = Union[str, FStructure]

Path = tuple[str, ...]


class FDocument(Record):
    """A parsed f-structure file: the root structure, its label table and
    its anaphor links, from each pronoun's label to its antecedent's."""

    __slots__ = ("root", "by_label", "links")
    __hash__ = None  # holds dicts

    def __init__(self, root: FStructure, by_label: dict[str, FStructure], links: dict[str, str]):
        self.root, self.by_label, self.links = root, by_label, links

    def nodes(self) -> list[FStructure]:
        """Every f-structure once, in document order (preorder): the parser
        registers a label before it builds that structure's children, and a
        `(ref ...)` can only name a structure defined before it."""
        return list(self.by_label.values())


def sigma(node: FStructure, slot: str = ROOT) -> SemStruct:
    """The sigma projection of `node` (or of its VAR/RESTR slot)."""
    return SemStruct(node.label, slot)


def sigma_ant(node: FStructure, doc: FDocument) -> SemStruct:
    """The value of the ANT attribute of `node`'s projection, resolved
    through the document's anaphor links."""
    ant = doc.links.get(node.label)
    if ant is None:
        raise NoAntecedent(node.label)
    return SemStruct(ant, ROOT)


def resolve(anchor: FStructure, path: Path) -> FValue:
    """Follow attribute names from `anchor`; the empty path is `anchor`."""
    value: FValue = anchor
    for attr in path:
        if not isinstance(value, FStructure):
            raise MissingAttribute(anchor.label, attr)
        nxt = value.attrs.get(attr)
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


# One token: a parenthesis, a string (kept as its text with the opening
# quote as a marker), a `;` comment, a symbol, or an opening quote that no
# closing quote on the same line matches.
_TOKEN = re.compile(r'([()])|("[^"]*)"|;.*|([^\s();"]+)|(")')


def read_sexps(text: str) -> list:
    """The s-expressions of `text` as (value, line) nodes, where a value is a
    list of nodes, a symbol, or a string with a leading '"' marker.  Shared
    by f-structures, lexicons and formulas.  An unterminated string is
    reported before an error in the nesting of the parentheses."""
    # the document, then each open list, as (parts, line) nodes
    stack: list[tuple[list, int]] = [([], 0)]
    nesting_errors = []
    for line, chars in enumerate(text.split("\n"), 1):
        for paren, string, sym, quote in _TOKEN.findall(chars):
            if paren == "(":
                if len(stack) > MAX_NESTING:
                    nesting_errors.append((f"lists nest deeper than {MAX_NESTING} levels", line))
                node = ([], line)
                stack[-1][0].append(node)
                stack.append(node)
            elif paren:
                if len(stack) > 1:
                    stack.pop()
                else:
                    nesting_errors.append(("unexpected )", line))
            elif string or sym:
                stack[-1][0].append((string or sym, line))
            elif quote:
                raise FStructError("unterminated string", line)
    if nesting_errors:
        raise FStructError(*nesting_errors[0])
    if len(stack) > 1:
        raise FStructError("missing )", stack[-1][1])
    return stack[0][0]


def symbol(node, what):
    """The bare symbol at an s-expression node, or an error naming its line."""
    val, line = node
    if not isinstance(val, str) or val.startswith('"'):
        raise FStructError(f"expected {what}", line)
    return val


def _string(node, what):
    val, line = node
    if not isinstance(val, str) or not val.startswith('"'):
        raise FStructError(f"expected quoted {what}", line)
    return val[1:]


def _head(node, what):
    """The parts, line and opening symbol of the non-empty list `node`."""
    lst, line = node
    if not isinstance(lst, list) or not lst:
        raise FStructError(f"expected {what}", line)
    return lst, line, symbol(lst[0], what)


def _form(node, usage: str):
    """The parts and line of the list `node`, whose synopsis is `usage`: one
    part per word, where a [WORD] is optional and a trailing ... allows any
    number more, and a first word that is not upper case is the symbol the
    list opens with.  Anything else is an error quoting the synopsis."""
    lst, line = node
    words = usage.split()
    more = words[-1] == "...)"
    n = len(lst) if isinstance(lst, list) else -1  # below any minimum
    if n < len(words) - usage.count("[") - more or n > len(words) and not more:
        raise FStructError(f"expected {usage}", line)
    head = words[0][1:]
    if not head.isupper() and symbol(lst[0], usage) != head:
        raise FStructError(f"expected {usage}", line)
    return lst, line


_FSTRUCT = "(fstruct LABEL [ATTR] ...)"


def _build_fstruct(node, by_label, building) -> FStructure:
    """Build one (fstruct ...) form; `building` holds the labels of the
    structures that enclose it, which a (ref ...) may not name."""
    _head(node, _FSTRUCT)  # a head that is not a symbol is reported at its own line
    lst, line = _form(node, _FSTRUCT)
    label = symbol(lst[1], "label")
    if label in by_label:
        raise FStructError(f"duplicate label {label}", line)
    fs = FStructure(label)
    by_label[label] = fs
    building.add(label)
    for attr_node in lst[2:]:
        (name, value), aline = _form(attr_node, "(ATTR VALUE)")
        attr = symbol(name, "attribute name").upper()
        if attr in fs.attrs:
            raise FStructError(f"duplicate attribute {attr} in {label}", aline)
        vval, vline = value
        if isinstance(vval, str) and vval.startswith('"'):
            fs.attrs[attr] = vval[1:]
        elif isinstance(vval, list) and vval and vval[0][0] == "ref":
            ref = symbol(_form(value, "(ref LABEL)")[0][1], "label")
            if ref in building:
                raise FStructError(f"reference to {ref}, which encloses it", vline)
            if ref not in by_label:
                raise FStructError(f"reference to unknown label {ref}", vline)
            fs.attrs[attr] = by_label[ref]
        else:
            fs.attrs[attr] = _build_fstruct(value, by_label, building)
    building.remove(label)
    return fs


def parse_fstructure(text: str) -> FDocument:
    """Parse one document: a root (fstruct ...) followed by (ant P A) links."""
    sexps = read_sexps(text)
    if not sexps:
        raise FStructError("empty document")
    by_label: dict[str, FStructure] = {}
    root = _build_fstruct(sexps[0], by_label, set())
    links: dict[str, str] = {}
    for node in sexps[1:]:
        (_, pro, ant), line = _form(node, "(ant PRONOUN ANTECEDENT)")
        pro, ant = symbol(pro, "label"), symbol(ant, "label")
        for lbl in (pro, ant):
            if lbl not in by_label:
                raise FStructError(f"ant link names unknown label {lbl}", line)
        if by_label[pro].attrs.get("PRED") != "pro":
            raise FStructError(f"ant link pronoun {pro} lacks PRED \"pro\"", line)
        if pro == ant:
            raise FStructError(f"pronoun {pro} is linked to itself", line)
        if pro in links:
            raise FStructError(f"pronoun {pro} has two ant links", line)
        links[pro] = ant
    return FDocument(root, by_label, links)
