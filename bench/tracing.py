"""Span recorder for the traced benchmark run.

Layer functions are wrapped at the module attribute where their caller looks
them up (``gluesem.prover.solve`` wraps the unifier as the prover calls it,
not its own recursion), so nothing inside ``src/`` changes.  Each call
records one span: name, parent span, start, end and the sentence it belongs
to.  Spans are kept in flat arrays until the pass ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from gluesem import cli, fstruct, glue, prover

# the package re-exports the function `unify` under the module's name
unify = importlib.import_module("gluesem.unify")


def _nodes(t, doc):
    t.counts["fstruct.nodes"] += len(doc.nodes())


def _entries(t, lexicon):
    t.counts["glue.lexicon_entries"] += len(lexicon.entries)


def _premises(t, prems):
    t.counts["glue.premises"] += len(prems)


def _enumeration(t, result):
    t.counts["prover.steps"] += result.stats.steps
    t.counts["prover.proofs"] += result.stats.proofs
    t.counts["prover.readings"] += len(result.readings)
    t.by_request[t.current_request] = (
        result.stats.steps,
        result.stats.proofs,
        len(result.readings),
    )


def _hit(t, su):
    return su is not None


# (owner, attribute, span name, on_result).  An on_result that returns a
# bool counts a hit for the span name; one that returns None feeds counts.
WRAPPED = [
    (fstruct, "parse_fstructure", "fstruct.parse", _nodes),
    (cli, "parse_fstructure", "fstruct.parse", _nodes),
    (glue, "parse_lexicon", "glue.lexicon", _entries),
    (glue, "premises", "glue.premises", _premises),
    (prover, "inst_term_var", "glue.inst", None),
    (prover, "inst_sem_var", "glue.inst", None),
    (prover, "subst_formula", "glue.dupkey", None),
    (prover, "enumerate_readings", "prover.search", _enumeration),
    (prover, "extract_meaning", "prover.extract", None),
    (prover, "check_linearity", "prover.extract", None),
    (prover, "solve_sem", "unify.atom", _hit),
    (prover, "solve", "unify.solve", _hit),
    (unify.Substitution, "nf", "unify.nf", None),
    (unify.Substitution, "bind", "unify.bind", None),
    (unify, "normalize", "terms.normalize", None),
    (prover, "print_term", "terms.print", None),
]


class Tracer:
    """Records spans and per-boundary counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix: dict[str, int] = {}
        self.span_name = array("b")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_request = -1
        self.hits: Counter = Counter()
        self.counts: Counter = Counter()
        # sentence id -> (steps, proofs, readings) of its enumeration
        self.by_request: dict[int, tuple[int, int, int]] = {}

    def _index(self, name: str) -> int:
        if name not in self.name_ix:
            self.name_ix[name] = len(self.names)
            self.names.append(name)
        return self.name_ix[name]

    def _open(self, ix: int) -> int:
        sid = len(self.start)
        self.span_name.append(ix)
        self.parent.append(self.stack[-1])
        self.request.append(self.current_request)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name, on_result=None):
        ix = self._index(name)

        def traced(*args, **kwargs):
            sid = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None and on_result(self, result):
                self.hits[name] += 1
            return result

        return traced

    @contextmanager
    def span(self, name: str, request: int = -1):
        """A span the benchmark opens itself; spans opened under a sentence
        span carry its request id."""
        outer = self.current_request
        if request >= 0:
            self.current_request = request
        sid = self._open(self._index(name))
        try:
            yield
        finally:
            self._close(sid)
            self.current_request = outer

    @contextmanager
    def installed(self):
        """Wrap every layer boundary in WRAPPED; restore on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAPPED]
        try:
            for owner, attr, name, on_result in WRAPPED:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_result))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns, self ns (duration minus the
        direct child spans, which never overlap in one thread)."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["ns"] += dur
            agg["self_ns"] += dur - child_ns[i]
        return out

    def write(self, path, shapes: list[str]) -> None:
        """A header naming each sentence id's input, then one JSON array per
        span: id, parent, sentence id, name, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"sentences": shapes}) + "\n")
            for i in range(len(self.start)):
                row = [
                    i,
                    self.parent[i],
                    self.request[i],
                    self.names[self.span_name[i]],
                    self.start[i],
                    self.end[i],
                ]
                fh.write(json.dumps(row) + "\n")
