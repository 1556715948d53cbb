"""Cut-free sequent proof search over the tensor fragment.

The search is goal-directed: a goal is decomposed by its right rule (PiR,
LimpR, TensorR), and when it is atomic one context formula is focused and
decomposed down to its head, which must match the goal; a tensor head is
split instead (TensorL), its parts joining the context for the same goal.
Context splitting is threaded lazily: each subproof consumes what it needs
from the resources it is handed and returns the leftovers, and a proof of
the whole sequent is one that leaves nothing over.  Universals focused on
the left introduce fresh flex variables; universals proved on the right
introduce fresh eigenvariables whose scope is policed by the matcher's
timestamps.

A proof fixes its meaning (the Curry-Howard reading of glue: Dalrymple,
Gupta, Lamping & Saraswat 1999), so meanings are solved in a second phase.
The search matches a focused head against an atomic goal by type and
semantic structure only; the focus's node records the goal it closed.  Once
a proof leaves nothing over, its meaning equations, one per focus on a
meaning head, are solved antecedents first: a post-order walk of the
derivation solves a focus's antecedent proofs before its head.
By then the side that fixes each meaning variable is closed, so one-way
matching solves it.  A proof whose equations fail is dropped, and only an
equation on a complete proof can raise NonPatternError.

A search makes one node per rule, children, goal, resource and fresh names,
so a focus on a quantified resource is solved once per search for each value
of its outer names (`_names_of`); a later visit adds the bindings the first
made, or fails as it did.  Like the table, this relies on birth order being
a function of the derivation: the escape checks it skips would pass again.

A resource is opened when it is made: its quantifiers are instantiated with
fresh flex variables, its antecedents collected, and a tensor head split
into parts, each a resource of its own.  Every focus on it re-stamps those
variables, so that scope checks see them born at the focus on the current
branch.

Focusing is indexed by head.  When a resource is made, the atom a focus on
it ends at is recorded as its head signature: the meaning type with the
semantic structure, or with no structure when the resource's own quantifier
binds it, or the name of a propositional atom, and the resource is filed
under it in bit masks over resource ids; a context is such a mask.  An
atomic goal focuses, in id order (the order resources were made, a
resource's parts right after it), only the resources whose signature can
unify with it: a type clash, an atom of the other kind, or two rigid
structures that differ under the current substitution reject a resource
before it is focused, so it costs no search step.  This is the head filter
of Hepple's (1996) first-order compilation.  It alone decides kinds, names
and types, so the atom match of a focus unifies only the structures; the
full match, which the tests hold the filter to, lives under `tests/`.  The
filter also skips, at no step, a resource with a need (`_needs`) that no
other resource of the context is a candidate for: nothing that could close
it enters the context later, so the focus could only fail (Cervesato, Hodas
& Pfenning 2000), and the proofs and their order are unchanged.

A goal is posed once per search: a PiR eigenvariable (re-stamped) and a
LimpR assumption are kept by the goal's position, not its formula (see
`prove`).  A focus consumes the resource, so no branch focuses it twice or
proves one position twice, and substitutions are branch-local.  They bind
structure variables only: the search makes no term binding.

Atomic goals are tabled (the chart idea of Hepple 1996).  Their proofs
depend only on the goal object, the context mask, and the structures bound
to the variables of the goal and of the context's assumptions and parts,
with the birth order of the unbound ones: premises are closed, and all that
a proof focuses or poses is born newer.  A visit with no record searches:
it collects each result as it is found (the bindings it added, the
leftovers and the derivation) and, once all are found, stores them as the
key's record.  Later visits replay a record at one step each, re-stamping
each derivation's variables in the search's order, unless the replay could
cross the depth budget.  The table, like every memo of a search, lives as
long as its prover, which serves one search.

A derivation records facts, not text: each node the formula it proves, and
Focus and LimpR nodes the resource they focus or assume.  A focus is one
node, Andreoli's synthetic rule; `render_trace` writes every line from the
nodes, a focus as the PiL, LimpL and Identity or TensorL rules it applies.

Readings are the normalized meaning terms of the goal structure across all
proofs, deduplicated up to renaming of bound variables.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from . import glue
from .fstruct import ROOT, SemStruct, SemTerm, SemVar
from .glue import (
    Forall,
    GlueFormula,
    Limp,
    Means,
    Premise,
    PropAtom,
    SEM,
    Tensor,
    inst_sem_var,
    inst_term_var,
    print_formula,
    subst_formula,
)
from .terms import (
    GlueError,
    MeaningTerm,
    MeaningType,
    MetaVar,
    Record,
    T,
    free_names,
    print_term,
)
from .unify import EIGEN, FLEX, NonPatternError, Substitution, VarClass, solve, solve_sem


class BudgetExhausted(GlueError):
    def __init__(self, limit, value):
        self.limit = limit  # "max-steps" or "max-depth"
        super().__init__(f"search budget exhausted ({limit} {value})")


class SearchBudget(Record):
    __slots__ = ("max_steps", "max_depth")

    def __init__(self, max_steps: int = 100_000, max_depth: int = 40):
        self.max_steps, self.max_depth = max_steps, max_depth


class Resource(Record):
    """A context formula, opened when it is made: its quantifiers are
    instantiated with fresh flex variables (`fresh`), its antecedents
    collected outermost first (`pendings`), and a tensor head split into
    the resources of the mask `parts`.  Its head signature `sig` is what a
    focus on it ends at: (type, structure) for a meaning atom, with
    structure None when the formula's own quantifier binds it; the name for
    a propositional atom; None for a tensor, which is split, not matched.
    `needs`: the atoms its antecedents take from the context (`_needs`)."""

    __slots__ = ("rid", "tag", "head", "pendings", "fresh", "sig", "parts", "dup", "needs")

    # dup: the class of equal premise formulas; None for the rest
    def __init__(self, rid: int, tag: str, head: GlueFormula,
                 pendings: tuple[GlueFormula, ...], fresh: tuple[str, ...],
                 sig: Union[tuple, str, None], parts: int, dup: Optional[int],
                 needs: tuple[GlueFormula, ...]):
        self.rid, self.tag, self.head, self.pendings = rid, tag, head, pendings
        self.fresh, self.sig, self.parts, self.dup, self.needs = fresh, sig, parts, dup, needs


class Derivation(Record):
    # rule: Focus | PiR | LimpR | TensorR; goal: the formula the node proves;
    # res: the resource a Focus node consumes or a LimpR node assumes; a Focus
    # node's children: its antecedents' proofs in order, then a tensor head's
    # body; fresh: the variables a Focus or PiR node introduces
    __slots__ = ("rule", "children", "goal", "res", "fresh")

    def __init__(self, rule: str, children: tuple[Derivation, ...], goal: GlueFormula,
                 res: Optional[Resource] = None, fresh: tuple[str, ...] = ()):
        self.rule, self.children, self.goal, self.res, self.fresh = (
            rule, children, goal, res, fresh)


class Reading(Record):
    __slots__ = ("term", "text", "derivation", "substitution")

    def __init__(self, term: MeaningTerm, text: str, derivation: Derivation,
                 substitution: Substitution):
        self.term, self.text = term, text
        self.derivation, self.substitution = derivation, substitution


class SearchStats(Record):
    __slots__ = ("steps", "proofs", "head_rejects", "equations", "limit")
    __hash__ = None  # counts grow during the search

    # head_rejects: resources the head filter or its lookahead skipped; equations: meaning
    # equations solved up to the first that fails, a Focus node's with fresh
    # names once per outer values; limit: the budget limit that ran out,
    # "max-steps" or "max-depth", or None
    def __init__(self, steps: int = 0, proofs: int = 0, head_rejects: int = 0,
                 equations: int = 0, limit: Optional[str] = None):
        self.steps, self.proofs, self.head_rejects = steps, proofs, head_rejects
        self.equations, self.limit = equations, limit

    @property
    def exhausted(self) -> bool:
        return self.limit is not None


class EnumerationResult(Record):
    __slots__ = ("readings", "stats")
    __hash__ = None  # holds a list and the mutable stats

    def __init__(self, readings: list[Reading], stats: SearchStats):
        self.readings, self.stats = readings, stats


def _flatten_tensor(f: GlueFormula) -> list[GlueFormula]:
    if isinstance(f, Tensor):
        return _flatten_tensor(f.left) + _flatten_tensor(f.right)
    return [f]


def _rigid(f: GlueFormula) -> Union[tuple, str, None]:
    """The atom a focus on `f` ends at, if no substitution changes it: its
    name, or its (type, structure) if the structure is rigid; else None."""
    while isinstance(f, (Forall, Limp)):
        f = f.body if isinstance(f, Forall) else f.cons
    if isinstance(f, PropAtom):
        return f.name
    return (f.ty, f.sem) if isinstance(f, Means) and isinstance(f.sem, SemStruct) else None


def _needs(goal: GlueFormula, hyps: tuple = ()) -> list[GlueFormula]:
    """The atoms a proof of `goal` must take from its context: the `_rigid`
    goals reached through PiR, LimpR consequents and TensorR that no LimpR
    assumption on the way (`hyps`) has as its head.  Nothing is claimed
    beneath an assumption with a tensor head or a variable structure."""
    while isinstance(goal, (Forall, Limp)):
        if isinstance(goal, Limp):
            if (key := _rigid(goal.ant)) is None:
                return []
            hyps += (key,)
        goal = goal.body if isinstance(goal, Forall) else goal.cons
    if isinstance(goal, Tensor):
        return _needs(goal.left, hyps) + _needs(goal.right, hyps)
    key = _rigid(goal)
    return [] if key is None or key in hyps else [goal]


def _stamped(d: Derivation, out: list[str]) -> list[str]:
    """The variables the search stamps on its way to `d`, in its order: a
    focus's own, then its tensor head's body's, then its antecedents'."""
    out += d.fresh
    children = d.children
    if d.rule == "Focus" and isinstance(d.res.head, Tensor):
        children = children[-1:] + children[:-1]
    for c in children:
        _stamped(c, out)
    return out


class Prover:
    """One proof-search session: owns the variable registry and budget."""

    def __init__(self, budget: SearchBudget = SearchBudget()):
        self.budget = budget
        self.classes = VarClass()
        self.stats = SearchStats()
        self._dups: dict[GlueFormula, int] = {}
        self._resources: list[Optional[Resource]] = [None]  # by rid
        # head signature, or meaning type for all its heads, or (type,
        # SemVar) for heads whose structure is a variable -> resource mask
        self._index: dict[object, int] = {}
        # goal position -> the PiR (eigenvariable, body) or LimpR assumption
        # that its first proof made
        self._posed: dict[tuple, object] = {}
        # the assumptions and parts with free structure variables: mask, and
        # rid -> those variables
        self._loose, self._mentions = 0, {}
        # atomic goal key -> (results, how much deeper than the goal the
        # search stepped), once they are all found
        self._table: dict[tuple, tuple] = {}
        self._deepest = 0  # high-water mark of the depth stepped
        # Focus node with fresh names -> (term bindings its equations were
        # solved under, result); node or formula -> `_names_of` it; a node's
        # fields -> the node (`_node`).  Keys are ids, which are safe: this
        # table holds every node, and the prover every resource and goal
        self._solved, self._names, self._nodes = {}, {}, {}

    # -- plumbing -----------------------------------------------------------

    def _step(self, depth: int):
        self.stats.steps += 1
        if self.stats.steps > self.budget.max_steps:
            raise BudgetExhausted("max-steps", self.budget.max_steps)
        if depth > self._deepest:
            if depth > self.budget.max_depth:
                raise BudgetExhausted("max-depth", self.budget.max_depth)
            self._deepest = depth

    def _node(self, rule: str, children: tuple, goal, res=None, fresh=()) -> Derivation:
        """The one node of this search with these fields: its children, goal
        and resource by identity, its fresh names by value."""
        key = (rule, id(goal), id(res), fresh, *map(id, children))
        d = self._nodes.get(key)
        return d or self._nodes.setdefault(key, Derivation(rule, children, goal, res, fresh))

    def _instantiate(self, f: Forall, kind: str) -> tuple:
        """A fresh `kind` variable for the one `f` binds, and `f`'s body with
        it in its place."""
        v = self.classes.fresh(f.var, kind, None if f.kind == SEM else f.kind)
        return v, (inst_sem_var if f.kind == SEM else inst_term_var)(f.body, f.var, v)

    def _resource(self, formula, premise, tag) -> Resource:
        """A new resource for `formula`, opened and filed under its head."""
        rid = len(self._resources)
        self._resources.append(None)  # reserved: the parts take the next rids
        head, pendings, fresh = formula, [], []
        while True:
            if isinstance(head, Forall):
                v, head = self._instantiate(head, FLEX)
                fresh.append(v.name)
            elif isinstance(head, Limp):
                pendings.append(head.ant)
                head = head.cons
            else:
                break
        parts, sig = 0, None
        if isinstance(head, Tensor):
            for k, p in enumerate(_flatten_tensor(head), 1):
                parts |= 1 << self._resource(p, None, f"{tag}.{k}").rid
        elif isinstance(head, Means):
            own = isinstance(head.sem, SemVar) and head.sem.name in fresh
            sig = head.ty, None if own else head.sem
        else:
            sig = head.name
        # premises are closed, so two premises with equal formulas stay
        # interchangeable under every substitution
        dup = None if premise is None else self._dups.setdefault(formula, len(self._dups))
        needs = tuple(a for p in pendings for a in _needs(p))
        res = self._resources[rid] = Resource(
            rid, tag, head, tuple(pendings), tuple(fresh), sig, parts, dup, needs)
        if premise is None:
            mentions = [v for v in glue.formula_free_vars(formula).values()
                        if type(v) is SemVar]
            if mentions:
                self._loose |= 1 << rid
                self._mentions[rid] = mentions
        keys = [sig]
        if isinstance(sig, tuple):
            ty, sem = sig
            keys.append(ty)
            if isinstance(sem, SemVar):
                keys[0] = (ty, SemVar)
        for key in keys:
            self._index[key] = self._index.get(key, 0) | 1 << rid
        return res

    def _candidates(self, su, ctx: int, goal) -> int:
        """The resources of `ctx` that may close `goal`, an atomic goal or a
        need, whatever the quantifiers are instantiated with: atoms of its
        kind, name and type whose structure may unify with its own, and
        tensors, which are split, not matched."""
        index = self._index
        found = ctx & index.get(None, 0)
        if isinstance(goal, PropAtom):
            return found | ctx & index.get(goal.name, 0)
        ty, sem = goal.ty, su.walk_sem(goal.sem)
        if isinstance(sem, SemVar) and self.classes.is_flex_sem(sem):
            return found | ctx & index.get(ty, 0)
        found |= ctx & (index.get((ty, None), 0) | index.get((ty, sem), 0))
        loose = ctx & index.get((ty, SemVar), 0)
        while loose:
            bit = loose & -loose
            loose ^= bit
            head = su.walk_sem(self._resources[bit.bit_length() - 1].sig[1])
            if head == sem or isinstance(head, SemVar) and self.classes.is_flex_sem(head):
                found |= bit
        return found

    # -- right (goal) rules -------------------------------------------------

    def prove(
        self, su: Substitution, ctx: int, goal: GlueFormula, depth: int, pos: tuple = ()
    ) -> Iterator[tuple[Substitution, int, Derivation]]:
        """Proofs of `goal` from `ctx`, with the leftovers.  `pos`: () for the
        top goal, (rid, i) for the i-th antecedent of a focus on resource rid,
        (pos, 0) and (pos, 1) below PiR, LimpR and TensorR."""
        self._step(depth)
        match goal:
            case Forall():
                if pos in self._posed:
                    v, inst = self._posed[pos]
                    self.classes.restamp(v.name)
                else:
                    v, inst = self._posed[pos] = self._instantiate(goal, EIGEN)
                for su2, left2, d2 in self.prove(su, ctx, inst, depth + 1, (pos, 0)):
                    yield su2, left2, self._node("PiR", (d2,), goal, None, (v.name,))
            case Limp(ant, cons):
                res = self._posed.get(pos)
                if res is None:
                    res = self._posed[pos] = self._resource(ant, None, "assumption")
                bit = 1 << res.rid
                for su2, left2, d2 in self.prove(su, ctx | bit, cons, depth + 1, (pos, 0)):
                    if left2 & bit:
                        continue  # linear assumption left unused
                    yield su2, left2, self._node("LimpR", (d2,), goal, res)
            case Tensor(left, right):
                for su1, mid, d1 in self.prove(su, ctx, left, depth + 1, (pos, 0)):
                    for su2, out, d2 in self.prove(su1, mid, right, depth + 1, (pos, 1)):
                        yield su2, out, self._node("TensorR", (d1, d2), goal)
            case Means() | PropAtom():
                key = self._table_key(su, ctx, goal)
                entry = self._table.get(key)
                if entry is None or depth + entry[1] > self.budget.max_depth:
                    yield from self._focuses(su, ctx, goal, depth, key)
                    return
                self._deepest = max(self._deepest, depth + entry[1])
                for result in entry[0]:
                    sems, n, left, d, names = result
                    self._step(depth)
                    if names is None:
                        names = result[4] = _stamped(d, [])
                    for name in names:
                        self.classes.restamp(name)
                    su2 = su
                    for name, value in itertools.islice(sems.items(), n, None):
                        su2 = su2.bind_sem(name, value)
                    yield su2, left, d
            case _:
                raise AssertionError(f"bad goal {goal!r}")

    def _table_key(self, su: Substitution, ctx: int, goal) -> tuple:
        """What the proofs of the atomic `goal` from `ctx` depend on."""
        sem = getattr(goal, "sem", None)  # a rigid structure is the goal object's own
        loose = ctx & self._loose
        if not loose:
            return id(goal), ctx, su.walk_sem(sem) if isinstance(sem, SemVar) else None
        values = [sem] if isinstance(sem, SemVar) else []
        while loose:
            bit = loose & -loose
            loose ^= bit
            values += self._mentions[bit.bit_length() - 1]
        values = [v.name if type(v) is SemVar else v for v in map(su.walk_sem, values)]
        unbound = sorted({v for v in values if type(v) is str}, key=self.classes.ts)
        return id(goal), ctx, tuple(values), tuple(unbound)

    def _focuses(self, su: Substitution, ctx: int, goal, depth: int, key: tuple):
        """Proofs of an atomic goal, a focus on each candidate in turn,
        recorded under `key` once the last is found."""
        results: list[list] = []
        n = len(su.sems)
        # a high-water mark from here on: it may count steps taken outside
        # this goal while it is suspended, an over-approximation
        outer, self._deepest = self._deepest, depth
        candidates = self._candidates(su, ctx, goal)
        self.stats.head_rejects += (ctx ^ candidates).bit_count()  # candidates <= ctx
        seen = set()
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            res = self._resources[bit.bit_length() - 1]
            # two plain premises with identical formulas are interchangeable:
            # focusing the later one would only permute the proof.
            # Assumptions and split-out parts are excluded: they carry
            # region obligations of their own.
            if res.dup is not None:
                if res.dup in seen:
                    continue
                seen.add(res.dup)
            rest = ctx ^ bit
            for need in res.needs:  # skipped if nothing left may supply one
                if not self._candidates(su, rest, need):
                    self.stats.head_rejects += 1
                    break
            else:
                for su2, left2, d2 in self._focus(su, res, rest, goal, depth):
                    # its own bindings are those after the first n
                    results.append([su2.sems, n, left2, d2, None])
                    yield su2, left2, d2
        self._table[key] = results, self._deepest - depth
        self._deepest = max(outer, self._deepest)

    # -- left (focused) rules -----------------------------------------------

    def _focus(self, su: Substitution, res: Resource, ctx: int, goal, depth: int):
        """Proofs of the atomic `goal` that focus `res`, each one Focus node: its
        head matches the goal, or is a tensor whose parts prove it; then its antecedents."""
        self._step(depth)
        for name in res.fresh:  # born at the focus on the current branch
            self.classes.restamp(name)
        if isinstance(res.head, Tensor):
            # like a linear assumption, a split-out conjunct must be consumed
            # within the branch that introduced it; letting it feed some
            # other formula's antecedent would cross the context split of
            # this implication
            heads = ((su2, left2, (d2,))
                     for su2, left2, d2 in self.prove(su, ctx | res.parts, goal, depth + 1)
                     if not left2 & res.parts)
        else:
            su2 = self._unify_atoms(su, res.head, goal)
            heads = [] if su2 is None else [(su2, ctx, ())]
        for su2, left2, body in heads:
            for su3, left3, ants in self._prove_pendings(su2, left2, res, depth):
                yield su3, left3, self._node("Focus", ants + body, goal, res, res.fresh)

    def _prove_pendings(self, su: Substitution, ctx: int, res: Resource, depth: int,
                        idx: int = 0):
        """Prove the antecedents `idx`... of a focus on `res` left to right on
        the remaining resources."""
        if idx == len(res.pendings):
            yield su, ctx, ()
            return
        for su2, left2, d2 in self.prove(su, ctx, res.pendings[idx], depth + 1, (res.rid, idx)):
            for su3, left3, ds in self._prove_pendings(su2, left2, res, depth, idx + 1):
                yield su3, left3, (d2,) + ds

    # -- atoms and meanings --------------------------------------------------

    def _unify_atoms(self, su, f, goal) -> Optional[Substitution]:
        """`su` extended so that the head `f` of a focus matches the atomic
        `goal`, or None.  `f` must be a candidate for `goal` (`_candidates`):
        an atom of the same kind, name and type, so only the structures of
        two meaning atoms are left to unify."""
        sem = getattr(goal, "sem", None)  # None: a propositional goal
        return su if sem is None else solve_sem(su, f.sem, sem, self.classes)

    def _recall(self, su: Substitution, d: Derivation) -> Optional[tuple]:
        """The record of the Focus node `d`, which has fresh names, if its equations
        were solved under the values `su` gives its outer names, else None."""
        entry = self._solved.get(id(d))
        if entry is None:
            return None
        then, now = entry[0], su.terms
        return entry if all(then.get(n) is now.get(n) for n in self._names_of(d)) else None

    def _names_of(self, x) -> frozenset[str]:
        """A formula's metavariables, or a node's outer names: those its
        equations read less the fresh names of the Focus nodes under it, which
        nothing outside binds (each resource is consumed once per proof)."""
        found = self._names.get(id(x))
        if found is not None:
            return found
        if isinstance(x, Derivation):
            names = set().union(*map(self._names_of, x.children))
            if x.rule == "Focus" and isinstance(x.res.head, Means):
                names |= self._names_of(x.res.head) | self._names_of(x.goal)
            names = frozenset(names.difference(x.fresh))
        else:
            names = frozenset(n for n, v in free_names(x.term).items() if type(v) is MetaVar)
        self._names[id(x)] = names
        return names


# ---------------------------------------------------------------------------
# Entry points


def check_linearity(d: Derivation, ctx: tuple[Resource, ...], seen: dict[int, int]) -> None:
    """Every premise consumed exactly once: no two Focus nodes share a
    resource, and all premises appear.  `seen` maps the id of each node checked
    before in this search to the mask of the resources its Focus nodes consume."""

    def mask(n: Derivation) -> int:
        m = seen.get(id(n))
        if m is None:
            m = 1 << n.res.rid if n.rule == "Focus" else 0
            for c in n.children:
                sub = mask(c)
                assert not m & sub, "a resource was consumed twice"
                m |= sub
            seen[id(n)] = m
        return m

    consumed = mask(d)
    assert all(consumed >> r.rid & 1 for r in ctx), "a premise escaped consumption"


def _solve_meanings(
    prover: Prover, su: Substitution, d: Derivation
) -> Optional[Substitution]:
    """`su` extended to solve the meaning equations of `d`, or None when one
    fails.  The walk is post-order, so a Focus node's antecedent proofs are
    solved before its head's equation.  A Focus node with fresh names is
    solved once per value of its outer names (module docstring)."""
    memo = d.rule == "Focus" and d.fresh
    if memo and (entry := prover._recall(su, d)) is not None:
        then, solved = entry
        return None if solved is None else su.extend(solved, len(then))
    solved = su
    for child in d.children:
        if (solved := _solve_meanings(prover, solved, child)) is None:
            break
    if solved is not None and d.rule == "Focus" and isinstance(d.res.head, Means):
        prover.stats.equations += 1
        solved = solve(solved, d.res.head.term, d.goal.term, prover.classes)
    if memo:
        prover._solved[id(d)] = su.terms, solved
    return solved


def _complete_proofs(
    prover: Prover, ctx: tuple[Resource, ...], goal: GlueFormula
) -> Iterator[tuple[Substitution, Derivation]]:
    """The proofs of ctx |- goal that consume every resource and whose
    meaning equations have a solution, with that solution; every proof of
    a search passes `check_linearity` here, under one memo of the nodes `prover._nodes` holds."""
    mask, seen = sum(1 << res.rid for res in ctx), {}
    for su, leftover, d in prover.prove(Substitution(), mask, goal, 0):
        if not leftover:
            su = _solve_meanings(prover, su, d)
            if su is not None:
                check_linearity(d, ctx, seen)
                yield su, d


def prove_sequent(
    context: tuple[GlueFormula, ...], goal: GlueFormula, budget: SearchBudget = SearchBudget()
) -> Iterator[tuple[Substitution, Derivation]]:
    """All cut-free proofs of the closed sequent context |- goal that consume
    every context formula; an open sequent raises GlueError."""
    if free := [n for f in (*context, goal) for n in glue.formula_free_vars(f)]:
        raise GlueError(f"the sequent is not closed: {free[0]} is free")
    prover = Prover(budget)
    ctx = tuple(prover._resource(f, i, f"ctx{i}") for i, f in enumerate(context))
    return _complete_proofs(prover, ctx, goal)


def extract_meaning(su: Substitution, goal_var: MetaVar) -> MeaningTerm:
    """A complete proof's reading: closed, as `solve` binds the goal variable
    to a closed value that no eigenvariable, all born after it, escapes into."""
    return su.nf(goal_var)


def enumerate_readings(
    prems: list[Premise],
    goal_sem: SemTerm,
    budget: SearchBudget = SearchBudget(),
    goal_type: MeaningType = T,
) -> EnumerationResult:
    """Enumerate every derivable reading of `goal_sem`, deduplicated up to
    renaming of bound variables and sorted by their printed form."""
    if not isinstance(goal_sem, SemStruct):
        raise GlueError(f"the goal is not a semantic structure: {goal_sem!r}")
    prover = Prover(budget)
    ctx = tuple(
        prover._resource(p.formula, i, f"{p.word}[{p.label}]")
        for i, p in enumerate(prems)
    )
    goal_var = prover.classes.fresh("M", FLEX, goal_type)
    goal = Means(goal_sem, goal_var, goal_type)
    found: dict[str, Reading] = {}
    stats = prover.stats
    try:
        for su, d in _complete_proofs(prover, ctx, goal):
            stats.proofs += 1
            term = extract_meaning(su, goal_var)
            text = print_term(term)
            if text not in found:
                found[text] = Reading(term, text, d, su)
    except BudgetExhausted as e:
        stats.limit = e.limit
    except (KeyError, NonPatternError):  # an open premise's variable, unregistered or unfixed
        if not (free := [n for p in prems for n in glue.formula_free_vars(p.formula)]):
            raise
        raise GlueError(f"a premise is not closed: {free[0]} is free") from None
    readings = [found[k] for k in sorted(found)]
    return EnumerationResult(readings, stats)


def readings_for_document(
    doc,
    lexicon,
    goal_label: Optional[str] = None,
    budget: SearchBudget = SearchBudget(),
    goal_type: MeaningType = T,
) -> tuple[EnumerationResult, list[Premise]]:
    prems = glue.premises(doc, lexicon)  # looked up per call: wrappers see it
    label = goal_label or doc.root.label
    if label not in doc.by_label:
        raise GlueError(f"goal label {label!r} not in document")
    goal_sem = SemStruct(label, ROOT)
    return enumerate_readings(prems, goal_sem, budget, goal_type), prems


# ---------------------------------------------------------------------------
# Trace rendering


def render_trace(d: Derivation, su: Substitution) -> str:
    """Human-readable proof tree, one rule per line, under the proof's
    substitution: fresh variables are annotated with their solutions and
    consumed atoms are shown instantiated."""
    lines: list[str] = []

    def solution(name: str) -> Optional[str]:
        if name in su.terms:
            return print_term(su.terms[name])
        if name in su.sems:
            return repr(su.walk_sem(SemVar(name)))
        return None

    def line(indent: int, text: str):
        lines.append("  " * indent + text)

    def walk(n: Derivation, indent: int):
        res = n.res
        if n.rule != "Focus":
            line(indent, f"PiR: {n.goal.var} := {n.fresh[0]}" if n.rule == "PiR"
                 else f"LimpR: assume {res.tag}#{res.rid}" if n.rule == "LimpR" else n.rule)
            for c in n.children:
                walk(c, indent + 1)
            return
        # a focus, as the rules it applies: PiL, one LimpL per antecedent
        # over that antecedent's proof, then Identity or TensorL
        if n.fresh:
            pairs = [f"{name} := {sol}" if (sol := solution(name)) else name
                     for name in n.fresh]
            line(indent, f"PiL: {res.tag}#{res.rid}: {', '.join(pairs)}")
            indent += 1
        for ant in n.children[:len(res.pendings)]:
            line(indent, f"LimpL: {print_formula(ant.goal)}")
            walk(ant, indent + 1)
            indent += 1
        if isinstance(res.head, Tensor):
            line(indent, f"TensorL: {res.tag}#{res.rid}")
            walk(n.children[-1], indent + 1)
        else:
            line(indent, f"Identity: {res.tag}#{res.rid}"
                 f"   |- {print_formula(subst_formula(res.head, su))}")

    walk(d, 0)
    return "\n".join(lines)
