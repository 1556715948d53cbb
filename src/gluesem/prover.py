"""Cut-free sequent proof search over the tensor fragment.

The search is goal-directed: invertible rules (PiR, LimpR, TensorL) are
applied eagerly, and when the goal is atomic one context formula is focused
and decomposed down to its head, which must match the goal.  Context
splitting is threaded lazily: each subproof consumes what it needs from the
resources it is handed and returns the leftovers, and a proof of the whole
sequent is one that leaves nothing over.  Universals focused on the left
introduce fresh flex variables; universals proved on the right introduce
fresh eigenvariables whose scope is policed by the matcher's timestamps.

A proof fixes its meaning (the Curry-Howard reading of glue: Dalrymple,
Gupta, Lamping & Saraswat 1999), so meanings are solved in a second phase.
The search matches a focused head against an atomic goal by type and
semantic structure only; the Identity leaf that closes the goal records it.
Once a proof leaves nothing over, its meaning equations, one per meaning
Identity leaf, are solved antecedents first: a post-order walk of the
derivation solves a focused formula's antecedent proofs before its head.
By then the side that fixes each meaning variable is closed, so one-way
matching solves it.  A proof whose equations fail is dropped, and only an
equation on a complete proof can raise NonPatternError.

Focusing is indexed by head.  When a resource is made, the atom a focus on
it would end at (after stripping its quantifiers and implications) is
recorded as its head signature: the meaning type with the semantic
structure, or with no structure when the resource's own quantifier binds
it, or the name of a propositional atom, and the resource is filed under
it in bit masks over resource ids; a context is such a mask.  An atomic
goal focuses, in id order (the order resources entered the context), only
the resources whose signature can unify with it: a type clash, an atom of
the other kind, or two rigid structures that differ under the current
substitution reject a resource before any quantifier is instantiated, so it
costs no search step.  This is the head filter of Hepple's (1996)
first-order compilation; it rejects only what the atom match would reject.

A resource is opened once per search: its first focus instantiates its
quantifiers with fresh flex variables and splits a tensor head into parts,
and later focuses, on other branches, reuse them with new birth stamps, so
that scope checks see them born at the focus on the current branch.  A goal
is likewise posed once per search: a PiR eigenvariable (re-stamped) and a
LimpR assumption are kept by the goal's position, not its formula (see
`prove`).  A focus consumes the resource, so no branch focuses it twice or
proves one position twice, and substitutions are branch-local.  They bind
structure variables only: the search makes no term binding.

Atomic goals are tabled (the chart idea of Hepple 1996).  Their proofs
depend only on the goal object, the context mask, and the structures bound
to the variables of the goal and of the context's assumptions and parts,
with the birth order of the unbound ones: premises are closed, and all that
a proof opens or poses is born newer.  A key's first visit records each
result as it is found: the bindings it added, the leftovers and the
derivation.  Once all are found, later visits replay them at one step each,
re-stamping each derivation's variables in the search's order, unless the
replay could cross the depth budget.  The table is emptied when the search
ends.

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
    free_vars,
    print_term,
)
from .unify import Substitution, VarClass, solve, solve_sem


class BudgetExhausted(GlueError):
    def __init__(self, limit, value):
        self.limit = limit  # "max-steps" or "max-depth"
        super().__init__(f"search budget exhausted ({limit} {value})")


class UnsolvedVariable(GlueError):
    pass


class SearchBudget(Record):
    __slots__ = ("max_steps", "max_depth")

    def __init__(self, max_steps: int = 100_000, max_depth: int = 40):
        self.max_steps, self.max_depth = max_steps, max_depth


class Sequent(Record):
    __slots__ = ("context", "goal")

    def __init__(self, context: tuple[GlueFormula, ...], goal: GlueFormula):
        self.context, self.goal = context, goal


# What a focus ends at: (type, structure) for a meaning atom, with structure
# None when the focused formula's own quantifier binds it; the name for a
# propositional atom; None for a tensor, which is split rather than matched.
HeadSignature = Union[tuple[MeaningType, Optional[SemTerm]], str, None]


def _head_signature(f: GlueFormula) -> HeadSignature:
    """The head atom of `f` once its Forall/Limp spine is stripped."""
    bound: set[str] = set()
    while True:
        if isinstance(f, Forall):
            if f.kind == SEM:
                bound.add(f.var)
            f = f.body
        elif isinstance(f, Limp):
            f = f.cons
        else:
            break
    if isinstance(f, Means):
        own = isinstance(f.sem, SemVar) and f.sem.name in bound
        return f.ty, None if own else f.sem
    if isinstance(f, PropAtom):
        return f.name
    return None


class Resource(Record):
    __slots__ = ("rid", "formula", "tag", "head", "dup")

    # dup: the class of equal premise formulas; None for the rest
    def __init__(self, rid: int, formula: GlueFormula, tag: str, head: HeadSignature,
                 dup: Optional[int]):
        self.rid, self.formula, self.tag, self.head, self.dup = rid, formula, tag, head, dup


class Derivation(Record):
    # rule: Identity | TensorL | TensorR | LimpL | LimpR | PiL | PiR; atom: the
    # consumed atom of an Identity leaf; fresh: the variables a PiL node
    # introduces; rid: the resource an Identity or TensorL node consumes;
    # ant: the antecedent a LimpL node proves, printed only by render_trace;
    # goal: the atomic goal an Identity leaf closes
    __slots__ = ("rule", "info", "children", "atom", "fresh", "rid", "ant", "goal")

    def __init__(self, rule: str, info: str, children: tuple[Derivation, ...],
                 atom: Optional[GlueFormula] = None, fresh: tuple[str, ...] = (),
                 rid: Optional[int] = None, ant: Optional[GlueFormula] = None,
                 goal: Optional[GlueFormula] = None):
        self.rule, self.info, self.children = rule, info, children
        self.atom, self.fresh, self.rid, self.ant, self.goal = atom, fresh, rid, ant, goal


class Reading(Record):
    __slots__ = ("term", "text", "derivation", "goal_sem", "substitution")

    def __init__(self, term: MeaningTerm, text: str, derivation: Derivation,
                 goal_sem: SemTerm, substitution: Substitution):
        self.term, self.text, self.derivation = term, text, derivation
        self.goal_sem, self.substitution = goal_sem, substitution


class SearchStats(Record):
    __slots__ = ("steps", "proofs", "head_rejects", "equations", "limit")
    __hash__ = None  # counts grow during the search

    # head_rejects: resources skipped by the head filter; equations: meaning
    # equations solved, each complete proof's up to the first that fails;
    # limit: the budget limit that ran out, "max-steps" or "max-depth", or None
    def __init__(self, steps: int = 0, proofs: int = 0, head_rejects: int = 0,
                 equations: int = 0, limit: Optional[str] = None):
        self.steps, self.proofs, self.head_rejects = steps, proofs, head_rejects
        self.equations, self.limit = equations, limit

    @property
    def exhausted(self) -> bool:
        return self.limit is not None


class EnumerationResult(Record):
    __slots__ = ("readings", "stats", "budget")
    __hash__ = None  # holds a list and the mutable stats

    def __init__(self, readings: list[Reading], stats: SearchStats, budget: SearchBudget):
        self.readings, self.stats, self.budget = readings, stats, budget


def _flatten_tensor(f: GlueFormula) -> list[GlueFormula]:
    if isinstance(f, Tensor):
        return _flatten_tensor(f.left) + _flatten_tensor(f.right)
    return [f]


def _free_sems(f: GlueFormula, bound: tuple = ()) -> set[SemVar]:
    match f:
        case Forall(var, _, body):
            return _free_sems(body, bound + (var,))
        case Tensor(l, r) | Limp(l, r):
            return _free_sems(l, bound) | _free_sems(r, bound)
        case Means(SemVar() as v) if v.name not in bound:
            return {v}
    return set()


def _stamped(d: Derivation, out: list[str]) -> list[str]:
    """The variables the search stamps on its way to `d`, in its order: a
    focus's own, then its head's (a TensorL body), then its antecedents'."""
    out += d.fresh
    ants = []
    while d.rule == "LimpL":
        ants.append(d.children[0])
        d = d.children[1]
    for c in d.children + tuple(ants):
        _stamped(c, out)
    return out


class Prover:
    """One proof-search session: owns the variable registry and budget."""

    def __init__(self, budget: SearchBudget = SearchBudget()):
        self.budget = budget
        self.classes = VarClass()
        self.stats = SearchStats()
        self._rids = itertools.count(1)
        self._dups: dict[GlueFormula, int] = {}
        self._resources: list[Optional[Resource]] = [None]  # by rid
        # head signature, or meaning type for all its heads, or (type,
        # SemVar) for heads whose structure is a variable -> resource mask
        self._index: dict[object, int] = {}
        # rid -> (head, antecedents, fresh variable names, PiL info, TensorL
        # parts mask) of the resource's first focus
        self._opened: dict[int, tuple] = {}
        # goal position -> the PiR (eigenvariable, body) or LimpR assumption
        # that its first proof made
        self._posed: dict[tuple, object] = {}
        # the assumptions and parts with free structure variables: mask, and
        # rid -> those variables
        self._loose, self._mentions = 0, {}
        # atomic goal key -> [results, how much deeper than the goal the
        # search stepped, or None until they are all found]
        self._table: dict[tuple, list] = {}
        self._deepest = 0  # high-water mark of the depth stepped

    # -- plumbing -----------------------------------------------------------

    def _step(self, depth: int):
        self.stats.steps += 1
        if self.stats.steps > self.budget.max_steps:
            raise BudgetExhausted("max-steps", self.budget.max_steps)
        if depth > self._deepest:
            if depth > self.budget.max_depth:
                raise BudgetExhausted("max-depth", self.budget.max_depth)
            self._deepest = depth

    def _resource(self, formula, premise, tag) -> Resource:
        # premises are closed, so two premises with equal formulas stay
        # interchangeable under every substitution
        dup = None
        if premise is not None:
            dup = self._dups.setdefault(formula, len(self._dups))
        res = Resource(next(self._rids), formula, tag, _head_signature(formula), dup)
        self._resources.append(res)
        mentions = () if premise is not None else tuple(_free_sems(formula))
        if mentions:
            self._loose |= 1 << res.rid
            self._mentions[res.rid] = mentions
        keys = [res.head]
        if isinstance(res.head, tuple):
            ty, sem = res.head
            keys.append(ty)
            if isinstance(sem, SemVar):
                keys[0] = (ty, SemVar)
        for key in keys:
            self._index[key] = self._index.get(key, 0) | 1 << res.rid
        return res

    def _candidates(self, su, ctx: int, goal) -> int:
        """The resources of `ctx` whose focus `_unify_atoms` may not reject,
        whatever the quantifiers are instantiated with; tensors are split,
        not matched."""
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
            head = su.walk_sem(self._resources[bit.bit_length() - 1].head[1])
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
            case Forall(var, kind, body):
                if pos in self._posed:
                    v, inst = self._posed[pos]
                    self.classes.restamp(v.name)
                else:
                    if kind == SEM:
                        v = self.classes.fresh_sem_eigen(var)
                        inst = inst_sem_var(body, var, v)
                    else:
                        v = self.classes.fresh_eigen(var, kind)
                        inst = inst_term_var(body, var, v)
                    self._posed[pos] = v, inst
                for su2, left2, d2 in self.prove(su, ctx, inst, depth + 1, (pos, 0)):
                    yield su2, left2, Derivation("PiR", f"{var} := {v.name}", (d2,),
                                                 fresh=(v.name,))
            case Limp(ant, cons):
                res = self._posed.get(pos)
                if res is None:
                    res = self._posed[pos] = self._resource(ant, None, "assumption")
                bit = 1 << res.rid
                for su2, left2, d2 in self.prove(su, ctx | bit, cons, depth + 1, (pos, 0)):
                    if left2 & bit:
                        continue  # linear assumption left unused
                    yield su2, left2, Derivation("LimpR", f"assume {res.tag}#{res.rid}", (d2,))
            case Tensor(left, right):
                for su1, mid, d1 in self.prove(su, ctx, left, depth + 1, (pos, 0)):
                    for su2, out, d2 in self.prove(su1, mid, right, depth + 1, (pos, 1)):
                        yield su2, out, Derivation("TensorR", "", (d1, d2))
            case Means() | PropAtom():
                key = self._table_key(su, ctx, goal)
                entry = self._table.get(key)
                if entry is None or entry[1] is None or depth + entry[1] > self.budget.max_depth:
                    yield from self._focuses(su, ctx, goal, depth, key if entry is None else None)
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

    def _table_key(self, su: Substitution, ctx: int, goal) -> Optional[tuple]:
        """What the proofs of the atomic `goal` from `ctx` depend on; None
        leaves the goal untabled."""
        sem = getattr(goal, "sem", None)  # a rigid structure is the goal object's own
        loose = ctx & self._loose
        if not loose:
            return id(goal), ctx, su.walk_sem(sem) if isinstance(sem, SemVar) else None
        values = [sem] if isinstance(sem, SemVar) else []
        while loose:
            bit = loose & -loose
            loose ^= bit
            values += self._mentions[bit.bit_length() - 1]
        # names and (owner, slot) pairs hash and compare faster than records
        values = [v.name if type(v) is SemVar else (v.owner, v.slot)
                  for v in map(su.walk_sem, values)]
        unbound = sorted({v for v in values if type(v) is str}, key=self.classes.ts)
        return id(goal), ctx, tuple(values), tuple(unbound)

    def _focuses(self, su: Substitution, ctx: int, goal, depth: int, key: Optional[tuple]):
        """Proofs of an atomic goal, a focus on each candidate in turn,
        recorded under `key` unless it is None."""
        if key is not None:
            results: list[list] = []
            entry = self._table[key] = [results, None]
            n = len(su.sems)
            # a high-water mark from here on: it may count steps taken
            # outside this goal while it is suspended, an over-approximation
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
            for su2, left2, d2 in self._focus(su, res, ctx ^ bit, goal, depth):
                if key is not None:
                    # its own bindings are those after the first n
                    results.append([su2.sems, n, left2, d2, None])
                yield su2, left2, d2
        if key is not None:
            entry[1] = self._deepest - depth
            self._deepest = max(outer, self._deepest)

    # -- left (focused) rules -----------------------------------------------

    def _open(self, res: Resource) -> tuple:
        """`res` with its Forall/Limp prefix stripped and a tensor head split
        into parts, as `_opened` keeps it; a later focus re-stamps the same
        fresh variables."""
        opened = self._opened.get(res.rid)
        if opened is not None:
            for name in opened[2]:
                self.classes.restamp(name)
            return opened
        f = res.formula
        pendings: list[GlueFormula] = []
        fresh_names: list[str] = []
        while True:
            if isinstance(f, Forall):
                if f.kind == SEM:
                    v: object = self.classes.fresh_sem_flex(f.var)
                    f = inst_sem_var(f.body, f.var, v)
                else:
                    v = self.classes.fresh_flex(f.var, f.kind)
                    f = inst_term_var(f.body, f.var, v)
                fresh_names.append(v.name)
            elif isinstance(f, Limp):
                pendings.append(f.ant)
                f = f.cons
            else:
                break
        info = f"{res.tag}: {', '.join(fresh_names)}"
        parts = 0
        if isinstance(f, Tensor):
            for k, p in enumerate(_flatten_tensor(f), 1):
                parts |= 1 << self._resource(p, None, f"{res.tag}.{k}").rid
        opened = self._opened[res.rid] = (f, pendings, tuple(fresh_names), info, parts)
        return opened

    def _focus(
        self,
        su: Substitution,
        res: Resource,
        ctx: int,
        goal: GlueFormula,
        depth: int,
    ):
        self._step(depth)
        f, pendings, fresh_names, info, parts = self._open(res)

        def wrap(node: Derivation, pending_ds: list[Derivation]) -> Derivation:
            # innermost implication first: pendings were collected outermost-in
            for ant_d, pending in zip(reversed(pending_ds), reversed(pendings)):
                node = Derivation("LimpL", "", (ant_d, node), ant=pending)
            if fresh_names:
                node = Derivation("PiL", info, (node,), fresh=fresh_names)
            return node

        if isinstance(f, (Means, PropAtom)):
            su2 = self._unify_atoms(su, f, goal)
            if su2 is None:
                return
            leaf = Derivation("Identity", f"{res.tag}#{res.rid}", (), atom=f, rid=res.rid,
                              goal=goal)
            for su3, left3, pending_ds in self._prove_pendings(
                su2, ctx, res.rid, pendings, depth
            ):
                yield su3, left3, wrap(leaf, pending_ds)
        elif isinstance(f, Tensor):
            for su2, left2, d2 in self.prove(su, ctx | parts, goal, depth + 1):
                if left2 & parts:
                    # like a linear assumption, a split-out conjunct must be
                    # consumed within the branch that introduced it; letting
                    # it feed some other formula's antecedent would cross the
                    # context split of this implication
                    continue
                node = Derivation("TensorL", f"{res.tag}#{res.rid}", (d2,), rid=res.rid)
                for su3, left3, pending_ds in self._prove_pendings(
                    su2, left2, res.rid, pendings, depth
                ):
                    yield su3, left3, wrap(node, pending_ds)
        else:
            raise AssertionError(f"bad focused formula {f!r}")

    def _prove_pendings(
        self,
        su: Substitution,
        ctx: int,
        rid: int,
        pendings: list[GlueFormula],
        depth: int,
        idx: int = 0,
    ):
        """Prove the collected antecedents `idx`... of a focus on resource
        `rid` left to right on the remaining resources."""
        if idx == len(pendings):
            yield su, ctx, []
            return
        for su2, left2, d2 in self.prove(su, ctx, pendings[idx], depth + 1, (rid, idx)):
            for su3, left3, ds in self._prove_pendings(su2, left2, rid, pendings, depth, idx + 1):
                yield su3, left3, [d2] + ds

    # -- atoms ---------------------------------------------------------------

    def _unify_atoms(self, su, f, goal) -> Optional[Substitution]:
        if isinstance(f, PropAtom) and isinstance(goal, PropAtom):
            return su if f.name == goal.name else None
        if not (isinstance(f, Means) and isinstance(goal, Means)):
            return None
        if f.ty != goal.ty:
            return None  # the type subscript of the meaning relation must agree
        return solve_sem(su, f.sem, goal.sem, self.classes)


# ---------------------------------------------------------------------------
# Entry points


def check_linearity(d: Derivation, ctx: tuple[Resource, ...]) -> None:
    """Every premise consumed exactly once: identity/tensor leaves never share
    a resource, and all premises appear."""
    seen: list[int] = []

    def walk(n: Derivation):
        if n.rid is not None:
            seen.append(n.rid)
        for c in n.children:
            walk(c)

    walk(d)
    assert len(seen) == len(set(seen)), "a resource was consumed twice"
    premise_rids = {r.rid for r in ctx}
    assert premise_rids <= set(seen), "a premise escaped consumption"


def _solve_meanings(
    prover: Prover, su: Substitution, d: Derivation
) -> Optional[Substitution]:
    """`su` extended to solve the meaning equations of `d`, or None when one
    fails.  The walk is post-order, so a LimpL node's antecedent proof is
    solved before the focused head that its other child ends at."""
    for child in d.children:
        su = _solve_meanings(prover, su, child)
        if su is None:
            return None
    if isinstance(d.goal, Means):
        prover.stats.equations += 1
        su = solve(su, d.atom.term, d.goal.term, prover.classes)
    return su


def _complete_proofs(
    prover: Prover, ctx: tuple[Resource, ...], goal: GlueFormula
) -> Iterator[tuple[Substitution, Derivation]]:
    """The proofs of ctx |- goal that consume every resource and whose
    meaning equations have a solution, with that solution."""
    mask = sum(1 << res.rid for res in ctx)
    try:
        for su, leftover, d in prover.prove(Substitution(), mask, goal, 0):
            if not leftover:
                su = _solve_meanings(prover, su, d)
                if su is not None:
                    yield su, d
    finally:
        prover._table.clear()


def prove_sequent(
    sequent: Sequent, budget: SearchBudget = SearchBudget()
) -> Iterator[tuple[Substitution, Derivation]]:
    """All cut-free proofs of the sequent that consume every context formula."""
    prover = Prover(budget)
    ctx = tuple(
        prover._resource(f, i, f"ctx{i}")
        for i, f in enumerate(sequent.context)
    )
    yield from _complete_proofs(prover, ctx, sequent.goal)


def check_theorem(
    formula: GlueFormula, budget: SearchBudget = SearchBudget()
) -> tuple[bool, Optional[Derivation]]:
    """Is `formula` derivable from the empty context?"""
    for _, d in prove_sequent(Sequent((), formula), budget):
        return True, d
    return False, None


def extract_meaning(su: Substitution, goal_var: MetaVar) -> MeaningTerm:
    term = su.nf(goal_var)
    residue = free_vars(term)
    if residue:
        raise UnsolvedVariable(
            f"reading is not closed: {sorted(residue)} in {print_term(term)}"
        )
    return term


def enumerate_readings(
    prems: list[Premise],
    goal_sem: SemTerm,
    budget: SearchBudget = SearchBudget(),
    goal_type: MeaningType = T,
) -> EnumerationResult:
    """Enumerate every derivable reading of `goal_sem`, deduplicated up to
    renaming of bound variables and sorted by their printed form."""
    prover = Prover(budget)
    ctx = tuple(
        prover._resource(p.formula, i, f"{p.word}[{p.label}]")
        for i, p in enumerate(prems)
    )
    goal_var = prover.classes.fresh_flex("M", goal_type)
    goal = Means(goal_sem, goal_var, goal_type)
    found: dict[str, Reading] = {}
    stats = prover.stats
    try:
        for su, d in _complete_proofs(prover, ctx, goal):
            stats.proofs += 1
            check_linearity(d, ctx)
            term = extract_meaning(su, goal_var)
            text = print_term(term)
            if text not in found:
                found[text] = Reading(term, text, d, goal_sem, su)
    except BudgetExhausted as e:
        stats.limit = e.limit
    readings = [found[k] for k in sorted(found)]
    return EnumerationResult(readings, stats, budget)


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


def render_trace(d: Derivation, su: Optional[Substitution] = None) -> str:
    """Human-readable proof tree, one rule per line; given the proof's
    substitution, fresh variables are annotated with their solutions and
    consumed atoms are shown instantiated."""
    lines: list[str] = []

    def solution(name: str) -> Optional[str]:
        if su is None:
            return None
        if name in su.terms:
            return print_term(su.nf(MetaVar(name, T)))
        if name in su.sems:
            return repr(su.walk_sem(SemVar(name)))
        return None

    def fmt(n: Derivation) -> str:
        info = n.info if n.ant is None else print_formula(n.ant)
        text = f"{n.rule}: {info}".rstrip(": ")
        if n.rule == "PiL" and su is not None:
            pairs = []
            for name in n.fresh:
                sol = solution(name)
                pairs.append(f"{name} := {sol}" if sol else name)
            text = f"{n.rule}: {n.info.split(':')[0]}: " + ", ".join(pairs)
        if n.atom is not None and su is not None:
            text += f"   |- {print_formula(subst_formula(n.atom, su))}"
        return text

    def walk(n: Derivation, indent: int):
        lines.append("  " * indent + fmt(n))
        for c in n.children:
            walk(c, indent + 1)

    walk(d, 0)
    return "\n".join(lines)
