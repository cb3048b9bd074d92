"""Join-aware compilation of nested tgds.

The naive engine (:mod:`repro.executor.engine`) evaluates each mapping
level by enumerating the full Cartesian product of its source
generators and filtering the result against the ``where`` conditions —
faithful to the paper's semantics, and quadratic (or worse) on the
join- and grouping-heavy mappings of Figures 6–8.  This module is the
optimizer pass that turns the same tgd into a *plan*:

* **condition classification** — each ``where`` condition is placed at
  the earliest generator after which all its variables are bound, and
  classified as an equality **hash join** (``p.@pid = r.@pid``), a
  **membership join** (``p2 ∈ d2.Proj``, keyed on node identity), a
  **pushed filter** (``r.sal.value > 11000``, applied during
  enumeration instead of after the product), or a residual filter;
* **selectivity reordering** — generators with pushed filters are
  moved ahead of unfiltered independent peers (dependencies
  respected); byte-identical output order is restored by tagging each
  binding with its document-order ordinal and sorting the surviving
  environments by the ordinals in original generator order;
* **loop-invariant caching** — a generator's item sequence depends
  only on the binding of the variable at the root of its expression,
  so sequences (and the hash tables built over them) are memoized per
  dependency binding: an inner generator that does not depend on the
  outer loop is evaluated once, not once per outer iteration.

This module only *decides*; :mod:`repro.executor.codegen` executes:
it emits one specialized Python program per plan, and that generated
code is the one optimized backend.  The plan changes *evaluation cost
only*: the environments a level produces — their contents and their
order — are exactly the naive engine's, which the differential suite
checks byte-for-byte against the naive engine and the XQuery
interpreter.  Correctness reference is Koch's complex-value query
semantics; the optimization playbook is the standard one from the
data-exchange line (Fagin et al.).

Per-level :class:`PlanCounters` (bindings enumerated, filter drops,
hash build/probe sizes) feed :mod:`repro.executor.stats` and the
``clip-plan-explain`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional, Union

from ..core.tgd import (
    AggregateApp,
    Constant,
    FunctionApp,
    Membership,
    NestedTgd,
    SchemaRoot,
    SourceCondition,
    TargetGenerator,
    TgdComparison,
    TgdExpr,
    TgdMapping,
    Var,
    expr_labels,
    expr_root,
)
from ..errors import ExecutionError

#: Environment toggle: ``CLIP_OPTIMIZE=0`` (or ``false``/``no``/``off``)
#: makes the naive evaluation path the default — the CI leg that keeps
#: the naive engine honest runs the differential suite under it.
#: Resolved through :func:`repro.settings.resolve_setting`.
OPTIMIZE_ENV = "CLIP_OPTIMIZE"


# -- condition analysis ------------------------------------------------------


def _operand_var(operand: Union[TgdExpr, Constant]) -> Optional[str]:
    """The variable at the root of an operand's projection chain, or
    ``None`` for constants and schema-root-based expressions."""
    if isinstance(operand, Constant):
        return None
    root = expr_root(operand)
    return root.name if isinstance(root, Var) else None


def condition_vars(condition: SourceCondition) -> set[str]:
    """The variables a source condition references."""
    if isinstance(condition, Membership):
        operands = (condition.member, condition.collection)
    elif isinstance(condition, TgdComparison):
        operands = (condition.left, condition.right)
    else:
        raise ExecutionError(f"unsupported condition {condition!r}")
    return {v for v in (_operand_var(op) for op in operands) if v is not None}


@dataclass(frozen=True)
class EqualityJoin:
    """An equality condition executed as a build/probe hash join at the
    generator binding ``build_var``: the generator's (filtered) item
    sequence is hashed on ``build_key`` once per dependency context,
    and each outer environment probes it with ``probe_key``."""

    condition: TgdComparison
    build_var: str
    build_key: TgdExpr
    probe_key: Union[TgdExpr, Constant]

    def describe(self) -> dict:
        return {
            "kind": "equality",
            "condition": str(self.condition),
            "build": f"{self.build_key}",
            "probe": f"{self.probe_key}",
        }


@dataclass(frozen=True)
class MembershipJoin:
    """A membership condition (``member ∈ collection``) whose collection
    is rooted at the generator being bound: the union of the candidates'
    collections is hashed on node identity, and each outer environment
    probes it with its member elements."""

    condition: Membership
    build_var: str
    collection: TgdExpr
    member: TgdExpr

    def describe(self) -> dict:
        return {
            "kind": "membership",
            "condition": str(self.condition),
            "build": f"{self.collection}",
            "probe": f"{self.member}",
        }


@dataclass(frozen=True)
class GeneratorPlan:
    """One generator's slot in the planned evaluation order."""

    position: int  # index into mapping.source_gens
    #: Conditions over this generator's variable alone — applied while
    #: building the (memoized) item sequence.
    seq_filters: tuple[SourceCondition, ...] = ()
    #: Conditions needing this generator plus earlier/outer bindings
    #: that are not join-shaped — applied per candidate environment.
    env_filters: tuple[SourceCondition, ...] = ()
    eq_joins: tuple[EqualityJoin, ...] = ()
    mem_joins: tuple[MembershipJoin, ...] = ()


@dataclass(frozen=True)
class LevelPlan:
    """The compiled evaluation strategy for one mapping level."""

    mapping: TgdMapping
    label: str
    depth: int
    slots: tuple[GeneratorPlan, ...]  # in planned evaluation order
    #: Conditions over outer variables only — checked once per level entry.
    pre_conditions: tuple[SourceCondition, ...] = ()
    #: Safety net: conditions the classifier could not place (none for
    #: well-formed tgds) — applied after enumeration, like the naive path.
    residual: tuple[SourceCondition, ...] = ()
    reordered: bool = False
    #: The level's **source read-set**: every absolute label chain
    #: (relative to the source root, ``@name``/``value`` terminals
    #: included) that the level's generators, conditions, grouping
    #: attributes, or assignment values can read.  Computed by
    #: :func:`plan_tgd`, which threads variable bindings down the
    #: mapping tree; ``()`` for a bare :func:`plan_level` call.
    read_paths: tuple[tuple[str, ...], ...] = ()
    #: ``False`` when any read could not be resolved to an absolute
    #: chain — consumers must then treat the level as reading the
    #: whole document.
    reads_resolved: bool = True
    #: Per source generator (by position): the absolute label chain its
    #: items come from when it iterates elements reached from the
    #: schema root or from an element binding — not from a group's
    #: members — else ``None``.  The generated code memoizes such
    #: sequences, and the join tables over them, in the engine's
    #: :class:`PlanMemo` under this chain.  ``()`` for a bare
    #: :func:`plan_level` call.
    gen_chains: tuple[Optional[tuple[str, ...]], ...] = ()
    #: The same reads split by where they are anchored, for the
    #: incremental session's dirty-unit test.  ``unit_reads`` are
    #: ``(root_var, chain)`` pairs, the chain relative to a binding of
    #: that root-level generator variable: nested generator
    #: populations, value reads, and reads of variables a membership
    #: pins inside the binding (Figure 7's ``p2 ∈ p``).  ``doc_reads``
    #: are absolute chains read document-wide, outside every unit (the
    #: Figure 7 employee re-scan).  Neither holds the root generators'
    #: own populations — they define the units — nor a collection read
    #: whose member is unit-scoped (a containment test of that member).
    unit_reads: tuple[tuple[str, tuple[str, ...]], ...] = ()
    doc_reads: tuple[tuple[str, ...], ...] = ()
    #: How the edited bindings behind ``doc_reads`` select units: the
    #: level's document-scoped generators (:class:`DocGen`), each with
    #: the planned joins that tie its bindings to a unit-anchored
    #: variable.  ``None`` when some document read does not hang below
    #: a binding of the level's own generators, or a generator has no
    #: join on itself or on a generator it ranges below: an edit there
    #: may reach any unit.
    doc_gens: Optional[tuple["DocGen", ...]] = ()

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(slot.position for slot in self.slots)

    def describe(self) -> dict:
        """Static plan description (no runtime counters)."""
        gens = self.mapping.source_gens
        return {
            "label": self.label,
            "depth": self.depth,
            "grouped": self.mapping.skolem is not None,
            "order": [gens[slot.position].var for slot in self.slots],
            "reordered": self.reordered,
            "pre_filters": [str(c) for c in self.pre_conditions],
            "generators": [
                {
                    "var": gens[slot.position].var,
                    "expr": str(gens[slot.position].expr),
                    "pushed_filters": [str(c) for c in slot.seq_filters],
                    "env_filters": [str(c) for c in slot.env_filters],
                    "joins": [j.describe() for j in slot.eq_joins]
                    + [j.describe() for j in slot.mem_joins],
                }
                for slot in self.slots
            ],
            "residual": [str(c) for c in self.residual],
            # Additive clip-plan-explain key (version unchanged):
            # renderers that predate it ignore unknown keys.
            "reads": {
                "resolved": self.reads_resolved,
                "paths": ["/".join(chain) for chain in self.read_paths],
            },
        }


def _level_label(mapping: TgdMapping) -> str:
    if mapping.source_gens:
        gens = ", ".join(f"{g.var} ∈ {g.expr}" for g in mapping.source_gens)
    else:
        gens = "⊤"
    return f"∀ {gens}"


def split_targets(
    generators: tuple[TargetGenerator, ...]
) -> tuple[tuple[TargetGenerator, ...], tuple[TargetGenerator, ...]]:
    """Split a level's target generators at the first quantified one:
    the unquantified prefix consists of constant tags that "wrap the
    FLWOR" — they exist once per enclosing context even when the
    iteration is empty (Section VI) — and the suffix is what each
    iteration, one unit, builds."""
    for index, gen in enumerate(generators):
        if gen.quantified:
            return generators[:index], generators[index:]
    return generators, ()


def plan_level(mapping: TgdMapping, depth: int) -> LevelPlan:
    """Compile one mapping level: classify conditions, choose the
    evaluation order, attach joins and filters to generator slots."""
    gens = mapping.source_gens
    local_vars = {g.var: i for i, g in enumerate(gens)}

    # Dependencies: generator i needs generator j bound first when its
    # expression is rooted at j's variable.
    needs: dict[int, Optional[int]] = {}
    for i, gen in enumerate(gens):
        root = expr_root(gen.expr)
        needs[i] = (
            local_vars[root.name]
            if isinstance(root, Var) and root.name in local_vars
            and local_vars[root.name] != i
            else None
        )

    pre: list[SourceCondition] = []
    placeable: list[tuple[SourceCondition, set[str]]] = []
    for condition in mapping.where:
        names = condition_vars(condition) & set(local_vars)
        if not names:
            pre.append(condition)
        else:
            placeable.append((condition, names))

    # Single-variable filters drive the selectivity heuristic: a
    # generator whose candidates are pruned by its own filter goes
    # before unfiltered independent peers.
    own_filtered = {
        next(iter(names))
        for condition, names in placeable
        if len(names) == 1 and condition_vars(condition) == names
    }

    order: list[int] = []
    remaining = list(range(len(gens)))
    while remaining:
        ready = [
            i for i in remaining if needs[i] is None or needs[i] in order
        ]
        ready.sort(key=lambda i: (0 if gens[i].var in own_filtered else 1, i))
        pick = ready[0]
        order.append(pick)
        remaining.remove(pick)
    reordered = order != sorted(order)

    bound_at: dict[str, int] = {}  # var → position in planned order
    for slot_index, position in enumerate(order):
        bound_at[gens[position].var] = slot_index

    seq_filters: dict[int, list[SourceCondition]] = {i: [] for i in order}
    env_filters: dict[int, list[SourceCondition]] = {i: [] for i in order}
    eq_joins: dict[int, list[EqualityJoin]] = {i: [] for i in order}
    mem_joins: dict[int, list[MembershipJoin]] = {i: [] for i in order}
    residual: list[SourceCondition] = []

    for condition, names in placeable:
        anchor_slot = max(bound_at[name] for name in names)
        position = order[anchor_slot]
        anchor_var = gens[position].var
        all_vars = condition_vars(condition)
        if all_vars == {anchor_var}:
            seq_filters[position].append(condition)
            continue
        earlier = all_vars - {anchor_var}
        if isinstance(condition, TgdComparison) and condition.op == "=":
            left_var = _operand_var(condition.left)
            right_var = _operand_var(condition.right)
            if left_var == anchor_var and right_var != anchor_var:
                eq_joins[position].append(
                    EqualityJoin(condition, anchor_var,
                                 condition.left, condition.right)
                )
                continue
            if right_var == anchor_var and left_var != anchor_var:
                eq_joins[position].append(
                    EqualityJoin(condition, anchor_var,
                                 condition.right, condition.left)
                )
                continue
        if isinstance(condition, Membership):
            collection_var = _operand_var(condition.collection)
            member_var = _operand_var(condition.member)
            if collection_var == anchor_var and member_var != anchor_var:
                mem_joins[position].append(
                    MembershipJoin(condition, anchor_var,
                                   condition.collection, condition.member)
                )
                continue
        if earlier or anchor_var in all_vars:
            env_filters[position].append(condition)
        else:  # pragma: no cover - classifier safety net
            residual.append(condition)

    slots = tuple(
        GeneratorPlan(
            position=position,
            seq_filters=tuple(seq_filters[position]),
            env_filters=tuple(env_filters[position]),
            eq_joins=tuple(eq_joins[position]),
            mem_joins=tuple(mem_joins[position]),
        )
        for position in order
    )
    return LevelPlan(
        mapping=mapping,
        label=_level_label(mapping),
        depth=depth,
        slots=slots,
        pre_conditions=tuple(pre),
        residual=tuple(residual),
        reordered=reordered,
    )


# -- source read-sets --------------------------------------------------------

_Chain = tuple[str, ...]
#: Where a unit-scoped variable's bindings live: the root-level
#: generator variable whose binding holds them, and the label chain
#: from that binding down to them.
_Anchor = tuple[str, _Chain]


class _Bound(NamedTuple):
    """One bound variable: the absolute label chains its bindings come
    from (``None`` when unresolved), and its anchor inside a unit
    (``None`` for a document-scoped variable)."""

    chains: Optional[frozenset[_Chain]]
    anchor: Optional[_Anchor]


def value_read_chains(chain: tuple[str, ...]) -> set[tuple[str, ...]]:
    """The chain plus its implicit ``value`` terminal (atoms of an
    element read come from its text node)."""
    if chain and (chain[-1] == "value" or chain[-1].startswith("@")):
        return {chain}
    return {chain, chain + ("value",)}


def _term_exprs(term) -> list[TgdExpr]:
    """The source expressions a term reads (constants read nothing)."""
    if isinstance(term, FunctionApp):
        return [expr for arg in term.args for expr in _term_exprs(arg)]
    if isinstance(term, AggregateApp):
        return [term.arg]
    if isinstance(term, Constant):
        return []
    return [term]


def level_reads(mapping: TgdMapping):
    """One level's non-generator source reads, in one enumeration:
    ``(expr, atomic, member)`` for every condition operand, grouping
    attribute and assignment value expression.  ``atomic`` marks reads
    consumed as atoms, which also read the text below an element chain
    (:func:`value_read_chains`); membership operands are identity /
    node-set reads, and ``member`` is set on a membership condition's
    collection (the read is then a per-member containment test)."""
    for condition in mapping.where:
        if isinstance(condition, Membership):
            yield condition.member, False, None
            yield condition.collection, False, condition.member
        elif isinstance(condition, TgdComparison):
            for operand in (condition.left, condition.right):
                if not isinstance(operand, Constant):
                    yield operand, True, None
    if mapping.skolem is not None:
        for attr in mapping.skolem[1].attrs:
            yield attr, True, None
    for assignment in mapping.assignments:
        for expr in _term_exprs(assignment.value):
            yield expr, True, None


def _anchor(expr: TgdExpr, scope: dict[str, _Bound]) -> Optional[_Anchor]:
    """Where the nodes an expression reaches live inside a unit, or
    ``None`` when it is rooted at the schema root or at a
    document-scoped variable."""
    root = expr_root(expr)
    bound = scope.get(root.name) if isinstance(root, Var) else None
    if bound is None or bound.anchor is None:
        return None
    root_var, chain = bound.anchor
    return root_var, chain + tuple(expr_labels(expr))


def _pinned_anchor(
    mapping: TgdMapping, var: str, scope: dict[str, _Bound]
) -> Optional[_Anchor]:
    """The anchor a membership condition pins a document-ranging
    generator to: ``var ∈ e`` with ``e`` unit-scoped keeps only
    bindings that are, by identity, nodes of ``e``."""
    for condition in mapping.where:
        if isinstance(condition, Membership):
            member = expr_root(condition.member)
            if isinstance(member, Var) and member.name == var:
                anchor = _anchor(condition.collection, scope)
                if anchor is not None:
                    return anchor
    return None


def _collect_level_reads(
    mapping: TgdMapping, scope: dict[str, _Bound], is_root: bool
) -> tuple[set[_Chain], bool, set[tuple[str, _Chain]], set[_Chain]]:
    """One level's source reads, resolved along variable binding paths.

    ``scope`` maps outer variables to what is known of their bindings;
    this level's generator variables are added to it (so the caller
    can thread it into submappings).  A root level's generators anchor
    the units; a nested generator is unit-scoped when it ranges below
    a unit-scoped variable or a membership pins it to one, and
    document-scoped otherwise.  Returns ``(reads, resolved,
    unit_reads, doc_reads)`` with the meanings of the
    :class:`LevelPlan` fields; ``resolved`` is ``False`` when some read
    could not be resolved to an absolute chain.
    """
    reads: set[_Chain] = set()
    unit: set[tuple[str, _Chain]] = set()
    doc: set[_Chain] = set()
    resolved = True

    def chains_of(expr: TgdExpr) -> Optional[frozenset[_Chain]]:
        nonlocal resolved
        root = expr_root(expr)
        labels = tuple(expr_labels(expr))
        if isinstance(root, SchemaRoot):
            return frozenset({labels})
        bound = scope.get(root.name)
        if bound is None or bound.chains is None:
            resolved = False
            return None
        return frozenset(base + labels for base in bound.chains)

    def widen(chain: _Chain, atomic: bool) -> set[_Chain]:
        # Atomic consumption reads the *text* of element operands, so
        # a chain ending at an element also reads one step deeper than
        # the chain spells out.
        return value_read_chains(chain) if atomic else {chain}

    for gen in mapping.source_gens:
        chains = chains_of(gen.expr)
        reads.update(chains or ())
        anchor = _anchor(gen.expr, scope)
        if is_root:
            # The unit's own binding: its enumeration is tracked by
            # binding identity and structural signature, not by reads.
            anchor = (gen.var, ())
        elif anchor is not None:
            unit.add(anchor)  # the population it enumerates
        else:
            anchor = _pinned_anchor(mapping, gen.var, scope)
            if anchor is None:
                doc.update(chains or ())
        scope[gen.var] = _Bound(chains, anchor)
    for expr, atomic, member in level_reads(mapping):
        found = {
            read for chain in chains_of(expr) or () for read in widen(chain, atomic)
        }
        reads.update(found)
        anchor = _anchor(expr, scope)
        if anchor is not None:
            unit.update((anchor[0], read) for read in widen(anchor[1], atomic))
        elif member is None or _anchor(member, scope) is None:
            # (A collection whose member is unit-scoped is a
            # containment test of that member: edits to the other
            # collection elements cannot flip it.)
            doc.update(found)
    return reads, resolved, unit, doc


class DocLink(NamedTuple):
    """A planned equality or membership join between a document-scoped
    generator's binding and a unit-anchored variable: ``labels`` lead
    from the binding to its operand (the hash key, or the membership
    collection), and ``anchor`` says where the other operand's nodes
    live inside a unit."""

    labels: _Chain
    anchor: _Anchor
    membership: bool


class DocGen(NamedTuple):
    """A document-scoped generator of a nested level (Figure 7's ``d2``
    and ``r``): the absolute chain of its bindings, the level's
    document-scoped generator its expression ranges below (``None``
    when rooted elsewhere), the value reads the level makes relative to
    a binding (populations of generators below it excluded: their
    bindings stand for themselves), and its joins to a unit."""

    var: str
    chain: _Chain
    parent: Optional[str]
    reads: frozenset[_Chain]
    links: tuple[DocLink, ...]


def _doc_gens(
    plan: LevelPlan, scope: dict[str, _Bound]
) -> Optional[tuple[DocGen, ...]]:
    """The :attr:`LevelPlan.doc_gens` of a level, once
    :func:`_collect_level_reads` has bound its variables in ``scope``."""
    chains: dict[str, _Chain] = {}
    for gen in plan.mapping.source_gens:
        bound = scope[gen.var]
        if bound.anchor is None:
            if bound.chains is None or len(bound.chains) != 1:
                return None
            chains[gen.var] = next(iter(bound.chains))
    reads: dict[str, set[_Chain]] = {var: set() for var in chains}
    # The document reads of _collect_level_reads, each of which must
    # hang below a binding of one of the level's own generators.
    for expr, atomic, member in level_reads(plan.mapping):
        if _anchor(expr, scope) is not None or (
            member is not None and _anchor(member, scope) is not None
        ):
            continue
        root = expr_root(expr)
        if not (isinstance(root, Var) and root.name in chains):
            return None
        labels = tuple(expr_labels(expr))
        reads[root.name].update(value_read_chains(labels) if atomic else {labels})
    links: dict[str, list[DocLink]] = {var: [] for var in chains}
    joins = [(j.build_key, j.probe_key, False) for slot in plan.slots for j in slot.eq_joins]
    joins += [(j.collection, j.member, True) for slot in plan.slots for j in slot.mem_joins]
    # Either operand of an equality may be the document side; a
    # membership's collection is (a unit-scoped collection pins the
    # member, which is then no document-scoped generator).
    sides = [(e, o, m) for key, probe, m in joins
             for e, o in ((key, probe), (probe, key))[: 1 if m else 2]]
    for own, other, membership in sides:
        if isinstance(own, Constant) or isinstance(other, Constant):
            continue
        root, anchor = expr_root(own), _anchor(other, scope)
        if isinstance(root, Var) and root.name in chains and anchor is not None:
            links[root.name].append(
                DocLink(tuple(expr_labels(own)), anchor, membership))
    gens = []
    for gen in plan.mapping.source_gens:
        if gen.var in chains:
            root = expr_root(gen.expr)
            parent = root.name if isinstance(root, Var) and root.name in chains else None
            gens.append(DocGen(gen.var, chains[gen.var], parent,
                               frozenset(reads[gen.var]), tuple(links[gen.var])))
    by_var = {gen.var: gen for gen in gens}

    def linked(gen: DocGen) -> bool:
        parent = by_var.get(gen.parent) if gen.parent else None
        return bool(gen.links) or (parent is not None and linked(parent))

    return tuple(gens) if all(linked(gen) for gen in gens) else None


@dataclass(frozen=True)
class PlannedTgd:
    """Every level of a nested tgd, compiled."""

    tgd: NestedTgd
    levels: tuple[LevelPlan, ...]

    def level_for(self, mapping: TgdMapping) -> "LevelPlan":
        return self._by_id[id(mapping)]

    def __post_init__(self):
        object.__setattr__(
            self, "_by_id", {id(plan.mapping): plan for plan in self.levels}
        )

    def describe(self) -> dict:
        return {"levels": [plan.describe() for plan in self.levels]}


def plan_tgd(tgd: NestedTgd) -> PlannedTgd:
    """Compile every level of a nested tgd into a :class:`PlannedTgd`.

    The one read-set analysis: a single walk threads each variable's
    source chains and unit anchor down the mapping tree (as Koch's
    complex-value semantics resolves reads along binding paths), so
    an inner level's reads resolve through its outer generators, and
    annotates every level with its read-set, its anchored reads and
    its generator chains."""
    levels: list[LevelPlan] = []

    def gen_chain(gen, scope: dict[str, _Bound], grouped: frozenset):
        root = expr_root(gen.expr)
        if isinstance(root, Var) and root.name in grouped:
            return None  # iterates a group's members
        chains = scope[gen.var].chains
        return next(iter(chains)) if chains and len(chains) == 1 else None

    def walk(mapping: TgdMapping, depth: int, outer: dict[str, _Bound],
             grouped: frozenset) -> None:
        scope = dict(outer)
        reads, resolved, unit, doc = _collect_level_reads(
            mapping, scope, depth == 0
        )
        own = frozenset(gen.var for gen in mapping.source_gens)
        grouped -= own
        plan = plan_level(mapping, depth)
        levels.append(replace(
            plan,
            read_paths=tuple(sorted(reads)),
            reads_resolved=resolved,
            gen_chains=tuple(
                gen_chain(gen, scope, grouped) for gen in mapping.source_gens
            ),
            unit_reads=tuple(sorted(unit)),
            doc_reads=tuple(sorted(doc)),
            doc_gens=_doc_gens(plan, scope),
        ))
        # A grouped level rebinds its own variables to GroupBindings
        # for everything nested below it.
        if mapping.skolem is not None:
            grouped |= own
        for sub in mapping.submappings:
            walk(sub, depth + 1, scope, grouped)

    for root in tgd.roots:
        walk(root, 0, {}, frozenset())
    return PlannedTgd(tgd, tuple(levels))


# -- runtime counters --------------------------------------------------------


@dataclass
class PlanCounters:
    """Runtime counters for one level of an optimized evaluation."""

    invocations: int = 0
    #: Candidate bindings materialized (the naive engine's "iterations").
    bindings_enumerated: int = 0
    #: Environments surviving every condition.
    envs_produced: int = 0
    #: Candidates dropped by pushed/env/pre/residual filters.
    filter_drops: int = 0
    join_builds: int = 0
    join_build_rows: int = 0
    join_build_keys: int = 0
    join_probes: int = 0
    join_probe_matches: int = 0
    groups: int = 0
    seq_cache_hits: int = 0
    seq_cache_misses: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: "PlanCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def diff(self, earlier: "PlanCounters") -> "PlanCounters":
        out = PlanCounters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) - getattr(earlier, f.name))
        return out

    def snapshot(self) -> "PlanCounters":
        out = PlanCounters()
        out.add(self)
        return out


@dataclass
class PlanStats:
    """Per-level counters for a whole planned tgd, aggregated across
    however many documents the plan has evaluated."""

    planned: PlannedTgd
    counters: list[PlanCounters] = field(default_factory=list)

    def __post_init__(self):
        if not self.counters:
            self.counters = [PlanCounters() for _ in self.planned.levels]

    def counter_for(self, mapping: TgdMapping) -> PlanCounters:
        for plan, counter in zip(self.planned.levels, self.counters):
            if plan.mapping is mapping:
                return counter
        raise KeyError("mapping is not a level of this plan")

    def snapshot(self) -> list[PlanCounters]:
        return [counter.snapshot() for counter in self.counters]

    def diff(self, earlier: list[PlanCounters]) -> list[PlanCounters]:
        return [
            counter.diff(before)
            for counter, before in zip(self.counters, earlier)
        ]


# -- cross-engine memo ------------------------------------------------------


class PlanMemo:
    """Memo entries of generated plan code that can outlive one engine.

    Every optimized engine owns a memo: a private one by default, or
    one its caller shares across engines over one (logically
    maintained) document.  The generated code (:mod:`repro.executor
    .codegen`) routes three kinds of entries through it — filter-free
    generator sequences over the source document's own elements, the
    join tables keyed from their build variable over those sequences,
    and atoms read from the schema root — each stored with the absolute
    label chains it was computed from.  Keys are emission-order tags,
    plus ``id()`` of the element binding the entry hangs off; that
    binding is pinned with the entry so its id cannot be recycled while
    the entry lives.

    The incremental session
    (:class:`repro.runtime.incremental.IncrementalSession`) shares one
    memo across deltas: it maintains one source tree, and because
    in-place delta application preserves node identities, an entry
    stays valid until an edit lands on one of the label chains it was
    computed from.  :meth:`invalidate` takes the touched chains split
    by kind (see :meth:`repro.xml.diff.Delta.tag_paths_by_kind`):
    structural chains drop entries related by prefix in either
    direction — the conservative test that covers node-set reads (edits
    at or above the chain change the population) and value reads (edits
    below change the values) — while value chains, which name the exact
    leaf position a mutation rewrote, drop only entries that read that
    very chain, so a text edit leaves the node-set caches above it
    intact.
    """

    __slots__ = ("values", "_meta", "_chains")

    def __init__(self) -> None:
        #: key → value; generated code reads this dict directly.
        self.values: dict = {}
        # key → (chains, pinned binding or None).
        self._meta: dict = {}
        # Every chain an entry was ever stored under: a value edit on
        # none of them drops nothing, without a scan.
        self._chains: set = set()

    def __len__(self) -> int:
        return len(self.values)

    def get(self, key):
        return self.values.get(key)

    def put(self, key, value, chains, pin=None) -> None:
        self.values[key] = value
        self._meta[key] = (frozenset(chains), pin)
        self._chains.update(chains)

    def invalidate(self, value_chains, structural_chains) -> int:
        """Drop every entry the touched label chains could have
        changed; returns how many entries were dropped.

        ``value_chains`` are leaf positions rewritten by mutations
        (``…/@attr`` or ``…/value``): entries stored their value-read
        chains in that same normal form, so exact membership is the
        complete test.  ``structural_chains`` mark subtree
        replacements: prefix intersection in either direction.
        """
        if not self._meta or not structural_chains and self._chains.isdisjoint(
            value_chains
        ):
            return 0
        dead = [
            key
            for key, (chains, _) in self._meta.items()
            if not chains.isdisjoint(value_chains)
            or structural_chains and any(
                t[: len(c)] == c or c[: len(t)] == t
                for t in structural_chains
                for c in chains
            )
        ]
        for key in dead:
            del self.values[key]
            del self._meta[key]
        return len(dead)

    def clear(self) -> None:
        self.values.clear()
        self._meta.clear()
        self._chains.clear()
