"""Delta-scoped incremental re-execution of compiled tgd plans.

Mapping services re-transform documents a user just edited; re-running
the full plan discards everything the previous run already computed.
:class:`IncrementalSession` maintains one source document and its
target across a chain of edits and re-executes only what each delta
can reach; :func:`transform_delta` is its one-shot form, seeding a
session with copies of a previous source/target pair and applying one
machine :class:`~repro.xml.diff.Delta`.  There is one scoped
implementation and one decision ladder behind both.

Three outcomes, reported in the returned :class:`IncrementalReport`:

``unchanged``
    No compiled level's source read-set intersects the delta — the
    previous target is correct as-is.

``scoped``
    The root mapping's iteration is partitioned into *units* — one per
    top-level environment, or one per grouping key when the root level
    carries a grouping Skolem; a unit is what the plan's ``unit`` entry
    (:class:`~repro.executor.codegen.CodegenProgram`, or the naive
    engine's :class:`~repro.executor.engine.ReferenceProgram`) builds,
    one FLWOR ``return`` clause.  Clean units keep their target
    fragment where it stands; dirty units re-execute through that same
    entry — the one a full run calls — over the edited document, and
    only their fragments are replaced, at the positions a full run
    gives them — byte-identical to a full run.

``fallback``
    Full recomputation — when the delta ratio exceeds the threshold,
    the mapping uses a construct the scoped path does not model
    (multiple roots, ``distribute`` generators, writes escaping the
    unit's fragment), or the delta touches a *document-scoped* read of
    a nested level that no planned join ties to the unit.  The Figure 7
    employee re-scan is tied (``p2 ∈ d2.Proj``, ``p2.@pid = r.@pid``):
    an edit there dirties only the units those joins pair with the
    edited bindings (:mod:`repro.runtime.joinscope`).

The reads come from the planner's one read-set analysis
(:func:`~repro.executor.planner.plan_tgd`), for naive and optimized
plans alike: each is anchored below a root generator's binding (the
unit's own subtrees, membership-pinned variables like ``$p2``
included) or document-wide.  This module checks only the target side.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..errors import DocumentTimeout, ExecutionError, ReproError, XmlError
from ..core.tgd import SchemaRoot, TargetGenerator, TgdMapping, Var, expr_labels, expr_root
from ..executor.engine import ReferenceProgram, TgdPlan
from ..executor.planner import (
    PlanMemo,
    PlannedTgd,
    level_reads,
    plan_tgd,
    split_targets,
    value_read_chains,
)
from ..xml.diff import Delta, apply_delta, apply_delta_in_place, compute_delta, resolve_steps
from ..xml.index import index_for
from ..xml.model import XmlElement
from .joinscope import JoinScope, touches
from .retry import check_deadline

#: Above this changed-nodes / source-size ratio the scoped path cannot
#: win and :func:`transform_delta` recomputes from scratch.
DEFAULT_THRESHOLD = 0.25

_Chain = tuple[str, ...]


@dataclass
class IncrementalReport:
    """How one :func:`transform_delta` or session call produced its
    target."""

    mode: str  # "unchanged" | "scoped" | "fallback"
    reason: str = ""
    delta_records: int = 0
    changed_nodes: int = 0
    delta_ratio: float = 0.0
    threshold: float = DEFAULT_THRESHOLD
    #: Indices of compiled levels whose read-set the delta intersects.
    dirty_levels: tuple[int, ...] = ()
    grouped: bool = False
    #: Units of the scoped partition (root environments or groups).
    total_units: int = 0
    reused_units: int = 0
    recomputed_units: int = 0

    @property
    def incremental(self) -> bool:
        """Whether the previous target contributed to the result."""
        return self.mode in ("unchanged", "scoped")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["delta_ratio"] = round(self.delta_ratio, 6)
        doc["dirty_levels"] = list(self.dirty_levels)
        return doc


# -- delta ↔ read-set intersection ------------------------------------------


def _delta_touches(delta: Delta, reads, resolved: bool) -> bool:
    """Whether any delta record can influence one of the read chains."""
    return not resolved or any(
        touches(record.chain, record.is_mutation, reads) for record in delta.records
    )


# -- supported-shape analysis -----------------------------------------------


@dataclass
class _Shape:
    """The root-level structure the scoped path relies on."""

    root: TgdMapping
    #: Unquantified wrapper chain above the per-unit fragments (the CPT
    #: "constant tags" of Figure 3); empty when fragments hang directly
    #: off the target root.
    prefix: tuple[TargetGenerator, ...]
    suffix: tuple[TargetGenerator, ...]
    grouped: bool
    #: Per level re-scanning the document outside its unit: its
    #: ``doc_reads``, and the ``doc_gens`` a delta touching them selects
    #: units by (``None``: the delta falls back).
    doc_levels: tuple[tuple[frozenset[_Chain], Optional[tuple]], ...]
    global_resolved: bool
    #: Per root-generator variable: the label chains the unit reads
    #: *relative to that variable's binding*, so the dirty test asks
    #: "can this record reach a read of this unit?".
    var_reads: dict[str, frozenset[_Chain]]
    #: Absolute chains the root level's enumeration reads (generator
    #: populations, ``where`` operands), ``None`` when one does not
    #: resolve: a delta touching none of them leaves the environments.
    enum_reads: Optional[frozenset[_Chain]]


def _enumeration_reads(planned: PlannedTgd, root: TgdMapping):
    """The root level's enumeration reads (see :attr:`_Shape.enum_reads`),
    resolved through its generators' chains."""
    chains = planned.level_for(root).gen_chains
    if None in chains:
        return None
    bases = {gen.var: chain for gen, chain in zip(root.source_gens, chains)}
    reads = set(chains)
    # The level's condition operands alone: no grouping attributes and
    # no assignment values, which shape fragments, not environments.
    conditions = replace(root, skolem=None, assignments=())
    for expr, atomic, _member in level_reads(conditions):
        base = expr_root(expr)
        chain = () if isinstance(base, SchemaRoot) else bases.get(base.name)
        if chain is None:
            return None
        chain += tuple(expr_labels(expr))
        reads.update(value_read_chains(chain) if atomic else (chain,))
    return frozenset(reads)


def _analyze(planned: PlannedTgd) -> tuple[Optional[_Shape], str]:
    """Check the tgd against the scoped path's supported target shape;
    the reads come from the planner's anchored read-sets."""
    tgd = planned.tgd
    if len(tgd.roots) != 1:
        return None, "multiple root mappings"
    root = tgd.roots[0]
    for level in root.walk():
        for gen in level.target_gens:
            if gen.distribute:
                return None, "distribute target generator"
    if not root.source_gens:
        return None, "root mapping has no source generators"
    prefix, suffix = split_targets(root.target_gens)
    if not suffix:
        return None, "root mapping builds no target element"
    # The unquantified prefix must be a single wrapper chain anchored at
    # the target root (the CPT "constant tags" of Figure 3), with the
    # per-unit fragment generator hanging off its innermost element.
    chain_var: Optional[str] = None
    for gen in (*prefix, suffix[0]):
        base = gen.expr.base
        if chain_var is None:
            if not isinstance(base, SchemaRoot):
                return None, "root target prefix not anchored at the target root"
        elif not (isinstance(base, Var) and base.name == chain_var):
            return None, "root target prefix is not a single wrapper chain"
        chain_var = gen.var
    # Everything written per unit must stay inside the unit's fragment:
    # target generators and assignment targets may only hang off the
    # quantified fragment element, never the shared prefix or the
    # target root.
    def escape(mapping: TgdMapping, scope: set[str], gens, level: str) -> str:
        for gen in gens:
            base = gen.expr.base
            if not (isinstance(base, Var) and base.name in scope):
                return f"{level} target generator escapes the unit fragment"
            scope.add(gen.var)
        for assignment in mapping.assignments:
            expr = assignment.target
            while not isinstance(expr, (Var, SchemaRoot)):
                expr = expr.base
            if not (isinstance(expr, Var) and expr.name in scope):
                return "assignment escapes the unit fragment"
        for sub in mapping.submappings:
            found = escape(sub, set(scope), sub.target_gens, "nested")
            if found:
                return found
        return ""

    reason = escape(root, {suffix[0].var}, suffix[1:], "root")
    if reason:
        return None, reason
    var_reads: dict[str, set[_Chain]] = {}
    for level in planned.levels:
        for var, chain in level.unit_reads:
            var_reads.setdefault(var, set()).add(chain)
    return (
        _Shape(
            root=root,
            prefix=tuple(prefix),
            suffix=suffix,
            grouped=root.skolem is not None,
            doc_levels=tuple(
                (frozenset(level.doc_reads), level.doc_gens)
                for level in planned.levels if level.doc_reads
            ),
            # A level with an unresolved read may read anywhere.
            global_resolved=all(
                level.reads_resolved for level in planned.levels
            ),
            var_reads={var: frozenset(c) for var, c in var_reads.items()},
            enum_reads=_enumeration_reads(planned, root),
        ),
        "",
    )


# -- dirty-region and unit bookkeeping --------------------------------------


class _DirtyIndex:
    """Decides whether a root environment's unit can observe the delta.

    A binding ``B`` of root variable ``v`` is dirty when it lies inside
    a removed/replaced subtree, or when it is the addressed node or an
    ancestor of it *and* the record's chain relative to ``B`` meets one
    of ``v``'s read chains: an edit in a binding the unit never reads —
    Figure 7's department when only ``$p.pname`` feeds the group —
    leaves the unit clean.  ``hot`` holds every identity the test can
    flag (those subtrees, each addressed node and its ancestors).
    """

    __slots__ = ("ids", "records", "var_reads", "hot")

    def __init__(
        self,
        prev_source: XmlElement,
        delta: Delta,
        var_reads: dict[str, frozenset[_Chain]],
    ):
        self.var_reads = var_reads
        self.ids: set[int] = set()
        self.hot: set[int] = set()
        self.records: list = []
        for record in delta.records:
            target = resolve_steps(prev_source, record.steps)
            if record.op in ("remove", "replace"):
                for node in target.iter():
                    self.ids.add(id(node))
            # How many leading chain entries to strip to express the
            # record relative to each ancestor-or-self of the target.
            strip: dict[int, int] = {}
            node: Optional[XmlElement] = target
            depth = len(record.steps)
            while node is not None:
                strip[id(node)] = depth
                node = node.parent
                depth -= 1
            self.records.append((record.is_mutation, record.chain, strip))
            self.hot.update(strip)
        self.hot.update(self.ids)

    def env_dirty(self, env, gens) -> bool:
        for gen in gens:
            binding = env[gen.var]
            ident = id(binding)
            if ident in self.ids:
                return True
            reads = self.var_reads.get(gen.var)
            if not reads:
                continue
            for mutate, chain, strip in self.records:
                depth = strip.get(ident)
                if depth is None:
                    continue
                rel = chain[depth:]
                if mutate:
                    if rel in reads:
                        return True
                elif any(read[: len(rel)] == rel for read in reads):
                    return True
        return False


class _Units:
    """The root level's units, aligned with the target's fragments.

    Every unit is a group: ``keys`` holds each root environment's
    grouping key — its bindings' identities (``ids``) when the root
    does not group.  ``groups`` maps a key to its member positions and
    ``firsts`` lists each group's first position, both ascending: a
    full run emits groups in first-seen order, so a group's fragment
    index is its first position's rank in ``firsts``.  ``at`` maps the
    identity of each binding of a ``var_reads`` variable to its
    positions (another variable's binding is dirty only by vanishing,
    which re-enumerates the root).
    """

    __slots__ = ("envs", "ids", "at", "keys", "groups", "firsts")

    def __init__(self, shape: _Shape, envs: list[dict]):
        gens = shape.root.source_gens
        self.envs = envs
        self.ids = list(zip(*[[id(env[gen.var]) for env in envs] for gen in gens]))
        self.at: dict[int, list[int]] = {}
        for column, gen in enumerate(gens):
            if gen.var in shape.var_reads:
                for position, combo in enumerate(self.ids):
                    self.at.setdefault(combo[column], []).append(position)

    def group(self, keys: Optional[list[tuple]] = None) -> None:
        self.keys = self.ids if keys is None else keys
        self.groups: dict[tuple, list[int]] = {}
        for position, key in enumerate(self.keys):
            self.groups.setdefault(key, []).append(position)
        self.firsts = [members[0] for members in self.groups.values()]

    def dirty(self, index: _DirtyIndex, gens) -> list[int]:
        """The positions whose unit observes the delta, ascending; only
        those binding a hot identity are tested."""
        at = self.at
        hot = {position for ident in index.hot if ident in at for position in at[ident]}
        return [p for p in sorted(hot) if index.env_dirty(self.envs[p], gens)]


# -- entry points ------------------------------------------------------------


def transform_delta(
    plan,
    prev_source: XmlElement,
    prev_target: XmlElement,
    delta: Delta,
    *,
    new_source: Optional[XmlElement] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[XmlElement, IncrementalReport]:
    """Re-transform an edited document, reusing the previous target.

    ``plan`` is a :class:`~repro.executor.engine.TgdPlan` or a
    :class:`~repro.runtime.plan.CompiledPlan`; ``delta`` must be
    ``compute_delta(prev_source, new_source)``.  The call is one
    :meth:`IncrementalSession.apply` on a session seeded with copies of
    ``prev_source`` and ``prev_target``, so neither input is mutated.
    Only a truncated delta, which cannot be applied, runs the plan over
    ``new_source`` directly (reconstructed with :func:`apply_delta`
    when omitted, which raises for such a delta).  The result is
    byte-identical to ``plan.run(new_source)`` in every mode.
    """
    if delta.truncated:
        report = IncrementalReport(
            mode="fallback",
            reason="truncated delta",
            threshold=threshold,
            delta_records=len(delta.records),
            changed_nodes=delta.changed_nodes,
            delta_ratio=delta.ratio(prev_source.size()),
        )
        if new_source is None:
            new_source = apply_delta(prev_source, delta)
        return plan.run(new_source), report
    session = IncrementalSession(plan, threshold=threshold)
    source, target = prev_source.copy(), prev_target.copy()
    session._adopt(source, target)
    result, report = session.apply(delta)
    # The copies are this call's own and die with the session: dismantle
    # them now (all but the returned target) rather than leave cycles to
    # the next full collection.
    for tree in (source, session._source, target):
        if tree is not result:
            tree.release()
    return result, report


class IncrementalSession:
    """Stateful delta-scoped execution over a maintained document.

    A long-lived session amortizes across a *chain* of edits what a
    one-shot :func:`transform_delta` call pays each time (copies, the
    old side's enumeration, the document-scoped join tables):

    * the source tree is **maintained in place**: each delta is applied
      to the session's own copy (:func:`~repro.xml.diff.apply_delta_in_place`),
      so node identities survive outside the edited subtrees and the
      per-document :class:`~repro.xml.index.DocumentIndex` only drops
      the tables the edit touched (:meth:`~repro.xml.index.DocumentIndex.invalidate`);
    * document-scoped generator sequences and join hash tables live in
      a :class:`~repro.executor.planner.PlanMemo` keyed by the label
      chains they read, invalidated per delta by chain intersection —
      the Figure 7 employee join table survives every edit that does
      not touch ``dept/regEmp``;
    * the target is **maintained in place** too: a scoped call replaces
      only the dirty units' fragments and leaves the clean ones where
      they stand;
    * root environments, binding identities and grouping keys carry
      over as the next call's old side — a full run is built unit by
      unit to derive them — and a delta reaching no root enumeration
      read reuses them, finding its dirty units by the identities it
      touches; any other matches clean units by binding identity.

    The returned target *is* the maintained target: the next
    :meth:`transform` or :meth:`apply` call mutates it in place, so
    callers must serialize (or copy) it before calling again.  Every
    mode is byte-identical to ``plan.run(new_source)``.  A call that
    raises drops the maintained target, so the next :meth:`transform`
    starts over with a full run.
    """

    def __init__(self, plan, *, threshold: float = DEFAULT_THRESHOLD):
        self.plan = plan
        self.threshold = threshold
        self._tgd_plan: Optional[TgdPlan] = (
            plan
            if isinstance(plan, TgdPlan)
            else getattr(plan, "tgd_plan", None)
        )
        self._levels: tuple = ()
        if self._tgd_plan is None:
            self._shape, self._shape_reason = (
                None, "plan has no tgd execution plan",
            )
        else:
            # Naive plans run no planned program, but their sessions
            # read the same analysis as optimized ones.
            planned = self._tgd_plan.planned or plan_tgd(self._tgd_plan.tgd)
            self._levels = tuple(
                (frozenset(level.read_paths), level.reads_resolved)
                for level in planned.levels
            )
            self._shape, self._shape_reason = _analyze(planned)
        # The root level's entries: the generated program's, or the
        # naive engine's under the same names.
        self._program = None
        if self._shape is not None:
            self._program = self._tgd_plan.program or ReferenceProgram(
                self._tgd_plan.tgd
            )
        self._memo: Optional[PlanMemo] = (
            PlanMemo()
            if self._tgd_plan is not None and self._tgd_plan.planned is not None
            else None
        )
        self._source: Optional[XmlElement] = None
        self._size = 0
        self._target: Optional[XmlElement] = None
        # The old side, derived from the maintained pair when the next
        # scoped call needs it: the units and their fragments' parent.
        self._units: Optional[_Units] = None
        self._parent: Optional[XmlElement] = None
        self._applied = False

    def transform(
        self, new_source: XmlElement
    ) -> tuple[XmlElement, IncrementalReport]:
        """The plan's target for ``new_source``, incrementally when the
        delta against the maintained document allows it.

        ``new_source`` is never mutated and never retained; the session
        keeps its own maintained copy."""
        report = IncrementalReport(mode="fallback", threshold=self.threshold)
        if self._shape is None:
            # Unsupported shape: a permanent stateless full run.
            report.reason = f"unsupported mapping shape: {self._shape_reason}"
            return self.plan.run(new_source), report
        report.grouped = self._shape.grouped
        if self._source is None or self._target is None:
            return self._full(new_source, report, reason="no previous state")
        delta = compute_delta(self._source, new_source)
        if delta.truncated:
            report.delta_records = len(delta.records)
            report.changed_nodes = delta.changed_nodes
            report.delta_ratio = delta.ratio(self._size)
            return self._full(new_source, report, reason="truncated delta")
        return self.apply(delta)

    def apply(
        self, delta: Delta
    ) -> tuple[XmlElement, IncrementalReport]:
        """The plan's target after applying ``delta`` to the maintained
        document.

        The delta-driven twin of :meth:`transform`, and the one decision
        ladder behind :func:`transform_delta`: callers that know their
        edits skip the :func:`~repro.xml.diff.compute_delta` tree walk.
        Requires an established session and a non-truncated delta;
        raises :class:`ReproError` otherwise.
        """
        if self._source is None or self._target is None:
            raise ReproError(
                f"unsupported mapping shape: {self._shape_reason}"
                if self._shape is None
                else "session has no base document; call transform() first"
            )
        if delta.truncated:
            raise ReproError("cannot apply a truncated delta")
        report = IncrementalReport(
            mode="fallback",
            threshold=self.threshold,
            grouped=self._shape is not None and self._shape.grouped,
            delta_records=len(delta.records),
            changed_nodes=delta.changed_nodes,
            delta_ratio=delta.ratio(self._size),
        )
        self._applied = False
        try:
            return self._advance(delta, report)
        except BaseException:
            # The maintained pair may be half-advanced: drop the target
            # so that the next transform() starts over with a full run.
            self._target = self._units = self._parent = None
            raise

    # -- internals ------------------------------------------------------

    def _advance(
        self, delta: Delta, report: IncrementalReport
    ) -> tuple[XmlElement, IncrementalReport]:
        """The decision ladder of :meth:`apply`."""
        shape, tgd_plan = self._shape, self._tgd_plan
        if tgd_plan is None:
            return self._fallback(delta, report, "plan has no tgd execution plan")
        if delta.is_empty:
            report.mode = "unchanged"
            report.reason = "empty delta"
            return self._target, report
        if report.delta_ratio > self.threshold:
            return self._fallback(
                delta,
                report,
                f"delta ratio {report.delta_ratio:.3f} exceeds "
                f"threshold {self.threshold:.3f}",
            )
        report.dirty_levels = tuple(
            index
            for index, (reads, resolved) in enumerate(self._levels)
            if _delta_touches(delta, reads, resolved)
        )
        if not report.dirty_levels:
            # The edit lands where no level reads: the target — and the
            # cached enumeration, whose chains are level reads — stay
            # valid; only the maintained tree must catch up.
            self._apply(delta)
            report.mode = "unchanged"
            report.reason = "no level read-set intersects the delta"
            return self._target, report
        if shape is None:
            return self._fallback(
                delta, report, f"unsupported mapping shape: {self._shape_reason}"
            )
        if not shape.global_resolved or any(
            gens is None and _delta_touches(delta, reads, True)
            for reads, gens in shape.doc_levels
        ):
            return self._fallback(
                delta,
                report,
                "delta intersects document-scoped reads of nested levels",
            )
        if self._target.tag != tgd_plan.tgd.target_root:
            return self._fallback(
                delta, report, "previous target root does not match the plan"
            )
        try:
            return self._scoped(delta, report)
        except DocumentTimeout:
            raise
        except ReproError as exc:
            return self._fallback(
                delta, report, f"scoped re-execution unavailable: {exc}"
            )

    def _adopt(self, source: XmlElement, target: XmlElement, units=None, parent=None):
        """Take ``source``/``target`` as the maintained pair (keeping the
        size :meth:`_apply` recorded for the maintained tree); without
        ``units``, the old side is re-derived when next needed."""
        self._size = self._size if source is self._source else source.size()
        self._source, self._target = source, target
        self._units, self._parent = units, parent

    def _fallback(
        self, delta: Delta, report: IncrementalReport, reason: str
    ) -> tuple[XmlElement, IncrementalReport]:
        """Bring the maintained tree up to ``delta`` (unless the scoped
        path already did) and recompute over it: it matches the edited
        document bytewise, so state stays aligned."""
        if not self._applied:
            self._apply(delta)
        return self._full(self._source, report, reason=reason, own=True)

    def _full(
        self,
        source: XmlElement,
        report: IncrementalReport,
        *,
        reason: str,
        own: bool = False,
    ) -> tuple[XmlElement, IncrementalReport]:
        report.mode = "fallback"
        report.reason = reason
        base = source if own else source.copy()
        if self._shape is None:
            self._adopt(base, self.plan.run(base))
        else:
            if self._memo is not None and not own:
                # A new document wholesale: every document-scoped entry
                # is stale (the maintained tree's are invalidated per delta).
                self._memo.clear()
            self._adopt(base, *self._rebuild(base))
        return self._target, report

    def _rebuild(self, base: XmlElement):
        """The plan's run over ``base``, built unit by unit through the
        session's memo — for the single-root shapes the session
        supports, exactly the engine's own run — with its units and
        their parent, so the next scoped call needs no refresh."""
        engine = self._tgd_plan.engine_for(base, memo=self._memo)
        try:
            units = self._units_of(engine)
            # The wrapper chain: one element per prefix generator, each
            # inside the previous one (what `_analyze` admits).
            parent = engine.target_root
            for gen in self._shape.prefix:
                parent = parent.append(XmlElement(gen.expr.label))
            self._build(engine, units, units.groups, parent)
        except ReproError:
            raise
        except Exception as exc:  # the contract of TgdPlan.run
            raise ExecutionError(f"tgd evaluation failed: {exc}") from exc
        return engine.target_root, units, parent

    def _units_of(self, engine) -> _Units:
        """The root's units over the engine's document."""
        program = self._program
        units = _Units(self._shape, program.enumerate(engine, {}))
        units.group(
            [program.key(engine, env) for env in units.envs]
            if self._shape.grouped
            else None
        )
        return units

    def _refresh(self) -> None:
        """Derive the old side — the root's units and the fragments'
        parent — from an adopted pair, checking that the target holds
        one fragment per unit."""
        shape = self._shape
        units = self._units_of(self._tgd_plan.engine_for(self._source, memo=self._memo))
        parent: Optional[XmlElement] = self._target
        for gen in shape.prefix:
            parent = parent.find(gen.expr.label)
            if parent is None:
                raise ReproError("previous target lacks the root wrapper chain")
        tag = shape.suffix[0].expr.label
        if [child.tag for child in parent.children] != [tag] * len(units.firsts):
            raise ReproError("previous target does not align with plan output")
        self._units, self._parent = units, parent

    def _apply(self, delta: Delta) -> None:
        """Apply a delta to the maintained tree, dropping exactly the
        caches it could have invalidated."""
        assert self._source is not None
        for record in delta.records:  # the new size, without a tree walk
            if record.op == "replace" and record.subtree is not None:
                old = resolve_steps(self._source, record.steps)
                self._size += record.subtree.size() - old.size()
            elif not record.is_mutation:
                self._size += -record.nodes if record.op == "remove" else record.nodes
        first = delta.records[0] if delta.records else None
        if first is not None and first.op == "replace" and not first.steps:
            # A whole-document replacement cannot be applied in place:
            # adopt the new tree, which shares no identity with the old.
            self._source = apply_delta(self._source, delta)
            self._units = None
            if self._memo is not None:
                self._memo.clear()
        else:
            touched_nodes = apply_delta_in_place(self._source, delta)
            index = index_for(self._source)
            for node in touched_nodes:
                index.invalidate(node)
            if self._memo is not None:
                self._memo.invalidate(*delta.tag_paths_by_kind())
        self._applied = True

    def _scoped(
        self, delta: Delta, report: IncrementalReport
    ) -> tuple[XmlElement, IncrementalReport]:
        shape = self._shape
        if self._units is None:
            self._refresh()
        units = self._units
        if len(self._parent) != len(units.firsts):
            raise ReproError("previous target does not align with plan output")
        try:
            index = _DirtyIndex(self._source, delta, shape.var_reads)
            joins = JoinScope(shape.doc_levels, delta, self._source)
        except XmlError as exc:
            raise ReproError(f"delta does not resolve: {exc}") from exc
        dirty = units.dirty(index, shape.root.source_gens)
        joined = joins.positions(units)
        stable = shape.enum_reads is not None and not _delta_touches(
            delta, shape.enum_reads, True
        )

        # Validation done — from here on the maintained pair advances.
        self._apply(delta)
        if joins.touched:
            # A mutated key joins its new partners too.
            dirty = sorted(joined.union(dirty, joins.positions(units)))
        engine = self._tgd_plan.engine_for(self._source, memo=self._memo)
        if stable:
            drop, put, keys = self._rekey(engine, units, dirty)
        else:
            units, drop, put, keys = self._rematch(engine, units, dirty)
        self._splice(engine, units, drop, put, keys)

        self._units = units
        report.total_units = len(units.firsts)
        report.recomputed_units = len(put)
        report.reused_units = report.total_units - len(put)
        report.mode = "scoped"
        report.reason = (
            "per-group fragments spliced"
            if shape.grouped
            else "per-binding fragments spliced"
        )
        return self._target, report

    def _rekey(self, engine, units: _Units, dirty: list[int]):
        """Over an unchanged root enumeration: re-key the dirty positions
        and rebuild each group that had or gains one, updating ``units``
        in place; returns the :meth:`_splice` arguments."""
        grouped = self._shape.grouped
        keys, groups, firsts = units.keys, units.groups, units.firsts
        affected: dict[tuple, None] = {}
        moved = []
        for position in dirty:
            check_deadline()
            key = keys[position]
            affected[key] = None
            if grouped:
                new_key = self._program.key(engine, units.envs[position])
                if new_key != key:
                    affected[new_key] = None
                    moved.append((position, new_key))
        if not moved:
            # No unit changes group: each affected one is rebuilt where
            # it stands.
            ranked = sorted((groups[key][0], key) for key in affected)
            slots = [bisect_left(firsts, first) for first, _key in ranked]
            return slots, slots, [key for _first, key in ranked]
        drop = sorted(
            bisect_left(firsts, groups[key][0]) for key in affected if key in groups
        )
        for slot in reversed(drop):
            del firsts[slot]
        for position, key in moved:
            members = groups[keys[position]]
            members.remove(position)
            if not members:
                del groups[keys[position]]
            insort(groups.setdefault(key, []), position)
            keys[position] = key
        after = sorted((groups[key][0], key) for key in affected if key in groups)
        for first, _key in after:
            insort(firsts, first)
        put = [bisect_left(firsts, first) for first, _key in after]
        return drop, put, [key for _first, key in after]

    def _rematch(self, engine, old: _Units, dirty: list[int]):
        """Re-enumerate the root and keep each group whose members are,
        by binding identity, the clean members it had; returns the new
        units and the :meth:`_splice` arguments."""
        shape, program = self._shape, self._program
        new = _Units(shape, program.enumerate(engine, {}))
        keys = None
        if shape.grouped:
            # A clean unit's grouping key reads only chains the delta
            # never touched (its dirty test covers every read of it).
            known = dict(zip(old.ids, old.keys))
            for position in dirty:
                del known[old.ids[position]]
            keys = [
                known[combo] if combo in known else program.key(engine, env)
                for combo, env in zip(new.ids, new.envs)
            ]
        new.group(keys)
        dirty_keys = {old.keys[p] for p in dirty}
        kept, put, fill = [], [], []
        for slot, (key, members) in enumerate(new.groups.items()):
            previous = old.groups.get(key)
            if (
                previous is not None
                and key not in dirty_keys
                and [old.ids[p] for p in previous] == [new.ids[p] for p in members]
            ):
                kept.append(bisect_left(old.firsts, previous[0]))
            else:
                put.append(slot)
                fill.append(key)
        # Surviving units keep their relative order, so the kept
        # fragments stay in place around the removals and insertions.
        if any(a >= b for a, b in zip(kept, kept[1:])):
            raise ReproError("surviving units changed order")
        drop = sorted(set(range(len(old.firsts))).difference(kept))
        return new, drop, put, fill

    def _splice(
        self, engine, units: _Units, drop: list[int], put: list[int], keys
    ) -> None:
        """Build the groups of ``keys``, remove the fragments at indices
        ``drop``, then insert the built ones at final indices ``put``."""
        prefix = self._shape.prefix
        # The wrapper chain already stands in the maintained target;
        # build under a detached stand-in for its innermost element.
        stand_in = (
            XmlElement(prefix[-1].expr.label) if prefix else engine.target_root
        )
        self._build(engine, units, keys, stand_in)
        fragments = stand_in.splice(0, len(stand_in))
        if len(fragments) != len(put):
            raise ReproError("recomputed units do not align with plan output")
        parent = self._parent
        if drop == put:  # replacements in place
            for slot, fragment in zip(put, fragments):
                parent.splice(slot, slot + 1, (fragment,))[0].release()
            return
        for slot in reversed(drop):
            for fragment in parent.splice(slot, slot + 1):
                fragment.release()
        for slot, fragment in zip(put, fragments):
            parent.splice(slot, slot, (fragment,))

    def _build(self, engine, units: _Units, keys, parent: XmlElement) -> None:
        """Build the groups of ``keys`` under ``parent`` (the innermost
        wrapper, or the target root), in order, through the program's
        unit entry."""
        prefix, program = self._shape.prefix, self._program
        base_env = {prefix[-1].var: parent} if prefix else {}
        for key in keys:
            check_deadline()
            members = [units.envs[p] for p in units.groups[key]]
            if self._shape.grouped:
                program.unit(engine, program.group(members), base_env, key)
            else:
                program.unit(engine, members[0], base_env)
