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
    carries a grouping Skolem; a unit is what the engine's
    :meth:`~repro.executor.engine._Engine.unit` builds, one FLWOR
    ``return`` clause.  Units whose source bindings lie outside every
    changed subtree keep their previous target fragment; dirty units
    re-execute through that same engine method over the edited
    document.  Fragments are emitted in the new document's enumeration
    order under the root level's wrapper prefix, materialized exactly
    as a full run materializes it, so the result is byte-identical to a
    full recompute.

``fallback``
    Full recomputation — taken when the delta ratio exceeds the
    threshold, when the mapping uses a construct the scoped path does
    not model (multiple root mappings, ``distribute`` generators,
    writes escaping the per-unit fragment), or when the delta touches a
    *document-scoped* read of a nested level (a generator re-scanning
    the whole document per group, as in the Figure 7 employee join,
    cannot be localized to units).

Scoped re-execution reads the planner's one read-set analysis
(:func:`~repro.executor.planner.plan_tgd`), for naive and optimized
plans alike: each level's reads are anchored either below a root
generator's binding — the unit's own subtrees, including variables a
membership pins there, like ``$p2`` in Figure 7 — or document-wide,
and a delta reaching a document-wide read falls back.  This module
checks only the target side: a single root, one wrapper chain, and
writes that stay inside the unit's fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from ..errors import ReproError, XmlError
from ..core.tgd import SchemaRoot, TargetGenerator, TgdMapping, Var
from ..executor.engine import TgdPlan, _Engine
from ..executor.planner import PlanMemo, PlannedTgd, plan_tgd
from ..xml.diff import (
    Delta,
    apply_delta,
    apply_delta_in_place,
    compute_delta,
    resolve_steps,
)
from ..xml.index import index_for
from ..xml.model import XmlElement

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
        return {
            "mode": self.mode,
            "reason": self.reason,
            "delta_records": self.delta_records,
            "changed_nodes": self.changed_nodes,
            "delta_ratio": round(self.delta_ratio, 6),
            "threshold": self.threshold,
            "dirty_levels": list(self.dirty_levels),
            "grouped": self.grouped,
            "total_units": self.total_units,
            "reused_units": self.reused_units,
            "recomputed_units": self.recomputed_units,
        }


# -- delta ↔ read-set intersection ------------------------------------------


def _delta_touches(delta: Delta, reads, resolved: bool) -> bool:
    """Whether any delta record can influence one of the read chains.

    Mutations change a single attribute/text slot, so only the exact
    chain observes them (a bare prefix of the chain is a node-set read
    — binding existence and identity — which interior mutations leave
    intact).  Structural records change the whole subtree at their
    chain, so any read *at or below* it may observe the edit; reads
    strictly above are node-set or value reads whose own population is
    untouched (their dependence on the subtree's contents is recorded
    as separate, deeper chains).
    """
    if not resolved:
        return True
    for record in delta.records:
        chain = record.chain
        if record.is_mutation:
            if chain in reads:
                return True
        elif any(read[: len(chain)] == chain for read in reads):
            return True
    return False


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
    #: Absolute chains read by nested levels *outside* their unit scope
    #: (document-wide re-scans); a delta touching these falls back.
    global_reads: frozenset[_Chain]
    global_resolved: bool
    #: Per root-generator variable: the label chains the unit reads
    #: *relative to that variable's binding* — its own value reads,
    #: nested generator populations, and reads of membership-pinned
    #: variables.  Lets the dirty test ask "can this record reach a
    #: read of this unit?" instead of marking every unit whose binding
    #: merely contains the changed node.
    var_reads: dict[str, frozenset[_Chain]]


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
    prefix, suffix = _Engine._split_targets(root.target_gens)
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
    binding_vars = {suffix[0].var}
    for gen in suffix[1:]:
        base = gen.expr.base
        if not (isinstance(base, Var) and base.name in binding_vars):
            return None, "root target generator escapes the unit fragment"
        binding_vars.add(gen.var)

    def check_targets(mapping: TgdMapping, scope: set[str]) -> str:
        for gen in mapping.target_gens:
            base = gen.expr.base
            if not (isinstance(base, Var) and base.name in scope):
                return "nested target generator escapes the unit fragment"
            scope.add(gen.var)
        for assignment in mapping.assignments:
            expr = assignment.target
            while not isinstance(expr, (Var, SchemaRoot)):
                expr = expr.base
            if not (isinstance(expr, Var) and expr.name in scope):
                return "assignment escapes the unit fragment"
        for sub in mapping.submappings:
            found = check_targets(sub, set(scope))
            if found:
                return found
        return ""

    for assignment in root.assignments:
        expr = assignment.target
        while not isinstance(expr, (Var, SchemaRoot)):
            expr = expr.base
        if not (isinstance(expr, Var) and expr.name in binding_vars):
            return None, "assignment escapes the unit fragment"
    for sub in root.submappings:
        reason = check_targets(sub, set(binding_vars))
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
            global_reads=frozenset(
                chain for level in planned.levels for chain in level.doc_reads
            ),
            # A level with an unresolved read may read anywhere.
            global_resolved=all(
                level.reads_resolved for level in planned.levels
            ),
            var_reads={var: frozenset(c) for var, c in var_reads.items()},
        ),
        "",
    )


# -- dirty-region and unit bookkeeping --------------------------------------


class _DirtyIndex:
    """Decides whether a root environment's unit can observe the delta.

    The test is read-anchored: a binding ``B`` of root variable ``v`` is
    dirty when it lies inside a removed/replaced subtree (its
    environment vanishes or re-binds), or when it is the addressed node
    or an ancestor of it *and* the record's chain relative to ``B``
    intersects one of ``v``'s read chains.  An edit inside a binding
    that the unit never reads — Figure 7's department context when only
    ``$p.pname`` feeds the group — leaves the unit clean, where plain
    ancestor marking would recompute every group touching that
    department.

    ``hot`` holds every binding identity the test can flag — the
    removed/replaced subtrees plus each addressed node and its
    ancestors — so an environment none of whose bindings is hot is
    clean without running the test.
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


class _Signer:
    """Structural addresses — ``((tag, per-tag index), …)`` chains from
    the document root — memoized per element.  Equal addresses in the
    previous and new document identify "the same" element across
    :func:`apply_delta`'s copy."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def signature(self, element: XmlElement) -> tuple:
        """The element's address, memoized along with every ancestor's:
        walk up to the first memoized ancestor (or the root), then build
        the addresses downward — no recursion, so depth is bounded by
        memory, not by the recursion limit."""
        memo = self._memo
        found = memo.get(id(element))
        if found is not None:
            return found
        pending = []
        node = element
        while found is None:
            parent = node.parent
            if parent is None:
                found = memo[id(node)] = ()
                break
            pending.append((node, parent))
            node = parent
            found = memo.get(id(node))
        for node, parent in reversed(pending):
            occurrence = 0
            tag = node.tag
            for sibling in parent._children:
                if sibling is node:
                    break
                if sibling.tag == tag:
                    occurrence += 1
            found = memo[id(node)] = found + ((tag, occurrence),)
        return found

    def env_signature(self, gens, env) -> tuple:
        return tuple(self.signature(env[gen.var]) for gen in gens)


def _binding_ids(gens, envs: list[dict]) -> list[tuple]:
    """Each root environment's bindings, as a tuple of identities
    (built column-wise: one flat pass per variable)."""
    if not gens:
        return [()] * len(envs)
    return list(zip(*[[id(env[gen.var]) for env in envs] for gen in gens]))


def _group_positions(keys: list[tuple]) -> dict[tuple, list[int]]:
    """Grouping key → the positions carrying it, in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    return groups


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

    A one-shot :func:`transform_delta` call copies the previous source
    and target, enumerates the previous document and builds the plan's
    document-scoped join tables from scratch.  A long-lived session
    amortizes all of that across a *chain* of edits — the steady state
    of a mapping service re-transforming a document its user keeps
    editing:

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
    * root environments, their structural signatures and grouping keys
      are carried over as the next call's "old side", and clean target
      fragments are **moved** from the previous target rather than
      deep-copied.

    The returned target is owned by the session: it is recycled as the
    fragment source of the next :meth:`transform` call, so callers must
    serialize (or copy) it before calling :meth:`transform` again.
    Every mode is byte-identical to ``plan.run(new_source)``.
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
            self._levels = planned.levels
            self._shape, self._shape_reason = _analyze(planned)
        self._memo: Optional[PlanMemo] = (
            PlanMemo()
            if self._tgd_plan is not None and self._tgd_plan.planned is not None
            else None
        )
        self._source: Optional[XmlElement] = None
        self._size = 0
        self._target: Optional[XmlElement] = None
        # The old side, derived from the maintained source on demand
        # (``None`` until the next scoped call needs it).
        self._envs: Optional[list[dict]] = None
        self._sigs: list[tuple] = []
        self._ids: list[tuple] = []
        # Grouped shapes: key → positions in ``_envs``, in first-seen
        # key order (the order of the target's group fragments).
        self._groups: Optional[dict[tuple, list[int]]] = None
        self._keys: Optional[list[tuple]] = None
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
        edits (editors, changelog consumers) skip the
        :func:`~repro.xml.diff.compute_delta` tree walk entirely, which
        is the dominant per-call cost once the delta itself is small.
        Requires an established session (a prior :meth:`transform`
        call) and a non-truncated delta; raises :class:`ReproError`
        otherwise.  Ownership of the returned target is the same as for
        :meth:`transform`.
        """
        if self._source is None or self._target is None:
            raise ReproError(
                f"unsupported mapping shape: {self._shape_reason}"
                if self._shape is None
                else "session has no base document; call transform() first"
            )
        if delta.truncated:
            raise ReproError("cannot apply a truncated delta")
        shape, tgd_plan = self._shape, self._tgd_plan
        report = IncrementalReport(
            mode="fallback",
            threshold=self.threshold,
            grouped=shape is not None and shape.grouped,
            delta_records=len(delta.records),
            changed_nodes=delta.changed_nodes,
            delta_ratio=delta.ratio(self._size),
        )
        self._applied = False
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
            for index, level in enumerate(self._levels)
            if _delta_touches(delta, level.read_paths, level.reads_resolved)
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
        if _delta_touches(delta, shape.global_reads, shape.global_resolved):
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
        except ReproError as exc:
            return self._fallback(
                delta, report, f"scoped re-execution unavailable: {exc}"
            )

    # -- internals ------------------------------------------------------

    def _adopt(self, source: XmlElement, target: XmlElement) -> None:
        """Take ``source``/``target`` as the maintained pair; the old
        side is re-derived from them when next needed."""
        self._source = source
        self._size = source.size()
        self._target = target
        self._envs = None

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
        target = self.plan.run(base)
        if self._memo is not None and not own:
            # A new document wholesale: every document-scoped entry is
            # stale.  (``own`` re-runs over the maintained tree, whose
            # entries were already invalidated per delta.)
            self._memo.clear()
        self._adopt(base, target)
        return target, report

    def _refresh(self) -> None:
        """Derive the old side (environments, signatures, grouping keys)
        from the maintained source."""
        assert self._shape is not None and self._tgd_plan is not None
        assert self._source is not None
        root = self._shape.root
        gens = root.source_gens
        engine = self._tgd_plan.engine_for(self._source, memo=self._memo)
        self._envs = engine._enumerate(root, {})
        self._ids = _binding_ids(gens, self._envs)
        signer = _Signer()
        self._sigs = [signer.env_signature(gens, env) for env in self._envs]
        if self._shape.grouped:
            self._keys = [engine.group_key(root, env) for env in self._envs]
            self._groups = _group_positions(self._keys)
        else:
            self._keys = self._groups = None

    def _apply(self, delta: Delta) -> None:
        """Apply a delta to the maintained tree, dropping exactly the
        caches it could have invalidated."""
        assert self._source is not None
        first = delta.records[0] if delta.records else None
        if first is not None and first.op == "replace" and not first.steps:
            # A whole-document replacement cannot be applied in place:
            # adopt the new tree, which shares no identity with the old.
            self._source = apply_delta(self._source, delta)
            self._envs = None
            if self._memo is not None:
                self._memo.clear()
        else:
            touched_nodes = apply_delta_in_place(self._source, delta)
            index = index_for(self._source)
            for node in touched_nodes:
                index.invalidate(node)
            if self._memo is not None:
                self._memo.invalidate(*delta.tag_paths_by_kind())
        if not all(record.is_mutation for record in delta.records):
            self._size = self._source.size()
        self._applied = True

    def _scoped(
        self, delta: Delta, report: IncrementalReport
    ) -> tuple[XmlElement, IncrementalReport]:
        assert self._shape is not None and self._tgd_plan is not None
        assert self._source is not None and self._target is not None
        shape = self._shape
        root = shape.root
        fragment_tag = shape.suffix[0].expr.label
        gens = root.source_gens
        if self._envs is None:
            self._refresh()

        try:
            dirty = _DirtyIndex(self._source, delta, shape.var_reads)
        except XmlError as exc:
            raise ReproError(f"delta does not resolve: {exc}") from exc
        old_envs, old_sigs = self._envs, self._sigs
        hot = dirty.hot
        old_dirty = [
            not hot.isdisjoint(ids) and dirty.env_dirty(env, gens)
            for env, ids in zip(old_envs, self._ids)
        ]

        prev_parent = self._target
        for gen in shape.prefix:
            found = prev_parent.find(gen.expr.label)
            if found is None:
                raise ReproError("previous target lacks the root wrapper chain")
            prev_parent = found
        fragments = prev_parent.children

        old_groups = self._groups
        old_fragment_of: dict[tuple, XmlElement] = {}
        if shape.grouped:
            assert old_groups is not None and self._keys is not None
            if [c.tag for c in fragments] != [fragment_tag] * len(old_groups):
                raise ReproError("previous target does not align with plan output")
            old_fragment_of = dict(zip(old_groups, fragments))
        elif [c.tag for c in fragments] != [fragment_tag] * len(old_envs):
            raise ReproError("previous target does not align with plan output")

        # Validation done — from here on the maintained tree advances.
        structural = not all(record.is_mutation for record in delta.records)
        old_by_ids = dict(zip(self._ids, range(len(self._ids))))
        self._apply(delta)
        new_engine = self._tgd_plan.engine_for(self._source, memo=self._memo)
        new_envs = new_engine._enumerate(root, {})
        new_ids = _binding_ids(gens, new_envs)
        # The previous index of each environment's binding combination.
        matches = [old_by_ids.get(ids) for ids in new_ids]
        # In-place application preserves binding identities, so per-unit
        # derivations carry over from the previous call: a mutate-only
        # delta moves no node, keeping structural signatures valid; and
        # a clean unit's grouping key reads only chains the delta never
        # touched (``old_dirty`` covers every read of the unit).
        signer = _Signer()
        new_sigs = [
            old_sigs[index]
            if index is not None and not structural
            else signer.env_signature(gens, env)
            for index, env in zip(matches, new_envs)
        ]
        new_keys: Optional[list[tuple]] = None
        new_groups: Optional[dict[tuple, list[int]]] = None
        if shape.grouped:
            old_keys = self._keys
            new_keys = [
                old_keys[index]
                if index is not None and not old_dirty[index]
                else new_engine.group_key(root, env)
                for index, env in zip(matches, new_envs)
            ]
            new_groups = _group_positions(new_keys)

        # The wrapper prefix exists once per run even when no unit is
        # emitted, exactly as the engine's own mapping runs build it.
        (base_env,) = new_engine._materialize_targets(shape.prefix, {})
        out_parent = (
            base_env[shape.prefix[-1].var]
            if shape.prefix
            else new_engine.target_root
        )

        def take(fragment: XmlElement) -> None:
            # Move, not copy: the previous target belongs to the session
            # and is dismantled by this call (see the class docstring).
            parent = fragment.parent
            if parent is not None:
                parent.remove(fragment)
            out_parent.append(fragment)

        if not shape.grouped:
            # Signature matching is sound because compute_delta's insert
            # records always land at per-tag occurrences beyond the
            # paired ones: an inserted element's address can never
            # collide with a surviving old element's, and mid-sequence
            # shifts surface as mutations that mark the shifted
            # elements dirty.
            clean: dict[tuple, int] = {
                sig: index
                for index, sig in enumerate(old_sigs)
                if not old_dirty[index]
            }
            report.total_units = len(new_envs)
            for env, sig in zip(new_envs, new_sigs):
                match = clean.get(sig)
                if match is not None:
                    take(fragments[match])
                    report.reused_units += 1
                    continue
                report.recomputed_units += 1
                new_engine.unit(root, env, base_env)
        else:
            assert new_groups is not None and old_groups is not None
            # A group is reusable when its member set is structurally
            # identical (same signatures, in order) and no old member's
            # unit observes the delta: every difference between the
            # documents is a delta record, so equal-signature clean
            # members are bytewise-equivalent inputs.
            dirty_keys = set(compress(old_keys, old_dirty))
            report.total_units = len(new_groups)
            for key, positions in new_groups.items():
                old_members = old_groups.get(key)
                untouched = (
                    old_members is not None
                    and key not in dirty_keys
                    and [old_sigs[i] for i in old_members]
                    == [new_sigs[p] for p in positions]
                )
                if untouched:
                    take(old_fragment_of[key])
                    report.reused_units += 1
                    continue
                report.recomputed_units += 1
                members = [new_envs[p] for p in positions]
                new_engine.unit(
                    root, new_engine.group_env(root, members), base_env, key
                )

        self._target = new_engine.target_root
        self._envs = new_envs
        self._ids = new_ids
        self._sigs = new_sigs
        self._keys = new_keys
        self._groups = new_groups
        report.mode = "scoped"
        report.reason = (
            "per-group fragments spliced"
            if shape.grouped
            else "per-binding fragments spliced"
        )
        return self._target, report
