"""Structural diff and machine-consumable deltas between XML instances.

Mapping developers iterate: change a line, re-run, inspect what moved.
:func:`diff` compares two instances and reports the differences as
located edit records — attribute changes, text changes, and
inserted/removed subtrees — matching siblings positionally per tag (the
natural alignment for mapping outputs, whose order is generation
order).  The result is a :class:`DiffResult`: a plain list of
:class:`Difference` records plus a ``truncated`` flag that is set when
``max_differences`` forced at least one record to be dropped.

:func:`compute_delta` produces the *machine* counterpart: a
:class:`Delta` of canonical changed paths and subtree
insert/remove/mutate records precise enough to reconstruct the right
instance from the left one (:func:`apply_delta`, byte-identical under
:func:`repro.xml.serialize.to_xml`).  Where a parent's child count
changed, the children are first aligned by their longest in-order
deep-equal prefix and suffix: a run of children inserted into or
removed from the middle of a list costs one record per child, not a
cascade of mutations down every later sibling.  The incremental
execution layer (:mod:`repro.runtime.incremental`) intersects these
records against compiled-plan read-sets to decide which tgd levels
must re-run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Optional

from ..errors import XmlError
from ..runtime.retry import active_deadline, check_deadline
from .model import AtomicValue, XmlElement


@dataclass(frozen=True)
class Difference:
    """One point of divergence between two instances."""

    kind: str  # "attribute" | "text" | "missing" | "extra" | "tag"
    location: str
    left: Optional[AtomicValue] = None
    right: Optional[AtomicValue] = None

    def __str__(self) -> str:
        if self.kind == "missing":
            return f"{self.location}: only in left"
        if self.kind == "extra":
            return f"{self.location}: only in right"
        return f"{self.location}: {self.kind} {self.left!r} != {self.right!r}"


class DiffResult(list):
    """The differences, plus whether ``max_differences`` dropped any.

    A plain ``list`` of :class:`Difference` for full backward
    compatibility; ``truncated`` is ``True`` exactly when at least one
    further difference existed beyond the reported ones.
    """

    truncated: bool = False


def diff(
    left: XmlElement, right: XmlElement, *, max_differences: int = 1000
) -> DiffResult:
    """All differences between two instances (up to ``max_differences``).

    When the limit drops records, the returned list's ``truncated``
    attribute is ``True`` — a caller that sees exactly
    ``max_differences`` records can tell a complete report from a
    clipped one.
    """
    out = DiffResult()
    # Depth-first over an explicit stack (deep documents must not hit
    # the recursion limit): an entry is either a pair to compare or a
    # child-level record, pushed in reverse so records come out in
    # document order.
    stack: list = [(left, right, f"/{left.tag}")]
    while stack and not out.truncated:
        item = stack.pop()
        if isinstance(item, Difference):
            _push(out, max_differences, item)
            continue
        left, right, location = item
        if left.tag != right.tag:
            _push(out, max_differences,
                  Difference("tag", location, left.tag, right.tag))
            continue
        for name in dict.fromkeys([*left.attributes, *right.attributes]):
            lv, rv = left.attribute(name), right.attribute(name)
            if lv != rv:
                _push(out, max_differences,
                      Difference("attribute", f"{location}/@{name}", lv, rv))
        if left.text != right.text:
            _push(out, max_differences, Difference(
                "text", f"{location}/text()", left.text, right.text))
        # Positional alignment per tag.
        pending: list = []
        tags = dict.fromkeys(
            [c.tag for c in left.children] + [c.tag for c in right.children]
        )
        for tag in tags:
            pairs = zip_longest(left.findall(tag), right.findall(tag))
            for index, (lc, rc) in enumerate(pairs, start=1):
                child_location = f"{location}/{tag}[{index}]"
                if lc is None:
                    pending.append(Difference("extra", child_location))
                elif rc is None:
                    pending.append(Difference("missing", child_location))
                else:
                    pending.append((lc, rc, child_location))
        stack.extend(reversed(pending))
    return out


def _push(out: DiffResult, limit: int, difference: Difference) -> None:
    if len(out) >= limit:
        out.truncated = True
    else:
        out.append(difference)


def render_diff(differences: list[Difference]) -> str:
    """One line per difference, or a friendly 'identical' marker."""
    if not differences:
        return "(instances are identical)"
    return "\n".join(str(d) for d in differences)


# -- machine-consumable deltas ---------------------------------------------


@dataclass(frozen=True)
class DeltaRecord:
    """One edit turning a subtree of the left instance into the right.

    ``steps`` addresses an element below the left root as a chain of
    ``(tag, per-tag index)`` child steps (0-based; the diff's positional
    per-tag alignment).  For ``mutate-attribute``/``mutate-text``/
    ``remove``/``replace`` the steps address the affected element; for
    ``insert`` they address the *parent*, and ``position`` is the
    absolute child index the new subtree occupies in the right
    instance.  ``nodes`` counts the source nodes the edit touches (the
    delta-ratio numerator of the incremental layer).
    """

    op: str  # "mutate-attribute" | "mutate-text" | "remove" | "insert" | "replace"
    path: str
    steps: tuple[tuple[str, int], ...]
    name: Optional[str] = None
    value: Optional[AtomicValue] = None
    subtree: Optional[XmlElement] = None
    position: Optional[int] = None
    nodes: int = 1

    @property
    def is_mutation(self) -> bool:
        """Whether the record rewrites one attribute or text slot in
        place, adding, removing and moving no node."""
        return self.op in ("mutate-attribute", "mutate-text")

    @cached_property
    def chain(self) -> tuple[str, ...]:
        """The index-free label chain the record touches, for read-set
        intersection: ``("dept", "Proj", "@pid")`` for an attribute
        mutation, ``("dept", "regEmp", "sal", "value")`` for a text
        mutation, and the edited subtree's own chain for structural
        records (prefix semantics cover everything below it)."""
        base = tuple(tag for tag, _ in self.steps)
        if self.op == "mutate-attribute":
            return base + (f"@{self.name}",)
        if self.op == "mutate-text":
            return base + ("value",)
        if self.op == "insert" and self.name:
            return base + (self.name,)
        return base


@dataclass(frozen=True)
class Delta:
    """A machine-consumable edit script between two instances.

    ``records`` are in left-document order; ``truncated`` mirrors
    :class:`DiffResult` (a truncated delta cannot be applied).
    """

    records: tuple[DeltaRecord, ...]
    truncated: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.records and not self.truncated

    @property
    def paths(self) -> tuple[str, ...]:
        """The canonical changed-path set, in left-document order."""
        return tuple(record.path for record in self.records)

    @property
    def changed_nodes(self) -> int:
        """Source nodes touched across all records (ratio numerator)."""
        return sum(record.nodes for record in self.records)

    def tag_paths(self) -> set[tuple[str, ...]]:
        """Every record's :attr:`DeltaRecord.chain`."""
        return {record.chain for record in self.records}

    def tag_paths_by_kind(self) -> tuple[set[tuple[str, ...]], set[tuple[str, ...]]]:
        """:meth:`tag_paths` split into ``(value, structural)`` chains.

        Value chains come from mutations: they change the atomic value
        at exactly that chain, never the node sets above or below it.
        Structural chains come from insert/remove/replace and carry the
        prefix semantics of :attr:`DeltaRecord.chain`.  Cache
        invalidation can be exact for the former and must be
        prefix-wide for the latter.
        """
        values: set[tuple[str, ...]] = set()
        structure: set[tuple[str, ...]] = set()
        for record in self.records:
            (values if record.is_mutation else structure).add(record.chain)
        return values, structure

    def ratio(self, base_size: int) -> float:
        """Changed nodes as a fraction of ``base_size`` source nodes."""
        return self.changed_nodes / max(1, base_size)


class _DeltaBuilder:
    """Record collector; steps and path strings are built only when a
    record is actually pushed — the walk over equal subtrees touches
    every node and must pay for neither."""

    __slots__ = ("records", "limit", "truncated", "root_tag", "indices")

    def __init__(self, limit: int, root_tag: str):
        self.records: list[DeltaRecord] = []
        self.limit = limit
        self.truncated = False
        self.root_tag = root_tag
        # id(left parent) → {id(child): per-tag index}, filled on demand
        # so records under one wide parent do not rescan its children.
        self.indices: dict[int, dict[int, int]] = {}

    def steps_of(self, entry) -> tuple[tuple[str, int], ...]:
        """The ``(tag, per-tag index)`` steps from the left root to a
        stack entry's left element, following the entries' links."""
        steps = []
        while entry[2] is not None:
            child, _, entry = entry
            parent = entry[0]
            indices = self.indices.get(id(parent))
            if indices is None:
                indices = self.indices[id(parent)] = {}
                seen: dict[str, int] = {}
                for sibling in parent._children:
                    indices[id(sibling)] = k = seen.get(sibling.tag, 0)
                    seen[sibling.tag] = k + 1
            steps.append((child.tag, indices[id(child)]))
        steps.reverse()
        return tuple(steps)

    def path_of(self, steps, suffix: str = "") -> str:
        return (
            f"/{self.root_tag}"
            + "".join(f"/{tag}[{k + 1}]" for tag, k in steps)
            + suffix
        )

    def push(self, record: DeltaRecord) -> bool:
        if len(self.records) >= self.limit:
            self.truncated = True
            return False
        self.records.append(record)
        return True

    def push_subtree(self, left: XmlElement, right: XmlElement, steps) -> bool:
        return self.push(DeltaRecord(
            "replace", self.path_of(steps), steps, subtree=right.copy(),
            nodes=max(left.size(), right.size()),
        ))


def compute_delta(
    left: XmlElement, right: XmlElement, *, max_records: int = 10000
) -> Delta:
    """The :class:`Delta` transforming ``left`` into ``right``.

    Guarantees ``apply_delta(left, compute_delta(left, right))`` is
    byte-identical to ``right`` under :func:`repro.xml.serialize.to_xml`
    whenever the delta is not truncated.  Children pair positionally
    while a parent keeps its child count.  When the count changed, the
    longest prefix and suffix of children that are deep-equal in order
    are trimmed first; if they cover the shorter side, every child
    between them is one ``insert`` (``position`` absolute in ``right``)
    or one ``remove`` record.  Otherwise the first ``min(L, R)``
    occurrences of each tag pair up, extras become removals and
    insertions, and where that per-tag alignment cannot express the
    change (the paired children interleave differently) the whole
    parent becomes one coarse ``replace`` record rather than a wrong
    fine-grained one.  Equal subtrees cost one visit per element, and
    the walk obeys the :class:`~repro.runtime.retry.Deadline` in force.
    """
    builder = _DeltaBuilder(max_records, left.tag)
    deadline = active_deadline()  # polled per pair
    # Depth-first over an explicit stack, children pushed in reverse:
    # records come out in left-document order, and deep documents
    # never reach the recursion limit.  An entry ``(left, right, parent
    # entry)`` is also the link its steps come from.
    stack = [(left, right, None)]
    while stack and not builder.truncated:
        if deadline is not None:
            deadline.polls -= 1
            if deadline.polls < 0:
                check_deadline()
        _delta_node(stack.pop(), builder, stack)
    return Delta(tuple(builder.records), truncated=builder.truncated)


def _delta_node(entry, builder: _DeltaBuilder, stack: list) -> None:
    """Push the records of one aligned element pair (a stack entry),
    and its child pairs still to compare onto ``stack`` (last child
    first).  Equal childless child pairs are settled here, unpushed."""
    left, right, _ = entry
    if left.tag != right.tag:
        builder.push_subtree(left, right, builder.steps_of(entry))
        return
    # A text value on one side versus children on the other cannot be
    # expressed as mutations — replace the subtree wholesale.
    if (left._text is not None and right._children) or (
        right._text is not None and left._children
    ):
        builder.push_subtree(left, right, builder.steps_of(entry))
        return
    steps = None
    if left._attributes != right._attributes:
        steps = builder.steps_of(entry)
        for name in dict.fromkeys((*left._attributes, *right._attributes)):
            lv = left._attributes.get(name)
            rv = right._attributes.get(name)
            if lv != rv:
                if not builder.push(DeltaRecord(
                    "mutate-attribute", builder.path_of(steps, f"/@{name}"),
                    steps, name=name, value=rv,
                )):
                    return
    if left._text != right._text:
        steps = steps or builder.steps_of(entry)
        if not builder.push(DeltaRecord(
            "mutate-text", builder.path_of(steps, "/text()"), steps,
            value=right._text,
        )):
            return
    lseq, rseq = left._children, right._children
    if len(lseq) == len(rseq):
        pending = []
        for lc, rc in zip(lseq, rseq):
            if lc.tag != rc.tag:
                break
            if (lc._children or rc._children or lc._text != rc._text
                    or lc._attributes != rc._attributes):
                pending.append((lc, rc, entry))
        else:
            pending.reverse()
            stack.extend(pending)
            return
    elif _splice_records(entry, steps, builder):
        return
    # Structural change: pair the first min(L, R) occurrences per tag
    # (the diff's alignment); left extras are removals, right extras
    # insertions.  That is only faithful when the paired skeletons
    # interleave identically on both sides — otherwise the positional
    # model cannot represent the move, and the parent is replaced.
    steps = steps or builder.steps_of(entry)
    lcount = Counter(c.tag for c in lseq)
    rcount = Counter(c.tag for c in rseq)
    pair_count = {
        tag: min(lcount[tag], rcount[tag])
        for tag in set(lcount) | set(rcount)
    }
    lann, rann = _annotate(lseq), _annotate(rseq)
    lpaired = [item for item in lann if item[1] < pair_count[item[0].tag]]
    rpaired = [item for item in rann if item[1] < pair_count[item[0].tag]]
    if [c.tag for c, _, _ in lpaired] != [c.tag for c, _, _ in rpaired]:
        builder.push_subtree(left, right, steps)
        return
    if not _push_moves(
        builder, steps,
        [item for item in lann if item[1] >= pair_count[item[0].tag]],
        [item for item in rann if item[1] >= pair_count[item[0].tag]],
    ):
        return
    stack.extend(reversed([
        (lc, rc, entry) for (lc, _, _), (rc, _, _) in zip(lpaired, rpaired)
    ]))


def _splice_records(entry, steps, builder: _DeltaBuilder) -> bool:
    """For a parent whose child count changed: when the children are
    one run inserted into or removed from otherwise equal children —
    the longest in-order deep-equal prefix and suffix cover the shorter
    side — push one ``insert`` or ``remove`` record per child of that
    run and return ``True``; otherwise push nothing."""
    left, right, _ = entry
    lseq, rseq = left._children, right._children
    short = min(len(lseq), len(rseq))
    deadline = active_deadline()
    head = 0
    while head < short and _same(lseq[head], rseq[head], deadline):
        head += 1
    tail = 0
    while tail < short - head and _same(lseq[-1 - tail], rseq[-1 - tail], deadline):
        tail += 1
    if head + tail < short:
        return False
    # The shorter side's run is empty.
    _push_moves(
        builder, steps or builder.steps_of(entry),
        _annotate(lseq)[head:len(lseq) - tail],
        _annotate(rseq)[head:len(rseq) - tail],
    )
    return True


def _push_moves(builder: _DeltaBuilder, steps, removed, inserted) -> bool:
    """Push one ``remove`` record per annotated left child of
    ``removed`` and one ``insert`` per annotated right child of
    ``inserted`` (see :func:`_annotate`); ``False`` once truncated."""
    for child, k, _ in removed:
        child_steps = steps + ((child.tag, k),)
        if not builder.push(DeltaRecord(
            "remove", builder.path_of(child_steps), child_steps,
            nodes=child.size(),
        )):
            return False
    for child, k, absolute in inserted:
        if not builder.push(DeltaRecord(
            "insert", builder.path_of(steps, f"/{child.tag}[{k + 1}]"),
            steps, name=child.tag, subtree=child.copy(), position=absolute,
            nodes=child.size(),
        )):
            return False
    return True


def _same(left: XmlElement, right: XmlElement, deadline) -> bool:
    """Whether two subtrees are equal with their children in order
    (unlike :meth:`XmlElement.equals_canonically`), over an explicit
    stack that polls ``deadline``."""
    stack = [(left, right)]
    while stack:
        if deadline is not None:
            deadline.polls -= 1
            if deadline.polls < 0:
                check_deadline()
        left, right = stack.pop()
        if (left.tag != right.tag or left._text != right._text
                or left._attributes != right._attributes
                or len(left._children) != len(right._children)):
            return False
        stack.extend(zip(left._children, right._children))
    return True


def _annotate(children) -> list[tuple[XmlElement, int, int]]:
    """Each child with its per-tag occurrence index and absolute index."""
    occurrence: dict[str, int] = {}
    out = []
    for absolute, child in enumerate(children):
        k = occurrence.get(child.tag, 0)
        occurrence[child.tag] = k + 1
        out.append((child, k, absolute))
    return out


def resolve_steps(
    root: XmlElement, steps: tuple[tuple[str, int], ...]
) -> XmlElement:
    """The element a :class:`DeltaRecord`'s steps address below ``root``
    (raises :class:`XmlError` when a step does not resolve)."""
    node = root
    for tag, k in steps:
        seen = 0
        for child in node._children:
            if child.tag == tag:
                if seen == k:
                    node = child
                    break
                seen += 1
        else:
            raise XmlError(
                f"delta step {tag}[{k + 1}] does not resolve under <{node.tag}>"
            )
    return node


def apply_delta(root: XmlElement, delta: Delta) -> XmlElement:
    """A new instance: ``root`` with ``delta`` applied (``root`` itself
    is never mutated).  Raises :class:`XmlError` for truncated deltas
    or steps that do not resolve."""
    if delta.truncated:
        raise XmlError("cannot apply a truncated delta")
    result = root.copy()
    if not delta.records:
        return result
    first = delta.records[0]
    if first.op == "replace" and not first.steps:
        # Whole-document replacement (compute_delta emits it alone).
        return _subtree_copy(first)
    _apply_records(result, delta.records)
    return result


def apply_delta_in_place(root: XmlElement, delta: Delta) -> list[XmlElement]:
    """Apply ``delta`` to ``root`` itself, mutating the tree.

    Returns the elements whose content or child list changed (mutation
    targets; the parents of structural edits), so callers maintaining
    per-document caches — :meth:`repro.xml.index.DocumentIndex.invalidate`,
    the incremental runtime's plan memos — can drop exactly the stale
    entries.  Node identities outside the edited regions are preserved,
    which is the property the incremental session's cross-call caches
    rely on.  Whole-document replacement cannot be expressed in place
    and raises :class:`XmlError`; callers adopt the new tree instead.
    """
    if delta.truncated:
        raise XmlError("cannot apply a truncated delta")
    if not delta.records:
        return []
    first = delta.records[0]
    if first.op == "replace" and not first.steps:
        raise XmlError("whole-document replace cannot be applied in place")
    return _apply_records(root, delta.records)


def _apply_records(
    result: XmlElement, records: tuple[DeltaRecord, ...]
) -> list[XmlElement]:
    # Resolve every target before mutating anything: steps are
    # left-instance coordinates, which structural edits would disturb.
    resolved = [(record, resolve_steps(result, record.steps))
                for record in records]
    touched: list[XmlElement] = []
    replaces: list[tuple[DeltaRecord, XmlElement]] = []
    removals: list[XmlElement] = []
    inserts: list[tuple[DeltaRecord, XmlElement]] = []
    for record, target in resolved:
        if record.op == "mutate-attribute":
            if record.value is None:
                target.remove_attribute(record.name or "")
            else:
                target.set_attribute(record.name or "", record.value)
            touched.append(target)
        elif record.op == "mutate-text":
            if record.value is None:
                target.clear_text()
            else:
                target.set_text(record.value)
            touched.append(target)
        elif record.op == "replace":
            replaces.append((record, target))
        elif record.op == "remove":
            removals.append(target)
        elif record.op == "insert":
            inserts.append((record, target))
        else:  # pragma: no cover - compute_delta emits no other ops
            raise XmlError(f"unknown delta op {record.op!r}")
    for record, target in replaces:
        parent = target.parent
        if parent is None:
            raise XmlError("replace target has no parent")
        position = next(
            i for i, c in enumerate(parent.children) if c is target
        )
        parent.remove(target)
        parent.insert(position, _subtree_copy(record))
        touched.append(parent)
    for target in removals:
        if target.parent is None:
            raise XmlError("remove target has no parent")
        parent = target.parent
        parent.remove(target)
        touched.append(parent)
    for record, parent in inserts:
        parent.insert(record.position or 0, _subtree_copy(record))
        touched.append(parent)
    return touched


def _subtree_copy(record: DeltaRecord) -> XmlElement:
    if record.subtree is None:
        raise XmlError(f"{record.op} record at {record.path} has no subtree")
    return record.subtree.copy()
