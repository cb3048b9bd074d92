"""Which units an edit reaches through document-scoped joins.

Section VI compiles each nested-tgd level into its own FLWOR, tied to
its unit only through bound variables and ``where`` joins.  An edit to
a document-wide re-scan — Figure 7's ``d2 ∈ source.dept, r ∈
d2.regEmp`` — therefore changes only the units the level's joins pair
with the edited bindings: the delta rule of incremental view
maintenance (Gupta–Mumick 1995), resolved along binding paths.  The
planner records the joins (:class:`~repro.executor.planner.DocGen`);
:class:`JoinScope` applies them to one delta for
:class:`~repro.runtime.incremental.IncrementalSession`.
"""

from __future__ import annotations

from typing import Optional

from ..xml.diff import Delta, resolve_steps
from ..xml.model import XmlElement

_Chain = tuple[str, ...]


def touches(chain: _Chain, mutation: bool, reads) -> bool:
    """Whether an edit at ``chain`` can influence one of the read chains.

    Mutations change a single attribute/text slot, so only the exact
    chain observes them (a bare prefix of the chain is a node-set read
    — binding existence and identity — which interior mutations leave
    intact).  Structural records change the whole subtree at their
    chain, so any read *at or below* it may observe the edit; reads
    strictly above are node-set or value reads whose own population is
    untouched (their dependence on the subtree's contents is recorded
    as separate, deeper chains).
    """
    if mutation:
        return chain in reads
    return any(read[: len(chain)] == chain for read in reads)


def _follow(node: XmlElement, labels: _Chain) -> list:
    """The items a projection along ``labels`` reaches from ``node``."""
    items = [node]
    for label in labels:
        if label.startswith("@"):
            name = label[1:]
            items = [i._attributes[name] for i in items if name in i._attributes]
        elif label == "value":
            items = [i._text for i in items if i._text is not None]
        else:
            items = [c for i in items for c in i._children if c.tag == label]
    return items


class JoinScope:
    """The units a delta reaches through nested levels' document-scoped
    reads, found along the levels' joins (Figure 7's employee join).

    A record hitting such a read touches bindings of the level's
    document-scoped generators: those inside an inserted, removed or
    replaced subtree, or the binding above the edit whose value read
    it rewrites.  A nested environment changes only if it holds a
    touched binding, and exists only if every planned join holds; so a
    touched binding selects the units that every join of its generator,
    and of each generator it ranges below (``r``'s ``d2``, its
    ancestor), pairs it with — by identity through the units' ``at``
    table for a membership join, by key equality for an equality join.
    """

    __slots__ = ("touched", "keys")

    def __init__(self, doc_levels, delta: Delta, source: XmlElement):
        self.keys: dict = {}  # anchor → {key atom: unit positions}
        self.touched: list = []  # (generator, nodes root → binding, generators)
        for record in delta.records:
            chain, mutation = record.chain, record.is_mutation
            hit = [gens for reads, gens in doc_levels
                   if touches(chain, mutation, reads)]
            if not hit:
                continue
            above = resolve_steps(source, record.steps).path_from_root()
            bases = [] if record.op == "insert" else [above]
            if record.subtree is not None:
                bases.append(above[: len(chain)] + [record.subtree])
            for gens in hit:
                by_var = {gen.var: gen for gen in gens}
                for gen in gens:
                    if not mutation and gen.chain[: len(chain)] == chain:
                        paths = bases
                        for label in gen.chain[len(chain):]:
                            paths = [path + [child] for path in paths
                                     for child in path[-1]._children
                                     if child.tag == label]
                    elif gen.chain == chain[: len(gen.chain)] and touches(
                        chain[len(gen.chain):], mutation, gen.reads
                    ):
                        paths = [above[: len(gen.chain) + 1]]
                    else:
                        continue
                    self.touched += [(gen, path, by_var) for path in paths]

    def positions(self, units) -> set[int]:
        """The unit positions the touched bindings join, over the tree
        as it stands (called before and after the edit)."""
        found: set[int] = set()
        for gen, path, by_var in self.touched:
            links = []
            while gen is not None:
                links += [(link, path[len(gen.chain)]) for link in gen.links]
                gen = by_var.get(gen.parent)
            # Identity joins first: their few candidates then bound the
            # key comparisons of the equality joins.
            links.sort(key=lambda item: not item[0].membership)
            joined: Optional[set[int]] = None
            for link, node in links:
                joined = self._joined(units, link, node, joined)
            assert joined is not None  # LevelPlan.doc_gens: every one joins
            found |= joined
        return found

    def _joined(self, units, link, node: XmlElement, within) -> set[int]:
        """The positions ``link`` pairs with ``node``, among ``within``
        unless that is ``None``."""
        var, chain = link.anchor
        if link.membership:
            out: set[int] = set()
            for member in _follow(node, link.labels):
                for _ in chain:
                    member = member.parent if member is not None else None
                out.update(units.at.get(id(member), ()))
            return out if within is None else out & within
        keys = _atoms(_follow(node, link.labels))
        if within is not None:
            return {p for p in within
                    if not keys.isdisjoint(_atoms(_follow(units.envs[p][var], chain)))}
        index = self.keys.get(link.anchor)
        if index is None:
            index = self.keys[link.anchor] = {}
            for position, env in enumerate(units.envs):
                for atom in _atoms(_follow(env[var], chain)):
                    index.setdefault(atom, []).append(position)
        return {p for atom in keys for p in index.get(atom, ())}


def _atoms(items: list) -> set:
    """Join-key atoms of projected items (an element's is its text)."""
    return {
        item._text if isinstance(item, XmlElement) else item for item in items
    } - {None}
