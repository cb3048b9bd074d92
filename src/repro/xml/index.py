"""Per-document navigation indexes over :class:`~repro.xml.model.XmlElement`.

Every engine in the reproduction navigates source instances the same
way: child steps (``d.Proj``), attribute/text leaves, and — in the
generated XQuery — repeated re-walks of the same paths (the Figure 7
grouping template re-scans ``source/dept/Proj`` once per distinct
group).  A :class:`DocumentIndex` turns those linear child scans into
hash lookups:

* **child-by-tag** — per element, a ``tag → [children]`` table built
  on first access (one pass over the element's children);
* **descendant-by-tag** — per element, the document-order descendant
  list for a tag, built on first access;
* **memoized path evaluation** — :meth:`evaluate` caches
  :func:`repro.xml.paths.evaluate` results per ``(path, context
  element)``, so a template that re-walks a path per group pays for
  the walk once.

The index assumes the indexed document is **read-only** while indexed —
exactly the contract of the engines, which only ever read the source
instance and build the target as a separate tree.  Indexes are built
lazily and shared: :func:`index_for` stores the index on the root
element itself, so the tgd engine and the XQuery interpreter applying
many mappings to one document in a batch all hit the same tables
(wired through :mod:`repro.runtime.plan`), and the index is freed
together with its document.  Nothing outside the document keeps it
alive: neither :meth:`XmlElement.copy` nor pickling carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .model import XmlElement
from .paths import AttributeStep, ChildStep, Path, Result


@dataclass
class IndexStats:
    """Cumulative counters for one :class:`DocumentIndex`."""

    child_tables_built: int = 0
    child_lookups: int = 0
    descendant_tables_built: int = 0
    descendant_lookups: int = 0
    path_hits: int = 0
    path_misses: int = 0

    def to_dict(self) -> dict:
        return {
            "child_tables_built": self.child_tables_built,
            "child_lookups": self.child_lookups,
            "descendant_tables_built": self.descendant_tables_built,
            "descendant_lookups": self.descendant_lookups,
            "path_hits": self.path_hits,
            "path_misses": self.path_misses,
        }


class DocumentIndex:
    """Lazy hash indexes over one (read-only) document tree.

    The index holds a strong reference to the root, so the ``id()``
    keys it uses internally stay valid for its whole lifetime.
    """

    __slots__ = (
        "root", "stats", "_children", "_descendants", "_paths", "_pins",
        "__weakref__",
    )

    def __init__(self, root: XmlElement):
        if not isinstance(root, XmlElement):
            raise TypeError(
                f"DocumentIndex requires an XmlElement root, got "
                f"{type(root).__name__}"
            )
        self.root = root
        self.stats = IndexStats()
        # id(element) → {tag: [children in document order]}
        self._children: dict[int, dict[str, list[XmlElement]]] = {}
        # (id(element), tag) → [descendants in document order]
        self._descendants: dict[tuple[int, str], list[XmlElement]] = {}
        # (id(context), path) → cached result list (treated immutable)
        self._paths: dict[tuple[int, Path], list[Result]] = {}
        # Strong refs to every element an id() key above points at.
        # Lookups are not limited to the indexed document (a caller may
        # navigate a freshly constructed element); without the pin such
        # an element could be collected and its id recycled, aliasing a
        # stale table.
        self._pins: list[XmlElement] = []

    # -- child / descendant tables ------------------------------------

    def children(self, element: XmlElement, tag: str) -> list[XmlElement]:
        """All children of ``element`` with ``tag`` — an indexed
        :meth:`XmlElement.findall`.  Callers must not mutate the
        returned list."""
        self.stats.child_lookups += 1
        table = self._children.get(id(element))
        if table is None:
            table = {}
            for child in element._children:
                found = table.get(child.tag)
                if found is None:
                    table[child.tag] = [child]
                else:
                    found.append(child)
            self._children[id(element)] = table
            self._pins.append(element)
            self.stats.child_tables_built += 1
        return table.get(tag, _EMPTY)

    def descendants(self, element: XmlElement, tag: str) -> list[XmlElement]:
        """All descendants of ``element`` with ``tag`` — an indexed
        :meth:`XmlElement.descendants`.  Callers must not mutate the
        returned list."""
        self.stats.descendant_lookups += 1
        key = (id(element), tag)
        found = self._descendants.get(key)
        if found is None:
            found = element.descendants(tag)
            self._descendants[key] = found
            self._pins.append(element)
            self.stats.descendant_tables_built += 1
        return found

    # -- memoized path evaluation ---------------------------------------

    def evaluate(
        self, path: Path, context: Union[XmlElement, Iterable[XmlElement]]
    ) -> list[Result]:
        """Evaluate a compiled path from a context element, memoized.

        Semantically identical to :func:`repro.xml.paths.evaluate`;
        repeated evaluations of the same ``(path, element)`` pair are
        dictionary hits.  The result list is shared — do not mutate.
        Only single-element contexts are memoized; iterables fall
        through to a plain (but index-backed) walk.
        """
        if isinstance(context, XmlElement):
            key = (id(context), path)
            found = self._paths.get(key)
            if found is not None:
                self.stats.path_hits += 1
                return found
            self.stats.path_misses += 1
            result = self._walk(path, [context])
            self._paths[key] = result
            self._pins.append(context)
            return result
        return self._walk(path, list(context))

    # -- invalidation ---------------------------------------------------

    def invalidate(self, element: XmlElement) -> None:
        """Drop every cached table that could observe a mutation at
        ``element``.

        The read-only contract stands for plain indexed reads; the
        incremental runtime (:mod:`repro.runtime.incremental`), which
        maintains a source document across deltas, calls this after
        mutating a subtree so the next read rebuilds fresh tables.
        Invalidates the element's own tables plus those of every
        ancestor — descendant lists and memoized paths anywhere up the
        chain may reach into the mutated subtree.  Child tables of
        *other* elements cannot (they hold direct children only), so
        siblings keep their tables.
        """
        node: Union[XmlElement, None] = element
        while node is not None:
            key = id(node)
            self._children.pop(key, None)
            if self._descendants:
                for table_key in [k for k in self._descendants if k[0] == key]:
                    del self._descendants[table_key]
            if self._paths:
                for path_key in [k for k in self._paths if k[0] == key]:
                    del self._paths[path_key]
            node = node.parent

    def _walk(self, path: Path, current: list[Result]) -> list[Result]:
        from ..errors import PathError

        for step in path.steps:
            nxt: list[Result] = []
            for node in current:
                if not isinstance(node, XmlElement):
                    raise PathError(
                        f"step {step} applied to atomic value {node!r}; "
                        "only element nodes can be navigated"
                    )
                if isinstance(step, ChildStep):
                    if step.tag == "*":
                        nxt.extend(node.children)
                    else:
                        nxt.extend(self.children(node, step.tag))
                elif isinstance(step, AttributeStep):
                    if node.has_attribute(step.name):
                        nxt.append(node.attribute(step.name))
                else:  # TextStep
                    if node.text is not None:
                        nxt.append(node.text)
            current = nxt
        return current


_EMPTY: list[XmlElement] = []


def index_for(root: XmlElement) -> DocumentIndex:
    """The shared :class:`DocumentIndex` for a document root.

    One index per root, built lazily on first call and kept on the root
    (its ``_index`` slot) — a batch applying N mappings to one document
    builds its child tables once, and the tables die with the document.
    """
    index = getattr(root, "_index", None)
    if index is None:
        index = root._index = DocumentIndex(root)
    return index
