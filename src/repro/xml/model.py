"""Ordered-tree XML instance model.

This is the data substrate of the reproduction: both the direct tgd
executor and the XQuery interpreter produce and consume these trees, and
the paper's printed example instances are transcribed into them.

The model is deliberately small and explicit:

* an :class:`XmlElement` has a tag, an ordered attribute map, and either
  child elements or an atomic text value (mirroring the paper's schema
  drawings, where an element owns attributes, sub-elements and at most
  one ``value`` node);
* atomic values are plain Python values (``str``, ``int``, ``float``,
  ``bool``) so that filter predicates such as ``$r.sal.value > 11000``
  compare numerically, exactly as the paper's examples require.

Elements compare equal when their tag, attributes, text and children are
equal *in document order* (XML is an ordered model).  For data-exchange
results where sibling order is not semantically meaningful, use
:meth:`XmlElement.canonical` to obtain an order-normalized copy before
comparing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union

from ..errors import XmlError

#: Atomic values an attribute or text node can carry.
AtomicValue = Union[str, int, float, bool]

_ATOMIC_TYPES = (str, int, float, bool)

#: The child container of every leaf until its first ``append`` or
#: ``insert``: one immutable empty tuple shared by all leaves, which the
#: collector does not track (an empty list per leaf is one more object
#: for every full collection to walk).
_NO_CHILDREN: tuple = ()


def _check_atomic(value: AtomicValue, what: str) -> AtomicValue:
    if not isinstance(value, _ATOMIC_TYPES):
        raise XmlError(f"{what} must be str/int/float/bool, got {type(value).__name__}")
    return value


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise XmlError(f"{what} must be a non-empty string")
    # ``split()`` breaks on exactly the characters ``str.isspace`` accepts.
    if name[0].isdigit() or name.split() != [name]:
        raise XmlError(f"{what} {name!r} is not a legal XML name")
    return name


class XmlElement:
    """A node of an XML instance tree.

    Parameters
    ----------
    tag:
        The element name.
    attributes:
        Attribute name → atomic value.  Names are stored without the
        leading ``@``; accessors accept either form.
    children:
        Child elements, in document order.
    text:
        The atomic text value.  An element with a text value cannot also
        have element children (the paper's model keeps values on leaves).
    """

    # ``_index`` holds the lazily built :class:`~repro.xml.index.DocumentIndex`
    # of the document rooted here (see :func:`repro.xml.index.index_for`);
    # it is left unset until first use, so read it with ``getattr``.
    # ``_children`` is a list once the element has had a child, and the
    # shared ``_NO_CHILDREN`` tuple before that.
    __slots__ = ("tag", "_attributes", "_children", "_text", "parent", "_index")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Mapping[str, AtomicValue]] = None,
        children: Optional[Iterable["XmlElement"]] = None,
        text: Optional[AtomicValue] = None,
    ):
        self.tag = _check_name(tag, "element tag")
        self._attributes: dict[str, AtomicValue] = {}
        self._children: list[XmlElement] | tuple = _NO_CHILDREN
        self._text: Optional[AtomicValue] = None
        self.parent: Optional[XmlElement] = None
        if attributes:
            for name, value in attributes.items():
                self.set_attribute(name, value)
        if children:
            for child in children:
                self.append(child)
        if text is not None:
            self.set_text(text)

    # -- construction -------------------------------------------------

    def append(self, child: "XmlElement") -> "XmlElement":
        """Append ``child`` and return it (for chaining)."""
        if not isinstance(child, XmlElement):
            raise XmlError(f"child must be an XmlElement, got {type(child).__name__}")
        if self._text is not None:
            raise XmlError(
                f"element <{self.tag}> has a text value and cannot have children"
            )
        if child.parent is not None:
            raise XmlError(
                f"element <{child.tag}> already has a parent <{child.parent.tag}>"
            )
        child.parent = self
        children = self._children
        if children:
            children.append(child)
        else:
            self._children = [child]
        return child

    def _child(self, tag: str) -> "XmlElement":
        """Append and return a new empty child whose ``tag`` the caller
        has already validated (generated plan code checks its constant
        tags once, when it is emitted); keeps :meth:`append`'s
        text-value check."""
        if self._text is not None:
            raise XmlError(
                f"element <{self.tag}> has a text value and cannot have children"
            )
        child = XmlElement.__new__(XmlElement)
        child.tag = tag
        child._attributes = {}
        child._children = _NO_CHILDREN
        child._text = None
        child.parent = self
        children = self._children
        if children:
            children.append(child)
        else:
            self._children = [child]
        return child

    def insert(self, index: int, child: "XmlElement") -> "XmlElement":
        """Insert ``child`` at ``index`` among the children (same
        checks as :meth:`append`)."""
        self.splice(index, index, (child,))
        return child

    def extend(self, children: Iterable["XmlElement"]) -> None:
        for child in children:
            self.append(child)

    def splice(
        self, start: int, stop: int, children: Iterable["XmlElement"] = ()
    ) -> list["XmlElement"]:
        """Replace the children at ``start:stop`` with ``children``
        (same checks as :meth:`append`) and return the replaced ones,
        detached: a replacement, removal or insertion by index."""
        added = list(children)
        for child in added:
            if not isinstance(child, XmlElement):
                raise XmlError(f"child must be an XmlElement, got {type(child).__name__}")
            if self._text is not None:
                raise XmlError(f"element <{self.tag}> has a text value and cannot have children")
            if child.parent is not None:
                raise XmlError(f"element <{child.tag}> already has a parent <{child.parent.tag}>")
        current = self._children
        removed = list(current[start:stop])
        if current:
            current[start:stop] = added
        elif added:
            self._children = added
        for child in removed:
            child.parent = None
        for child in added:
            child.parent = self
        return removed

    def remove(self, child: "XmlElement") -> None:
        """Detach a direct child (identity match)."""
        for index, candidate in enumerate(self._children):
            if candidate is child:
                del self._children[index]
                child.parent = None
                return
        raise XmlError(f"<{child.tag}> is not a child of <{self.tag}>")

    def release(self) -> None:
        """Dismantle the tree rooted here, which the caller owns and
        will not read again, so that reference counting alone frees it.

        Every element keeps its parent alive and the root keeps its
        document index, so an intact tree is a reference cycle that only
        a full garbage collection reclaims.  This detaches the element
        from its parent (if any), drops its index, and — over an
        explicit stack — empties every element's child list and clears
        its ``parent``.  Afterwards each former element is a bare,
        parentless leaf that may be appended anywhere.
        """
        if self.parent is not None:
            self.parent.remove(self)
        self._index = None
        stack = [self]
        while stack:
            node = stack.pop()
            children = node._children
            if children:
                stack.extend(children)
                node._children = _NO_CHILDREN
            node.parent = None

    def set_attribute(self, name: str, value: AtomicValue) -> None:
        name = _check_name(name.lstrip("@"), "attribute name")
        self._attributes[name] = _check_atomic(value, f"attribute @{name}")

    def set_text(self, value: AtomicValue) -> None:
        if self._children:
            raise XmlError(
                f"element <{self.tag}> has children and cannot carry a text value"
            )
        self._text = _check_atomic(value, f"text of <{self.tag}>")

    def remove_attribute(self, name: str) -> None:
        """Drop an attribute if present (accepts a leading ``@``)."""
        self._attributes.pop(name.lstrip("@"), None)

    def clear_text(self) -> None:
        """Drop the text value if present."""
        self._text = None

    # -- access --------------------------------------------------------

    @property
    def attributes(self) -> Mapping[str, AtomicValue]:
        """Read-only view of the attribute map (insertion-ordered)."""
        return dict(self._attributes)

    @property
    def children(self) -> tuple["XmlElement", ...]:
        return tuple(self._children)

    @property
    def text(self) -> Optional[AtomicValue]:
        return self._text

    def attribute(self, name: str, default: Optional[AtomicValue] = None):
        """Return the attribute value, accepting ``name`` or ``@name``."""
        return self._attributes.get(name.lstrip("@"), default)

    def has_attribute(self, name: str) -> bool:
        return name.lstrip("@") in self._attributes

    def find(self, tag: str) -> Optional["XmlElement"]:
        """Return the first child with the given tag, or ``None``."""
        for child in self._children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["XmlElement"]:
        """Return all children with the given tag, in document order."""
        return [child for child in self._children if child.tag == tag]

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first pre-order traversal over this element and
        descendants (an explicit stack: depth is bounded by memory, not
        by the recursion limit)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def descendants(self, tag: str) -> list["XmlElement"]:
        """All descendants (not self) with the given tag, in document order."""
        return [node for node in self.iter() if node is not self and node.tag == tag]

    def path_from_root(self) -> list["XmlElement"]:
        """Elements on the path root → self, inclusive."""
        chain: list[XmlElement] = []
        node: Optional[XmlElement] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator["XmlElement"]:
        return iter(self._children)

    def size(self) -> int:
        """Total number of element nodes in this subtree."""
        # An explicit stack instead of the recursive iter(): chained
        # generators cost O(depth) per node, which shows up when the
        # incremental runtime sizes whole documents per call.
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node._children)
        return count

    # -- copies and comparison -----------------------------------------

    def __reduce__(self):
        """Pickle as one flat pre-order list, four entries per node
        (tag, attributes, text, child count): no recursion, so any
        depth pickles, and no document index (a cache, rebuilt on
        demand).  The restored subtree has no parent, like a
        :meth:`copy`."""
        nodes = []
        stack = [self]
        while stack:
            node = stack.pop()
            children = node._children
            nodes += (node.tag, node._attributes, node._text, len(children))
            stack.extend(reversed(children))
        return _unflatten, (nodes,)

    def copy(self) -> "XmlElement":
        """Deep copy of this subtree (the copy has no parent).

        Bypasses construction-time validation: every name and value in
        an existing element already passed it, and re-checking on copy
        dominates the cost of reusing clean target fragments in the
        incremental runtime.
        """
        return self._clone({})

    def _clone(self, orders: dict) -> "XmlElement":
        """Deep copy with an explicit stack (depth is bounded by memory,
        not by the recursion limit); ``orders`` maps ``id()`` of an
        element to the order its children are copied in."""
        new = XmlElement.__new__
        clone = new(XmlElement)
        clone.parent = None
        stack = [(self, clone)]
        while stack:
            source, target = stack.pop()
            target.tag = source.tag
            target._attributes = dict(source._attributes)
            target._text = source._text
            sources = source._children
            if not sources:
                target._children = _NO_CHILDREN
                continue
            if orders:
                sources = orders.get(id(source), sources)
            children = []
            for child in sources:
                child_clone = new(XmlElement)
                child_clone.parent = target
                children.append(child_clone)
                stack.append((child, child_clone))
            target._children = children
        return clone

    def _key(self):
        """A flat hashable key — every node's tag, sorted attributes,
        text and child count, in pre-order — equal exactly when the
        trees are, with no nesting for deep trees to recurse on."""
        return tuple(
            (
                node.tag,
                tuple(sorted(node._attributes.items())),
                node._text,
                len(node._children),
            )
            for node in self.iter()
        )

    def _canonical_orders(self) -> dict[int, list["XmlElement"]]:
        """For every element with two or more children, those children
        in canonical order — sorted by the repr of each child's
        canonical key ``(tag, sorted attributes, text, sorted child
        keys)``, the reprs built bottom-up as strings (and dropped once
        the parent has used them), so neither the keys nor their reprs
        recurse on deep trees."""
        ranked: set[int] = set()  # nodes whose repr some sort needs
        stack = [(self, False)]
        while stack:
            node, needed = stack.pop()
            needed = needed or len(node._children) > 1
            for child in node._children:
                if needed:
                    ranked.add(id(child))
                stack.append((child, needed))
        reprs: dict[int, str] = {}
        orders: dict[int, list[XmlElement]] = {}
        for node in reversed(list(self.iter())):  # children first
            children = node._children
            if len(children) > 1:
                orders[id(node)] = sorted(children, key=lambda c: reprs[id(c)])
            elif id(node) not in ranked:
                continue  # its children carry no reprs
            inner = sorted(reprs.pop(id(child)) for child in children)
            if id(node) not in ranked:
                continue
            attributes = tuple(sorted(
                node._attributes.items(), key=lambda kv: (kv[0], repr(kv[1]))
            ))
            inner_repr = (
                f"({inner[0]},)" if len(inner) == 1 else f"({', '.join(inner)})"
            )
            reprs[id(node)] = (
                f"({node.tag!r}, {attributes!r}, {node._text!r}, {inner_repr})"
            )
        return orders

    def canonical(self) -> "XmlElement":
        """Return a copy with children recursively sorted into a canonical
        order, for order-insensitive comparison of data-exchange results."""
        return self._clone(self._canonical_orders())

    def equals_canonically(self, other: "XmlElement") -> bool:
        """Order-insensitive deep equality: the trees match pairwise
        once every child list is in canonical order (see
        :meth:`_canonical_orders`), compared over an explicit stack."""
        if not isinstance(other, XmlElement):
            return False
        left_orders = self._canonical_orders()
        right_orders = other._canonical_orders()
        stack = [(self, other)]
        while stack:
            left, right = stack.pop()
            if (
                left.tag != right.tag
                or left._text != right._text
                or left._attributes != right._attributes
                or len(left._children) != len(right._children)
            ):
                return False
            stack.extend(zip(
                left_orders.get(id(left), left._children),
                right_orders.get(id(right), right._children),
            ))
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        bits = [f"<{self.tag}"]
        if self._attributes:
            bits.append(" " + " ".join(f"{k}={v!r}" for k, v in self._attributes.items()))
        if self._text is not None:
            bits.append(f">{self._text!r}</{self.tag}>")
        elif self._children:
            bits.append(f"> …{len(self._children)} children… </{self.tag}>")
        else:
            bits.append("/>")
        return "".join(bits)


def element(
    tag: str,
    *children: XmlElement,
    text: Optional[AtomicValue] = None,
    **attributes: AtomicValue,
) -> XmlElement:
    """Concise constructor used throughout tests and scenarios.

    >>> element("Proj", element("pname", text="Robotics"), pid=2)
    <Proj pid=2> …1 children… </Proj>
    """
    return XmlElement(tag, attributes=attributes, children=children, text=text)


def _unflatten(nodes: list) -> XmlElement:
    """Rebuild the tree :meth:`XmlElement.__reduce__` flattened."""
    new = XmlElement.__new__
    root = None
    filling: list = []  # (element, child count) still taking children
    for tag, attributes, text, count in zip(*[iter(nodes)] * 4):
        node = new(XmlElement)
        node.tag = tag
        node._attributes = attributes
        node._text = text
        node._children = [] if count else _NO_CHILDREN
        if filling:
            parent, expected = filling[-1]
            node.parent = parent
            parent._children.append(node)
            if len(parent._children) == expected:
                filling.pop()
        else:
            node.parent = None
            root = node
        if count:
            filling.append((node, count))
    return root
