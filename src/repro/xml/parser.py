"""Parse XML text into :class:`~repro.xml.model.XmlElement` trees.

Built on the standard library's :mod:`xml.etree.ElementTree` parser.
Values are strings unless :func:`parse_xml` is given a schema, which
coerces them to their declared atomic types (``int`` salaries compare
numerically in predicates, as the paper's examples require).

One iterative walk over ElementTree's nodes strips namespace prefixes,
checks names (once per distinct name) and coerces values.  Each schema
declaration compiles once into a parse plan kept on it: its tag, its
children's plans by tag, its text and attribute coercions (``String``
is the identity; a built-in type's result needs no atomic check).  Two
attributes of one element that strip to the same local name (``a:x``
and ``b:x``) are an :class:`~repro.errors.XmlParseError`.  The walk's
explicit stack bounds depth by memory, not by the recursion limit, and
checks the deadline at each descent (``ElementTree`` itself cannot stop).
"""

from __future__ import annotations

import xml.etree.ElementTree as _ET
from typing import Optional

from ..errors import XmlParseError
from ..runtime.retry import active_deadline, check_deadline
from .model import _NO_CHILDREN, XmlElement, _check_atomic, _check_name


def parse_xml(text: str, schema: Optional[object] = None) -> XmlElement:
    """Parse XML text into an instance tree.

    Parameters
    ----------
    text:
        The XML document text.
    schema:
        Optional :class:`repro.xsd.schema.Schema`; when given, attribute
        and text values are coerced to the types the schema declares.
        The root element is coerced by the schema's root declaration
        and every descendant by the declaration its tag names under its
        parent's; undeclared elements keep string values.
    """
    try:
        etree_root = _ET.fromstring(text)
    except _ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc

    # Per call, so no document grows a kept table: raw tag → plan of an
    # undeclared element (whose ``None`` children table means "resolve
    # here", so no plan refers back); names that strip to themselves.
    untyped: dict[str, tuple] = {}
    plain: set[str] = set()
    names: dict[str, str] = {}  # raw attribute name → local name
    raw = etree_root.tag
    plan = _resolve(raw, untyped, untyped)
    if schema is not None:
        typed = _plan(schema.root)  # the root's, whatever its tag
        plan = typed if typed[0] == plan[0] else _decl_plan(schema.root, plan[0], typed[1])
    new = XmlElement.__new__
    deadline = active_deadline()  # polled per descent
    holder = new(XmlElement)  # the root is made like every element, as its child
    holder._children = []
    # (children still to read, their parent, the parent's child plans)
    stack: list = [(iter((etree_root,)), holder, {raw: plan})]
    while stack:
        pending, parent, table = stack[-1]
        append = parent._children.append
        for node in pending:
            raw = node.tag
            tag, children, text_coerce, attribute_coerce = (
                table.get(raw) or _resolve(raw, table, untyped)
            )
            out = new(XmlElement)
            out.tag = tag
            out._text = None
            # ElementTree's own dict (its tree is dropped after the
            # walk), unless a name needs its first check or a strip.
            out._attributes = attributes = node.attrib
            if attributes:
                for raw_name in attributes:
                    if raw_name not in plain:
                        attributes = out._attributes = _attributes(node, tag, plain, names)
                        break
                for name, coerce in attribute_coerce:
                    value = attributes.get(name)
                    if value is not None:
                        attributes[name] = coerce(value)
            out.parent = parent
            append(out)
            if len(node):
                # Mixed-content text is dropped.  Descend now and resume
                # this parent's children afterwards, so elements are
                # read (and errors raised) in document order.
                if deadline is not None:
                    deadline.polls -= 1
                    if deadline.polls < 0:
                        check_deadline()
                out._children = []
                stack.append((iter(node), out, children or untyped))
                break
            out._children = _NO_CHILDREN
            value = node.text
            if value and (value := value.strip()):
                out._text = value if text_coerce is None else text_coerce(value)
        else:
            stack.pop()
    root = holder._children[0]
    root.parent = None
    return root


def _resolve(raw: str, table: dict, untyped: dict) -> tuple:
    """The plan of a raw tag missing from ``table``: the declared
    child's by local name if ``table`` has one, else the untyped one."""
    plan = untyped.get(raw)
    if plan is None:
        tag = _check_name(raw.split("}")[-1], "element tag")
        plan = untyped[raw] = (tag, None, None, ())
    return table.get(plan[0], plan)


def _attributes(node, tag: str, plain: set, names: dict) -> dict:
    """``node``'s attributes by local name."""
    attributes: dict = {}
    for raw_name, value in node.attrib.items():
        name = names.get(raw_name)
        if name is None:
            name = names[raw_name] = _check_name(raw_name.split("}")[-1], "attribute name")
            if name == raw_name:
                plain.add(raw_name)
        attributes[name] = value
    if len(attributes) != len(node.attrib):
        seen: dict[str, str] = {}
        for raw_name in node.attrib:
            name = names[raw_name]
            if name in seen:
                raise XmlParseError(
                    f"attributes {seen[name]!r} and {raw_name!r} of <{tag}> "
                    f"both strip to the local name {name!r}"
                )
            seen[name] = raw_name
    return attributes


def _plan(decl) -> tuple:
    """The parse plan of the schema root ``decl``, compiled with its
    descendants' on first use and kept on it once whole (declarations
    do not change once built, so a concurrent fill keeps an equal one)."""
    plan = getattr(decl, "_parse_plan", None)
    if plan is None:
        plans = {node: _decl_plan(node, node.name, {}) for node in decl.iter()}
        for node, node_plan in plans.items():
            # ElementTree only gives a tag that passes ``_check_name``;
            # a prefixed one resolves (and is checked) by its local name.
            node_plan[1].update((child.name, plans[child]) for child in node.children)
        plan = decl._parse_plan = plans[decl]
    return plan


def _decl_plan(decl, tag: str, children: dict) -> tuple:
    """``(tag, child plans by raw tag, text coercion, ((attribute,
    coercion), ...))`` of an element ``tag`` declared by ``decl``."""
    attributes = [(a.name, _coercion(a.type, f"attribute @{a.name}")) for a in decl.attributes]
    return (tag, children, _coercion(decl.text_type, f"text of <{tag}>"),
            tuple(pair for pair in attributes if pair[1] is not None))


def _coercion(atomic, label: str):
    """``None`` for no type or ``String`` (the identity), a built-in
    type's parser as is, else the parser with its result checked."""
    from ..xsd.types import BOOLEAN, FLOAT, INT, STRING

    if atomic is None or atomic == STRING:
        return None
    if atomic in (INT, FLOAT, BOOLEAN):
        return atomic.parse
    parse = atomic.parse
    return lambda value: _check_atomic(parse(value), label)
