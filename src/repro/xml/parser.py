"""Parse XML text into :class:`~repro.xml.model.XmlElement` trees.

Built on the standard library's :mod:`xml.etree.ElementTree` parser; no
third-party XML dependency is needed.  Attribute and text values are
parsed as strings; :func:`parse_xml` can optionally be given a schema so
that values are coerced to their declared atomic types (``int`` salaries
compare numerically in predicates, as the paper's examples require).

After ElementTree has parsed the text, one iterative walk over its
nodes builds the instance tree: namespace prefixes are stripped, names
validated (once per distinct name), values coerced by the schema and
checked, all in the same pass.  Two attributes of one element that
strip to the same local name (``a:x`` and ``b:x``) are an
:class:`~repro.errors.XmlParseError`, not a silent overwrite.  The walk keeps an explicit stack, so
document depth is bounded by memory, not by the interpreter's
recursion limit.
"""

from __future__ import annotations

import xml.etree.ElementTree as _ET
from typing import Optional

from ..errors import XmlParseError
from .model import XmlElement, _check_atomic, _check_name


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

    # raw (possibly namespaced) tag → (local name, text-check label)
    tags: dict[str, tuple[str, str]] = {}
    # raw attribute name → local name
    names: dict[str, str] = {}
    # (id(parent decl), tag) → child decl; id(decl) → its attribute plan
    child_decls: dict[tuple[int, str], object] = {}
    attribute_plans: dict[int, list] = {}
    new = XmlElement.__new__

    root: Optional[XmlElement] = None
    root_decl = schema.root if schema is not None else None
    # (ElementTree node, parent element, parent's decl)
    stack: list = [(etree_root, None, None)]
    while stack:
        node, parent, parent_decl = stack.pop()
        raw = node.tag
        found = tags.get(raw)
        if found is None:
            local = _check_name(raw.split("}")[-1], "element tag")
            found = tags[raw] = (local, f"text of <{local}>")
        tag, text_label = found

        if parent is None:
            decl = root_decl
        elif parent_decl is None:
            decl = None
        else:
            key = (id(parent_decl), tag)
            if key in child_decls:
                decl = child_decls[key]
            else:
                decl = child_decls[key] = parent_decl.child(tag)

        attributes: dict = {}
        for raw_name, value in node.attrib.items():
            name = names.get(raw_name)
            if name is None:
                name = names[raw_name] = _check_name(
                    raw_name.split("}")[-1], "attribute name"
                )
            attributes[name] = value
        if len(attributes) != len(node.attrib):
            _raise_attribute_collision(node, names, tag)
        if decl is not None and attributes:
            plan = attribute_plans.get(id(decl))
            if plan is None:
                plan = attribute_plans[id(decl)] = [
                    (attr.name, attr.type.parse, f"attribute @{attr.name}")
                    for attr in decl.attributes
                ]
            for name, parse, label in plan:
                value = attributes.get(name)
                if value is not None:
                    attributes[name] = _check_atomic(parse(value), label)

        out = new(XmlElement)
        out.tag = tag
        out._attributes = attributes
        out._children = []
        out._text = None
        out.parent = parent
        if parent is None:
            root = out
        else:
            parent._children.append(out)

        if len(node):
            # Mixed-content text is dropped; reversed so children pop
            # (and are appended) in document order.
            for child in reversed(node):
                stack.append((child, out, decl))
        else:
            value = node.text
            if value:
                value = value.strip()
                if value:
                    if decl is not None and decl.text_type is not None:
                        value = decl.text_type.parse(value)
                    out._text = _check_atomic(value, text_label)
    return root


def _raise_attribute_collision(node, names: dict, tag: str) -> None:
    seen: dict[str, str] = {}
    for raw_name in node.attrib:
        name = names[raw_name]
        if name in seen:
            raise XmlParseError(
                f"attributes {seen[name]!r} and {raw_name!r} of <{tag}> "
                f"both strip to the local name {name!r}"
            )
        seen[name] = raw_name
