"""Serializers for XML instance trees.

Two renderings are provided:

* :func:`to_xml` — standard angle-bracket XML text (round-trips through
  :func:`repro.xml.parser.parse_xml`);
* :func:`to_ascii` — the compact tree drawing used by the paper to print
  instances, e.g. ``target---department---project [@name=Appliances]``,
  which the examples use so their console output can be compared with
  the paper's figures at a glance.
"""

from __future__ import annotations

import re
from typing import Optional

from .model import AtomicValue, XmlElement

# Attribute values also escape what attribute-value normalization would
# turn into spaces on re-parse, text the ``\r`` line-end normalization rewrites.
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;"}
_TEXT_TABLE = str.maketrans(_TEXT_ESCAPES)
_ATTRIBUTE_TABLE = str.maketrans({**_TEXT_ESCAPES, "\n": "&#10;", "\t": "&#9;"})
_TEXT_SPECIAL = re.compile('[&<>"\r]').search
_ATTRIBUTE_SPECIAL = re.compile('[&<>"\r\n\t]').search


def _value_to_text(value: AtomicValue) -> str:
    if value.__class__ is bool:  # bool cannot be subclassed
        return "true" if value else "false"
    return str(value)


def to_xml(root: XmlElement, *, indent: Optional[str] = "  ") -> str:
    """Serialize to XML text.  Pass ``indent=None`` for a compact string.

    Walks the tree with an explicit stack (document depth is not bounded
    by the recursion limit), reads attribute maps and child lists in
    place, and escapes a value only when a search finds a character
    that needs it.
    """
    lines: list[str] = []
    append = lines.append
    step = indent or ""
    pads = [""]  # the indent of each depth, built once
    # (children still to write, their depth, their parent's closing tag)
    stack: list = [(iter((root,)), 0, None)]
    while stack:
        pending, depth, close = stack[-1]
        pad = pads[depth]
        for node in pending:
            tag = node.tag
            attrs = ""
            for name, value in node._attributes.items():
                if value.__class__ is not str:
                    value = _value_to_text(value)
                if _ATTRIBUTE_SPECIAL(value):
                    value = value.translate(_ATTRIBUTE_TABLE)
                attrs += f' {name}="{value}"'
            value = node._text
            if value is not None:
                if value.__class__ is not str:
                    value = _value_to_text(value)
                if _TEXT_SPECIAL(value):
                    value = value.translate(_TEXT_TABLE)
                append(f"{pad}<{tag}{attrs}>{value}</{tag}>")
            elif node._children:
                append(f"{pad}<{tag}{attrs}>")
                if depth + 1 == len(pads):
                    pads.append(pad + step)
                stack.append((iter(node._children), depth + 1, f"{pad}</{tag}>"))
                break
            else:
                append(f"{pad}<{tag}{attrs}/>")
        else:
            stack.pop()
            if close is not None:
                append(close)
    return ("\n" if indent is not None else "").join(lines)


def to_ascii(root: XmlElement) -> str:
    """Render an instance in the paper's compact tree notation.

    Each element is printed as its tag; attributes appear as
    ``@name = value`` lines, text as ``= value`` appended to the tag.
    Branch drawing follows the paper's figures: ``|---`` for middle
    children and ``'---`` for the last child.  Like :func:`to_xml`, it
    walks the tree with an explicit stack.
    """
    lines: list[str] = []
    # (element, text before its label, prefix of the rows under it).
    stack: list[tuple[XmlElement, str, str]] = [(root, "", "")]
    while stack:
        node, head, prefix = stack.pop()
        lines.append(head + _label(node))
        attributes = node.attributes
        children = node.children
        rows = len(attributes) + len(children)
        # Attribute rows come first and are leaves: emit them now.
        for index, (name, value) in enumerate(attributes.items()):
            connector = "'---" if index == rows - 1 else "|---"
            lines.append(f"{prefix}{connector}@{name} = {_value_to_text(value)}")
        # Pushed last-first, so children pop in document order.
        last = len(children) - 1
        for index in range(last, -1, -1):
            if index == last:
                stack.append((children[index], prefix + "'---", prefix + "    "))
            else:
                stack.append((children[index], prefix + "|---", prefix + "|   "))
    return "\n".join(lines)


def _label(node: XmlElement) -> str:
    if node.text is not None:
        return f"{node.tag} = {_value_to_text(node.text)}"
    return node.tag
