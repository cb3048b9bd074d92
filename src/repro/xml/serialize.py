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

from typing import Optional

from .model import AtomicValue, XmlElement

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def _escape(text: str) -> str:
    for raw, escaped in _ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _value_to_text(value: AtomicValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def to_xml(root: XmlElement, *, indent: Optional[str] = "  ") -> str:
    """Serialize to XML text.  Pass ``indent=None`` for a compact string.

    Walks the tree with an explicit stack (document depth is not bounded
    by the recursion limit) and reads each element's attribute map and
    child list in place rather than through the copying accessors.
    """
    step = indent or ""
    lines: list[str] = []
    append = lines.append
    # Items are elements to open, paired with their depth, or the
    # closing-tag lines of elements whose children are still pending.
    stack: list = [(root, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        if isinstance(item, str):
            append(item)
            continue
        node, depth = item
        pad = step * depth
        tag = node.tag
        attrs = "".join(
            [
                f' {name}="{_escape(_value_to_text(value))}"'
                for name, value in node._attributes.items()
            ]
        )
        if node._text is not None:
            append(f"{pad}<{tag}{attrs}>{_escape(_value_to_text(node._text))}</{tag}>")
        elif node._children:
            append(f"{pad}<{tag}{attrs}>")
            push(f"{pad}</{tag}>")
            depth += 1
            for child in reversed(node._children):
                push((child, depth))
        else:
            append(f"{pad}<{tag}{attrs}/>")
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
