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
    children and ``'---`` for the last child.
    """
    lines: list[str] = []
    _draw(root, lines, prefix="", is_root=True, is_last=True)
    return "\n".join(lines)


def _label(node: XmlElement) -> str:
    if node.text is not None:
        return f"{node.tag} = {_value_to_text(node.text)}"
    return node.tag


def _entries(node: XmlElement) -> list[tuple[str, Optional[XmlElement]]]:
    """The printable rows under a node: attributes first, then children."""
    rows: list[tuple[str, Optional[XmlElement]]] = [
        (f"@{name} = {_value_to_text(value)}", None)
        for name, value in node.attributes.items()
    ]
    rows.extend((_label(child), child) for child in node.children)
    return rows


def _draw(node: XmlElement, lines: list[str], prefix: str, is_root: bool, is_last: bool) -> None:
    if is_root:
        lines.append(_label(node))
        child_prefix = ""
    else:
        connector = "'---" if is_last else "|---"
        lines.append(f"{prefix}{connector}{_label(node)}")
        child_prefix = prefix + ("    " if is_last else "|   ")
    rows = _entries(node)
    for index, (text, child) in enumerate(rows):
        last = index == len(rows) - 1
        if child is None:
            connector = "'---" if last else "|---"
            lines.append(f"{child_prefix}{connector}{text}")
        else:
            _draw(child, lines, child_prefix, is_root=False, is_last=last)
