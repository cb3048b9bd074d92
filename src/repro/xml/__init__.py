"""XML instance substrate: ordered trees, paths, parsing and rendering."""

from .index import DocumentIndex, IndexStats, index_for
from .model import AtomicValue, XmlElement, element
from .parser import parse_xml
from .paths import (
    AttributeStep,
    ChildStep,
    Path,
    TextStep,
    atomize,
    evaluate,
    evaluate_one,
    parse_path,
)
from .serialize import to_ascii, to_xml

__all__ = [
    "AtomicValue",
    "DocumentIndex",
    "IndexStats",
    "XmlElement",
    "element",
    "index_for",
    "parse_xml",
    "Path",
    "ChildStep",
    "AttributeStep",
    "TextStep",
    "parse_path",
    "evaluate",
    "evaluate_one",
    "atomize",
    "to_xml",
    "to_ascii",
]
