"""XML instance substrate: ordered trees, paths, parsing and rendering."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".index": ("DocumentIndex", "IndexStats", "index_for"),
    ".model": ("AtomicValue", "XmlElement", "element"),
    ".parser": ("parse_xml",),
    ".paths": ("AttributeStep", "ChildStep", "Path", "TextStep", "atomize",
               "evaluate", "evaluate_one", "parse_path"),
    ".serialize": ("to_ascii", "to_xml"),
})

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
