"""clip-repro: a reproduction of *Clip: a Visual Language for Explicit
Schema Mappings* (Raffio, Braga, Ceri, Papotti, Hernández — ICDE 2008).

The package implements the full pipeline the paper describes:

* **schemas & instances** (:mod:`repro.xsd`, :mod:`repro.xml`) — the XML
  Schema trees the figures draw and the instance model they transform;
* **the Clip language** (:mod:`repro.core`) — value mappings, builders,
  build/group nodes, context propagation trees; Section III validity;
  Section IV nested-tgd semantics via :func:`repro.core.compile_clip`;
* **execution** (:mod:`repro.executor`) — direct minimum-cardinality
  evaluation of nested tgds;
* **XQuery** (:mod:`repro.xquery`) — the Section VI tgd → XQuery
  translation plus an interpreter for the emitted subset;
* **generation** (:mod:`repro.generation`) — Clio's tableaux/skeleton
  pipeline and Clip's Section V extension, plus the Table I flexibility
  measurement;
* **scenarios** (:mod:`repro.scenarios`) — every paper figure as an
  executable object, and synthetic workloads for the benchmarks.

Quickstart::

    from repro import Transformer
    from repro.scenarios import deptstore

    transformer = Transformer(deptstore.mapping_fig5())
    result = transformer(deptstore.source_instance())
    print(transformer.tgd)          # the paper's nested tgd notation
    print(transformer.xquery_text)  # the generated XQuery
"""

from __future__ import annotations

from ._lazy import lazy_exports

# Every name loads on first use: ``from repro import Transformer``
# imports the tgd and XQuery layers, a ``batch`` run never does.
__getattr__ = lazy_exports(__name__, {
    ".": ("algebra", "core", "errors", "executor", "generation", "runtime",
          "scenarios", "xml", "xquery", "xsd"),
    ".algebra": ("compose_fingerprint", "compose_tgds"),
    ".core.compile": ("compile_clip",),
    ".core.mapping": ("ClipMapping",),
    ".core.tgd": ("NestedTgd",),
    ".core.validity": ("check",),
    ".executor.engine": ("execute",),
    ".xml.model": ("XmlElement",),
    ".xquery.emit": ("emit_xquery",),
    ".xquery.interp": ("run_query",),
    # ``serialize_xquery`` is the transformer's name for
    # ``repro.xquery.serialize.serialize``.
    ".transformer": ("Transformer", "serialize_xquery"),
    ".pipeline": ("ComposedTransformer",),
})

__version__ = "1.0.0"


__all__ = [
    "Transformer",
    "ComposedTransformer",
    "ClipMapping",
    "NestedTgd",
    "XmlElement",
    "compile_clip",
    "check",
    "execute",
    "emit_xquery",
    "run_query",
    "serialize_xquery",
    "compose_fingerprint",
    "compose_tgds",
    "algebra",
    "core",
    "errors",
    "executor",
    "generation",
    "runtime",
    "scenarios",
    "xml",
    "xquery",
    "xsd",
    "__version__",
]
