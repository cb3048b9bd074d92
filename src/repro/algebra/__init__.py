"""Mapping algebra over nested tgds: compose, contain, invert.

Clip mappings compile to nested tgds (Section IV); this package gives
the reproduction the three algebraic operations the related work
defines on such mappings:

* :func:`compose` / :func:`compose_tgds` — Arenas–Pérez–Reutter–Riveros
  composition: an ``A→B`` and a ``B→C`` mapping fused into one ``A→C``
  tgd whose one-pass plan is byte-identical to the sequential pipeline;
* :func:`contains` / :func:`equivalent` — Calì–Torlone containment, a
  three-valued decision procedure over canonical tgd normal forms, the
  same normal forms every plan-cache key hashes;
* :func:`quasi_inverse` / :func:`predicted_core` — inversion of the
  copy-like fragment, powering the fuzz farm's source → target →
  source′ round-trip oracle.

Operations outside their decidable/symbolic fragments fail *loudly*
(:class:`repro.errors.ComposeError`, :class:`repro.errors.InverseError`)
or answer ``None`` — never silently wrong.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "..errors": ("AlgebraError", "ComposeError", "InverseError"),
    ".compose": ("compose", "compose_fingerprint", "compose_tgds"),
    ".containment": ("contains", "equivalent", "in_decidable_fragment"),
    ".inverse": ("core_tgd", "predicted_core", "quasi_inverse"),
    ".normalize": ("canonical_render", "canonical_tgd"),
})

__all__ = [
    "AlgebraError",
    "ComposeError",
    "InverseError",
    "canonical_render",
    "canonical_tgd",
    "compose",
    "compose_fingerprint",
    "compose_tgds",
    "contains",
    "core_tgd",
    "equivalent",
    "in_decidable_fragment",
    "predicted_core",
    "quasi_inverse",
]
