"""Lazy package exports: a package's public names load on first use.

A package calls :func:`lazy_exports` with the table its eager
``from .x import a, b`` lines used to spell — ``{".x": ("a", "b")}``,
with ``"."`` listing submodules exported as themselves — so importing
the package loads none of them, and ``from pkg import a`` imports
``pkg.x`` only then (PEP 562).  Each name resolves to the same object
the eager import bound, and stays bound to it when a submodule of the
same name (``repro.algebra.compose``) is imported later.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


class _LazyPackage(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading ``pkg.name`` binds that module on ``pkg``; an exported
        # function or class of the same name keeps its binding.
        if isinstance(value, ModuleType) and self._exports.get(name, ".") != ".":
            return
        super().__setattr__(name, value)

    def __dir__(self):
        return sorted(set(super().__dir__()) | set(self._exports))


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """Install the exports of ``table`` (submodule → names) on
    ``package`` and return its module ``__getattr__``."""
    module = sys.modules[package]
    exports = {name: source for source, names in table.items() for name in names}
    module._exports = exports
    module.__class__ = _LazyPackage

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if source == ".":
            return import_module(f".{name}", package)
        value = getattr(import_module(source, package), name)
        setattr(module, name, value)
        return value

    return __getattr__
