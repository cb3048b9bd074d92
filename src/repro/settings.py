"""One resolution rule for every configuration knob.

Every setting — the ``CLIP_SERVICE_*`` service knobs, ``CLIP_OPTIMIZE``
and ``CLIP_CACHE_CANONICALIZE`` — resolves **flag > environment >
default** through :func:`resolve_setting`.  Boolean variables share
one parser, :func:`boolean`, so they accept the same spellings and
reject the same typos.  This module imports nothing from the package,
so the executor and the runtime use it without pulling in the HTTP
service; :mod:`repro.service.config` re-exports it.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Optional, TypeVar

T = TypeVar("T")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def boolean(raw: str) -> bool:
    """Parse a boolean setting: ``1``/``true``/``yes``/``on`` or
    ``0``/``false``/``no``/``off``, case- and whitespace-insensitive;
    anything else is a ``ValueError``."""
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"expected one of {_TRUE + _FALSE}, got {raw!r}")


def resolve_setting(
    flag: Optional[T],
    env_var: str,
    default: T,
    *,
    parse: Optional[Callable[[str], T]] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> T:
    """Resolve one configuration value: **flag > env > default**.

    ``flag`` is the explicit caller-supplied value (CLI flag, keyword
    argument); ``None`` means "not given" and falls through to the
    environment variable ``env_var``; an unset or blank variable falls
    through to ``default``.  ``parse`` converts the environment's
    string form (``int``, ``float``, :func:`boolean`, …); a parse
    failure raises ``ValueError`` naming the variable, so a typo'd
    environment never silently becomes a default.
    """
    if flag is not None:
        return flag
    raw = (environ if environ is not None else os.environ).get(env_var, "")
    raw = raw.strip()
    if not raw:
        return default
    if parse is None:
        return raw  # type: ignore[return-value]
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(
            f"{env_var}={raw!r} could not be parsed as "
            f"{getattr(parse, '__name__', 'the expected type')}"
        ) from None
