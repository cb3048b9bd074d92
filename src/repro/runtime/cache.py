"""The compiled-plan cache: one compile per ``(mapping, engine)``.

A serving loop retrieves the plan for every document it applies; the
cache turns all but the first retrieval into a dictionary hit.  Keys
are the structural fingerprints of :func:`repro.runtime.plan.fingerprint`,
so the cache sees through object identity — the same mapping document
loaded twice compiles once — while any structural edit compiles fresh.

With *canonicalization* enabled (``PlanCache(canonicalize=True)`` or
the ``CLIP_CACHE_CANONICALIZE`` environment flag), keys are the
semantic fingerprints of :func:`repro.runtime.plan.canonical_fingerprint`
instead: mappings that differ only by bound-variable renaming or
``where``-conjunct order — which provably produce byte-identical
output — share one compiled plan.  The ``canonical_hits`` /
``canonical_misses`` counters report how often the canonical key paid
off, separately from the raw hit/miss totals.

The cache is thread-safe (one lock around the table and counters) and
bounded: least-recently-used plans are evicted beyond ``maxsize``.
:class:`CacheStats` feeds the batch metrics report — hits, misses,
evictions, and the seconds spent compiling on misses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.mapping import ClipMapping
from ..settings import boolean, resolve_setting
from .plan import CompiledPlan, canonical_fingerprint, compile_plan, fingerprint

#: Environment flag turning canonical cache keys on by default (off
#: when unset, preserving the structural-fingerprint behaviour
#: existing deployments key on).
CANONICALIZE_ENV = "CLIP_CACHE_CANONICALIZE"


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0
    #: Lookups resolved through a *canonical* key (only counted when
    #: the cache canonicalizes): a canonical hit on a structurally new
    #: mapping is exactly one compile saved by the algebra.
    canonical_hits: int = 0
    canonical_misses: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits,
            self.misses,
            self.evictions,
            self.compile_seconds,
            self.canonical_hits,
            self.canonical_misses,
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compile_seconds": self.compile_seconds,
            "canonical_hits": self.canonical_hits,
            "canonical_misses": self.canonical_misses,
        }


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed by fingerprint."""

    def __init__(self, maxsize: int = 128, *, canonicalize: Optional[bool] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be a positive integer")
        self.maxsize = maxsize
        #: Whether :meth:`get_or_compile` keys plans by canonical
        #: (semantic) fingerprints instead of structural ones.
        self.canonicalize = resolve_setting(
            canonicalize, CANONICALIZE_ENV, False, parse=boolean
        )
        self._plans: OrderedDict[str, CompiledPlan] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return self._stats.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fp: str) -> bool:
        with self._lock:
            return fp in self._plans

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def fingerprint_for(
        self,
        mapping: ClipMapping,
        engine: str = "tgd",
        *,
        optimize: Optional[bool] = None,
    ) -> str:
        """The key this cache would use for a mapping: canonical when
        the cache canonicalizes, structural otherwise."""
        if self.canonicalize:
            return canonical_fingerprint(mapping, engine, optimize=optimize)
        return fingerprint(mapping, engine, optimize=optimize)

    def put(self, plan: CompiledPlan) -> None:
        """Seed the cache with an externally compiled plan (e.g. a
        pipeline reusing its transformers' compiled tgds)."""
        with self._lock:
            self._stats.compile_seconds += plan.compile_seconds
            self._plans[plan.fingerprint] = plan
            self._plans.move_to_end(plan.fingerprint)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self._stats.evictions += 1

    def peek(self, fp: str) -> Optional[CompiledPlan]:
        """The cached plan for a fingerprint without touching the
        hit/miss counters or the LRU order.

        Observability callers (the service's mapping-detail endpoint,
        diagnostics) use this so that *inspecting* the cache never
        perturbs the statistics that serving traffic reports.
        """
        with self._lock:
            return self._plans.get(fp)

    def lookup(self, fp: str) -> Optional[CompiledPlan]:
        """The cached plan for a fingerprint, or ``None`` (counts as a
        hit or miss)."""
        with self._lock:
            plan = self._plans.get(fp)
            if plan is None:
                self._stats.misses += 1
                return None
            self._plans.move_to_end(fp)
            self._stats.hits += 1
            return plan

    def _count_canonical(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self._stats.canonical_hits += 1
            else:
                self._stats.canonical_misses += 1

    def get_or_compile(
        self,
        mapping: ClipMapping,
        engine: str = "tgd",
        *,
        require_valid: bool = True,
        fp: Optional[str] = None,
        optimize: Optional[bool] = None,
        count_canonical: Optional[bool] = None,
    ) -> CompiledPlan:
        """The plan for ``(mapping, engine, optimize)``, compiling on
        first use.

        Callers applying one mapping to many documents should compute
        the key once via :meth:`fingerprint_for` and pass it in: the
        per-document retrieval is then a pure dictionary hit.  The
        fingerprint covers the ``optimize`` flag, so optimized and
        naive plans for the same mapping coexist without collisions.

        When the cache canonicalizes and no ``fp`` is supplied, the key
        is the canonical fingerprint: an alpha-renamed variant of an
        already-compiled mapping is served the existing plan (sound —
        such variants produce byte-identical output) and counted as a
        canonical hit.  A caller that computed the canonical key itself
        via :meth:`fingerprint_for` (the service's registration path)
        passes ``count_canonical=True`` to opt into the same counting;
        per-document retrievals leave it unset so serving traffic never
        inflates the compiles-saved metric.
        """
        if count_canonical is None:
            canonical_key = fp is None and self.canonicalize
        else:
            canonical_key = count_canonical and self.canonicalize
        if fp is None:
            fp = self.fingerprint_for(mapping, engine, optimize=optimize)
        plan = self.lookup(fp)
        if canonical_key:
            self._count_canonical(plan is not None)
        if plan is not None:
            return plan
        # Compile outside the lock: deterministic, so a concurrent
        # duplicate compile is wasted work but not an error.
        plan = compile_plan(
            mapping, engine, require_valid=require_valid, fp=fp,
            optimize=optimize,
        )
        with self._lock:
            self._stats.compile_seconds += plan.compile_seconds
            self._plans[fp] = plan
            self._plans.move_to_end(fp)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self._stats.evictions += 1
        return plan


#: The process-wide default cache: independent runners and CLI calls
#: within one process share compiled plans.
_DEFAULT_CACHE = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _DEFAULT_CACHE


def get_plan(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    require_valid: bool = True,
) -> CompiledPlan:
    """Retrieve (compiling at most once) a plan from the default cache."""
    return _DEFAULT_CACHE.get_or_compile(
        mapping, engine, require_valid=require_valid
    )
