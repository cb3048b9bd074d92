"""The compiled-plan cache: one compile per ``(mapping, engine)``.

A serving loop retrieves the plan for every document it applies; the
cache turns all but the first retrieval into a dictionary hit.  Keys
are the semantic fingerprints of
:func:`repro.runtime.plan.canonical_fingerprint`, so the cache sees
through object identity — the same mapping document loaded twice
compiles once — and through alpha-renaming: mappings over the same
schemas that differ only by bound-variable names or ``where``-conjunct
order, which provably produce byte-identical output, share one
compiled plan.  The
``canonical_hits`` / ``canonical_misses`` counters report the lookups
whose key :meth:`PlanCache.get_or_compile` derived itself, separately
from the raw hit/miss totals.

The cache is thread-safe (one lock around the table and counters) and
bounded: least-recently-used plans are evicted beyond ``maxsize``.
:class:`CacheStats` feeds the batch metrics report — hits, misses,
evictions, and the seconds spent compiling on misses.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.compile import compile_clip
from ..core.mapping import ClipMapping
from ..core.tgd import NestedTgd
from ..core.validity import check
from .plan import CompiledPlan, canonical_fingerprint, compile_plan, plan_from_tgd


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0
    #: Lookups whose key :meth:`PlanCache.get_or_compile` derived
    #: itself (service registration, the fuzz farm); a batch runner's
    #: retrievals (:meth:`PlanCache.derive`, then its key) are not
    #: counted.  A canonical hit on an alpha-renamed variant is one
    #: compile saved.
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

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be a positive integer")
        self.maxsize = maxsize
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
        tgd: Optional[NestedTgd] = None,
    ) -> str:
        """The key this cache uses for a mapping (``tgd``: its compiled
        tgd, when the caller holds it): its
        :func:`~repro.runtime.plan.canonical_fingerprint`."""
        return canonical_fingerprint(mapping, engine, optimize=optimize, tgd=tgd)

    def put(self, plan: CompiledPlan) -> None:
        """Insert a compiled plan under its own fingerprint."""
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

    def plan_for_tgd(
        self,
        tgd: NestedTgd,
        engine: str,
        *,
        fp: str,
        optimize: Optional[bool],
        target,
    ) -> CompiledPlan:
        """The plan cached under ``fp``, else one built from the
        compiled ``tgd`` and cached — for plans with no Clip mapping to
        recompile from (fused compositions, pipeline steps).  Like
        :meth:`peek`, the lookup counts as neither a hit nor a miss."""
        plan = self.peek(fp)
        if plan is None:
            plan = plan_from_tgd(
                tgd, engine, fp=fp, optimize=optimize, target=target
            )
            self.put(plan)
        return plan

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

    def get_or_compile(
        self,
        mapping: ClipMapping,
        engine: str = "tgd",
        *,
        require_valid: bool = True,
        fp: Optional[str] = None,
        optimize: Optional[bool] = None,
    ) -> CompiledPlan:
        """The plan for ``(mapping, engine, optimize)``, compiling on
        first use.

        Callers applying one mapping to many documents should compute
        the key once via :meth:`fingerprint_for` and pass it in: the
        per-document retrieval is then a pure dictionary hit.  The key
        covers the ``optimize`` flag, so optimized and naive plans for
        the same mapping coexist without collisions.

        Without ``fp`` the key is derived here, and the lookup counts
        as a canonical hit or miss: an alpha-renamed variant of an
        already-compiled mapping is served the existing plan (sound —
        such variants produce byte-identical output).
        """
        return self.resolve(
            mapping, engine, require_valid=require_valid, fp=fp,
            optimize=optimize,
        )[0]

    def resolve(
        self,
        mapping: ClipMapping,
        engine: str = "tgd",
        *,
        require_valid: bool = True,
        fp: Optional[str] = None,
        optimize: Optional[bool] = None,
    ) -> tuple[CompiledPlan, bool]:
        """:meth:`get_or_compile`, also saying whether the plan was
        already cached (the service's registration answer)."""
        if fp is None:
            plan, cached = self.derive(
                mapping, engine, require_valid=require_valid, optimize=optimize
            )
            with self._lock:
                if cached:
                    self._stats.canonical_hits += 1
                else:
                    self._stats.canonical_misses += 1
            return plan, cached
        plan = self.lookup(fp)
        if plan is not None:
            return plan, True
        # Compile outside the lock: deterministic, so a concurrent
        # duplicate compile is wasted work but not an error.
        plan = compile_plan(
            mapping, engine, require_valid=require_valid, fp=fp,
            optimize=optimize,
        )
        self.put(plan)
        return plan, False

    def derive(
        self,
        mapping: ClipMapping,
        engine: str = "tgd",
        *,
        require_valid: bool = True,
        optimize: Optional[bool] = None,
    ) -> tuple[CompiledPlan, bool]:
        """Key the mapping and, on a miss, build its plan from the same
        Clip compile; returns the plan and whether it was cached.

        The lookup counts as a plain hit or miss: a
        :class:`~repro.runtime.batch.BatchRunner` keys itself here on
        its first retrieval, and only :meth:`resolve` counts the lookup
        as canonical.
        """
        started = time.perf_counter()
        report = check(mapping)
        tgd = compile_clip(mapping, require_valid=require_valid, report=report)
        fp = self.fingerprint_for(mapping, engine, optimize=optimize, tgd=tgd)
        plan = self.lookup(fp)
        if plan is not None:
            return plan, True
        plan = plan_from_tgd(
            tgd, engine, fp=fp, optimize=optimize,
            target=mapping.target, report=report,
        )
        plan.compile_seconds = time.perf_counter() - started
        self.put(plan)
        return plan, False

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
