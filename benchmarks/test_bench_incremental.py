"""Incremental-recomputation benchmarks: delta-scoped vs. full runs.

The ISSUE-9 performance contract: for small deltas (a single-field
edit, well under 5% of source nodes) the incremental session must beat
a full recompute by at least 5× at the Figure 7 L geometry.  The
benchmarked unit is one *edit cycle* — a ring of documents that each
differ from the previous one by one field edit, ending back at the
base — so the stateful arms replay the same chain every round:

* ``full``       — ``plan.run`` per document (the baseline cost);
* ``transform``  — :class:`IncrementalSession.transform` per document,
  which re-derives the delta with :func:`compute_delta` first (the
  two-trees contract);
* ``apply``      — :meth:`IncrementalSession.apply` per precomputed
  delta (the edit-script contract, matching the stateless
  :func:`transform_delta` signature where the delta is an input);
* ``stateless``  — :func:`transform_delta` per step, carrying the
  previous source and target explicitly instead of session state; each
  call seeds a one-shot session with copies of both and applies the
  delta, so it runs the session's scoped path plus two copies.

``incremental-fallback`` measures the policy escape hatch: a delta
over the ratio threshold falls back to a full recompute, so its cost
must track ``full``, not explode.  The committed ``BENCH_incremental``
baseline is regression-gated by ``compare_bench.py`` in CI, and
:func:`test_incremental_speedup_floor` enforces the 5× ratio in-test
with best-of-N timing.  Byte-identity against a fresh full run is
asserted during warm-up at every geometry: an unsound cache is a bug,
not a win.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.compile import compile_clip
from repro.executor import prepare
from repro.runtime.incremental import IncrementalSession, transform_delta
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.diff import compute_delta
from repro.xml.serialize import to_xml

#: Grouping-heavy Figure 7 and child-level Figure 5 geometries.  The
#: name pool scales with the project count so grouping keys stay
#: mostly distinct (real project names are), keeping the per-group
#: recompute unit small relative to the document.
_GEOMETRIES = {
    "fig7": {
        "S": DeptstoreSpec(departments=4, projects_per_dept=6,
                           employees_per_dept=8, project_name_pool=8),
        "M": DeptstoreSpec(departments=8, projects_per_dept=10,
                           employees_per_dept=14, project_name_pool=40),
        "L": DeptstoreSpec(departments=12, projects_per_dept=16,
                           employees_per_dept=22, project_name_pool=96),
        "XL": DeptstoreSpec(departments=18, projects_per_dept=22,
                            employees_per_dept=30, project_name_pool=160),
    },
    "fig5": {
        "L": DeptstoreSpec(departments=12, projects_per_dept=16,
                           employees_per_dept=22),
        "XL": DeptstoreSpec(departments=18, projects_per_dept=22,
                            employees_per_dept=30),
    },
}

_MAPPINGS = {
    "fig5": deptstore.mapping_fig5,
    "fig7": deptstore.mapping_fig7,
}

#: Documents per edit cycle (one benchmark round replays them all).
_CYCLE = 12

#: Best-of-N timing for the in-test speedup floor.
_TIMING_ROUNDS = 5

#: The ISSUE-9 acceptance floor: session ≥ 5× full recompute for
#: small deltas at fig7 L.
_SPEEDUP_FLOOR = 5.0


def _edit_cycle(fig: str, base):
    """A ring of documents: each differs from its predecessor by one
    field edit, and the last entry is the base again so stateful arms
    can replay the ring indefinitely."""
    docs = []
    for index in range(_CYCLE):
        doc = base.copy()
        if fig == "fig7":
            projects = [
                proj
                for dept in doc.findall("dept")
                for proj in dept.findall("Proj")
            ]
            target = projects[(7 * index) % len(projects)]
            field = target.find("pname")
            field.clear_text()
            field.set_text(f"edited-{index}")
        else:
            employees = [
                emp
                for dept in doc.findall("dept")
                for emp in dept.findall("regEmp")
            ]
            target = employees[(11 * index) % len(employees)]
            field = target.find("ename")
            field.clear_text()
            field.set_text(f"Edited {index}")
        docs.append(doc)
    docs.append(base.copy())
    return docs


def _ring_deltas(base, docs):
    out = []
    prev = base
    for doc in docs:
        out.append(compute_delta(prev, doc))
        prev = doc
    return out


@pytest.fixture(scope="module")
def workloads():
    loads = {}
    for fig, sizes in _GEOMETRIES.items():
        plan = prepare(compile_clip(_MAPPINGS[fig]()), optimize=True)
        for size, spec in sizes.items():
            base = make_deptstore_instance(spec)
            docs = _edit_cycle(fig, base)
            loads[(fig, size)] = (plan, base, docs, _ring_deltas(base, docs))
    # The rings keep hundreds of thousands of long-lived nodes alive;
    # without freezing them out of the young generations, periodic
    # full collections land inside individual rounds and make the
    # L-size timings bimodal (observed 100ms+ swings on otherwise
    # ~15ms rounds, in every arm including the full-recompute one).
    gc.collect()
    gc.freeze()
    yield loads
    gc.unfreeze()


def _warm_session(plan, base, docs):
    """A session advanced through one full ring, byte-checked against
    fresh full runs along the way (the correctness half of the bench)."""
    session = IncrementalSession(plan)
    session.transform(base)
    for doc in docs:
        target, _ = session.transform(doc)
        assert to_xml(target) == to_xml(plan.run(doc))
    return session


@pytest.mark.parametrize("size", ["S", "M", "L", "XL"])
@pytest.mark.benchmark(group="incremental-fig7")
def test_bench_incremental_full_fig7(benchmark, workloads, size):
    plan, _base, docs, _deltas = workloads[("fig7", size)]

    def cycle():
        for doc in docs:
            plan.run(doc)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


@pytest.mark.parametrize("size", ["S", "M", "L", "XL"])
@pytest.mark.benchmark(group="incremental-fig7")
def test_bench_incremental_transform_fig7(benchmark, workloads, size):
    plan, base, docs, _deltas = workloads[("fig7", size)]
    session = _warm_session(plan, base, docs)

    def cycle():
        for doc in docs:
            session.transform(doc)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


@pytest.mark.parametrize("size", ["S", "M", "L", "XL"])
@pytest.mark.benchmark(group="incremental-fig7")
def test_bench_incremental_apply_fig7(benchmark, workloads, size):
    plan, base, docs, deltas = workloads[("fig7", size)]
    session = _warm_session(plan, base, docs)

    def cycle():
        for delta in deltas:
            session.apply(delta)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


@pytest.mark.parametrize("size", ["L", "XL"])
@pytest.mark.parametrize("arm", ["full", "apply"])
@pytest.mark.benchmark(group="incremental-fig5")
def test_bench_incremental_fig5(benchmark, workloads, size, arm):
    plan, base, docs, deltas = workloads[("fig5", size)]
    if arm == "full":

        def cycle():
            for doc in docs:
                plan.run(doc)

    else:
        session = _warm_session(plan, base, docs)

        def cycle():
            for delta in deltas:
                session.apply(delta)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


@pytest.mark.benchmark(group="incremental-stateless")
def test_bench_incremental_stateless_fig7_l(benchmark, workloads):
    """The stateless contract at fig7 L: previous source, previous
    target and the delta are all inputs; no session state is carried
    between calls (each call copies both trees into a one-shot
    session)."""
    plan, base, docs, deltas = workloads[("fig7", "L")]
    chain = []
    prev = base
    for doc, delta in zip(docs, deltas):
        chain.append((prev, plan.run(prev), delta))
        prev = doc

    def cycle():
        for old_source, old_target, delta in chain:
            transform_delta(plan, old_source, old_target, delta)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


@pytest.mark.benchmark(group="incremental-fallback")
def test_bench_incremental_fallback_large_delta(benchmark, workloads):
    """A delta over the ratio threshold must degrade to full-recompute
    cost, not worse: the session detects the oversized edit up front
    and re-runs the plan once over its maintained tree."""
    plan, base, _docs, _deltas = workloads[("fig7", "L")]
    edited = base.copy()
    for dept in edited.findall("dept"):
        for proj in dept.findall("Proj"):
            field = proj.find("pname")
            field.clear_text()
            field.set_text("renamed")
        for emp in dept.findall("regEmp"):
            field = emp.find("ename")
            field.clear_text()
            field.set_text("renamed")
    ring = [edited, base.copy()]
    session = IncrementalSession(plan)
    session.transform(base)
    for doc in ring:
        target, report = session.transform(doc)
        assert report.mode == "fallback"
        assert to_xml(target) == to_xml(plan.run(doc))

    def cycle():
        for doc in ring:
            session.transform(doc)

    benchmark.pedantic(cycle, rounds=3, iterations=1)


def _best_cycle(run_cycle, rounds: int = _TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run_cycle()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("fig", ["fig7", "fig5"])
def test_incremental_speedup_floor(workloads, fig):
    """The acceptance gate proper: at the L geometry, best-of-N
    delta-driven session time beats best-of-N full-recompute time by
    at least the 5× floor.  The warm-up ring byte-checks every step
    against a fresh full run, and every delta in the ring is verified
    small (well under 5% of source nodes)."""
    plan, base, docs, deltas = workloads[(fig, "L")]
    size = base.size()
    for delta in deltas:
        assert delta.ratio(size) <= 0.05, "edit cycle delta is not small"
    session = _warm_session(plan, base, docs)

    def full_cycle():
        for doc in docs:
            plan.run(doc)

    def apply_cycle():
        for delta in deltas:
            session.apply(delta)

    full_best = _best_cycle(full_cycle)
    apply_best = _best_cycle(apply_cycle)
    speedup = full_best / apply_best
    assert speedup >= _SPEEDUP_FLOOR, (
        f"{fig} L: incremental speedup {speedup:.2f}× below the "
        f"{_SPEEDUP_FLOOR}× floor (full {full_best * 1000:.1f} ms, "
        f"apply {apply_best * 1000:.1f} ms per cycle)"
    )
