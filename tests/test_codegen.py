"""The generated-code tgd backend: byte-identity, determinism, rebuild.

The contracts of :mod:`repro.executor.codegen`, as tests:

* **byte-identity** — the specialized generated-Python program
  serializes byte-identically to the naive reference engine over the
  seeded corpus, all axes included;
* **counter agreement** — the counters ``explain`` reports equal the
  per-level counters a traced run records in its ``plan`` subtree;
* **deterministic emission** — identical plans emit byte-identical
  source, which is what lets pool workers rebuild closures from a
  cached source string and lets the plan fingerprint stay structural;
* **wiring** — the derived ``exec_mode`` values, fingerprints that
  equal the historical ones, worker-pool rebuild-from-source, and the
  explain ``codegen`` section.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Transformer
from repro.core.compile import compile_clip
from repro.errors import ExecutionError
from repro.executor import explain_plan, prepare
from repro.executor.codegen import build_program, generate_source
from repro.executor.engine import _Engine
from repro.executor.planner import OPTIMIZE_ENV, plan_tgd
from repro.generation import AXES
from repro.generation.corpus import generate_corpus
from repro.runtime import BatchRunner, PlanCache, SpanTracer, compile_plan
from repro.runtime.incremental import IncrementalSession
from repro.runtime.plan import canonical_fingerprint, fingerprint, trace_seed
from repro.scenarios import deptstore
from repro.xml.diff import compute_delta
from repro.xml.model import element
from repro.xml.serialize import to_xml

#: A fixed corpus slice shared by the module: six axes, many shapes.
_CASES = list(generate_corpus(seed=20260808, count=36))


def test_corpus_slice_covers_every_axis():
    assert {case.axis for case in _CASES} == set(AXES)


# -- byte-identity -----------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(index=st.integers(min_value=0, max_value=len(_CASES) - 1))
def test_codegen_matches_naive_byte_for_byte(index):
    """Over corpus cases from every axis, the generated program and the
    naive reference engine serialize identical target bytes."""
    case = _CASES[index]
    tgd = compile_clip(case.mapping)
    naive = prepare(tgd, optimize=False)
    codegen = prepare(tgd, optimize=True)
    assert codegen.program is not None
    assert to_xml(codegen.run(case.instance)) == to_xml(naive.run(case.instance))


@pytest.mark.parametrize(
    "figure",
    ["fig3", "fig4", "fig6", "fig7"],
)
def test_codegen_counter_parity_on_figures(figure):
    """The counters ``explain`` reports are exactly the per-level
    events a traced run records in its ``plan`` subtree."""
    factory = {
        "fig3": deptstore.mapping_fig3,
        "fig4": deptstore.mapping_fig4,
        "fig6": deptstore.mapping_fig6,
        "fig7": deptstore.mapping_fig7,
    }[figure]
    tgd = compile_clip(factory())
    instance = deptstore.source_instance()
    report = explain_plan(tgd, instance, optimize=True)
    tracer = SpanTracer()
    result = prepare(tgd, optimize=True).run(instance, trace=tracer)

    def level_events(span):
        if span["name"].startswith("level["):
            yield span["attrs"]
        for child in span["children"]:
            yield from level_events(child)

    events = [
        attrs
        for root in tracer.to_trace().spans
        for attrs in level_events(root)
    ]
    assert len(events) == len(report.counters)
    assert events == report.counters
    assert to_xml(result) == to_xml(report.result)


# -- deterministic emission --------------------------------------------------


def test_emission_is_deterministic_for_one_plan():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig7()))
    assert generate_source(planned) == generate_source(planned)


def test_emission_is_deterministic_across_compiles():
    """Two independent compilations of the same mapping (distinct AST
    objects throughout) emit byte-identical source — names come from
    emission order, never from ``id()``."""
    first = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    second = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    assert first == second
    assert first.startswith("# clip-codegen v1")


def test_distinct_plans_emit_distinct_source():
    fig6 = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig6())))
    fig7 = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    assert fig6 != fig7


def test_program_describe_shape():
    program = build_program(plan_tgd(compile_clip(deptstore.mapping_fig6())))
    description = program.describe()
    assert set(description) == {"source_hash", "line_count", "compile_seconds"}
    assert len(description["source_hash"]) == 64
    assert description["line_count"] == len(program.source.splitlines())


# -- rebuild from source (the pool-worker path) ------------------------------


def test_build_program_accepts_matching_cached_source():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig6()))
    original = build_program(planned)
    rebuilt = build_program(planned, source=original.source)
    assert rebuilt.source == original.source
    assert rebuilt.source_hash == original.source_hash
    tgd = compile_clip(deptstore.mapping_fig6())
    instance = deptstore.source_instance()
    via_rebuilt = prepare(tgd, codegen_source=original.source)
    assert to_xml(via_rebuilt.run(instance)) == to_xml(
        prepare(tgd, optimize=False).run(instance)
    )


def test_build_program_rejects_foreign_source():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig6()))
    foreign = build_program(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    with pytest.raises(ExecutionError, match="codegen source mismatch"):
        build_program(planned, source=foreign.source)


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_workers_rebuild_from_shipped_source(workers):
    """`workers>1` ships the generated source (strings pickle, code
    objects don't); the pool's outputs match the inline naive
    reference document-for-document."""
    mapping = deptstore.mapping_fig7()
    docs = [deptstore.source_instance() for _ in range(4)]
    codegen = BatchRunner(
        mapping, workers=workers, optimize=True, cache=PlanCache()
    ).run(docs)
    naive = BatchRunner(
        mapping, workers=1, optimize=False, cache=PlanCache()
    ).run(docs)
    assert [to_xml(r) for r in codegen] == [to_xml(r) for r in naive]
    assert codegen.metrics.plan["exec_mode"] == "codegen"
    assert set(codegen.metrics.plan["codegen"]) == {
        "source_hash", "line_count", "compile_seconds"
    }
    assert naive.metrics.plan == {"optimize": False, "exec_mode": "interp"}


# -- derived exec mode and fingerprints --------------------------------------


def test_exec_mode_is_derived_from_what_runs():
    tgd = compile_clip(deptstore.mapping_fig6())
    assert prepare(tgd, optimize=True).exec_mode == "codegen"
    assert prepare(tgd, optimize=False).exec_mode == "interp"
    assert prepare(tgd, optimize=False).program is None
    # Plannerless engines report no plan at all.
    assert compile_plan(deptstore.mapping_fig6(), "xquery").plan_report() is None


def test_default_fingerprints_are_unchanged():
    """Structural fingerprints seed trace span ids: the values recorded
    before the execution backends were consolidated must still come
    out.  The canonical one keys plan caches and service registrations;
    it is pinned as of the recipe that hashes the schemas too."""
    mapping = deptstore.mapping_fig6()
    assert fingerprint(mapping, "tgd") == (
        "f78e821809163aac5e78d72307327df6d35992bafacadb1953f2f0ef53eb3adc"
    )
    assert fingerprint(mapping, "tgd", optimize=False) == (
        "34cbcad60121f9a3a802057e99d4347d4692bb8a0e4d2d43cbf336fcd9f018d9"
    )
    assert fingerprint(mapping, "xquery") == (
        "614bcfaa86fa97118d29e1f8f63e92827644c967b72542a1abf91bfa4658b65a"
    )
    assert canonical_fingerprint(mapping, "tgd") == (
        "1375b55a33fae3495cd598cde5f07ffb20e7f265b9ae2dd7e44e00cd32b705f0"
    )


def test_trace_seed_is_the_default_fingerprint(monkeypatch):
    mapping = deptstore.mapping_fig6()
    seed = trace_seed(mapping, "tgd")
    assert seed == fingerprint(mapping, "tgd", optimize=True)
    monkeypatch.setenv(OPTIMIZE_ENV, "0")
    assert trace_seed(mapping, "tgd") == seed


def test_cache_keeps_optimized_and_naive_apart():
    cache = PlanCache()
    mapping = deptstore.mapping_fig6()
    optimized = cache.get_or_compile(mapping, "tgd", optimize=True)
    naive = cache.get_or_compile(mapping, "tgd", optimize=False)
    assert optimized is not naive
    assert optimized.fingerprint != naive.fingerprint
    assert optimized.tgd_plan.program is not None
    assert naive.tgd_plan.program is None
    assert cache.get_or_compile(mapping, "tgd", optimize=True) is optimized


# -- explain -----------------------------------------------------------------


def test_explain_plan_gains_codegen_section():
    transformer = Transformer(deptstore.mapping_fig6())
    report = transformer.explain_plan(deptstore.source_instance())
    doc = report.to_dict()
    assert doc["exec_mode"] == "codegen"
    assert set(doc["codegen"]) == {"source_hash", "line_count", "compile_seconds"}
    rendered = report.render()
    assert "(optimize=on)" in rendered
    assert "codegen:" in rendered
    naive_doc = Transformer(deptstore.mapping_fig6(), optimize=False).explain_plan(
        deptstore.source_instance()
    ).to_dict()
    assert naive_doc["exec_mode"] == "interp"
    assert "codegen" not in naive_doc
    # The naive path shows the same plan, without counters.
    assert [lvl["label"] for lvl in doc["levels"]] == [
        lvl["label"] for lvl in naive_doc["levels"]
    ]
    assert all(
        value == 0
        for lvl in naive_doc["levels"]
        for value in lvl["counters"].values()
    )


# -- single- and multi-valued assignment paths -------------------------------

#: Figures whose assignments read ``p.pname.value``, the path the
#: generated code reads straight off a single ``pname`` child.
_PNAME_FIGURES = {"fig6": deptstore.mapping_fig6, "fig7": deptstore.mapping_fig7}


def _with_pnames(*texts):
    """The paper's source instance with the first project's ``pname``
    children replaced by one per text (``None``: a ``pname`` element
    without a value)."""
    doc = deptstore.source_instance()
    proj = doc.find("dept").find("Proj")
    for old in proj.findall("pname"):
        proj.remove(old)
    for text in texts:
        proj.append(element("pname") if text is None else element("pname", text=text))
    return doc


@pytest.mark.parametrize("figure", sorted(_PNAME_FIGURES))
def test_two_distinct_values_raise_one_error_on_both_engines(figure):
    tgd = compile_clip(_PNAME_FIGURES[figure]())
    messages = []
    for optimize in (False, True):
        with pytest.raises(ExecutionError) as info:
            prepare(tgd, optimize=optimize).run(_with_pnames("Alpha", "Beta"))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "yields 2 distinct values" in messages[0]


@pytest.mark.parametrize("figure", sorted(_PNAME_FIGURES))
@pytest.mark.parametrize(
    "texts, present",
    [(("Alpha", "Alpha"), True), ((), False), ((None,), False)],
    ids=["identical", "missing", "empty"],
)
def test_repeated_and_absent_values_match_on_both_engines(figure, texts, present):
    """Identical values dedupe to one; no value leaves the attribute
    absent — on both engines, byte for byte."""
    tgd = compile_clip(_PNAME_FIGURES[figure]())
    naive, optimized = (
        prepare(tgd, optimize=optimize).run(_with_pnames(*texts))
        for optimize in (False, True)
    )
    assert to_xml(optimized) == to_xml(naive)
    name = "pname" if figure == "fig6" else "name"
    values = [child.attribute(name) for child in naive.children]
    assert ("Alpha" in values) is present
    assert (None in values) is not present


# -- the optimized path builds its own target --------------------------------


def test_optimized_path_never_calls_the_naive_target_side(monkeypatch):
    """Generated code builds every element, wrapper, group and value:
    with the naive engine's target-side methods disabled, every figure
    mapping (the distribute variant of Figure 4 included) and a scoped
    incremental apply still produce the naive engine's bytes."""
    instance = deptstore.source_instance()
    tgds = {
        scenario.figure: compile_clip(scenario.make_mapping())
        for scenario in deptstore.FIGURES
    }
    expected = {
        figure: to_xml(prepare(tgd, optimize=False).run(instance))
        for figure, tgd in tgds.items()
    }
    edited = deptstore.source_instance()
    edited.find("dept").find("Proj").find("pname").set_text("Renamed")
    expected_edited = {
        figure: to_xml(prepare(tgds[figure], optimize=False).run(edited))
        for figure in ("fig5", "fig7")
    }

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the optimized path called _Engine.{name}")
        return call

    for name in ("_materialize_targets", "_apply_assignment", "unit",
                 "_run_mapping", "_run_grouped"):
        monkeypatch.setattr(_Engine, name, forbidden(name))
    for figure, tgd in tgds.items():
        assert to_xml(prepare(tgd, optimize=True).run(instance)) == expected[figure]
    for figure, reference in expected_edited.items():
        session = IncrementalSession(prepare(tgds[figure], optimize=True))
        session.transform(instance)
        got, report = session.apply(compute_delta(instance, edited))
        assert report.mode == "scoped"
        assert to_xml(got) == reference
