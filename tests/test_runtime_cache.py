"""Plan-cache and batch-runner correctness.

The batch runtime's contract: the once-per-mapping work happens once
(fingerprinted plan cache), document fan-out changes nothing about the
results (parallel == sequential, in order), and every run accounts for
itself (metrics).
"""

from __future__ import annotations

import pytest

from repro import Transformer
from repro.runtime import (
    BatchRunner,
    PlanCache,
    canonical_fingerprint,
    compile_plan,
    default_cache,
    fingerprint,
    get_plan,
    plan_from_tgd,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance


def _docs(count: int, **kwargs) -> list:
    spec = dict(departments=2, projects_per_dept=2, employees_per_dept=5)
    spec.update(kwargs)
    return [
        make_deptstore_instance(DeptstoreSpec(seed=seed, **spec))
        for seed in range(count)
    ]


class TestFingerprint:
    def test_structurally_equal_distinct_objects_share_fingerprint(self):
        assert fingerprint(deptstore.mapping_fig4()) == fingerprint(
            deptstore.mapping_fig4()
        )

    def test_mutation_changes_fingerprint(self):
        mapping = deptstore.mapping_fig4()
        before = fingerprint(mapping)
        mapping.value("dept/Proj/pname/value", "department/project/@name")
        assert fingerprint(mapping) != before

    def test_engine_is_part_of_the_key(self):
        mapping = deptstore.mapping_fig4()
        assert fingerprint(mapping, "tgd") != fingerprint(mapping, "xquery")

    def test_different_mappings_differ(self):
        assert fingerprint(deptstore.mapping_fig3()) != fingerprint(
            deptstore.mapping_fig7()
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            fingerprint(deptstore.mapping_fig3(), "sql")


class TestPlanCache:
    def test_same_mapping_twice_compiles_once(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        first = cache.get_or_compile(mapping)
        second = cache.get_or_compile(mapping)
        assert first is second
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert len(cache) == 1

    def test_equal_but_distinct_objects_hit(self):
        cache = PlanCache()
        cache.get_or_compile(deptstore.mapping_fig4())
        cache.get_or_compile(deptstore.mapping_fig4())
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 1)

    def test_peek_never_touches_counters_or_lru_order(self):
        """``peek`` is the observability read (the service's mapping-
        detail endpoint): it must neither count as a hit/miss nor
        refresh the entry's LRU position."""
        cache = PlanCache(maxsize=2)
        mapping = deptstore.mapping_fig4()
        fp = canonical_fingerprint(mapping)
        assert cache.peek(fp) is None  # a miss that is not counted
        plan = cache.get_or_compile(mapping)
        stats_before = cache.stats
        assert cache.peek(fp) is plan
        stats_after = cache.stats
        assert (stats_after.hits, stats_after.misses) == (
            stats_before.hits, stats_before.misses,
        )
        # LRU order: peeking fig4 must NOT save it from eviction once
        # two fresher plans arrive.
        cache.get_or_compile(deptstore.mapping_fig3())
        cache.peek(fp)
        cache.get_or_compile(deptstore.mapping_fig7())
        assert cache.peek(fp) is None
        assert cache.stats.evictions == 1

    def test_mutated_mapping_misses(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig3()
        cache.get_or_compile(mapping)
        mapping.value("dept/regEmp/sal/value", "department/employee/works-in/value")
        cache.get_or_compile(mapping)
        stats = cache.stats
        assert stats.misses == 2
        assert stats.hits == 0

    def test_engines_cached_separately(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        a = cache.get_or_compile(mapping, "tgd")
        b = cache.get_or_compile(mapping, "xquery")
        assert a is not b
        assert cache.stats.misses == 2

    def test_lru_eviction_is_counted(self):
        cache = PlanCache(maxsize=1)
        cache.get_or_compile(deptstore.mapping_fig3())
        cache.get_or_compile(deptstore.mapping_fig4())
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # fig3 was evicted: asking again is a miss.
        cache.get_or_compile(deptstore.mapping_fig3())
        assert cache.stats.misses == 3

    def test_put_seeds_the_cache(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        transformer = Transformer(mapping)
        fp = canonical_fingerprint(mapping, "tgd", tgd=transformer.tgd)
        cache.put(plan_from_tgd(transformer.tgd, "tgd", fp=fp))
        assert fp in cache
        plan = cache.get_or_compile(mapping)
        assert cache.stats.misses == 0
        assert plan(deptstore.source_instance()) == transformer(
            deptstore.source_instance()
        )

    def test_default_cache_shared_by_get_plan(self):
        mapping = deptstore.mapping_fig4()
        assert get_plan(mapping) is get_plan(mapping)
        assert canonical_fingerprint(mapping) in default_cache()

    def test_compiled_plan_matches_transformer(self):
        mapping = deptstore.mapping_fig7()
        instance = deptstore.source_instance()
        for engine in ("tgd", "xquery"):
            plan = compile_plan(mapping, engine)
            assert plan(instance) == Transformer(mapping, engine=engine)(instance)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestBatchRunner:
    def test_results_match_naive_transformer_in_order(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(5)
        batch = BatchRunner(mapping, cache=PlanCache()).run(docs)
        expected = [Transformer(mapping)(doc) for doc in docs]
        assert list(batch) == expected

    def test_parallel_output_identical_and_identically_ordered(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(8)
        sequential = BatchRunner(mapping, workers=1, cache=PlanCache()).run(docs)
        parallel = BatchRunner(mapping, workers=2, cache=PlanCache()).run(docs)
        assert sequential.results == parallel.results
        assert parallel.metrics.documents == len(docs)

    def test_parallel_grouping_engine_agrees(self):
        mapping = deptstore.mapping_fig7()
        docs = _docs(4, project_name_pool=2)
        sequential = BatchRunner(mapping, workers=1, cache=PlanCache()).run(docs)
        parallel = BatchRunner(mapping, workers=3, cache=PlanCache()).run(docs)
        assert sequential.results == parallel.results

    def test_accepts_an_iterator(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(4)
        batch = BatchRunner(mapping, cache=PlanCache()).run(iter(docs))
        assert len(batch) == 4

    def test_metrics_one_miss_rest_hits(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(6)
        batch = BatchRunner(mapping, cache=PlanCache()).run(docs)
        metrics = batch.metrics
        assert metrics.cache_misses == 1
        assert metrics.cache_hits == len(docs) - 1
        assert metrics.documents == len(docs)
        assert metrics.execute_seconds > 0
        assert metrics.wall_seconds >= metrics.execute_seconds

    def test_metrics_dict_schema(self):
        mapping = deptstore.mapping_fig4()
        batch = BatchRunner(mapping, cache=PlanCache(), validate=True).run(_docs(2))
        doc = batch.metrics.to_dict()
        assert doc["format"] == "clip-batch-metrics"
        assert doc["version"] == 2
        assert doc["documents"] == 2
        assert doc["plan_cache"]["hits"] == 1
        assert doc["plan_cache"]["misses"] == 1
        assert doc["validation_violations"] == 0
        assert set(doc["timings"]) == {
            "compile_seconds", "execute_seconds", "wall_seconds",
        }

    def test_empty_batch(self):
        batch = BatchRunner(
            deptstore.mapping_fig4(), workers=2, cache=PlanCache()
        ).run([])
        assert list(batch) == []
        assert batch.metrics.documents == 0

    def test_runners_share_plans_through_a_cache(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        BatchRunner(mapping, cache=cache).run(_docs(2))
        BatchRunner(deptstore.mapping_fig4(), cache=cache).run(_docs(2))
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 3

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            BatchRunner(deptstore.mapping_fig4(), workers=workers)

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(deptstore.mapping_fig4(), engine="sparql")

    def test_invalid_mapping_raises_from_run_not_construction(self):
        """A keyless runner derives its key on first retrieval, so an
        invalid mapping builds a runner, runs an empty batch, and raises
        :class:`InvalidMappingError` from its first document."""
        from repro.core.mapping import ClipMapping
        from repro.errors import InvalidMappingError

        clip = ClipMapping(
            deptstore.source_schema(), deptstore.target_schema_departments()
        )
        clip.build("dept", "department", var="d", condition="$zz.x = 1")
        runner = BatchRunner(clip, cache=PlanCache())
        assert list(runner.run([])) == []
        with pytest.raises(InvalidMappingError):
            runner.run(_docs(1))


class TestCanonicalizedKeys:
    """Canonical cache keys: alpha-renamed mappings share one plan."""

    @staticmethod
    def _fig3_renamed():
        from repro.core.mapping import ClipMapping

        clip = ClipMapping(
            deptstore.source_schema(), deptstore.target_schema_fig3()
        )
        clip.build("dept/regEmp", "department/employee", var="z",
                   condition="$z.sal.value > 11000")
        clip.value("dept/regEmp/ename/value", "department/employee/@name")
        return clip

    def test_structural_fingerprints_differ_canonical_agree(self):
        original = deptstore.mapping_fig3()
        renamed = self._fig3_renamed()
        assert fingerprint(original) != fingerprint(renamed)
        assert canonical_fingerprint(original) == canonical_fingerprint(
            renamed
        )

    def test_fingerprint_for_is_the_canonical_key(self):
        """One recipe: the cache's key for a mapping and for its
        compiled tgd is :func:`canonical_fingerprint`, whatever the
        variable names."""
        cache = PlanCache()
        original = deptstore.mapping_fig3()
        key = canonical_fingerprint(original, "tgd", optimize=False)
        assert cache.fingerprint_for(original, optimize=False) == key
        assert cache.fingerprint_for(
            self._fig3_renamed(), optimize=False
        ) == key
        assert cache.fingerprint_for(
            original, optimize=False, tgd=Transformer(original).tgd
        ) == key

    def test_renamed_variant_compiles_once_and_counts_canonical_hit(self):
        cache = PlanCache()
        first = cache.get_or_compile(deptstore.mapping_fig3())
        second = cache.get_or_compile(self._fig3_renamed())
        assert first is second, "alpha-renamed variant recompiled"
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.canonical_misses == 1
        assert stats.canonical_hits == 1

    def test_renamed_variants_share_byte_identical_output(self):
        """Soundness of the shared plan: the variant's own compile and
        the canonically shared plan serialize identically."""
        from repro.xml.serialize import to_xml

        instance = deptstore.source_instance()
        shared = PlanCache()
        shared.get_or_compile(deptstore.mapping_fig3())
        via_shared = shared.get_or_compile(self._fig3_renamed())(instance)
        own = compile_plan(self._fig3_renamed())(instance)
        assert to_xml(via_shared) == to_xml(own)

    def test_explicit_fp_skips_canonical_counting_by_default(self):
        """Per-document retrievals pass their runner's key: they count
        as plain hits/misses, never as canonical ones."""
        cache = PlanCache()
        mapping = deptstore.mapping_fig3()
        fp = cache.fingerprint_for(mapping)
        cache.get_or_compile(mapping, fp=fp)
        cache.get_or_compile(mapping, fp=fp)
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 1)
        assert stats.canonical_hits == stats.canonical_misses == 0
        # ...while a derived key counts.
        plan, was_cached = cache.resolve(self._fig3_renamed())
        assert was_cached and plan.fingerprint == fp
        assert cache.stats.canonical_hits == 1

    def test_derived_key_compiles_the_mapping_once(self, monkeypatch):
        """A miss with a derived key keys and builds the plan from one
        Clip compile; a canonical hit costs that one compile only."""
        from repro.core import compile as compile_module

        calls = []
        original = compile_module._Compiler.compile
        monkeypatch.setattr(
            compile_module._Compiler, "compile",
            lambda self: calls.append(1) or original(self),
        )
        cache = PlanCache()
        plan, was_cached = cache.resolve(deptstore.mapping_fig3())
        assert not was_cached and len(calls) == 1
        assert plan.report.is_valid
        assert plan.fingerprint == canonical_fingerprint(
            deptstore.mapping_fig3(), tgd=plan.tgd
        )
        calls.clear()
        assert cache.resolve(self._fig3_renamed()) == (plan, True)
        assert len(calls) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keyless_runner_compiles_the_mapping_once(self, monkeypatch, workers):
        """A runner without ``fingerprint=`` keys itself and builds the
        plan from one Clip compile; its lookups stay plain hits and
        misses, never canonical ones."""
        from repro.core import compile as compile_module

        calls = []
        original = compile_module._Compiler.compile
        monkeypatch.setattr(
            compile_module._Compiler, "compile",
            lambda self: calls.append(1) or original(self),
        )
        cache = PlanCache()
        runner = BatchRunner(deptstore.mapping_fig3(), workers=workers, cache=cache)
        assert len(runner.run(_docs(3))) == 3
        assert len(calls) == 1
        assert runner.fingerprint == canonical_fingerprint(
            deptstore.mapping_fig3(), tgd=cache.peek(runner.fingerprint).tgd
        )
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 2)
        assert stats.canonical_hits == stats.canonical_misses == 0

    def test_schemas_participate_in_the_key(self):
        """Equal drawings over different schemas parse and type their
        instances differently: they never share a key."""
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import INT, STRING

        def over(sal_type, extra=()):
            clip = ClipMapping(
                schema(elem("source", elem(
                    "dept", "[1..*]",
                    elem("regEmp", "[0..*]", elem("ename", text=STRING),
                         elem("sal", text=sal_type)),
                    *extra,
                ))),
                deptstore.target_schema_fig3(),
            )
            clip.build("dept/regEmp", "department/employee", var="r",
                       condition="$r.sal.value > 11000")
            clip.value("dept/regEmp/ename/value", "department/employee/@name")
            return clip

        keys = {
            canonical_fingerprint(over(INT)),
            canonical_fingerprint(over(STRING)),
            canonical_fingerprint(over(INT, [attr("code", INT)])),
        }
        assert len(keys) == 3

    def test_where_conjunct_order_is_canonicalized(self):
        """The normal form sorts where-conjuncts: mappings differing
        only in filter-condition order share a canonical key."""
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import INT, STRING

        src = schema(elem(
            "S", elem("row", "[0..*]", attr("a", INT), attr("b", INT)),
        ))
        tgt = schema(elem(
            "T", elem("out", "[0..*]", attr("x", INT)),
        ))

        def make(condition):
            clip = ClipMapping(src, tgt)
            clip.build("row", "out", var="r", condition=condition)
            clip.value("row/@a", "out/@x")
            return clip

        one = make("$r.@a > 1 and $r.@b > 2")
        other = make("$r.@b > 2 and $r.@a > 1")
        assert canonical_fingerprint(one) == canonical_fingerprint(other)


class TestOneKeyRecipe:
    """Every plan-cache key comes from ``canonical_fingerprint``."""

    def test_renamed_variant_compiles_nothing_new_on_any_surface(self):
        """After the service registers Figure 3 on the shared default
        cache, an alpha-renamed Figure 3 served through a plain
        ``BatchRunner`` and through a one-stage pipeline's plan reuses
        that plan, and serializes as the variant's own
        compile."""
        import json

        from repro.io import dumps
        from repro.pipeline import Pipeline
        from repro.service import ClipService, ServiceConfig
        from repro.xml.serialize import to_xml

        cache = default_cache()
        service = ClipService(ServiceConfig.resolve(environ={}), cache=cache)
        response = service.dispatch(
            "POST", "/mappings", {}, dumps(deptstore.mapping_fig3()).encode()
        )
        assert response.status in (200, 201), response.body
        registered = json.loads(response.body)["fingerprint"]
        variant = TestCanonicalizedKeys._fig3_renamed()
        docs = _docs(3)
        before = cache.stats
        runner = BatchRunner(variant)
        assert runner.fingerprint == registered
        via_runner = runner.run(docs)
        via_stage = BatchRunner(Pipeline([variant]).plan()).run(docs)
        after = cache.stats
        assert after.misses == before.misses, "a surface recompiled"
        assert after.compile_seconds == before.compile_seconds
        own = compile_plan(variant)
        expected = [to_xml(own(doc)) for doc in docs]
        assert [to_xml(doc) for doc in via_runner.results] == expected
        assert [to_xml(doc) for doc in via_stage.results] == expected

    def test_no_module_calls_the_structural_fingerprint(self):
        """Only ``runtime/plan.py`` (for trace seeds) calls the
        structural ``fingerprint``; no module reads the retired
        canonicalize flag."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            if "CLIP_CACHE_CANONICALIZE" in text:
                offenders.append(f"{relative} reads CLIP_CACHE_CANONICALIZE")
            if relative == "runtime/plan.py":
                continue
            tree = ast.parse(text)
            # Local names the structural fingerprint is imported under.
            aliases = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] in ("plan", "runtime")
                for alias in node.names
                if alias.name == "fingerprint"
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id in aliases:
                    offenders.append(f"{relative}:{node.lineno}")
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "fingerprint"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("plan", "runtime")
                ):
                    offenders.append(f"{relative}:{node.lineno}")
        assert offenders == []

    def test_surfaces_key_without_the_structural_fingerprint(
        self, monkeypatch
    ):
        """With the structural fingerprint disabled, untraced compile,
        cache, runner, pipeline and composition paths still key and
        run every plan."""
        from repro.pipeline import Pipeline
        from repro.runtime import plan as plan_module
        from repro.scenarios import publications

        def forbidden(*args, **kwargs):
            raise AssertionError("a plan key used the structural fingerprint")

        monkeypatch.setattr(plan_module, "fingerprint", forbidden)
        mapping = deptstore.mapping_fig3()
        docs = _docs(2)
        cache = PlanCache()
        compile_plan(mapping)
        cache.get_or_compile(mapping)
        BatchRunner(mapping, cache=cache).run(docs)
        BatchRunner(Pipeline([mapping]).plan(), cache=cache).run(docs)
        fused = Pipeline([mapping], fuse=True)
        assert fused.fused_plans[0].fingerprint == cache.fingerprint_for(
            mapping
        )
        fused.run(docs[0])
        composed = Transformer(publications.normalize_mapping()).compose(
            publications.publish_mapping()
        )
        assert composed.fingerprint
        composed(publications.feed_instance())
