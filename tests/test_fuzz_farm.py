"""The differential fuzz farm: smoke slice, divergence capture, replay.

Tier-1 keeps a fast fixed-seed slice (~30 triples, in-process engines
only); the ``slow`` marker gates the extended sweep that CI's nightly
fuzz leg runs.  The central negative test deliberately breaks an
optimizer rule in-process — dropping the planner's pushed filters —
and demands the farm catch the divergence, dead-letter it with a
replayable trace, and come back clean once the planner is healed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.executor import planner
from repro.fuzz import (
    FUZZ_REPORT_FORMAT,
    FUZZ_REPORT_VERSION,
    FuzzError,
    FuzzFarm,
    parse_report,
    run_fuzz,
)
from repro.generation import AXES

SMOKE_SEED = 7
SMOKE_COUNT = 30


class TestSmokeSlice:
    def test_thirty_triples_zero_divergences(self):
        report = run_fuzz(seed=SMOKE_SEED, count=SMOKE_COUNT)
        assert report.status == "ok"
        assert report.divergences == []
        assert report.cases == SMOKE_COUNT
        assert not report.exhausted_budget
        assert report.skipped == 0
        # Every axis was exercised and fully executed.
        assert set(report.axis_coverage) == set(AXES)
        for coverage in report.axis_coverage.values():
            assert coverage.executed == coverage.cases > 0
        # Reference + at least naive and xquery cross-checks per case.
        assert report.comparisons >= 2 * SMOKE_COUNT
        # XSLT eligibility probing found eligible cases somewhere.
        assert any(
            c.xslt_eligible for c in report.axis_coverage.values()
        )

    def test_report_is_byte_deterministic(self):
        first = run_fuzz(seed=SMOKE_SEED, count=SMOKE_COUNT).to_json()
        second = run_fuzz(seed=SMOKE_SEED, count=SMOKE_COUNT).to_json()
        assert first == second

    def test_report_document_round_trips(self):
        report = run_fuzz(seed=SMOKE_SEED, count=12)
        document = parse_report(report.to_json())
        assert document["format"] == FUZZ_REPORT_FORMAT
        assert document["version"] == FUZZ_REPORT_VERSION
        assert document["status"] == "ok"
        assert document["seed"] == SMOKE_SEED
        assert sum(
            c["cases"] for c in document["axis_coverage"].values()
        ) == 12

    def test_parse_report_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a clip-fuzz-report"):
            parse_report(json.dumps({"format": "clip-trace", "version": 1}))
        with pytest.raises(ValueError, match="unsupported"):
            parse_report(
                json.dumps({"format": FUZZ_REPORT_FORMAT, "version": 99})
            )

    def test_axes_restriction(self):
        report = run_fuzz(seed=SMOKE_SEED, count=8, axes=["deep-cpt"])
        assert set(report.axis_coverage) == {"deep-cpt"}
        assert report.axis_coverage["deep-cpt"].cases == 8

    def test_zero_budget_skips_every_case(self):
        report = run_fuzz(seed=SMOKE_SEED, count=10, budget_seconds=0.0)
        assert report.exhausted_budget
        assert report.skipped == 10
        assert report.executions == 0
        assert report.status == "ok"  # no divergences found — none ran

    def test_farm_configuration_validated(self):
        with pytest.raises(FuzzError, match="unknown engines"):
            FuzzFarm(engines=("tgd", "saxon"))
        with pytest.raises(FuzzError, match="reference engine"):
            FuzzFarm(engines=("xquery",))
        with pytest.raises(FuzzError, match="workers"):
            FuzzFarm(workers=(0,))


def _breaking_plan_level(real):
    """A deliberately broken optimizer rule: pushed single-variable
    filters are dropped from every generator slot, so optimized
    evaluation keeps tuples the mapping's conditions exclude."""

    def broken(mapping, depth):
        plan = real(mapping, depth)
        slots = tuple(
            dataclasses.replace(slot, seq_filters=())
            for slot in plan.slots
        )
        return dataclasses.replace(plan, slots=slots)

    return broken


def _span_shapes(trace: dict) -> list:
    """``(path, kind, attrs)`` of every span and event, depth first —
    the run's shape without ids or timestamps."""
    shapes, stack = [], list(reversed(trace["spans"]))
    while stack:
        span = stack.pop()
        shapes.append((span["path"], span["kind"], span["attrs"]))
        stack.extend(reversed(span.get("children", [])))
    return shapes


class TestBrokenOptimizerIsCaught:
    def test_divergence_dead_lettered_and_replayable(
        self, dead_letter_dir, monkeypatch
    ):
        real = planner.plan_level
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                planner, "plan_level", _breaking_plan_level(real)
            )
            farm = FuzzFarm(dead_letter_dir=dead_letter_dir)
            report = farm.run_corpus(seed=SMOKE_SEED, count=SMOKE_COUNT)
        assert report.status == "divergent"
        assert report.divergences
        # The filter-bearing axes flag the broken rule; the optimized
        # reference disagrees with naive, xquery, and xslt alike.
        diverged_axes = {d.axis for d in report.divergences}
        assert "deep-cpt" in diverged_axes or "fanout-join" in diverged_axes
        engines_seen = {d.engine for d in report.divergences}
        assert {"tgd", "xquery"} <= engines_seen
        for divergence in report.divergences:
            assert divergence.dead_letter is not None
            assert divergence.detail  # rendered diff lines travel along

        # Every dead letter carries the full replay kit.
        case_dir = dead_letter_dir / report.divergences[0].dead_letter
        names = {p.name for p in case_dir.iterdir()}
        assert {
            "case.json", "mapping.json", "source.xml",
            "expected.xml", "actual.xml", "trace.json",
        } <= names
        manifest = json.loads(
            (case_dir / "case.json").read_text(encoding="utf-8")
        )
        assert manifest["format"] == "clip-fuzz-case"
        assert manifest["seed"] == SMOKE_SEED
        trace = json.loads(
            (case_dir / "trace.json").read_text(encoding="utf-8")
        )
        assert trace["format"] == "clip-trace"

        # With the planner healed, the replay comes back clean — and
        # carries a fresh trace of the healthy run.
        healthy = FuzzFarm()
        result = healthy.replay(case_dir)
        assert not result.diverged
        assert result.error is None
        assert result.case_id == manifest["case_id"]
        assert result.trace is not None

    def test_replay_reproduces_while_still_broken(
        self, dead_letter_dir
    ):
        """Replaying under the *still-broken* planner reproduces the
        divergence from the persisted artifacts alone."""
        real = planner.plan_level
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                planner, "plan_level", _breaking_plan_level(real)
            )
            farm = FuzzFarm(dead_letter_dir=dead_letter_dir)
            report = farm.run_corpus(seed=SMOKE_SEED, count=SMOKE_COUNT)
            assert report.divergences
            case_dir = dead_letter_dir / report.divergences[0].dead_letter
            result = FuzzFarm().replay(case_dir)
            assert result.diverged
            assert result.differences
        assert not FuzzFarm().replay(case_dir).diverged

    def test_replay_rejects_non_case_directories(self, tmp_path):
        with pytest.raises(FuzzError, match="no case.json"):
            FuzzFarm().replay(tmp_path)
        (tmp_path / "case.json").write_text("{}", encoding="utf-8")
        with pytest.raises(FuzzError, match="not a clip-fuzz-case"):
            FuzzFarm().replay(tmp_path)


class TestCliFuzz:
    def test_fuzz_subcommand_ok_run(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        assert main(
            ["fuzz", "--seed", str(SMOKE_SEED), "--count", "12",
             "--report-json", str(report_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "status: ok" in captured.out
        document = parse_report(report_path.read_text(encoding="utf-8"))
        assert document["status"] == "ok"

    def test_fuzz_subcommand_axes_and_bad_axis(self, capsys):
        from repro.cli import main

        assert main(
            ["fuzz", "--seed", "7", "--count", "4", "--axes", "deep-cpt"]
        ) == 0
        assert "deep-cpt" in capsys.readouterr().out
        assert main(
            ["fuzz", "--seed", "7", "--count", "4", "--axes", "bogus"]
        ) == 2  # ReproError → usage exit

    def test_fuzz_subcommand_bad_workers(self):
        from repro.cli import main

        assert main(["fuzz", "--count", "2", "--workers", "x"]) == 2

    def test_fuzz_subcommand_divergent_exits_one(
        self, dead_letter_dir, capsys
    ):
        from repro.cli import main

        real = planner.plan_level
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                planner, "plan_level", _breaking_plan_level(real)
            )
            code = main(
                ["fuzz", "--seed", str(SMOKE_SEED), "--count", "18",
                 "--dead-letter-dir", str(dead_letter_dir)]
            )
        assert code == 1
        captured = capsys.readouterr()
        assert "DIVERGENT" in captured.out
        # The CLI replay path closes the loop on a dead-lettered case.
        letters = sorted(p for p in dead_letter_dir.iterdir())
        assert letters
        assert main(["fuzz", "--replay", str(letters[0])]) == 0
        assert "clean" in capsys.readouterr().out


@pytest.mark.slow
class TestExtendedSweep:
    """The nightly-scale sweep: a larger seed window and the process-
    pool cross-check.  Excluded from tier-1 by the ``slow`` marker."""

    def test_two_hundred_case_sweep_with_pool_cross_check(self):
        report = run_fuzz(
            seed=20260808, count=200, workers=(1, 2),
        )
        assert report.status == "ok", report.to_json()
        assert report.cases == 200
        assert not report.exhausted_budget

    def test_many_seeds_shallow_sweep(self):
        for seed in range(100, 105):
            report = run_fuzz(seed=seed, count=24)
            assert report.status == "ok", report.to_json()


class TestAlgebraLegs:
    """The composition and round-trip differential legs."""

    def test_composition_axis_runs_clean_and_counts(self):
        report = run_fuzz(seed=11, count=18, axes=["composition"])
        assert report.status == "ok"
        assert report.compose_checks == 18
        assert report.compose_inlined + report.compose_fallbacks == 18
        assert report.compose_inlined > 0
        assert report.compose_fallbacks > 0
        assert report.round_trip_checks == 0
        doc = parse_report(report.to_json())
        assert doc["compose_checks"] == 18
        assert doc["compose_inlined"] == report.compose_inlined
        assert doc["compose_fallbacks"] == report.compose_fallbacks

    def test_round_trip_axis_runs_clean_and_counts(self):
        report = run_fuzz(seed=11, count=12, axes=["round-trip"])
        assert report.status == "ok"
        assert report.round_trip_checks == 12
        assert report.compose_checks == 0
        assert parse_report(report.to_json())["round_trip_checks"] == 12

    def test_algebra_legs_are_byte_deterministic(self):
        axes = ["composition", "round-trip"]
        first = run_fuzz(seed=13, count=10, axes=axes).to_json()
        second = run_fuzz(seed=13, count=10, axes=axes).to_json()
        assert first == second

    def test_compose_and_round_trip_kits_replay_clean(self, tmp_path):
        """A dead-lettered algebra-leg kit replays through the same
        oracle: fabricate kits for healthy cases and demand the replay
        come back clean."""
        from repro.fuzz.farm import Combo
        from repro.fuzz.report import FuzzReport
        from repro.generation.corpus import generate_corpus

        farm = FuzzFarm(dead_letter_dir=tmp_path)
        cases = list(
            generate_corpus(11, 24, axes=("composition", "round-trip"))
        )
        comp = next(c for c in cases if c.params.get("expect_inlined"))
        rt = next(c for c in cases if c.params.get("round_trip"))
        report = FuzzReport(
            seed=11, count=2, axes=("composition", "round-trip"),
            engines=("tgd",), optimize_modes=(True,), workers=(1,),
        )
        comp_ref = farm.cache.get_or_compile(comp.mapping, "tgd")
        farm._record(
            comp, Combo("tgd", True, 1, "compose"), report,
            kind="bytes", detail=("fabricated",),
            expected=comp_ref(comp.instance),
        )
        rt_ref = farm.cache.get_or_compile(rt.mapping, "tgd")
        farm._record(
            rt, Combo("tgd", True, 1, "round-trip"), report,
            kind="bytes", detail=("fabricated",),
            expected=rt_ref(rt.instance),
        )
        assert len(report.divergences) == 2
        for divergence in report.divergences:
            result = farm.replay(tmp_path / divergence.dead_letter)
            assert result.diverged is False, divergence.dead_letter
            assert result.error is None

    def test_broken_composer_is_caught(self, monkeypatch, dead_letter_dir):
        """Negative control for the compose leg: a composer that
        mangles the fused tgd's filters must show up as divergences,
        and the kit's trace records the fused plan's run."""
        from repro.algebra import compose_tgds as real_compose
        from repro.fuzz import farm as farm_module
        from repro.io import load, loads
        from repro.runtime import PlanCache, SpanTracer, plan_from_tgd
        from repro.xml.parser import parse_xml

        def broken_compose(tgd_ab, tgd_bc):
            fused = real_compose(tgd_ab, tgd_bc)

            def strip(level):
                return dataclasses.replace(
                    level,
                    where=(),
                    submappings=tuple(
                        strip(sub) for sub in level.submappings
                    ),
                )

            return dataclasses.replace(
                fused, roots=tuple(strip(root) for root in fused.roots)
            )

        monkeypatch.setattr(farm_module, "compose_tgds", broken_compose)
        report = run_fuzz(
            seed=11, count=18, axes=["composition"],
            dead_letter_dir=dead_letter_dir,
        )
        assert report.status == "divergent"
        divergence = next(
            d for d in report.divergences
            if d.oracle == "compose" and d.kind == "bytes"
        )

        # trace.json is the fused plan's run, not the A→B reference's.
        kit = dead_letter_dir / divergence.dead_letter
        manifest = json.loads((kit / "case.json").read_text(encoding="utf-8"))
        first = load(str(kit / "mapping.json"))
        source = parse_xml(
            (kit / "source.xml").read_text(encoding="utf-8"), first.source
        )
        cache = PlanCache()
        fused = broken_compose(
            cache.get_or_compile(first, "tgd").tgd,
            cache.get_or_compile(
                loads(manifest["params"]["compose_with"]), "tgd"
            ).tgd,
        )
        tracer = SpanTracer()
        plan_from_tgd(fused, "tgd", optimize=True).run(source, trace=tracer)
        fused_run = _span_shapes(tracer.to_trace().to_dict())
        assert any("/plan/level[" in path for path, _, _ in fused_run)
        kit_trace = json.loads((kit / "trace.json").read_text(encoding="utf-8"))
        assert _span_shapes(kit_trace) == fused_run


class TestReplayReachesTheCheckVerdict:
    """Check and replay run the same oracle leg and the same compare
    step, so a kit replays to the verdict its check recorded."""

    def test_compose_drift_kit_replays_diverged(self, dead_letter_dir):
        """A case where compose inlines but the corpus predicted a
        sequential fallback is flagged by the check — and by replay."""
        from repro.fuzz.farm import Combo
        from repro.fuzz.report import FuzzReport
        from repro.generation.corpus import generate_corpus

        cases = list(
            generate_corpus(11, 24, axes=("composition", "round-trip"))
        )
        inlined = next(c for c in cases if c.params.get("expect_inlined"))
        drifted = dataclasses.replace(
            inlined, params={**inlined.params, "expect_inlined": False}
        )
        report = FuzzReport(
            seed=11, count=1, axes=("composition",), engines=("tgd",),
            optimize_modes=(True,), workers=(1,),
        )
        farm = FuzzFarm(
            engines=("tgd",), optimize_modes=(True,),
            dead_letter_dir=dead_letter_dir,
        )
        farm.run([drifted], report)
        (divergence,) = report.divergences
        assert (divergence.oracle, divergence.kind) == ("compose", "error")
        assert "predicted a sequential fallback" in divergence.detail[0]
        result = farm.replay(dead_letter_dir / divergence.dead_letter)
        assert result.diverged
        assert result.error == divergence.detail[0]

        # A predicted fallback replays clean with no error: the CLI
        # reads ``error`` as "still diverges", so it is set only then.
        fallback = next(
            c for c in cases
            if "compose_with" in c.params
            and not c.params.get("expect_inlined")
        )
        farm._record(
            fallback, Combo("tgd", True, 1, "compose"), report,
            kind="bytes", detail=("fabricated",),
            expected=fallback.instance,
        )
        replayed = farm.replay(
            dead_letter_dir / report.divergences[-1].dead_letter
        )
        assert (replayed.diverged, replayed.error) == (False, None)

    def test_order_only_divergence_replays_its_document_order_diff(
        self, dead_letter_dir, monkeypatch
    ):
        """An output that differs from the reference only in sibling
        order is canonically equal: check and replay both fall back to
        the document-order diff."""
        from repro.fuzz.farm import Combo, _DETAIL_LINES
        from repro.fuzz.report import FuzzReport
        from repro.generation.corpus import generate_corpus

        real = FuzzFarm._execute

        def reversed_naive(self, case, combo, *, trace=None):
            if combo.optimize:
                return real(self, case, combo, trace=trace)
            output = real(self, case, Combo("tgd", True, 1), trace=trace)
            children = list(output.children)
            for child in children:
                output.remove(child)
            output.extend(reversed(children))
            return output

        monkeypatch.setattr(FuzzFarm, "_execute", reversed_naive)
        case = next(iter(generate_corpus(7, 1, axes=("fanout-join",))))
        report = FuzzReport(
            seed=7, count=1, axes=("fanout-join",), engines=("tgd",),
            optimize_modes=(True, False), workers=(1,),
        )
        farm = FuzzFarm(engines=("tgd",), dead_letter_dir=dead_letter_dir)
        farm.run([case], report)
        (divergence,) = report.divergences
        assert (divergence.engine, divergence.optimize) == ("tgd", False)
        assert divergence.kind == "bytes"
        assert divergence.detail != ("(instances are identical)",)
        result = farm.replay(dead_letter_dir / divergence.dead_letter)
        assert result.diverged
        assert result.error is None
        assert result.differences[:_DETAIL_LINES] == list(divergence.detail)


class TestOracleRegistry:
    """``Combo.oracle`` names an entry of ``ORACLES``; kits written
    before the field existed still replay."""

    def test_registry_names_every_leg(self):
        from repro.fuzz import ORACLES

        assert list(ORACLES) == ["engine", "incremental", "compose", "round-trip"]
        assert ORACLES["engine"].param is None
        assert ORACLES["incremental"].param == "edits"

    @pytest.mark.parametrize(
        "legacy, oracle",
        [("interp", "engine"), ("codegen", "engine"), (None, "engine"),
         ("incremental", "incremental")],
    )
    def test_legacy_exec_mode_kits_replay(self, tmp_path, legacy, oracle):
        from repro.fuzz.farm import Combo
        from repro.fuzz.report import FuzzReport
        from repro.generation.corpus import generate_corpus

        farm = FuzzFarm(dead_letter_dir=tmp_path)
        axis = "delta" if oracle == "incremental" else "deep-cpt"
        case = next(iter(generate_corpus(11, 1, axes=(axis,))))
        report = FuzzReport(
            seed=11, count=1, axes=(axis,), engines=("tgd",),
            optimize_modes=(True, False), workers=(1,),
        )
        combo = (
            Combo("tgd", True, 1, "incremental")
            if oracle == "incremental" else Combo("tgd", False, 1)
        )
        reference = farm.cache.get_or_compile(case.mapping, "tgd")
        farm._record(
            case, combo, report, kind="bytes", detail=("fabricated",),
            expected=reference(case.instance),
        )
        kit = tmp_path / report.divergences[0].dead_letter
        manifest = json.loads((kit / "case.json").read_text(encoding="utf-8"))
        assert manifest["combo"]["oracle"] == oracle
        del manifest["combo"]["oracle"]
        if legacy is not None:
            manifest["combo"]["exec_mode"] = legacy
        (kit / "case.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert (kit / "generated.py").read_text().startswith("# clip-codegen")
        result = farm.replay(kit)
        assert result.combo.oracle == oracle
        assert result.error is None
        assert result.diverged is False

    def test_unknown_oracle_is_refused(self, tmp_path):
        from repro.fuzz.farm import Combo
        from repro.fuzz.report import FuzzReport
        from repro.generation.corpus import generate_corpus

        farm = FuzzFarm(dead_letter_dir=tmp_path)
        case = next(iter(generate_corpus(11, 1)))
        report = FuzzReport(
            seed=11, count=1, axes=(case.axis,), engines=("tgd",),
            optimize_modes=(True,), workers=(1,),
        )
        farm._record(
            case, Combo("tgd", False, 1), report, kind="bytes",
            detail=("fabricated",), expected=case.instance,
        )
        kit = tmp_path / report.divergences[0].dead_letter
        manifest = json.loads((kit / "case.json").read_text(encoding="utf-8"))
        manifest["combo"]["oracle"] = "telepathy"
        (kit / "case.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FuzzError, match="unknown oracle"):
            farm.replay(kit)
