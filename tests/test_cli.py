"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io import save
from repro.scenarios import deptstore
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml
from repro.xsd.parser import to_xsd


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "fig4.json"
    save(deptstore.mapping_fig4(), str(path))
    return str(path)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.xml"
    path.write_text(to_xml(deptstore.source_instance()), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_mapping_exits_zero(self, mapping_file, capsys):
        assert main(["validate", mapping_file]) == 0
        assert "valid mapping" in capsys.readouterr().out

    def test_invalid_mapping_exits_one(self, tmp_path, capsys):
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import STRING

        target = schema(elem("t", elem("only", attr("n", STRING, required=False))))
        clip = ClipMapping(deptstore.source_schema(), target)
        clip.build("dept", "only", var="d")
        path = tmp_path / "bad.json"
        save(clip, str(path))
        assert main(["validate", str(path)]) == 1
        assert "SAFE_BUILDER" in capsys.readouterr().out


class TestShowAndXquery:
    def test_show_prints_diagram_and_tgd(self, mapping_file, capsys):
        assert main(["show", mapping_file]) == 0
        out = capsys.readouterr().out
        assert "BUILDERS" in out
        assert "∀ d ∈ source.dept" in out

    def test_xquery_prints_query(self, mapping_file, capsys):
        assert main(["xquery", mapping_file]) == 0
        out = capsys.readouterr().out
        assert "for $r in $d/regEmp" in out


class TestRun:
    def test_run_prints_tree(self, mapping_file, source_file, capsys):
        assert main(["run", mapping_file, source_file]) == 0
        out = capsys.readouterr().out
        assert "@name = Andrew Clarence" in out

    def test_run_writes_xml_output(self, mapping_file, source_file, tmp_path, capsys):
        out_path = tmp_path / "out.xml"
        assert main(["run", mapping_file, source_file, "-o", str(out_path)]) == 0
        result = parse_xml(out_path.read_text(encoding="utf-8"))
        assert result.tag == "target"
        assert len(result.findall("department")) == 2

    def test_run_with_xquery_engine_matches(self, mapping_file, source_file, tmp_path):
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        assert main(["run", mapping_file, source_file, "-o", str(a)]) == 0
        assert main(
            ["run", mapping_file, source_file, "-o", str(b), "--engine", "xquery"]
        ) == 0
        assert a.read_text() == b.read_text()

    def test_missing_file_is_a_clean_error(self, mapping_file, capsys):
        assert main(["run", mapping_file, "/nonexistent.xml"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatch:
    @pytest.fixture
    def source_files(self, tmp_path):
        paths = []
        for index in range(3):
            path = tmp_path / f"src{index}.xml"
            path.write_text(to_xml(deptstore.source_instance()), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_happy_path_prints_summary(self, mapping_file, source_files, capsys):
        assert main(["batch", mapping_file, *source_files]) == 0
        out = capsys.readouterr().out
        assert "transformed 3 documents" in out
        assert "cache hits=2, misses=1" in out

    def test_output_dir_written(self, mapping_file, source_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(
            ["batch", mapping_file, *source_files, "--output-dir", str(out_dir)]
        ) == 0
        produced = sorted(p.name for p in out_dir.iterdir())
        assert produced == ["src0.out.xml", "src1.out.xml", "src2.out.xml"]
        result = parse_xml((out_dir / "src0.out.xml").read_text(encoding="utf-8"))
        assert result.tag == "target"
        assert len(result.findall("department")) == 2

    def test_workers_two_matches_single(self, mapping_file, source_files, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(
            ["batch", mapping_file, *source_files, "--output-dir", str(a_dir)]
        ) == 0
        assert main(
            ["batch", mapping_file, *source_files, "--output-dir", str(b_dir),
             "--workers", "2"]
        ) == 0
        for name in ("src0.out.xml", "src1.out.xml", "src2.out.xml"):
            assert (a_dir / name).read_text() == (b_dir / name).read_text()

    def test_bad_workers_value_is_a_clean_error(
        self, mapping_file, source_files, capsys
    ):
        assert main(
            ["batch", mapping_file, source_files[0], "--workers", "0"]
        ) == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_non_integer_workers_rejected_by_argparse(
        self, mapping_file, source_files
    ):
        with pytest.raises(SystemExit):
            main(["batch", mapping_file, source_files[0], "--workers", "two"])

    def test_metrics_json_content(self, mapping_file, source_files, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, *source_files,
             "--metrics-json", str(metrics_path), "--validate"]
        ) == 0
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert doc["format"] == "clip-batch-metrics"
        assert doc["version"] == 2
        assert doc["engine"] == "tgd"
        assert doc["workers"] == 1
        assert doc["documents"] == 3
        assert doc["plan_cache"]["hits"] == 2
        assert doc["plan_cache"]["misses"] == 1
        assert doc["validation_violations"] == 0
        assert set(doc["timings"]) == {
            "compile_seconds", "execute_seconds", "wall_seconds",
        }

    def test_malformed_input_isolated_under_collect(
        self, mapping_file, source_files, tmp_path, dead_letter_dir, capsys
    ):
        """An unparseable input is a per-document failure under
        skip/collect — dead-lettered as raw text — not a batch abort."""
        bad = tmp_path / "bad.xml"
        bad.write_text("<not well formed", encoding="utf-8")
        dlq = dead_letter_dir / "dlq"
        out_dir = tmp_path / "out"
        sources = [source_files[0], str(bad), source_files[1]]
        assert main(
            ["batch", mapping_file, *sources,
             "--error-policy", "collect",
             "--dead-letter-dir", str(dlq),
             "--output-dir", str(out_dir)]
        ) == 0
        captured = capsys.readouterr()
        assert "failed: " in captured.err and "XmlParseError" in captured.err
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "src0.out.xml", "src1.out.xml",
        ]
        assert (dlq / "dead-letter-00001.xml").read_text(
            encoding="utf-8"
        ) == "<not well formed"
        manifest = json.loads((dlq / "failures.json").read_text(encoding="utf-8"))
        assert [entry["index"] for entry in manifest] == [1]
        assert manifest[0]["error"] == "XmlParseError"

    def test_malformed_input_aborts_under_fail_fast(
        self, mapping_file, source_files, tmp_path, capsys
    ):
        bad = tmp_path / "bad.xml"
        bad.write_text("<not well formed", encoding="utf-8")
        assert main(
            ["batch", mapping_file, source_files[0], str(bad)]
        ) == 2
        assert "malformed XML" in capsys.readouterr().err

    def test_xquery_engine_agrees(self, mapping_file, source_files, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(
            ["batch", mapping_file, *source_files, "--output-dir", str(a_dir)]
        ) == 0
        assert main(
            ["batch", mapping_file, *source_files, "--output-dir", str(b_dir),
             "--engine", "xquery"]
        ) == 0
        assert (a_dir / "src1.out.xml").read_text() == (
            b_dir / "src1.out.xml"
        ).read_text()


class TestExplainCommand:
    @pytest.fixture
    def join_mapping_file(self, tmp_path):
        path = tmp_path / "fig6.json"
        save(deptstore.mapping_fig6(), str(path))
        return str(path)

    def test_explain_renders_plan_and_counters(
        self, join_mapping_file, source_file, capsys
    ):
        assert main(["explain", join_mapping_file, source_file]) == 0
        out = capsys.readouterr().out
        assert "clip-plan-explain v1 (optimize=on)" in out
        assert "equality join @ r: p.@pid = r.@pid" in out
        assert "hash joins: builds=" in out

    def test_explain_json_document(self, join_mapping_file, source_file, capsys):
        assert main(["explain", join_mapping_file, source_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "clip-plan-explain"
        assert doc["version"] == 1
        assert doc["optimize"] is True
        assert doc["totals"]["join_probes"] > 0
        joins = [
            join
            for level in doc["levels"]
            for gen in level["generators"]
            for join in gen["joins"]
        ]
        assert any(join["kind"] == "equality" for join in joins)

    def test_explain_no_optimize_keeps_counters_zero(
        self, join_mapping_file, source_file, capsys
    ):
        assert main(
            ["explain", join_mapping_file, source_file, "--no-optimize"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimize=off" in out
        assert "naive evaluation" in out


class TestNoOptimizeFlag:
    def test_run_no_optimize_is_byte_identical(
        self, mapping_file, source_file, tmp_path
    ):
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        assert main(["run", mapping_file, source_file, "-o", str(a)]) == 0
        assert main(
            ["run", mapping_file, source_file, "-o", str(b), "--no-optimize"]
        ) == 0
        assert a.read_text() == b.read_text()

    def test_batch_no_optimize_matches_and_reports(
        self, mapping_file, source_file, tmp_path
    ):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, source_file, "--output-dir", str(a_dir)]
        ) == 0
        assert main(
            ["batch", mapping_file, source_file, "--output-dir", str(b_dir),
             "--no-optimize", "--metrics-json", str(metrics_path)]
        ) == 0
        assert (a_dir / "source.out.xml").read_text() == (
            b_dir / "source.out.xml"
        ).read_text()
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert doc["plan"] == {"optimize": False, "exec_mode": "interp"}

    def test_batch_metrics_carry_plan_report(
        self, mapping_file, source_file, tmp_path
    ):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, source_file,
             "--metrics-json", str(metrics_path)]
        ) == 0
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert doc["plan"]["optimize"] is True
        assert doc["plan"]["exec_mode"] == "codegen"
        assert doc["plan"]["levels"]
        assert doc["plan"]["counters"]
        # The document still parses through the v2 metrics reader.
        from repro.runtime import BatchMetrics

        parsed = BatchMetrics.from_json(metrics_path.read_text(encoding="utf-8"))
        assert parsed.plan == doc["plan"]


class TestLineageCommand:
    def test_full_lineage(self, mapping_file, capsys):
        assert main(["lineage", mapping_file]) == 0
        assert "<=[copy]=" in capsys.readouterr().out

    def test_source_impact(self, mapping_file, capsys):
        assert main(["lineage", mapping_file, "--source", "source/dept/regEmp/sal"]) == 0
        out = capsys.readouterr().out
        assert "target/department/employee/@name" in out


class TestSuggest:
    def test_suggest_generates_mapping(self, tmp_path, capsys):
        src = tmp_path / "src.xsd"
        tgt = tmp_path / "tgt.xsd"
        src.write_text(to_xsd(deptstore.source_schema()), encoding="utf-8")
        tgt.write_text(
            to_xsd(deptstore.target_schema_departments()), encoding="utf-8"
        )
        assert main(["suggest", str(src), str(tgt)]) == 0
        out = capsys.readouterr().out
        assert "suggested value mappings:" in out
        assert "generated nested mapping:" in out

    def test_no_matches_above_threshold(self, tmp_path, capsys):
        src = tmp_path / "src.xsd"
        tgt = tmp_path / "tgt.xsd"
        src.write_text(to_xsd(deptstore.source_schema()), encoding="utf-8")
        tgt.write_text(
            to_xsd(deptstore.target_schema_departments()), encoding="utf-8"
        )
        assert main(["suggest", str(src), str(tgt), "--threshold", "0.999"]) == 1


class TestPaperCommands:
    def test_figures_single(self, capsys):
        assert main(["figures", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "@avg-sal = 10875" in out
        assert "matches the paper's printed output: yes" in out

    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert out.count("matches the paper's printed output: yes") == len(
            deptstore.FIGURES
        )

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "all rows meet the paper's lower bounds" in capsys.readouterr().out


class TestXsltCommand:
    def test_xslt_prints_stylesheet(self, mapping_file, capsys):
        assert main(["xslt", mapping_file]) == 0
        out = capsys.readouterr().out
        assert '<xsl:template match="/">' in out
        assert '<xsl:for-each select="/source/dept">' in out

    def test_run_with_xslt_engine_matches(self, mapping_file, source_file, tmp_path):
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        assert main(["run", mapping_file, source_file, "-o", str(a)]) == 0
        assert main(
            ["run", mapping_file, source_file, "-o", str(b), "--engine", "xslt"]
        ) == 0
        assert a.read_text() == b.read_text()


class TestTraceCli:
    def test_run_trace_json_writes_clip_trace(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        from repro.runtime import TRACE_FORMAT, TRACE_VERSION, Trace

        trace_path = tmp_path / "trace.json"
        out_path = tmp_path / "out.xml"
        assert main(
            ["run", mapping_file, source_file, "-o", str(out_path),
             "--trace-json", str(trace_path)]
        ) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert doc["format"] == TRACE_FORMAT
        assert doc["version"] == TRACE_VERSION
        assert doc["engine"] == "tgd"
        trace = Trace.from_dict(doc)
        for name in ("compile", "prepare", "transform", "execute"):
            assert trace.find(name) is not None, name

    def test_traced_run_output_matches_untraced(
        self, mapping_file, source_file, tmp_path
    ):
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        assert main(["run", mapping_file, source_file, "-o", str(a)]) == 0
        assert main(
            ["run", mapping_file, source_file, "-o", str(b),
             "--trace-json", str(tmp_path / "t.json")]
        ) == 0
        assert a.read_text() == b.read_text()

    def test_run_compose_trace_json_traces_the_fused_transform(
        self, tmp_path
    ):
        from repro.runtime import Trace
        from tests.test_algebra import _instance, _m_ab, _m_bc

        first, second = tmp_path / "ab.json", tmp_path / "bc.json"
        save(_m_ab(), str(first))
        save(_m_bc(), str(second))
        source = tmp_path / "a.xml"
        source.write_text(to_xml(_instance()), encoding="utf-8")
        traced, plain = tmp_path / "traced.xml", tmp_path / "plain.xml"
        trace_path = tmp_path / "trace.json"
        run = ["run", str(first), str(source), "--compose", str(second)]
        assert main(run + ["-o", str(plain)]) == 0
        assert main(
            run + ["-o", str(traced), "--trace-json", str(trace_path)]
        ) == 0
        assert traced.read_text() == plain.read_text()
        trace = Trace.from_dict(json.loads(trace_path.read_text()))
        pipeline = trace.find("pipeline")
        assert pipeline is not None and pipeline["attrs"]["fused"] == 1
        [fused] = pipeline["children"]
        assert fused["name"] == "fused[0]"
        assert fused["attrs"]["stages"] == "0,1"
        names = {span["name"] for span in Trace(spans=[fused]).iter_spans()}
        assert {"execute", "plan"} <= names

    def _batch_with_trace(self, mapping_file, source_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, source_file, source_file,
             "--trace-json", str(trace_path),
             "--metrics-json", str(metrics_path)]
        ) == 0
        return trace_path, metrics_path

    def test_batch_trace_embedded_in_metrics(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        from repro.runtime import BatchMetrics, Trace

        trace_path, metrics_path = self._batch_with_trace(
            mapping_file, source_file, tmp_path
        )
        trace_doc = json.loads(trace_path.read_text(encoding="utf-8"))
        # The metrics v2 parser round-trips the additive trace key and
        # the embedded document equals the standalone file.
        metrics = BatchMetrics.from_json(
            metrics_path.read_text(encoding="utf-8")
        )
        assert metrics.trace == trace_doc
        trace = Trace.from_dict(metrics.trace)
        assert trace.find("batch") is not None
        assert trace.find("doc[0]") is not None
        assert trace.find("doc[1]") is not None

    def test_trace_subcommand_renders_tree(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        trace_path, metrics_path = self._batch_with_trace(
            mapping_file, source_file, tmp_path
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "clip-trace v1" in out
        assert "batch" in out and "doc[0]" in out
        # A metrics file works too: the embedded trace is unwrapped.
        assert main(["trace", str(metrics_path)]) == 0
        assert "doc[1]" in capsys.readouterr().out

    def test_trace_subcommand_canonical_is_deterministic(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        trace_path, _ = self._batch_with_trace(
            mapping_file, source_file, tmp_path
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--canonical"]) == 0
        first = capsys.readouterr().out
        trace_path2, _ = self._batch_with_trace(
            mapping_file, source_file, tmp_path
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path2), "--canonical"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["format"] == "clip-trace"
        assert "t0" not in json.dumps(doc)

    def test_trace_subcommand_chrome_export(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        trace_path, _ = self._batch_with_trace(
            mapping_file, source_file, tmp_path
        )
        chrome_path = tmp_path / "chrome.json"
        assert main(
            ["trace", str(trace_path), "--chrome", str(chrome_path)]
        ) == 0
        doc = json.loads(chrome_path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        assert all(event["ph"] == "X" for event in doc["traceEvents"])

    def test_trace_subcommand_rejects_non_trace_json(
        self, tmp_path, capsys
    ):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else"}', encoding="utf-8")
        assert main(["trace", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_subcommand_rejects_metrics_without_trace(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, source_file,
             "--metrics-json", str(metrics_path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(metrics_path)]) == 2
        assert "without an embedded trace" in capsys.readouterr().err


class TestRunIncremental:
    def test_incremental_run_matches_full_run(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        prev_target = tmp_path / "prev.xml"
        assert main(
            ["run", mapping_file, source_file, "-o", str(prev_target)]
        ) == 0
        edited = tmp_path / "edited.xml"
        doc = parse_xml((tmp_path / "source.xml").read_text(encoding="utf-8"))
        field = doc.findall("dept")[0].findall("Proj")[0].find("pname")
        field.clear_text()
        field.set_text("Edited via CLI")
        edited.write_text(to_xml(doc), encoding="utf-8")
        full_out = tmp_path / "full.xml"
        assert main(
            ["run", mapping_file, str(edited), "-o", str(full_out)]
        ) == 0
        capsys.readouterr()
        inc_out = tmp_path / "inc.xml"
        assert main([
            "run", mapping_file, str(edited), "-o", str(inc_out),
            "--incremental", source_file, str(prev_target),
        ]) == 0
        assert inc_out.read_text() == full_out.read_text()
        assert "incremental: mode=" in capsys.readouterr().err

    def test_baseline_reports_both_timings_and_checks_identity(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        prev_target = tmp_path / "prev.xml"
        assert main(
            ["run", mapping_file, source_file, "-o", str(prev_target)]
        ) == 0
        capsys.readouterr()
        out = tmp_path / "out.xml"
        assert main([
            "run", mapping_file, source_file, "-o", str(out),
            "--incremental", source_file, str(prev_target), "--baseline",
        ]) == 0
        err = capsys.readouterr().err
        assert "incremental: mode=unchanged" in err
        assert "baseline: full recompute" in err

    def test_incremental_requires_the_tgd_engine(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        prev_target = tmp_path / "prev.xml"
        assert main(
            ["run", mapping_file, source_file, "-o", str(prev_target)]
        ) == 0
        assert main([
            "run", mapping_file, source_file, "--engine", "xquery",
            "--incremental", source_file, str(prev_target),
        ]) == 2
        assert "tgd engine" in capsys.readouterr().err
