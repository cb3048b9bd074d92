"""Incremental recomputation (:mod:`repro.runtime.incremental`).

The single load-bearing contract, asserted everywhere below: whatever
path the incremental layer takes — unchanged, scoped, fallback;
stateless or session; delta recomputed or supplied — the serialized
target is byte-identical to ``plan.run(new_source)``.  Everything else
(reuse counters, cache survival, mode selection) is about doing less
work, never different work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compile import compile_clip
from repro.core.tgd import render_tgd
from repro.core.tgd_parser import parse_tgd
from repro.errors import ExecutionError, ReproError
from repro.executor.engine import prepare
from repro.executor.planner import PlanMemo
from repro.runtime.incremental import (
    DEFAULT_THRESHOLD,
    IncrementalSession,
    transform_delta,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.diff import Delta, compute_delta
from repro.xml.model import element
from repro.xml.serialize import to_xml

FIGURES = {
    "fig3": deptstore.mapping_fig3,
    "fig4": deptstore.mapping_fig4,
    "fig5": deptstore.mapping_fig5,
    "fig7": deptstore.mapping_fig7,
    "fig9": deptstore.mapping_fig9,
}

_SPEC = DeptstoreSpec(departments=4, projects_per_dept=3,
                      employees_per_dept=5)


def _plan(figure: str, *, optimize: bool = True):
    return prepare(compile_clip(FIGURES[figure]()), optimize=optimize)


def _instance():
    return make_deptstore_instance(_SPEC)


def _edit_pname(doc, value: str, index: int = 0):
    projects = [p for d in doc.findall("dept") for p in d.findall("Proj")]
    field = projects[index % len(projects)].find("pname")
    field.clear_text()
    field.set_text(value)


def _edit_ename(doc, value: str, index: int = 0):
    employees = [e for d in doc.findall("dept") for e in d.findall("regEmp")]
    field = employees[index % len(employees)].find("ename")
    field.clear_text()
    field.set_text(value)


def _drop_project(doc, index: int = 0):
    projects = [p for d in doc.findall("dept") for p in d.findall("Proj")]
    target = projects[index % len(projects)]
    target.parent.remove(target)


_EDITS = {
    "pname": _edit_pname,
    "ename": _edit_ename,
}


def _chained_edit(doc, step: int) -> None:
    """Step ``step`` of the chained edit script: a project renamed, an
    employee renamed, or a project dropped, in turn."""
    if step % 3 == 0:
        _edit_pname(doc, f"step {step}", step)
    elif step % 3 == 1:
        _edit_ename(doc, f"step {step}", step)
    else:
        _drop_project(doc, step)


def _session_reports(figure: str, *, optimize: bool) -> list[dict]:
    """One session's reports over nine steps of the chained script."""
    session = IncrementalSession(_plan(figure, optimize=optimize))
    doc = _instance()
    session.transform(doc)
    reports = []
    for step in range(9):
        doc = doc.copy()
        _chained_edit(doc, step)
        _got, report = session.transform(doc)
        reports.append(report.to_dict())
    return reports


class TestStatelessTransformDelta:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("optimize", [True, False])
    def test_single_edit_is_byte_identical(self, figure, optimize):
        plan = _plan(figure, optimize=optimize)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_pname(new, "renamed project")
        delta = compute_delta(old, new)
        got, report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))
        assert report.mode in ("unchanged", "scoped", "fallback")

    def test_empty_delta_returns_previous_target_unchanged(self):
        plan = _plan("fig3")
        old = _instance()
        old_target = plan.run(old)
        delta = compute_delta(old, old.copy())
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == "unchanged"
        assert to_xml(got) == to_xml(old_target)

    def test_scoped_mode_reuses_most_units_for_one_field_edit(self):
        """Read-anchored dirtiness: one pname edit on the grouping
        mapping dirties the affected group(s), not the document."""
        plan = _plan("fig7")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_pname(new, "a genuinely new name")
        delta = compute_delta(old, new)
        got, report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))
        assert report.mode == "scoped"
        assert report.total_units > 2
        assert report.reused_units >= report.total_units - 2
        assert report.reused_units + report.recomputed_units == report.total_units

    def test_large_delta_falls_back_by_threshold(self):
        plan = _plan("fig3")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        for index in range(60):
            _edit_ename(new, f"renamed {index}", index)
            _edit_pname(new, f"renamed {index}", index)
        delta = compute_delta(old, new)
        assert delta.ratio(old.size()) > DEFAULT_THRESHOLD
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == "fallback"
        assert "threshold" in report.reason
        assert to_xml(got) == to_xml(plan.run(new))

    def test_structural_edit_is_byte_identical(self):
        plan = _plan("fig7")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _drop_project(new, 2)
        delta = compute_delta(old, new)
        got, _report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))

    def test_report_counters_are_consistent(self):
        plan = _plan("fig5")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_ename(new, "somebody else")
        delta = compute_delta(old, new)
        _got, report = transform_delta(plan, old, old_target, delta)
        assert report.delta_records == len(delta.records)
        assert report.changed_nodes == delta.changed_nodes
        assert report.threshold == DEFAULT_THRESHOLD
        assert 0.0 < report.delta_ratio <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        figure=st.sampled_from(sorted(FIGURES)),
        edits=st.lists(
            st.tuples(
                st.sampled_from(sorted(_EDITS)),
                st.integers(min_value=0, max_value=40),
                st.text(
                    alphabet="abcdefgh ", min_size=1, max_size=12
                ),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_hypothesis_edit_scripts_stay_byte_identical(self, figure, edits):
        plan = _plan(figure)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        for kind, index, value in edits:
            _EDITS[kind](new, value, index)
        delta = compute_delta(old, new)
        got, _report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))


    @pytest.mark.parametrize("optimize", [True, False])
    def test_last_qualifying_unit_edited_away_keeps_the_wrapper(
        self, optimize
    ):
        """Figure 3 builds its employees inside a ``department`` wrapper
        that a full run emits even when no employee qualifies; both
        incremental paths must emit it as well."""
        plan = _plan("fig3", optimize=optimize)
        old = deptstore.source_instance()
        salaries = [
            employee.find("sal")
            for dept in old.findall("dept")
            for employee in dept.findall("regEmp")
        ]
        rich = [sal for sal in salaries if sal.text > 11000]
        for sal in rich[1:]:
            sal.clear_text()
            sal.set_text(5000)
        old_target = plan.run(old)
        new = old.copy()
        edited = [
            sal
            for sal in new.iter()
            if sal.tag == "sal" and sal.text > 11000
        ]
        assert len(edited) == 1
        edited[0].clear_text()
        edited[0].set_text(100)
        expected = to_xml(plan.run(new))
        assert "<department/>" in expected

        got, report = transform_delta(
            plan, old, old_target, compute_delta(old, new)
        )
        assert report.mode == "scoped"
        assert to_xml(got) == expected

        session = IncrementalSession(plan)
        session.transform(old)
        got, report = session.transform(new)
        assert report.mode == "scoped"
        assert to_xml(got) == expected

    @pytest.mark.parametrize(
        "figure, edit, mode",
        [
            ("fig3", "pname", "unchanged"),
            ("fig7", "pname", "scoped"),
            ("fig7", "bulk", "fallback"),
        ],
    )
    def test_previous_documents_are_never_mutated(self, figure, edit, mode):
        plan = _plan(figure)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        if edit == "bulk":
            for index in range(60):
                _edit_ename(new, f"bulk {index}", index)
                _edit_pname(new, f"bulk {index}", index)
        else:
            _edit_pname(new, "renamed project")
        source_before, target_before = to_xml(old), to_xml(old_target)
        got, report = transform_delta(
            plan, old, old_target, compute_delta(old, new)
        )
        assert report.mode == mode
        assert to_xml(got) == to_xml(plan.run(new))
        assert to_xml(old) == source_before
        assert to_xml(old_target) == target_before

    def test_whole_document_replacement_falls_back(self):
        """A delta replacing the root wholesale cannot be applied in
        place; both paths recompute over the replacement."""
        plan = _plan("fig5")
        old = _instance()
        for child in list(old.children):
            old.remove(child)
        old.set_text("no departments")
        old_target = plan.run(old)
        new = _instance()
        delta = compute_delta(old, new)
        assert delta.records[0].op == "replace"
        assert not delta.records[0].steps
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == "fallback"
        assert to_xml(got) == to_xml(plan.run(new))

        session = IncrementalSession(plan)
        session.transform(old)
        got, report = session.transform(new)
        assert report.mode == "fallback"
        assert to_xml(got) == to_xml(plan.run(new))


class TestIncrementalSession:
    def test_first_call_is_a_full_run(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        got, report = session.transform(doc)
        assert report.mode == "fallback"
        assert report.reason == "no previous state"
        assert to_xml(got) == to_xml(plan.run(doc))

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("optimize", [True, False])
    def test_chained_transforms_stay_byte_identical(self, figure, optimize):
        plan = _plan(figure, optimize=optimize)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        for step in range(6):
            doc = doc.copy()
            _chained_edit(doc, step)
            got, _report = session.transform(doc)
            assert to_xml(got) == to_xml(plan.run(doc))

    def test_input_documents_are_never_mutated_or_retained(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        before = to_xml(doc)
        session.transform(doc)
        edited = doc.copy()
        _edit_pname(edited, "changed")
        session.transform(edited)
        # Mutating the caller's documents after the fact must not
        # disturb the session's maintained state.
        _edit_ename(doc, "scribbled over")
        _edit_ename(edited, "scribbled over")
        third = doc.copy()
        got, _report = session.transform(third)
        assert to_xml(got) == to_xml(plan.run(third))
        assert to_xml(doc) != before  # we really did scribble

    def test_unchanged_document_short_circuits(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        _got, report = session.transform(doc.copy())
        assert report.mode == "unchanged"
        assert report.reason == "empty delta"

    def test_apply_requires_an_established_session(self):
        session = IncrementalSession(_plan("fig7"))
        with pytest.raises(ReproError, match="no base document"):
            session.apply(Delta(records=()))

    def test_apply_rejects_truncated_deltas(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        session.transform(_instance())
        with pytest.raises(ReproError, match="truncated"):
            session.apply(Delta(records=(), truncated=True))

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_chained_applies_match_full_runs(self, figure):
        plan = _plan(figure)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        for step in range(6):
            new = doc.copy()
            if step % 3 == 2:
                _drop_project(new, step)
            else:
                _edit_pname(new, f"delta step {step}", step)
            delta = compute_delta(doc, new)
            got, _report = session.apply(delta)
            assert to_xml(got) == to_xml(plan.run(new))
            doc = new

    def test_apply_mode_mix_for_small_edits_is_incremental(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        modes = []
        for step in range(5):
            new = doc.copy()
            _edit_pname(new, f"only edit {step}", step)
            delta = compute_delta(doc, new)
            _got, report = session.apply(delta)
            modes.append(report.mode)
            doc = new
        assert set(modes) == {"scoped"}

    def test_session_survives_a_threshold_fallback(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        big = doc.copy()
        for index in range(60):
            _edit_ename(big, f"bulk {index}", index)
            _edit_pname(big, f"bulk {index}", index)
        got, report = session.transform(big)
        assert report.mode == "fallback"
        assert to_xml(got) == to_xml(plan.run(big))
        after = big.copy()
        _edit_pname(after, "back to small edits")
        got, report = session.transform(after)
        assert to_xml(got) == to_xml(plan.run(after))

    @pytest.mark.parametrize("structural", [True, False])
    def test_a_fallback_sizes_the_maintained_tree_at_most_once(
        self, structural, monkeypatch
    ):
        """The apply keeps the maintained tree's size by arithmetic
        over the records: neither a removal nor a mutation walks a
        tree to size it."""
        from repro.xml.model import XmlElement

        plan = _plan("fig7")
        session = IncrementalSession(plan, threshold=0.0)
        doc = _instance()
        session.transform(doc)
        edited = doc.copy()
        if structural:
            _drop_project(edited)
        else:
            _edit_pname(edited, "Renamed")
        delta = compute_delta(doc, edited)
        sized = []
        real = XmlElement.size
        monkeypatch.setattr(
            XmlElement, "size", lambda node: sized.append(node) or real(node)
        )
        got, report = session.apply(delta)
        assert report.mode == "fallback"
        assert to_xml(got) == to_xml(plan.run(edited))
        assert sized == []
        assert session._size == real(edited)

    def test_a_replace_resizes_by_the_subtrees_it_swaps(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan, threshold=0.0)
        doc = _instance()
        session.transform(doc)
        edited = doc.copy()
        pname = edited.findall("dept")[0].findall("Proj")[0].find("pname")
        pname.clear_text()
        pname.append(element("first", text="Sales"))  # text becomes children
        delta = compute_delta(doc, edited)
        assert [record.op for record in delta.records] == ["replace"]
        got, _report = session.apply(delta)
        assert to_xml(got) == to_xml(plan.run(edited))
        assert session._size == edited.size()

    def test_unsupported_shapes_degrade_to_stateless_full_runs(self):
        plan = _plan("fig9")  # aggregate mapping: no scoped support
        session = IncrementalSession(plan)
        doc = _instance()
        for _ in range(2):
            got, report = session.transform(doc)
            assert to_xml(got) == to_xml(plan.run(doc))
            if report.reason.startswith("unsupported mapping shape"):
                assert report.mode == "fallback"


_UNCHANGED = ("unchanged", "no level read-set intersects the delta", (), 0, 0, 0)
_FALLBACK = (
    "fallback", "delta intersects document-scoped reads of nested levels",
    (1,), 0, 0, 0,
)


def _binding(dirty, total, reused, recomputed):
    return ("scoped", "per-binding fragments spliced", dirty,
            total, reused, recomputed)


def _group(dirty, total, reused, recomputed):
    return ("scoped", "per-group fragments spliced", dirty,
            total, reused, recomputed)


#: Optimized-session reports over :func:`_session_reports`' script:
#: (mode, reason, dirty levels, total / reused / recomputed units).  A
#: more conservative read analysis would still produce the same bytes;
#: these pin how little it recomputes.
_PINNED_REPORTS = {
    "fig3": [
        _UNCHANGED, _binding((0,), 16, 16, 0), _UNCHANGED,
        _UNCHANGED, _binding((0,), 16, 15, 1), _UNCHANGED,
        _UNCHANGED, _binding((0,), 16, 15, 1), _UNCHANGED,
    ],
    "fig4": [
        _UNCHANGED, _binding((1,), 4, 3, 1), _UNCHANGED,
    ] * 3,
    "fig5": [
        _binding((1,), 4, 3, 1), _binding((2,), 4, 3, 1),
        _binding((1,), 4, 3, 1),
    ] * 3,
    "fig7": [
        _group((0,), 9, 8, 1), _group((1,), 9, 8, 1), _group((0, 1), 8, 8, 0),
        _group((0,), 9, 7, 2), _group((1,), 9, 8, 1), _group((0, 1), 8, 8, 0),
        _group((0,), 9, 7, 2), _group((1,), 9, 8, 1), _group((0, 1), 8, 8, 0),
    ],
}


def _row(report: dict) -> tuple:
    return (report["mode"], report["reason"], tuple(report["dirty_levels"]),
            report["total_units"], report["reused_units"],
            report["recomputed_units"])


class TestReportParity:
    @pytest.mark.parametrize("figure", sorted(_PINNED_REPORTS))
    def test_reports_do_not_depend_on_the_optimize_flag(self, figure):
        optimized = _session_reports(figure, optimize=True)
        naive = _session_reports(figure, optimize=False)
        for step, (fast, slow) in enumerate(zip(optimized, naive)):
            assert slow == fast, f"step {step}"

    @pytest.mark.parametrize("figure", sorted(_PINNED_REPORTS))
    def test_optimized_reports_are_pinned(self, figure):
        got = [
            _row(r) for r in _session_reports(figure, optimize=True)
        ]
        assert got == _PINNED_REPORTS[figure]


class TestPlanMemo:
    CHAINS = {
        "seq": ("Depts", "Dept", "Proj"),
        "key": ("Depts", "Dept", "Proj", "pname", "value"),
        "other": ("Depts", "Dept", "regEmp", "ename", "value"),
    }

    def _memo(self) -> PlanMemo:
        memo = PlanMemo()
        memo.put("seq", [1, 2, 3], {self.CHAINS["seq"]})
        memo.put("table", {"k": 1}, {self.CHAINS["seq"], self.CHAINS["key"]})
        memo.put("atom", ["x"], {self.CHAINS["other"]})
        return memo

    def test_value_chains_invalidate_exactly(self):
        """A text mutation names a leaf: the node-set cache above it
        survives, the value caches reading that leaf die."""
        memo = self._memo()
        dropped = memo.invalidate({self.CHAINS["key"]}, set())
        assert dropped == 1
        assert memo.get("seq") is not None
        assert memo.get("table") is None
        assert memo.get("atom") is not None

    def test_structural_chains_invalidate_by_prefix(self):
        memo = self._memo()
        dropped = memo.invalidate(set(), {("Depts", "Dept", "Proj")})
        assert dropped == 2
        assert memo.get("seq") is None
        assert memo.get("table") is None
        assert memo.get("atom") is not None

    def test_structural_ancestor_kills_everything_below(self):
        memo = self._memo()
        assert memo.invalidate(set(), {("Depts",)}) == 3
        assert len(memo) == 0

    def test_unrelated_chains_touch_nothing(self):
        memo = self._memo()
        assert memo.invalidate(
            {("Depts", "Dept", "dname", "value")},
            {("Elsewhere", "entirely")},
        ) == 0
        assert len(memo) == 3

    def test_clear_empties_entries_and_pins(self):
        import weakref

        class Binding:
            pass

        memo = self._memo()
        binding = Binding()
        memo.put(("seq", id(binding)), [], {self.CHAINS["seq"]}, binding)
        pinned = weakref.ref(binding)
        del binding
        assert pinned() is not None  # the entry keeps its binding alive
        memo.clear()
        assert len(memo) == 0
        assert pinned() is None

    def test_invalidation_releases_the_pinned_binding(self):
        import weakref

        class Binding:
            pass

        memo = PlanMemo()
        binding = Binding()
        memo.put(("seq", id(binding)), [], {self.CHAINS["seq"]}, binding)
        pinned = weakref.ref(binding)
        del binding
        assert memo.invalidate(set(), {self.CHAINS["seq"]}) == 1
        assert pinned() is None


class TestSharedMemo:
    """The session's :class:`PlanMemo` is what the generated code reads:
    document-scoped entries outlive the engine that built them."""

    def test_second_scoped_run_rebuilds_no_employee_join_table(
        self, monkeypatch
    ):
        from repro.executor.engine import TgdPlan
        from repro.executor.planner import PlanStats

        plan = _plan("fig7")
        session = IncrementalSession(plan)
        # Count what the session's engines do (they carry no plan
        # counters of their own).
        session_stats = PlanStats(plan.planned)
        engine_for = TgdPlan.engine_for

        def counted(self, source, *, stats=None, memo=None):
            if memo is not None:  # an engine over the session's document
                stats = session_stats
            return engine_for(self, source, stats=stats, memo=memo)

        monkeypatch.setattr(TgdPlan, "engine_for", counted)
        doc = _instance()
        session.transform(doc)
        first = doc.copy()
        _edit_pname(first, "first rename")
        _, report = session.transform(first)
        assert report.mode == "scoped"
        memo = session._memo
        tables = {
            key: value for key, value in memo.values.items()
            if isinstance(value, dict)
        }
        # The membership table over source.dept and the employee
        # equality table over d2.regEmp, both in the session memo.
        assert len(tables) >= 2
        second = first.copy()
        _edit_pname(second, "second rename")
        before = session_stats.snapshot()
        got, report = session.transform(second)
        assert report.mode == "scoped"
        assert to_xml(got) == to_xml(plan.run(second))
        employee_level = session_stats.diff(before)[1]
        assert employee_level.invocations > 0
        assert employee_level.join_builds == 0
        assert employee_level.join_probes > 0
        for key, table in tables.items():
            assert memo.get(key) is table


# -- edit chains ---------------------------------------------------------------


def _employees(doc):
    return [e for d in doc.findall("dept") for e in d.findall("regEmp")]


def _chain_pname(doc, index: int, value: str) -> None:
    if any(d.findall("Proj") for d in doc.findall("dept")):
        _edit_pname(doc, value, index)


def _chain_ename(doc, index: int, value: str) -> None:
    if _employees(doc):
        _edit_ename(doc, value, index)


def _chain_insert_employee(doc, index: int, value: str) -> None:
    """A copy of some employee, renamed, at a random position among its
    department's employees."""
    employees = _employees(doc)
    if not employees:
        return
    model = employees[index % len(employees)]
    dept = model.parent
    clone = model.copy()
    field = clone.find("ename")
    field.clear_text()
    field.set_text(value)
    mates = [i for i, child in enumerate(dept.children) if child.tag == "regEmp"]
    dept.insert(mates[(index // 3) % len(mates)] + (index % 2), clone)


def _chain_remove(tag: str):
    def remove(doc, index: int, _value: str) -> None:
        found = [n for d in doc.findall("dept") for n in d.findall(tag)]
        if found:
            target = found[index % len(found)]
            target.parent.remove(target)
    return remove


def _chain_insert_dept(doc, index: int, value: str) -> None:
    depts = doc.findall("dept")
    if not depts:
        return
    clone = depts[index % len(depts)].copy()
    field = clone.find("dname")
    field.clear_text()
    field.set_text(value)
    doc.insert(index % (len(depts) + 1), clone)


def _chain_remove_dept(doc, index: int, _value: str) -> None:
    depts = doc.findall("dept")
    if len(depts) > 1:
        doc.remove(depts[index % len(depts)])


def _chain_salary(doc, index: int, _value: str) -> None:
    """The Figure 3 filter read: a salary crossing 11000 either way."""
    employees = _employees(doc)
    if employees:
        field = employees[index % len(employees)].find("sal")
        crossed = 5000 if field.text > 11000 else 20000
        field.clear_text()
        field.set_text(crossed)


def _chain_bulk(doc, _index: int, value: str) -> None:
    """An edit over the delta-ratio threshold: every name changes."""
    for offset, employee in enumerate(_employees(doc)):
        field = employee.find("ename")
        field.clear_text()
        field.set_text(f"{value} {offset}")
    for offset, dept in enumerate(doc.findall("dept")):
        for proj in dept.findall("Proj"):
            field = proj.find("pname")
            field.clear_text()
            field.set_text(f"{value} {offset}")


_CHAIN_EDITS = {
    "pname": _chain_pname,
    "ename": _chain_ename,
    "insert regEmp": _chain_insert_employee,
    "remove regEmp": _chain_remove("regEmp"),
    "remove Proj": _chain_remove("Proj"),
    "insert dept": _chain_insert_dept,
    "remove dept": _chain_remove_dept,
    "salary": _chain_salary,
}


class TestSessionEditChains:
    """Long chains of mixed edits through one session — value edits,
    insertions and removals at every level, a Figure 3 filter flip and
    one over-threshold edit mid-chain: every step, whichever mode it
    takes, is byte-identical to a full run."""

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("optimize", [True, False])
    @settings(max_examples=12, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(sorted(_CHAIN_EDITS)),
                st.integers(min_value=0, max_value=60),
                st.text(alphabet="abcdefgh ", min_size=1, max_size=8),
            ),
            min_size=12,
            max_size=16,
        ),
        bulk_at=st.integers(min_value=3, max_value=9),
    )
    def test_every_step_matches_a_full_run(
        self, figure, optimize, steps, bulk_at
    ):
        plan = _plan(figure, optimize=optimize)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        for step, (kind, index, value) in enumerate(steps):
            doc = doc.copy()
            if step == bulk_at:
                kind = "bulk"
                _chain_bulk(doc, index, value)
            else:
                _CHAIN_EDITS[kind](doc, index, value)
            got, report = session.transform(doc)
            assert to_xml(got) == to_xml(plan.run(doc)), (
                f"step {step} ({kind}): {report.mode}, {report.reason}"
            )
            if report.delta_ratio > report.threshold:
                assert report.mode == "fallback"


class TestFailedApply:
    @pytest.mark.parametrize("figure", ["fig3", "fig5", "fig7"])
    def test_a_raising_call_resets_the_session(self, figure):
        """A dirty unit that raises leaves nothing half-spliced behind:
        the next call starts over with a full run."""
        plan = _plan(figure)
        session = IncrementalSession(plan)
        base = _instance()
        session.transform(base)
        broken = base.copy()
        employee = next(
            e for e in _employees(broken) if e.find("sal").text > 11000
        )
        employee.insert(1, element("ename", text="Second Name"))
        with pytest.raises(ExecutionError):
            session.transform(broken)
        edited = base.copy()
        _edit_ename(edited, "after the failure")
        got, report = session.transform(edited)
        assert (report.mode, report.reason) == ("fallback", "no previous state")
        assert to_xml(got) == to_xml(plan.run(edited))


class TestInPlaceTarget:
    """A scoped call edits the maintained target where it stands."""

    @staticmethod
    def _fragments(figure, target):
        # Figure 3 builds its units inside a department wrapper.
        return list(target.find("department").children
                    if figure == "fig3" else target.children)

    @pytest.mark.parametrize("figure, edit", [
        ("fig3", "ename"), ("fig4", "ename"), ("fig5", "ename"),
        ("fig5", "pname"), ("fig7", "pname"),
    ])
    def test_reused_fragments_keep_their_object_and_index(self, figure, edit):
        plan = _plan(figure)
        session = IncrementalSession(plan)
        doc = _instance()
        target, _ = session.transform(doc)
        for step in range(3):
            new = doc.copy()
            _EDITS[edit](new, f"in place {step}", 4 * step + 1)
            before = self._fragments(figure, target)
            got, report = session.apply(compute_delta(doc, new))
            assert report.mode == "scoped"
            assert got is target
            after = self._fragments(figure, got)
            assert len(after) == report.total_units
            index_of = {id(fragment): i for i, fragment in enumerate(before)}
            kept = [
                (index_of[id(fragment)], i)
                for i, fragment in enumerate(after)
                if id(fragment) in index_of
            ]
            assert len(kept) == report.reused_units
            if len(after) == len(before):
                assert all(old == i for old, i in kept)
            else:  # a group came or went: the rest keep their order
                assert kept == sorted(kept)
            assert to_xml(got) == to_xml(plan.run(new))
            doc = new

    def test_a_value_edit_skips_the_root_enumeration(self, monkeypatch):
        plan = _plan("fig7")
        enumerate_root = plan.program.enumerate
        calls = []

        def counted(*args):
            calls.append(args)
            return enumerate_root(*args)

        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        first = doc.copy()
        _edit_pname(first, "first rename", 2)
        session.transform(first)  # derives the old side
        new = first.copy()
        _edit_pname(new, "second rename", 5)
        delta = compute_delta(first, new)
        monkeypatch.setattr(plan.program, "enumerate", counted)
        got, report = session.apply(delta)
        assert report.mode == "scoped"
        assert report.recomputed_units >= 1
        assert calls == []
        assert to_xml(got) == to_xml(plan.run(new))

    def test_an_employee_insert_recomputes_one_unit(self, monkeypatch):
        plan = _plan("fig5")
        built = []
        unit = plan.program.unit

        def counted(*args, **kwargs):
            built.append(args)
            return unit(*args, **kwargs)

        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        new = doc.copy()
        _chain_insert_employee(new, 7, "newcomer")
        monkeypatch.setattr(plan.program, "unit", counted)
        got, report = session.transform(new)
        assert len(built) == 1
        assert _row(report.to_dict()) == _binding((2,), 4, 3, 1)
        assert to_xml(got) == to_xml(plan.run(new))


class TestJoinScopedEdits:
    """Figure 7's nested level re-scans every department's employees
    (``d2 ∈ source.dept, r ∈ d2.regEmp``) but joins them to the unit's
    project (``p2 ∈ d2.Proj``, ``p2.@pid = r.@pid``): an employee edit
    rebuilds only the groups of the projects it joins."""

    @staticmethod
    def _edit(doc, kind: str) -> set:
        """Edit the second department's employees mid-list; returns the
        project ids the edited employee joins, before and after."""
        dept = doc.findall("dept")[1]
        projects, employees = dept.findall("Proj"), dept.findall("regEmp")
        if kind == "insert":
            pid = projects[1].attribute("pid")
            dept.insert(len(projects) + 2, element(
                "regEmp", element("ename", text="New Hire"),
                element("sal", text=10000), pid=pid))
            return {pid}
        old = employees[2].attribute("pid")
        if kind == "remove":
            dept.remove(employees[2])
            return {old}
        new = next(p.attribute("pid") for p in projects
                   if p.attribute("pid") != old)
        employees[2].set_attribute("pid", new)
        return {old, new}

    @pytest.mark.parametrize("kind", ["insert", "remove", "retarget"])
    def test_an_employee_edit_rebuilds_only_the_groups_it_joins(self, kind):
        reports = []
        for optimize in (True, False):
            plan = _plan("fig7", optimize=optimize)
            session = IncrementalSession(plan)
            doc = _instance()
            session.transform(doc)
            edited = doc.copy()
            pids = self._edit(edited, kind)
            delta = compute_delta(doc, edited)
            assert len(delta.records) == 1  # no cascade down the siblings
            got, report = session.apply(delta)
            assert to_xml(got) == to_xml(plan.run(edited))
            reports.append(report.to_dict())
        joined = {p.find("pname").text for p in edited.findall("dept")[1].findall("Proj")
                  if p.attribute("pid") in pids}
        assert report.mode == "scoped"
        assert report.recomputed_units == len(joined) == (2 if kind == "retarget" else 1)
        assert report.total_units > 2
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("optimize", [True, False])
    def test_a_key_join_alone_selects_units_by_key(self, optimize):
        text = render_tgd(compile_clip(deptstore.mapping_fig7()))
        keyed = text.replace(
            "d2 ∈ source.dept, r ∈ d2.regEmp | p2.@pid = r.@pid, p2 ∈ d2.Proj",
            "r ∈ source.dept.regEmp | p2.@pid = r.@pid",
        )
        assert keyed != text
        plan = prepare(parse_tgd(keyed), optimize=optimize)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        edited = doc.copy()
        pids = self._edit(edited, "insert")
        got, report = session.transform(edited)
        assert to_xml(got) == to_xml(plan.run(edited))
        joined = {p.find("pname").text for d in edited.findall("dept")
                  for p in d.findall("Proj") if p.attribute("pid") in pids}
        assert report.mode == "scoped"
        assert 1 < report.recomputed_units == len(joined) < report.total_units

    @pytest.mark.parametrize("optimize", [True, False])
    def test_a_rescan_with_no_join_to_the_unit_still_falls_back(self, optimize):
        text = render_tgd(compile_clip(deptstore.mapping_fig7()))
        unjoined = text.replace(" | p2.@pid = r.@pid, p2 ∈ d2.Proj", "")
        assert unjoined != text
        plan = prepare(parse_tgd(unjoined), optimize=optimize)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        edited = doc.copy()
        self._edit(edited, "insert")
        got, report = session.transform(edited)
        assert (report.mode, report.reason) == _FALLBACK[:2]
        assert to_xml(got) == to_xml(plan.run(edited))
