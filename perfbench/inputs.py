"""Seeded benchmark inputs: dept-store documents, edit rings, references.

The documents follow the paper's source schema (``dept`` with ``dname``,
``Proj/@pid/pname`` and ``regEmp/@pid/ename/sal``) with the same
fan-out parameters as the repository's synthetic workloads, but are
generated here, from the benchmark seed alone, so the program only ever
sees the XML text.  Reference outputs come from the naive
(``optimize=False``) engine and are computed before any clock starts.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAPPINGS = HERE / "mappings"

_FIRST = ["John", "Mary", "Andrew", "Lucy", "Mark", "Jim", "Sara", "Paul",
          "Rita", "Tom", "Nina", "Carl", "Dana", "Hugo", "Iris", "Ben"]
_LAST = ["Smith", "Clarence", "Tane", "Bellish", "Dawson", "Aiking",
         "Rossi", "Verdi", "Kent", "Lane", "Moss", "Nash", "Boyd", "Cole"]
_PROJECTS = ["Appliances", "Robotics", "Brand promotion", "Analytics",
             "Cloud", "Mobility", "Security", "Logistics", "Vision", "Audio"]
_DEPARTMENTS = ["ICT", "Marketing", "Sales", "R&D", "Finance", "Legal",
                "Operations", "Support", "Design", "QA"]


@dataclass(frozen=True)
class Geometry:
    """Fan-out of one generated document."""

    departments: int
    projects_per_dept: int
    employees_per_dept: int
    #: Distinct project names to draw from; fewer names mean more
    #: cross-department homonyms, so heavier grouping.
    project_name_pool: int = 10


def mapping_text(name: str) -> str:
    return (MAPPINGS / f"{name}.json").read_text(encoding="utf-8")


def make_store(geometry: Geometry, rng: random.Random) -> list[dict]:
    """A document as plain data: one dict per department."""
    pool = [
        _PROJECTS[i % len(_PROJECTS)] + ("" if i < len(_PROJECTS) else f" {i}")
        for i in range(max(1, geometry.project_name_pool))
    ]
    store = []
    for d in range(geometry.departments):
        pids = list(range(1, geometry.projects_per_dept + 1))
        store.append({
            "dname": _DEPARTMENTS[d % len(_DEPARTMENTS)]
            + ("" if d < len(_DEPARTMENTS) else f" {d}"),
            "projs": [[pid, rng.choice(pool)] for pid in pids],
            "emps": [_employee(rng, pids)
                     for _ in range(geometry.employees_per_dept)],
        })
    return store


def _employee(rng: random.Random, pids: list[int]) -> list:
    return [rng.choice(pids) if pids else 1,
            f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
            rng.randrange(8000, 32000, 500)]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render(store: list[dict]) -> str:
    """The document's XML text, indented like the program's serializer."""
    lines = ["<source>"]
    for dept in store:
        lines.append("  <dept>")
        lines.append(f"    <dname>{_escape(dept['dname'])}</dname>")
        for pid, pname in dept["projs"]:
            lines.append(f'    <Proj pid="{pid}">')
            lines.append(f"      <pname>{_escape(pname)}</pname>")
            lines.append("    </Proj>")
        for pid, ename, sal in dept["emps"]:
            lines.append(f'    <regEmp pid="{pid}">')
            lines.append(f"      <ename>{_escape(ename)}</ename>")
            lines.append(f"      <sal>{sal}</sal>")
            lines.append("    </regEmp>")
        lines.append("  </dept>")
    lines.append("</source>")
    return "\n".join(lines) + "\n"


def document(geometry: Geometry, seed: int, label: str) -> str:
    """One seeded document; ``label`` keeps the streams of different
    documents of one run independent."""
    return render(make_store(geometry, random.Random(f"{seed}/{label}")))


#: The forward edits of an edit ring; each is undone again in reverse
#: order, so every step of the ring is exactly one edit and the ring of
#: 14 documents closes on the base: ten ``pname`` value edits, two
#: ``regEmp`` insertions and two deletions.  A structural edit costs the
#: Figure 7 session a full recompute and a value edit does not, so
#: latencies form a value cluster (10/14) and a structural one (4/14).
#: With these shares the median falls 70% into the value cluster and
#: the 90th percentile 65% into the structural one: neither sits near
#: the boundary between the clusters, where run-to-run noise moves a
#: quantile the most.
RING_EDITS = ("pname", "pname", "insert", "pname", "insert", "pname", "pname")


def edit_ring(geometry: Geometry, seed: int, label: str) -> list[str]:
    """A ring of documents, each one edit away from the previous one
    (and the last one edit away from the first)."""
    rng = random.Random(f"{seed}/{label}")
    state = make_store(geometry, rng)
    states = [state]
    undo = []
    for step, kind in enumerate(RING_EDITS):
        state, inverse = _edit(state, kind, step, rng)
        states.append(state)
        undo.append(inverse)
    for inverse in reversed(undo[1:]):
        state = inverse(state)
        states.append(state)
    # The final undo would reproduce states[0]: the ring wraps there.
    return [render(s) for s in states]


def _edit(store, kind, step, rng):
    new = copy.deepcopy(store)
    d = rng.randrange(len(new))
    dept = new[d]
    if kind == "pname":
        j = rng.randrange(len(dept["projs"]))
        old = dept["projs"][j][1]
        dept["projs"][j][1] = f"{old} v{step}"
        return new, _renamer(d, j, old)
    if kind == "insert":
        j = rng.randrange(len(dept["emps"]) + 1)
        dept["emps"].insert(j, _employee(rng, [pid for pid, _ in dept["projs"]]))
        return new, _deleter(d, j)
    raise ValueError(f"unknown edit {kind!r}")


def _renamer(d, j, pname):
    def undo(store):
        new = copy.deepcopy(store)
        new[d]["projs"][j][1] = pname
        return new
    return undo


def _deleter(d, j):
    def undo(store):
        new = copy.deepcopy(store)
        del new[d]["emps"][j]
        return new
    return undo


class References:
    """Naive-engine reference outputs, one compiled naive plan per
    mapping document."""

    def __init__(self):
        self._plans: dict[str, tuple] = {}

    def _plan(self, mapping_json: str):
        if mapping_json not in self._plans:
            from repro.core.compile import compile_clip
            from repro.io import loads
            from repro.runtime import plan_from_tgd

            clip = loads(mapping_json)
            plan = plan_from_tgd(compile_clip(clip), optimize=False)
            self._plans[mapping_json] = (clip, plan)
        return self._plans[mapping_json]

    def output(self, mapping_json: str, text: str) -> bytes:
        from repro.xml.parser import parse_xml
        from repro.xml.serialize import to_xml

        clip, plan = self._plan(mapping_json)
        return to_xml(plan.run(parse_xml(text, schema=clip.source))).encode("utf-8")

    def chained(self, first_json: str, second_json: str, text: str) -> bytes:
        """Stage two applied to stage one's output: what a composed
        mapping must reproduce byte for byte."""
        from repro.xml.parser import parse_xml
        from repro.xml.serialize import to_xml

        clip, first = self._plan(first_json)
        _, second = self._plan(second_json)
        middle = first.run(parse_xml(text, schema=clip.source))
        return to_xml(second.run(middle)).encode("utf-8")


def corrupt(reference: bytes) -> bytes:
    """A reference no correct output can match (for the self-test)."""
    return reference + b"<!-- corrupted reference -->"
