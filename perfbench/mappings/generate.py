"""Regenerate the benchmark's mapping documents.

The benchmark feeds the program saved ``clip-mapping`` JSON files, so
its inputs stay fixed even if the scenario code that first built them
changes.  This script is how they were made; rerun it only to change
the benchmark's inputs on purpose::

    PYTHONPATH=src python3 perfbench/mappings/generate.py

The copy→filter chain is the A→B→C pair of the composition benchmark:
stage 1 copies every department and employee into a ``staff``
intermediate, stage 2 keeps the workers paid above 20000.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.mapping import ClipMapping
from repro.io import save
from repro.scenarios import deptstore
from repro.xsd.dsl import attr, elem, schema
from repro.xsd.types import INT, STRING

HERE = Path(__file__).resolve().parent


def chain() -> tuple[ClipMapping, ClipMapping]:
    staff = schema(elem(
        "staff",
        elem("division", "[0..*]", attr("dn", STRING),
             elem("worker", "[0..*]", attr("wname", STRING), attr("pay", INT))),
    ))
    report = schema(elem(
        "report",
        elem("rich", "[0..*]", attr("who", STRING), attr("unit", STRING)),
    ))
    m_ab = ClipMapping(deptstore.source_schema(), staff)
    d = m_ab.build("dept", "division", var="d")
    m_ab.build("dept/regEmp", "division/worker", var="e", parent=d)
    m_ab.value("dept/dname/value", "division/@dn")
    m_ab.value("dept/regEmp/ename/value", "division/worker/@wname")
    m_ab.value("dept/regEmp/sal/value", "division/worker/@pay")

    m_bc = ClipMapping(staff, report)
    ctx = m_bc.context("division", var="x")
    m_bc.build("division/worker", "rich", var="w", parent=ctx,
               condition="$w.@pay > 20000")
    m_bc.value("division/worker/@wname", "rich/@who")
    m_bc.value("division/@dn", "rich/@unit")
    return m_ab, m_bc


def main() -> None:
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7"):
        save(getattr(deptstore, f"mapping_{name}")(), str(HERE / f"{name}.json"))
    m_ab, m_bc = chain()
    save(m_ab, str(HERE / "chain_ab.json"))
    save(m_bc, str(HERE / "chain_bc.json"))


if __name__ == "__main__":
    main()
