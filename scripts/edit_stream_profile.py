#!/usr/bin/env python
"""Where an edit-stream operation's time goes, per ring position.

Replays the ``edit-stream`` benchmark's ring in one process: fourteen
documents one edit apart (ten ``pname`` renames, two ``regEmp``
insertions and their two deletions) of a 12x16x22 store with a pool
of 96 project names, generated from seed 1 by ``perfbench/inputs.py``.
Two :class:`IncrementalSession` objects, on the Figure 7 and Figure 5
mappings, open on the ring's first document; every round then walks
the ring once, and each session takes each step through the public
API:

* ``diff_ms`` — :func:`compute_delta` against the previous document;
* ``apply_ms`` — :meth:`IncrementalSession.apply` of that delta
  (:meth:`IncrementalSession.transform` when the delta is truncated);
* ``serialize_ms`` — :func:`to_xml` of the returned target.

A second pair of sessions takes the same step the way the benchmark's
edit-stream operation does, and times it the same way: ``step_ms`` is
one :meth:`IncrementalSession.transform` plus :func:`to_xml` through
both sessions, so it is the per-operation latency that perfbench
reports, split above into its layers.

Every output is compared byte for byte with the naive
(``optimize=False``) engine's.  Like the benchmark, it collects and
freezes the heap once before the first timed step.  For each ring
position it prints the median over the rounds of each phase and of
``step_ms``, the mode each session took, how many of the session's
units it rebuilt out of how many (``recomputed_units``/``total_units``;
0/0 when it recomputed everything) and the delta's record count
(``delta_records``).

Exit status: 0 when every output matched, 1 otherwise.  Run it from
the repository root::

    python scripts/edit_stream_profile.py --rounds 20
    python scripts/edit_stream_profile.py --rounds 2 --json
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import inputs  # noqa: E402
from repro.core.compile import compile_clip  # noqa: E402
from repro.executor import prepare  # noqa: E402
from repro.io import loads  # noqa: E402
from repro.runtime import IncrementalSession  # noqa: E402
from repro.xml.diff import compute_delta  # noqa: E402
from repro.xml.parser import parse_xml  # noqa: E402
from repro.xml.serialize import to_xml  # noqa: E402

SEED = 1
MAPPINGS = ("fig7", "fig5")
GEOMETRY = inputs.Geometry(12, 16, 22, project_name_pool=96)
PHASES = ("diff_ms", "apply_ms", "serialize_ms")


def build_ring():
    """The mapping documents, the parsed ring and, per mapping, the
    reference bytes of every ring document."""
    texts = {name: inputs.mapping_text(name) for name in MAPPINGS}
    ring = inputs.edit_ring(GEOMETRY, SEED, "ring")
    schema = loads(texts[MAPPINGS[0]]).source
    docs = [parse_xml(text, schema=schema) for text in ring]
    refs = inputs.References()
    expected = {name: [refs.output(texts[name], text) for text in ring]
                for name in MAPPINGS}
    return texts, docs, expected


def replay(texts: dict, docs: list, expected: dict, rounds: int):
    """One untimed pass round the ring, then ``rounds`` timed ones;
    returns ``({name: [{phase: [ms per round], "modes": set}]},
    [step ms per round], mismatches)``, both indexed by ring position."""
    sessions, steppers = {}, {}
    for name in MAPPINGS:
        plan = prepare(compile_clip(loads(texts[name])), optimize=True)
        for pool in (sessions, steppers):
            pool[name] = IncrementalSession(plan)
            pool[name].transform(docs[0])
    samples = {name: [{phase: [] for phase in PHASES}
                      | {"modes": set(), "units": set(), "records": set()}
                      for _ in docs]
               for name in MAPPINGS}
    steps = [[] for _ in docs]
    mismatches = 0
    gc.collect()
    gc.freeze()
    try:
        for round_no in range(rounds + 1):
            for step in range(1, len(docs) + 1):
                position = step % len(docs)
                prev, doc = docs[step - 1], docs[position]
                for name, session in sessions.items():
                    started = time.perf_counter()
                    delta = compute_delta(prev, doc)
                    diffed = time.perf_counter()
                    if delta.truncated:
                        target, report = session.transform(doc)
                    else:
                        target, report = session.apply(delta)
                    applied = time.perf_counter()
                    out = to_xml(target)
                    done = time.perf_counter()
                    if out.encode("utf-8") != expected[name][position]:
                        mismatches += 1
                        print(f"  [FAIL] {name} position {position}: "
                              f"{report.mode} ({report.reason})",
                              file=sys.stderr)
                    if round_no == 0:
                        continue  # warm-up
                    row = samples[name][position]
                    row["diff_ms"].append((diffed - started) * 1e3)
                    row["apply_ms"].append((applied - diffed) * 1e3)
                    row["serialize_ms"].append((done - applied) * 1e3)
                    row["modes"].add(report.mode)
                    row["units"].add((report.recomputed_units,
                                      report.total_units))
                    row["records"].add(len(delta.records))
                started = time.perf_counter()
                outs = [to_xml(steppers[name].transform(doc)[0])
                        for name in MAPPINGS]
                elapsed = time.perf_counter() - started
                for name, out in zip(MAPPINGS, outs):
                    if out.encode("utf-8") != expected[name][position]:
                        mismatches += 1
                        print(f"  [FAIL] {name} step at position {position}",
                              file=sys.stderr)
                if round_no:
                    steps[position].append(elapsed * 1e3)
    finally:
        gc.unfreeze()
    return samples, steps, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed passes round the ring (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of a table")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    texts, docs, expected = build_ring()
    samples, steps, mismatches = replay(texts, docs, expected, args.rounds)
    step_ms = [round(statistics.median(row), 3) for row in steps]
    # Units and records are the same every round; max() reads them.
    medians = {
        name: [
            {phase: round(statistics.median(row[phase]), 3) for phase in PHASES}
            | {"mode": "/".join(sorted(row["modes"])),
               "recomputed_units": max(row["units"])[0],
               "total_units": max(row["units"])[1],
               "delta_records": max(row["records"])}
            for row in rows
        ]
        for name, rows in samples.items()
    }
    if args.json:
        print(json.dumps({"rounds": args.rounds, "seed": SEED,
                          "mismatches": mismatches, "positions": medians,
                          "step_ms": step_ms},
                         indent=2, sort_keys=True))
    else:
        print(f"{args.rounds} rounds, seed {SEED}; per-step medians (ms)")
        header = "".join(f"{name + ' ' + phase.split('_')[0]:>16}"
                         for name in MAPPINGS for phase in PHASES)
        scopes = "".join(f"{name + ' units':>12}{'recs':>5}" for name in MAPPINGS)
        print(f"{'pos':>4}{header}{'step_ms':>10}{scopes}  modes")
        for position in range(len(docs)):
            cells = "".join(f"{medians[name][position][phase]:>16.3f}"
                            for name in MAPPINGS for phase in PHASES)
            rows = [medians[name][position] for name in MAPPINGS]
            units = "".join(
                f"{row['recomputed_units']:>7}/{row['total_units']:<4}"
                f"{row['delta_records']:>5}" for row in rows)
            modes = " ".join(row["mode"] for row in rows)
            print(f"{position:>4}{cells}{step_ms[position]:>10.3f}{units}  {modes}")
        print("bytes: all outputs match the naive engine"
              if not mismatches else f"bytes: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
