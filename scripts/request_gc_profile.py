#!/usr/bin/env python
"""Where a warm service request's collector time goes, in one process.

Replays the ``serve-large`` benchmark's six documents (two each of the
Figure 6 join at 16x32x160, the Figure 7 grouping at 40x6x25 and the
composed copy->filter chain at 40x6x25, generated from seed 1 by
``perfbench/inputs.py``) through :meth:`ClipService.dispatch` as
``POST /transform`` requests, with no HTTP in between.  Like the
``serve`` command, it collects and freezes the heap once before the
first request.

Every response is compared byte for byte with the naive
(``optimize=False``) engine's output.  The collector is timed with
``gc.callbacks``.  For each document kind it prints, as the median over
the rounds of the per-request mean:

* ``dispatch_ms`` — wall time of one ``dispatch`` call;
* ``gc_ms`` — collector time (all generations) inside it;
* ``gen2_ms`` — full-collection time inside it.

Right after each ``dispatch`` it runs the same document through the
kind's registered plan (the service's cached compiled plan) one layer
at a time with the collector paused (its time is the ``gc_ms`` column
above), so a drift in host speed hits both alike, and prints, again as
the median over the rounds of the per-document mean:

* ``parse_ms`` — ``parse_xml`` of the request body;
* ``execute_ms`` — the plan's ``run`` over the parsed document;
* ``serialize_ms`` — ``to_xml`` of the result, which is compared byte
  for byte with the same naive output as ``dispatch``;
* ``other_ms`` — ``dispatch_ms`` minus the three layers: what a
  request costs beyond its layers (routing, the runner, accounting,
  history, the collector).

``dispatch`` pauses the collector while a request is in flight, so
``gc_ms`` counts only a pass that starts between the request's resume
and the call's return.

Exit status: 0 when every response matched, 1 otherwise.  Run it from
the repository root::

    PYTHONPATH=src python scripts/request_gc_profile.py --rounds 10
    PYTHONPATH=src python scripts/request_gc_profile.py --rounds 2 --json
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
from repro.io import loads  # noqa: E402
from repro.service import ClipService  # noqa: E402
from repro.xml.parser import parse_xml  # noqa: E402
from repro.xml.serialize import to_xml  # noqa: E402

SEED = 1
#: (kind, mapping documents, geometry) — serve-large's request mix.
KINDS = (
    ("fig6", ("fig6",), inputs.Geometry(16, 32, 160)),
    ("fig7", ("fig7",), inputs.Geometry(40, 6, 25)),
    ("chain", ("chain_ab", "chain_bc"), inputs.Geometry(40, 6, 25)),
)
DOCS = 2


class CollectorClock:
    """Accumulates collector pause time from ``gc.callbacks``."""

    def __init__(self):
        self.total = 0.0
        self.gen2 = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        self.total += elapsed
        if info["generation"] == 2:
            self.gen2 += elapsed


def _post(service: ClipService, path: str, body: bytes,
          headers=None) -> dict:
    response = service.dispatch("POST", path, headers or {}, body)
    if response.status not in (200, 201):
        raise SystemExit(f"POST {path} answered {response.status}: "
                         f"{response.body[:200]!r}")
    return json.loads(response.body)


def build_requests() -> tuple[dict, list]:
    """The mapping documents by name, and the six requests as
    ``(kind, body, reference bytes)``."""
    refs = inputs.References()
    texts = {name: inputs.mapping_text(name)
             for _, names, _ in KINDS for name in names}
    requests = []
    for i in range(DOCS):
        for kind, names, geometry in KINDS:
            text = inputs.document(geometry, SEED, f"{kind}-{i}")
            if kind == "chain":
                reference = refs.chained(texts[names[0]], texts[names[1]], text)
            else:
                reference = refs.output(texts[names[0]], text)
            requests.append((kind, text.encode("utf-8"), reference))
    return texts, requests


def register(service: ClipService, texts: dict) -> dict:
    """Register every mapping and compose the chain, as the benchmark's
    set-up does; returns the fingerprint of each kind."""
    fps = {name: _post(service, "/mappings", text.encode("utf-8"))["fingerprint"]
           for name, text in texts.items()}
    fps["chain"] = _post(
        service, "/mappings/compose",
        json.dumps({"first": fps["chain_ab"],
                    "second": fps["chain_bc"]}).encode("utf-8"),
        {"Content-Type": "application/json"},
    )["fingerprint"]
    return fps


METRICS = ("dispatch_ms", "gc_ms", "gen2_ms",
           "parse_ms", "execute_ms", "serialize_ms")


def measure(service: ClipService, texts: dict, fps: dict, requests: list,
            rounds: int):
    """``rounds`` passes over ``requests`` after one untimed pass; each
    request is dispatched, then run again one layer at a time, so host
    speed drift hits both alike.  Returns ``({kind: {metric: [per-round
    mean]}}, mismatches)``."""
    schemas = {kind: loads(texts[names[0]]).source for kind, names, _ in KINDS}
    plans = {kind: service.cache.peek(fps[kind]) for kind, _, _ in KINDS}
    clock = CollectorClock()
    gc.callbacks.append(clock)
    samples = {kind: {metric: [] for metric in METRICS} for kind, _, _ in KINDS}
    mismatches = 0

    def check(ok: bool, what: str, got: int, want: int) -> None:
        nonlocal mismatches
        if not ok:
            mismatches += 1
            print(f"  [FAIL] {what}: {got} vs {want} bytes", file=sys.stderr)

    try:
        for round_no in range(rounds + 1):
            sums = {kind: [0.0] * len(METRICS) for kind in samples}
            for kind, body, reference in requests:
                path = f"/transform?mapping={fps[kind]}"
                gc_before, gen2_before = clock.total, clock.gen2
                started = time.perf_counter()
                response = service.dispatch("POST", path, {}, body)
                elapsed = time.perf_counter() - started
                check(response.status == 200 and response.body == reference,
                      f"{kind} {path} ({response.status})",
                      len(response.body), len(reference))
                gc_time = clock.total - gc_before
                gen2_time = clock.gen2 - gen2_before
                gc.disable()  # its time is gc_ms above
                try:
                    t0 = time.perf_counter()
                    document = parse_xml(body.decode("utf-8"),
                                         schema=schemas[kind])
                    t1 = time.perf_counter()
                    result = plans[kind].run(document)
                    t2 = time.perf_counter()
                    rendered = to_xml(result).encode("utf-8")
                    t3 = time.perf_counter()
                finally:
                    gc.enable()
                check(rendered == reference, f"{kind} plan run",
                      len(rendered), len(reference))
                result.release()
                document.release()
                for i, value in enumerate((elapsed, gc_time, gen2_time,
                                           t1 - t0, t2 - t1, t3 - t2)):
                    sums[kind][i] += value
            if round_no == 0:
                continue  # warm-up
            for kind, values in sums.items():
                for metric, value in zip(METRICS, values):
                    samples[kind][metric].append(value * 1e3 / DOCS)
    finally:
        gc.callbacks.remove(clock)
    return samples, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed passes over the six requests (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of a table")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    texts, requests = build_requests()
    service = ClipService()
    # What `serve` does before it answers its first request.
    gc.collect()
    gc.freeze()
    fps = register(service, texts)
    samples, mismatches = measure(service, texts, fps, requests, args.rounds)
    medians = {
        kind: {metric: round(statistics.median(values), 3)
               for metric, values in metrics.items()}
        for kind, metrics in samples.items()
    }
    for row in medians.values():
        row["other_ms"] = round(row["dispatch_ms"] - row["parse_ms"]
                                - row["execute_ms"] - row["serialize_ms"], 3)
    if args.json:
        print(json.dumps({"rounds": args.rounds, "seed": SEED,
                          "mismatches": mismatches, "kinds": medians},
                         indent=2, sort_keys=True))
    else:
        print(f"{args.rounds} rounds, seed {SEED}; per-request medians "
              f"of per-round means (ms)")
        print(f"{'kind':8}{'dispatch_ms':>13}{'gc_ms':>10}{'gen2_ms':>10}"
              f"{'parse_ms':>11}{'execute_ms':>12}{'serialize_ms':>14}"
              f"{'other_ms':>10}")
        for kind, row in medians.items():
            print(f"{kind:8}{row['dispatch_ms']:>13.2f}{row['gc_ms']:>10.2f}"
                  f"{row['gen2_ms']:>10.2f}{row['parse_ms']:>11.2f}"
                  f"{row['execute_ms']:>12.2f}{row['serialize_ms']:>14.2f}"
                  f"{row['other_ms']:>10.2f}")
        print("bytes: all responses match the naive engine"
              if not mismatches else f"bytes: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
