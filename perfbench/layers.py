"""The traced pass's layer probe: every layer's public calls, one span each.

The probe replays the workload's own inputs through each layer's public
functions from this file, one span per call, and derives the per-layer
split from the spans' self times.  Counters come only from the
program's public outputs: ``explain_plan`` totals, the service's
``/metrics`` text and :class:`IncrementalReport` fields.

Every probe output is checked too: transform outputs against the naive
references, incremental outputs against a full run of the same plan.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import workloads
from workloads import Server, child_env, fresh_dir, register, scrape

#: Repetitions of each subprocess timing in the interpreter probe.
PROCESS_REPEATS = 5


def probe(tracer, workload, ctx) -> tuple[dict, int]:
    """Per-layer metrics for ``workload``'s inputs, plus the number of
    probe outputs that failed their check."""
    plan = workload.probe_plan()
    metrics: dict = {}
    failed = 0
    failed += _transforms(tracer, plan["cases"], metrics)
    failed += _compose(tracer, *plan["chain"])
    failed += _incremental(tracer, plan["rings"], metrics)
    failed += _service(tracer, ctx, plan["cases"], plan["server"], metrics)
    _processes(tracer, ctx, metrics)
    for layer in ("io.load", "core.compile", "executor.prepare", "xml.parse",
                  "executor.run", "xml.serialize", "algebra.compose",
                  "algebra.fused_run", "algebra.sequential_run", "xml.diff",
                  "incremental.transform", "incremental.apply",
                  "incremental.full_run"):
        metrics[f"{layer}_ms"] = statistics.median(tracer.self_ms(layer))
    return metrics, failed


def _transforms(tracer, cases, metrics) -> int:
    """Load → compile → prepare per mapping (three times); parse → run →
    serialize per document, then the same document through
    ``BatchRunner`` and an in-process ``ClipService``; finally the
    mapping's documents through a one- and a two-worker pool."""
    from repro.core.compile import compile_clip
    from repro.executor import prepare
    from repro.executor.stats import explain_plan
    from repro.io import loads
    from repro.runtime import BatchRunner, PlanCache
    from repro.service import ClipService, ServiceConfig
    from repro.xml.parser import parse_xml
    from repro.xml.serialize import to_xml

    failed = 0
    totals: dict = {}
    elements = 0
    parse_seconds = 0.0
    batch_overhead, service_overhead = [], []
    pool_overhead, batch_doc = [], []
    for c, (mapping_json, docs) in enumerate(cases):
        for repeat in range(3):
            with tracer.span("probe.mapping", op=f"m{c}-{repeat}"):
                with tracer.span("io.load"):
                    clip = loads(mapping_json)
                with tracer.span("core.compile"):
                    tgd = compile_clip(clip)
                with tracer.span("executor.prepare"):
                    plan = prepare(tgd, optimize=True)
        cache = PlanCache()
        BatchRunner(clip, cache=cache).run([parse_xml(docs[0][0], schema=clip.source)])
        service = ClipService(ServiceConfig.resolve(environ={}))
        response = service.dispatch("POST", "/mappings", {}, mapping_json.encode("utf-8"))
        path = f"/transform?mapping={_fingerprint(response)}"
        for d, (text, reference) in enumerate(docs):
            op = f"m{c}-d{d}"
            with tracer.span("probe.transform", op=op):
                with tracer.span("xml.parse") as parse:
                    doc = parse_xml(text, schema=clip.source)
                with tracer.span("executor.run") as run:
                    out = plan.run(doc)
                with tracer.span("xml.serialize") as serialize:
                    data = to_xml(out).encode("utf-8")
            failed += data != reference
            elements += doc.size()
            parse_seconds += parse.seconds
            for name, value in explain_plan(tgd, doc).to_dict()["totals"].items():
                totals[name] = totals.get(name, 0) + value
            # A fresh tree: the per-document index built by the run
            # above must not be reused by the batch run.
            fresh = parse_xml(text, schema=clip.source)
            with tracer.span("runtime.batch", op=op) as batch:
                result = BatchRunner(clip, cache=cache).run([fresh])
            failed += [to_xml(r).encode("utf-8") for r in result] != [reference]
            batch_overhead.append(batch.seconds - run.seconds)
            with tracer.span("service.dispatch", op=op) as dispatch:
                response = service.dispatch("POST", path, {}, text.encode("utf-8"))
            failed += response.status != 200 or response.body != reference
            service_overhead.append(
                dispatch.seconds - parse.seconds - batch.seconds - serialize.seconds
            )
        references = [reference for _, reference in docs]
        for repeat in range(2):
            op = f"m{c}-pool{repeat}"
            parsed = [parse_xml(text, schema=clip.source) for text, _ in docs]
            with tracer.span("runtime.pool1", op=op) as one:
                BatchRunner(clip, cache=cache, workers=1).run(parsed)
            parsed = [parse_xml(text, schema=clip.source) for text, _ in docs]
            with tracer.span("runtime.pool2", op=op) as two:
                result = BatchRunner(clip, cache=cache, workers=2).run(parsed)
            failed += [to_xml(r).encode("utf-8") for r in result] != references
            pool_overhead.append(two.seconds - one.seconds)
            batch_doc.append(one.seconds / len(parsed))
    metrics["xml.parse_elements_per_s"] = elements / parse_seconds
    metrics["executor.bindings_enumerated"] = totals["bindings_enumerated"]
    metrics["executor.join_probes"] = totals["join_probes"]
    seq = totals["seq_cache_hits"] + totals["seq_cache_misses"]
    metrics["executor.seq_cache_hit_ratio"] = totals["seq_cache_hits"] / seq if seq else 0.0
    metrics["runtime.batch_overhead_ms"] = _median_ms(batch_overhead)
    metrics["service.overhead_ms"] = _median_ms(service_overhead)
    metrics["runtime.pool_overhead_ms"] = _median_ms(pool_overhead)
    metrics["runtime.batch_doc_ms"] = _median_ms(batch_doc)
    return failed


def _fingerprint(response) -> str:
    if response.status not in (200, 201):
        raise workloads.BenchError(
            f"in-process POST /mappings answered {response.status}"
        )
    return json.loads(response.body)["fingerprint"]


def _compose(tracer, first_json, second_json, docs) -> int:
    """Fuse the copy→filter chain, then run each document through the
    fused plan and through the two stages in sequence."""
    from repro.algebra import compose_tgds
    from repro.core.compile import compile_clip
    from repro.executor import prepare
    from repro.io import loads
    from repro.xml.parser import parse_xml
    from repro.xml.serialize import to_xml

    first_clip, second_clip = loads(first_json), loads(second_json)
    first_tgd, second_tgd = compile_clip(first_clip), compile_clip(second_clip)
    for repeat in range(3):
        with tracer.span("algebra.compose", op=f"compose{repeat}"):
            fused_tgd = compose_tgds(first_tgd, second_tgd)
    fused = prepare(fused_tgd, optimize=True)
    first = prepare(first_tgd, optimize=True)
    second = prepare(second_tgd, optimize=True)
    failed = 0
    for d, (text, reference) in enumerate(docs):
        # Each plan gets its own tree, so neither reuses the per-document
        # index the other built.
        doc = parse_xml(text, schema=first_clip.source)
        with tracer.span("algebra.fused_run", op=f"chain-d{d}"):
            fused_out = fused.run(doc)
        doc = parse_xml(text, schema=first_clip.source)
        with tracer.span("algebra.sequential_run", op=f"chain-d{d}"):
            sequential_out = second.run(first.run(doc))
        failed += to_xml(fused_out).encode("utf-8") != reference
        failed += to_xml(sequential_out).encode("utf-8") != reference
    return failed


def _incremental(tracer, rings, metrics) -> int:
    """Walk each ring once with two sessions in lockstep: one derives
    the delta itself (``transform``), the other is handed the delta the
    probe computed (``apply``, diff-free); a full run of the same plan
    is both the cost saved and the byte reference."""
    from repro.core.compile import compile_clip
    from repro.executor import prepare
    from repro.io import loads
    from repro.runtime import IncrementalSession
    from repro.xml.diff import compute_delta
    from repro.xml.parser import parse_xml
    from repro.xml.serialize import to_xml

    failed = edits = scoped = recomputed = units = 0
    for r, (mapping_json, texts) in enumerate(rings):
        clip = loads(mapping_json)
        plan = prepare(compile_clip(clip), optimize=True)
        docs = [parse_xml(text, schema=clip.source) for text in texts]
        deriving, applying = IncrementalSession(plan), IncrementalSession(plan)
        deriving.transform(docs[0])
        applying.transform(docs[0])
        previous = docs[0]
        for k in range(1, len(docs) + 1):
            doc = docs[k % len(docs)]
            with tracer.span("probe.edit", op=f"r{r}-e{k}"):
                with tracer.span("xml.diff"):
                    delta = compute_delta(previous, doc)
                with tracer.span("incremental.apply"):
                    applied, _ = applying.apply(delta)
                applied_xml = to_xml(applied)
                with tracer.span("incremental.transform"):
                    derived, report = deriving.transform(doc)
                derived_xml = to_xml(derived)
                fresh = parse_xml(texts[k % len(docs)], schema=clip.source)
                with tracer.span("incremental.full_run"):
                    full = plan.run(fresh)
                full_xml = to_xml(full)
            failed += applied_xml != full_xml or derived_xml != full_xml
            edits += 1
            scoped += report.mode == "scoped"
            recomputed += report.recomputed_units if report.total_units else 1
            units += report.total_units or 1
            previous = doc
    metrics["incremental.scoped_ratio"] = scoped / edits
    metrics["incremental.recomputed_unit_ratio"] = recomputed / units
    return failed


def _service(tracer, ctx, cases, server, metrics) -> int:
    """Every case document once per client, two clients at a time,
    against the workload's server (or one started for the probe).  The
    queue time is the client's round trip minus the time the server
    records for the same requests in ``/metrics``."""
    own = server is None
    if own:
        server = Server(ctx, fresh_dir(ctx.work / "pycache-probe-serve"))
    try:
        conn = server.connect()
        requests = []
        for mapping_json, docs in cases:
            path = f"/transform?mapping={register(conn, mapping_json)}"
            requests += [(path, text.encode("utf-8"), ref) for text, ref in docs]
        before = scrape(conn)
        result = workloads.client_loop(server, requests, 2, 0, tracer,
                                       "service.request")
        after = scrape(conn)
        conn.close()
    finally:
        if own:
            server.close()
    served = after.transform_count - before.transform_count
    server_seconds = (after.transform_seconds - before.transform_seconds) / served
    metrics["service.queue_ms"] = (
        statistics.mean(result.latencies) - server_seconds
    ) * 1000
    metrics["runtime.cache_hit_ratio"] = after.cache_hits / (
        after.cache_hits + after.cache_misses
    )
    return result.failed


def _processes(tracer, ctx, metrics) -> None:
    """Interpreter start alone (the control) and a cold-process
    ``import repro.cli`` on a warm bytecode cache."""
    env = child_env(ctx, ctx.work / "pycache-probe-import")
    import_cli = [sys.executable, "-c", "import repro.cli"]
    subprocess.run(import_cli, env=env, cwd=ctx.root, check=True)
    bare, imported = [], []
    for repeat in range(PROCESS_REPEATS):
        for argv, times, name in (
            ([sys.executable, "-c", "pass"], bare, "cli.interpreter"),
            (import_cli, imported, "cli.import"),
        ):
            with tracer.span(name, op=f"process{repeat}") as span:
                subprocess.run(argv, env=env, cwd=ctx.root, check=True)
            times.append(span.seconds)
    metrics["cli.interpreter_ms"] = _median_ms(bare)
    metrics["cli.import_ms"] = _median_ms(imported) - metrics["cli.interpreter_ms"]


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1000
