#!/usr/bin/env python3
"""End-to-end benchmark of the Clip runtime.

Run from the repository root::

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, every
timing scaled to one host speed by a control run before it
(:class:`workloads.HostSpeed`).
``--trace 1`` is the separate traced pass: half the time untraced, half
with a span around every operation, then the layer probe
(:mod:`layers`); it reports the per-layer metrics and writes every span
to ``.bench_build/spans-<workload>-<seed>.json``.  ``--corrupt-reference``
replaces one reference output, so a correct program must be reported
as failing (see ``perfbench/selftest.py``).

The last line of standard output is the result object; the line before
it records the run environment.  See ``perfbench/README.md`` for the
workloads and for the end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-large", "cli-small", "edit-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt one reference output (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def percentile_ms(latencies, which: str) -> float:
    if which == "p50" or len(latencies) < 2:
        return statistics.median(latencies) * 1000
    return statistics.quantiles(latencies, n=10)[8] * 1000


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    env = environment(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("CLIP_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import layers
    import workloads
    from tracing import NullTracer, Tracer

    work = BUILD / f"run-{os.getpid()}"
    ctx = workloads.Context(ROOT, args.seed, workloads.fresh_dir(work),
                            args.corrupt_reference)
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](ctx)
        setup, failed = workload.setup()
        failed += workload.warmup()
        # Set-up and warm-up operations are outside the timed window and
        # count towards ``attempted`` only when they fail.
        attempted = failed
        workloads.quiesce()
        if args.trace == 0:
            loop = workload.loop(NullTracer(), args.seconds)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "latency_p50_ms": (percentile_ms(loop.scaled, "p50"), "ms"),
                "latency_p90_ms": (percentile_ms(loop.scaled, "p90"), "ms"),
                "docs_per_s": (loop.docs_per_s, "1/s"),
                "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            }
            env["setup_s_all"] = setup
            # The same figures on the wall clock, not scaled to the
            # control's host speed.
            env["wall_clock"] = {
                "latency_p50_ms": percentile_ms(loop.latencies, "p50"),
                "latency_p90_ms": percentile_ms(loop.latencies, "p90"),
                "docs_per_s": loop.docs_per_op
                * (loop.attempted - loop.failed) / loop.wall,
            }
        else:
            untraced = workload.loop(NullTracer(), args.seconds / 2)
            tracer = Tracer()
            loop = workload.loop(tracer, args.seconds / 2)
            layer, probe_failed = layers.probe(tracer, workload, ctx)
            failed += untraced.failed + probe_failed
            attempted += untraced.attempted + probe_failed
            layer["trace.untraced_p50_ms"] = percentile_ms(untraced.scaled, "p50")
            layer["trace.traced_p50_ms"] = percentile_ms(loop.scaled, "p50")
            metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
            BUILD.mkdir(exist_ok=True)
            spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(spans, {"environment": env})
            env["spans"] = str(spans.relative_to(ROOT))
        failed += loop.failed
        attempted += loop.attempted
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    env["failed_ratio"] = failed / attempted
    env["elapsed_s"] = time.perf_counter() - started
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
