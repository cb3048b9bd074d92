#!/usr/bin/env python
"""Smoke the HTTP mapping service end to end, as CI does.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, then drives the full register → transform → observe loop from
the outside:

1.  register the Figure 3 and Figure 6 mappings (expect 201, cache
    miss) and re-register one (expect 200, cache *hit*);
2.  transform the paper's source instance through each and compare the
    response **byte for byte** against what ``python -m repro run``
    writes for the same inputs;
3.  round-trip a batch request and compare each document the same way;
4.  edit the source and ``POST /transform/delta`` against the step-2
    request: the incremental response must be byte-identical to a full
    transform of the edited document;
5.  send 20 sequential Figure 3 transforms on one keep-alive
    connection: together they must finish in under 0.4 s (a response
    that waits on the client's delayed ACK costs ~40 ms on its own);
6.  ``GET /health`` and ``GET /metrics`` (expect 200; the metrics text
    must show the plan-cache hit from step 1, the latency histogram
    buckets, and the incremental hit/fallback counters) — through real
    ``curl`` when it's on PATH, urllib otherwise, so the CI leg
    exercises an independent HTTP client.

Exit status: 0 on success, 1 on any mismatch, with a line per check.
Stdlib only; run from the repository root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

sys.path.insert(0, str(SRC))

from repro.io import dumps  # noqa: E402
from repro.scenarios import deptstore  # noqa: E402
from repro.xml.serialize import to_xml  # noqa: E402

FIGURES = {"fig3": deptstore.mapping_fig3, "fig6": deptstore.mapping_fig6}

#: Sequential keep-alive transforms of the small Figure 3 output, and
#: the ceiling on their total wall time.
KEEPALIVE_REQUESTS = 20
KEEPALIVE_BUDGET_S = 0.4

_failures = 0


def check(name: str, ok: bool, detail: str = "") -> None:
    global _failures
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"  [{status}] {name}{suffix}")
    if not ok:
        _failures += 1


def http(method: str, url: str, body: bytes = b"",
         content_type: str = "") -> tuple[int, bytes]:
    status, _, body = http_full(method, url, body, content_type)
    return status, body


def http_full(method: str, url: str, body: bytes = b"",
              content_type: str = "") -> tuple[int, dict, bytes]:
    """Like :func:`http` but also returns the response headers."""
    request = urllib.request.Request(url, data=body or None, method=method)
    if content_type:
        request.add_header("Content-Type", content_type)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers or {}), error.read()


def curl_get(url: str) -> tuple[int, bytes]:
    """GET via real curl when available (an independent HTTP client),
    urllib otherwise."""
    curl = shutil.which("curl")
    if curl is None:
        return http("GET", url)
    result = subprocess.run(
        [curl, "--silent", "--show-error", "--max-time", "60",
         "--write-out", "%{http_code}", "--output", "-", url],
        capture_output=True, check=False,
    )
    if result.returncode != 0:
        return 0, result.stderr
    body, status = result.stdout[:-3], int(result.stdout[-3:])
    return status, body


def keepalive_transforms(host: str, port: int, path: str,
                         body: bytes) -> tuple[float, set]:
    """Send :data:`KEEPALIVE_REQUESTS` transforms on one HTTP/1.1
    connection; returns the total wall time and the set of statuses."""
    connection = HTTPConnection(host, port, timeout=60)
    statuses = set()
    try:
        started = time.perf_counter()
        for _ in range(KEEPALIVE_REQUESTS):
            connection.request("POST", path, body=body)
            response = connection.getresponse()
            response.read()
            statuses.add(response.status)
        return time.perf_counter() - started, statuses
    finally:
        connection.close()


def cli_run(tmp: Path, figure: str, *flags: str) -> bytes:
    """The byte-identity reference: what the CLI writes for the same
    mapping and source."""
    mapping_path = tmp / f"{figure}.json"
    source_path = tmp / "source.xml"
    out_path = tmp / f"{figure}.out.xml"
    mapping_path.write_text(dumps(FIGURES[figure]()), encoding="utf-8")
    source_path.write_text(to_xml(deptstore.source_instance()),
                           encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "repro", "run", str(mapping_path),
         str(source_path), "-o", str(out_path), *flags],
        check=True, env={"PYTHONPATH": str(SRC)}, cwd=REPO,
        capture_output=True,
    )
    return out_path.read_bytes()


def main() -> int:
    print("service smoke: booting `python -m repro serve --port 0`")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={"PYTHONPATH": str(SRC)}, cwd=REPO,
    )
    try:
        banner = server.stdout.readline().strip()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            print(f"  [FAIL] could not parse banner: {banner!r}")
            return 1
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"  listening at {base}")
        source = to_xml(deptstore.source_instance()).encode("utf-8")

        fingerprints = {}
        for figure, make_mapping in sorted(FIGURES.items()):
            status, body = http(
                "POST", f"{base}/mappings",
                dumps(make_mapping()).encode("utf-8"),
            )
            doc = json.loads(body)
            check(f"register {figure}", status == 201
                  and doc.get("cache") == "miss", f"{status} {body[:120]!r}")
            fingerprints[figure] = doc.get("fingerprint", "")

        status, body = http(
            "POST", f"{base}/mappings",
            dumps(FIGURES["fig3"]()).encode("utf-8"),
        )
        check("re-register fig3 is a plan-cache hit",
              status == 200 and json.loads(body).get("cache") == "hit",
              f"{status} {body[:120]!r}")

        delta_base_request = ""
        with tempfile.TemporaryDirectory() as tmp:
            for figure in sorted(FIGURES):
                expected = cli_run(Path(tmp), figure)
                status, headers, body = http_full(
                    "POST",
                    f"{base}/transform?mapping={fingerprints[figure]}",
                    source,
                )
                check(f"transform {figure} == CLI run output",
                      status == 200 and body == expected,
                      f"{status}, {len(body)} vs {len(expected)} bytes")
                if figure == "fig3":
                    delta_base_request = headers.get("X-Clip-Request", "")

            expected = cli_run(Path(tmp), "fig6")
            status, body = http(
                "POST", f"{base}/transform/batch",
                json.dumps({
                    "mapping": fingerprints["fig6"],
                    "documents": [source.decode("utf-8")] * 2,
                }).encode("utf-8"),
                content_type="application/json",
            )
            doc = json.loads(body) if status == 200 else {}
            check("batch transform == CLI run output",
                  status == 200
                  and doc.get("succeeded") == 2
                  and all(entry["xml"].encode("utf-8") == expected
                          for entry in doc.get("results", [])),
                  f"{status} {body[:160]!r}")

        edited_instance = deptstore.source_instance()
        for node in edited_instance.iter():
            if node.tag == "ename":
                node.clear_text()
                node.set_text("Edited Name")
                break
        edited = to_xml(edited_instance).encode("utf-8")
        status, expected = http(
            "POST", f"{base}/transform?mapping={fingerprints['fig3']}",
            edited,
        )
        check("transform of edited source (delta reference)", status == 200,
              f"{status}")
        status, headers, body = http_full(
            "POST", f"{base}/transform/delta",
            json.dumps({
                "request": delta_base_request,
                "document": edited.decode("utf-8"),
            }).encode("utf-8"),
            content_type="application/json",
        )
        check("delta transform == full transform of edited source",
              status == 200
              and body == expected
              and headers.get("X-Clip-Incremental", "")
              in ("unchanged", "scoped", "fallback"),
              f"{status}, {len(body)} vs {len(expected)} bytes, "
              f"mode={headers.get('X-Clip-Incremental')!r}")

        elapsed, statuses = keepalive_transforms(
            match.group(1), int(match.group(2)),
            f"/transform?mapping={fingerprints['fig3']}", source,
        )
        check(f"{KEEPALIVE_REQUESTS} keep-alive fig3 transforms in "
              f"< {KEEPALIVE_BUDGET_S} s",
              statuses == {200} and elapsed < KEEPALIVE_BUDGET_S,
              f"{elapsed:.3f} s, statuses {sorted(statuses)}")

        status, body = curl_get(f"{base}/health")
        check("GET /health", status == 200
              and json.loads(body).get("status") == "ok",
              f"{status} {body[:120]!r}")

        status, body = curl_get(f"{base}/metrics")
        text = body.decode("utf-8", "replace")
        check("GET /metrics", status == 200
              and "clip_service_requests_total" in text,
              f"{status} {text[:120]!r}")
        match = re.search(
            r"^clip_service_plan_cache_hits_total (\d+)$", text, re.M
        )
        check("plan-cache hits visible in /metrics",
              match is not None and int(match.group(1)) >= 1,
              text[:200])
        match = re.search(
            r'^clip_service_request_seconds_bucket\{endpoint="transform",'
            r'le="\+Inf"\} (\d+)$', text, re.M,
        )
        check("latency histogram buckets visible in /metrics",
              "# TYPE clip_service_request_seconds histogram" in text
              and match is not None and int(match.group(1)) >= 1,
              text[:200])
        hits = re.search(
            r"^clip_service_incremental_hits_total (\d+)$", text, re.M
        )
        fallbacks = re.search(
            r"^clip_service_incremental_fallbacks_total (\d+)$", text, re.M
        )
        check("incremental counters visible in /metrics",
              hits is not None and fallbacks is not None
              and int(hits.group(1)) + int(fallbacks.group(1)) >= 1,
              text[:200])

        if _failures:
            print(f"service smoke: {_failures} check(s) FAILED")
            return 1
        print("service smoke: all checks passed")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    raise SystemExit(main())
