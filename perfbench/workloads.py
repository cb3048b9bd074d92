"""The three workloads, each driving the program through one public surface.

* ``serve-large`` — a warm ``serve`` subprocess, two closed-loop client
  threads on their own keep-alive connections, ``POST /transform`` over
  large documents (Figure 6 join, Figure 7 grouping, and the composed
  copy→filter chain registered through ``POST /mappings/compose``).
* ``cli-small`` — one closed-loop client running cold ``batch``
  subprocesses (two pool workers, 16 small documents each), rotating
  over the Figure 3/4/5/7 mappings.
* ``edit-stream`` — two :class:`IncrementalSession` objects (Figure 7
  and Figure 5) in this process, fed a ring of one-edit documents; each
  edit is transformed and serialized by both sessions.

Every operation is checked against naive-engine references computed
before timing; a mismatch, a non-2xx status or a non-zero exit counts
as a failed operation.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import inputs
from inputs import Geometry
from tracing import NullTracer

#: Set-up is repeated this many times per run and reported as a median.
#: A cold process start varies by 40% from one to the next, so fewer
#: repeats let the median of ten runs drift by more than its bound.
SETUP_REPEATS = 9


class BenchError(Exception):
    """The benchmark could not set up or drive the program."""


#: The host-speed control: the benchmark's own renderer (pure-Python
#: dict, list and string work, like the program's) on a fixed input.
CONTROL = Geometry(8, 4, 6)
#: The control's time on a 2-vCPU x86-64 host (Python 3.11) at full
#: speed.  Timings are reported at that host speed: each is scaled by
#: ``CONTROL_SECONDS`` over the control's time measured just before it.
CONTROL_SECONDS = 0.00016


class HostSpeed:
    """The control's recent times, sampled before every timed operation.

    Each vCPU of the 2-vCPU hosts the benchmark runs on switches, every
    second or so and for stretches of minutes, between full speed and
    about half speed (a busy neighbour on the same core; steal time
    stays near 0), so the same edit took 7 ms or 13 ms within one run
    and whole runs of the same code differed by 1.9x.  The control slows
    with the program, so a timing scaled by it is steady; the median of
    the last few samples rides out the control's own jitter.  It tracks
    best what runs in this process; a subprocess may run on the other
    vCPU.
    """

    WINDOW = 9

    def __init__(self):
        self.recent: deque = deque(maxlen=self.WINDOW)
        for _ in range(self.WINDOW):
            self.sample()

    def sample(self) -> float:
        """Run the control once; return the scale for the next timing."""
        started = time.perf_counter()
        inputs.render(inputs.make_store(CONTROL, random.Random(0)))
        self.recent.append(time.perf_counter() - started)
        return CONTROL_SECONDS / statistics.median(self.recent)


@dataclass
class Context:
    root: Path
    seed: int
    #: Scratch directory of this run, removed when the run ends.
    work: Path
    #: Replace one reference with bytes no output can match.
    corrupt: bool = False
    speed: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class LoopResult:
    """The timed operations of one loop, each ``(seconds, ok, scale)``,
    ``scale`` being the host-speed scale sampled just before it."""

    ops: list = field(default_factory=list)
    wall: float = 0.0
    #: Closed-loop clients, so throughput is ``clients`` over the mean
    #: latency (Little's law).
    clients: int = 1
    docs_per_op: int = 1

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.ops)

    @property
    def latencies(self) -> list:
        """Unscaled seconds of every operation."""
        return [seconds for seconds, _, _ in self.ops]

    @property
    def scaled(self) -> list:
        """Seconds of every operation at the control's host speed."""
        return [seconds * scale for seconds, _, scale in self.ops]

    @property
    def docs_per_s(self) -> float:
        """Documents completed per second at the control's host speed."""
        docs = self.docs_per_op * (self.attempted - self.failed)
        return self.clients * docs / sum(self.scaled)


def child_env(ctx: Context, pycache: Path) -> dict:
    """The environment of every program subprocess: the checkout's
    sources, a bytecode cache of the benchmark's choosing, and none of
    the program's ``CLIP_*`` settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CLIP_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ctx.root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- the HTTP service -------------------------------------------------------


class Server:
    """A ``serve`` subprocess on an ephemeral localhost port.

    The request history is kept short: each entry holds a request's
    source and result text, so with the default 256 entries the peak
    memory would grow with the number of requests a run completes and
    a faster server would read as a fatter one.
    """

    HISTORY = 16

    def __init__(self, ctx: Context, pycache: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--history", str(self.HISTORY)],
            cwd=ctx.root, env=child_env(ctx, pycache),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.close()
            raise BenchError(f"serve did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def call(conn, method: str, path: str, body: bytes = b"",
         headers: Optional[dict] = None) -> tuple[int, bytes]:
    """One request on a keep-alive connection; ``(0, b"")`` when the
    connection broke (the caller counts it failed and reconnects)."""
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return 0, b""


def register(conn, mapping_json: str) -> str:
    status, body = call(conn, "POST", "/mappings", mapping_json.encode("utf-8"))
    if status not in (200, 201):
        raise BenchError(f"POST /mappings answered {status}: {body[:200]!r}")
    return json.loads(body)["fingerprint"]


def compose(conn, first: str, second: str) -> str:
    status, body = call(
        conn, "POST", "/mappings/compose",
        json.dumps({"first": first, "second": second}).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    if status not in (200, 201):
        raise BenchError(
            f"POST /mappings/compose answered {status}: {body[:200]!r}"
        )
    return json.loads(body)["fingerprint"]


@dataclass
class Scrape:
    """The ``/metrics`` counters the benchmark reads."""

    transform_seconds: float
    transform_count: int
    cache_hits: int
    cache_misses: int


def scrape(conn) -> Scrape:
    status, body = call(conn, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    text = body.decode("utf-8")

    def value(pattern: str) -> float:
        match = re.search(pattern + r" ([0-9.eE+-]+)$", text, re.M)
        return float(match.group(1)) if match else 0.0

    return Scrape(
        value(r'^clip_service_request_seconds_sum\{endpoint="transform"\}'),
        int(value(r'^clip_service_request_seconds_count\{endpoint="transform"\}')),
        int(value(r"^clip_service_plan_cache_hits_total")),
        int(value(r"^clip_service_plan_cache_misses_total")),
    )


def client_loop(server: Server, requests: list, clients: int, seconds: float,
                tracer, span: str) -> LoopResult:
    """``clients`` closed-loop threads, each on its own keep-alive
    connection, cycling over ``requests`` (path, body, reference) from
    staggered offsets until ``seconds`` have passed; ``seconds=0``
    sends each request once per client."""
    result = LoopResult(clients=clients)
    lock = threading.Lock()
    window = {}

    def start_clock():
        window["start"] = time.perf_counter()

    barrier = threading.Barrier(clients, action=start_clock)

    def client(k: int) -> None:
        conn = server.connect()
        speed = HostSpeed()
        n = len(requests)
        offset = k * n // clients
        ops, i = [], 0
        barrier.wait()
        deadline = window["start"] + seconds
        while (i < n) if seconds == 0 else (time.perf_counter() < deadline):
            path, body, reference = requests[(offset + i) % n]
            scale = speed.sample()
            with tracer.span(span, op=f"c{k}-{i}"):
                started = time.perf_counter()
                status, data = call(conn, "POST", path, body)
                elapsed = time.perf_counter() - started
            ops.append((elapsed, status == 200 and data == reference, scale))
            i += 1
        conn.close()
        with lock:
            result.ops.extend(ops)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - window["start"]
    return result


def closed_loop(operation, speed: HostSpeed, seconds: float,
                docs_per_op: int) -> LoopResult:
    """One client: ``operation()`` returns its latency and whether its
    outputs were correct; the next starts when it returns, after the
    host-speed sample that scales it."""
    result = LoopResult(docs_per_op=docs_per_op)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        scale = speed.sample()
        result.ops.append((*operation(), scale))
    result.wall = time.perf_counter() - started
    return result


# -- workloads --------------------------------------------------------------
#
# Each workload: ``setup()`` returns the set-up times and how many set-up
# operations produced wrong output; ``warmup()`` runs untimed operations
# and returns how many failed; ``loop()`` is the timed window.


class ServeLarge:
    """Warm service, two clients, large documents."""

    name = "serve-large"
    CLIENTS = 2
    #: Documents per mapping (each a different seed).
    DOCS = 2
    JOIN = Geometry(16, 32, 160)
    GROUPING = Geometry(40, 6, 25)

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.server: Optional[Server] = None
        self.refs = inputs.References()
        self.json = {name: inputs.mapping_text(name)
                     for name in ("fig6", "fig7", "chain_ab", "chain_bc")}
        self.docs = {
            "fig6": [inputs.document(self.JOIN, ctx.seed, f"fig6-{i}")
                     for i in range(self.DOCS)],
            "fig7": [inputs.document(self.GROUPING, ctx.seed, f"fig7-{i}")
                     for i in range(self.DOCS)],
            "chain": [inputs.document(self.GROUPING, ctx.seed, f"chain-{i}")
                      for i in range(self.DOCS)],
        }
        self.expected = {
            kind: [self._reference(kind, text) for text in texts]
            for kind, texts in self.docs.items()
        }
        if ctx.corrupt:
            self.expected["fig6"][0] = inputs.corrupt(self.expected["fig6"][0])
        self.requests: list = []

    def _reference(self, kind: str, text: str) -> bytes:
        if kind == "chain":
            return self.refs.chained(self.json["chain_ab"],
                                     self.json["chain_bc"], text)
        return self.refs.output(self.json[kind], text)

    def setup(self) -> tuple[list[float], int]:
        """Server spawn to banner (with an empty bytecode cache), every
        registration and the compose, repeated; the last server stays."""
        times = []
        for repeat in range(SETUP_REPEATS):
            if self.server is not None:
                self.server.close()
                self.server = None
            pycache = fresh_dir(self.ctx.work / f"pycache-serve-{repeat}")
            scale = self.ctx.speed.sample()
            started = time.perf_counter()
            self.server = Server(self.ctx, pycache)
            conn = self.server.connect()
            fps = {name: register(conn, text) for name, text in self.json.items()}
            fps["chain"] = compose(conn, fps["chain_ab"], fps["chain_bc"])
            times.append((time.perf_counter() - started) * scale)
            conn.close()
        # Interleave the mappings so each client meets all three.
        self.requests = [
            (f"/transform?mapping={fps[kind]}",
             self.docs[kind][i].encode("utf-8"), self.expected[kind][i])
            for i in range(self.DOCS)
            for kind in ("fig6", "fig7", "chain")
        ]
        return times, 0

    def warmup(self) -> int:
        return client_loop(self.server, self.requests, 1, 0, _NULL, "").failed

    def loop(self, tracer, seconds: float) -> LoopResult:
        return client_loop(self.server, self.requests, self.CLIENTS, seconds,
                           tracer, "service.request")

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def probe_plan(self) -> dict:
        return {
            "cases": [(self.json[k], list(zip(self.docs[k], self.expected[k])))
                      for k in ("fig6", "fig7")],
            "chain": (self.json["chain_ab"], self.json["chain_bc"],
                      list(zip(self.docs["chain"], self.expected["chain"]))),
            "rings": [(self.json["fig7"], inputs.edit_ring(
                self.GROUPING, self.ctx.seed, "probe-ring"))],
            "server": self.server,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


class CliSmall:
    """Cold ``batch`` subprocesses over small documents."""

    name = "cli-small"
    MAPPINGS = ("fig3", "fig4", "fig5", "fig7")
    DOCS = 16
    SETS = 2
    WORKERS = 2
    GEOMETRY = Geometry(3, 3, 6)

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.refs = inputs.References()
        self.json = {name: inputs.mapping_text(name) for name in self.MAPPINGS}
        self.texts = [
            [inputs.document(self.GEOMETRY, ctx.seed, f"set{s}-doc{j}")
             for j in range(self.DOCS)]
            for s in range(self.SETS)
        ]
        self.paths = []
        for s, texts in enumerate(self.texts):
            directory = fresh_dir(ctx.work / f"docs{s}")
            paths = []
            for j, text in enumerate(texts):
                path = directory / f"doc{j:02d}.xml"
                path.write_text(text, encoding="utf-8")
                paths.append(path)
            self.paths.append(paths)
        self.expected = {
            (name, s): [self.refs.output(self.json[name], t) for t in texts]
            for name in self.MAPPINGS
            for s, texts in enumerate(self.texts)
        }
        if ctx.corrupt:
            key = (self.MAPPINGS[0], 0)
            self.expected[key][0] = inputs.corrupt(self.expected[key][0])
        self.out = ctx.work / "out"
        self.pycache: Optional[Path] = None
        self.calls = 0
        self.peak_kb = 0

    def _call(self, tracer) -> tuple[float, bool]:
        """One CLI invocation; returns its wall time and whether it
        exited 0 with every output byte-identical to the reference."""
        name = self.MAPPINGS[self.calls % len(self.MAPPINGS)]
        s = (self.calls // len(self.MAPPINGS)) % self.SETS
        op = f"call{self.calls}"
        self.calls += 1
        fresh_dir(self.out)
        argv = [sys.executable, "-m", "repro", "batch",
                str(inputs.MAPPINGS / f"{name}.json"),
                *map(str, self.paths[s]),
                "--workers", str(self.WORKERS), "--output-dir", str(self.out)]
        with tracer.span("cli.batch", op=op):
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.ctx.root, env=child_env(self.ctx, self.pycache),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        ok = proc.returncode == 0 and all(
            _read(self.out / f"{path.stem}.out.xml") == reference
            for path, reference in zip(self.paths[s], self.expected[(name, s)])
        )
        return elapsed, ok

    def setup(self) -> tuple[list[float], int]:
        """The first invocation with an empty bytecode cache, repeated
        with a fresh cache each time; the loop then runs warm on the
        last one."""
        times, failed = [], 0
        for repeat in range(SETUP_REPEATS):
            self.pycache = fresh_dir(self.ctx.work / f"pycache-cli-{repeat}")
            scale = self.ctx.speed.sample()
            elapsed, ok = self._call(_NULL)
            times.append(elapsed * scale)
            failed += not ok
        return times, failed

    def warmup(self) -> int:
        """The set-up calls were the warm-up; only the timed calls
        count towards peak memory."""
        self.peak_kb = 0
        return 0

    def loop(self, tracer, seconds: float) -> LoopResult:
        return closed_loop(lambda: self._call(tracer), self.ctx.speed,
                           seconds, self.DOCS)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def probe_plan(self) -> dict:
        chain_ab, chain_bc = (inputs.mapping_text(n) for n in ("chain_ab", "chain_bc"))
        chain_docs = self.texts[0][:4]
        return {
            "cases": [(self.json[name], list(zip(self.texts[0],
                                                 self.expected[(name, 0)])))
                      for name in self.MAPPINGS],
            "chain": (chain_ab, chain_bc,
                      [(t, self.refs.chained(chain_ab, chain_bc, t))
                       for t in chain_docs]),
            "rings": [(self.json["fig7"], inputs.edit_ring(
                self.GEOMETRY, self.ctx.seed, "probe-ring"))],
            "server": None,
        }

    def close(self) -> None:
        pass


class EditStream:
    """Two incremental sessions fed a ring of one-edit documents."""

    name = "edit-stream"
    MAPPINGS = ("fig7", "fig5")
    GEOMETRY = Geometry(12, 16, 22, project_name_pool=96)

    def __init__(self, ctx: Context):
        from repro.io import loads
        from repro.xml.parser import parse_xml

        self.ctx = ctx
        self.refs = inputs.References()
        self.json = {name: inputs.mapping_text(name) for name in self.MAPPINGS}
        self.ring = inputs.edit_ring(self.GEOMETRY, ctx.seed, "ring")
        schema = loads(self.json["fig7"]).source
        self.docs = [parse_xml(text, schema=schema) for text in self.ring]
        self.expected = {
            name: [self.refs.output(self.json[name], t) for t in self.ring]
            for name in self.MAPPINGS
        }
        if ctx.corrupt:
            self.expected["fig7"][1] = inputs.corrupt(self.expected["fig7"][1])
        self.sessions: dict = {}
        self.position = 0

    def setup(self) -> tuple[list[float], int]:
        """Load, compile and prepare both mappings, open a session on
        each and run its first full transform, repeated."""
        from repro.core.compile import compile_clip
        from repro.executor import prepare
        from repro.io import loads
        from repro.runtime import IncrementalSession
        from repro.xml.serialize import to_xml

        times, failed = [], 0
        for _ in range(SETUP_REPEATS):
            scale = self.ctx.speed.sample()
            started = time.perf_counter()
            sessions, targets = {}, {}
            for name in self.MAPPINGS:
                plan = prepare(compile_clip(loads(self.json[name])), optimize=True)
                sessions[name] = IncrementalSession(plan)
                targets[name], _ = sessions[name].transform(self.docs[0])
            times.append((time.perf_counter() - started) * scale)
            failed += sum(
                to_xml(targets[n]).encode("utf-8") != self.expected[n][0]
                for n in self.MAPPINGS
            )
            self.sessions = sessions
        self.position = 0
        return times, failed

    def _edit(self, tracer) -> tuple[float, bool]:
        from repro.xml.serialize import to_xml

        self.position = (self.position + 1) % len(self.docs)
        doc = self.docs[self.position]
        outputs = []
        with tracer.span("edit", op=f"edit{self.position}"):
            started = time.perf_counter()
            for name in self.MAPPINGS:
                with tracer.span("incremental.transform"):
                    target, _ = self.sessions[name].transform(doc)
                with tracer.span("xml.serialize"):
                    outputs.append(to_xml(target))
            elapsed = time.perf_counter() - started
        ok = all(
            out.encode("utf-8") == self.expected[name][self.position]
            for name, out in zip(self.MAPPINGS, outputs)
        )
        return elapsed, ok

    def warmup(self) -> int:
        """One pass round the ring."""
        return sum(not self._edit(_NULL)[1] for _ in self.docs)

    def loop(self, tracer, seconds: float) -> LoopResult:
        return closed_loop(lambda: self._edit(tracer), self.ctx.speed,
                           seconds, 1)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def probe_plan(self) -> dict:
        chain_ab, chain_bc = (inputs.mapping_text(n) for n in ("chain_ab", "chain_bc"))
        picks = (0, len(self.ring) // 2)
        return {
            "cases": [(self.json[name], [(self.ring[i], self.expected[name][i])
                                         for i in picks])
                      for name in self.MAPPINGS],
            "chain": (chain_ab, chain_bc,
                      [(self.ring[i], self.refs.chained(chain_ab, chain_bc,
                                                        self.ring[i]))
                       for i in picks]),
            "rings": [(self.json[name], self.ring) for name in self.MAPPINGS],
            "server": None,
        }

    def close(self) -> None:
        self.sessions = {}


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


_NULL = NullTracer()

WORKLOADS = {w.name: w for w in (ServeLarge, CliSmall, EditStream)}


def quiesce() -> None:
    """Collect once and move every surviving input object out of the
    collector's generations, so collections inside the timed window
    only walk garbage the operations themselves created."""
    gc.collect()
    gc.freeze()
