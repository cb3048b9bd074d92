"""One parse-isolation contract across the CLI, the service and the runtime.

The same five inputs — two good documents, one malformed XML text, one
document hit by an injected ``ExecutionError`` and one whose root
carries two attributes that collide once namespaces are stripped — go
through
``clip-repro batch``, ``POST /transform/batch`` and
:func:`repro.runtime.parse_documents` plus :class:`BatchRunner`.  Under
``skip`` and ``collect`` every surface must report the same failure
records (input position, error, attempts), the same dead-letter count
and the same ``failures``/``dead_letter`` metrics.

Worker counts honor ``CLIP_TEST_WORKERS`` so the CI matrix re-runs the
pool path at 2 and 4 workers.
"""

from __future__ import annotations

import functools
import json
import os
import re
from pathlib import Path

import pytest

import repro.runtime
from repro.cli import main
from repro.errors import DocumentTimeout
from repro.io import dumps, save
from repro.runtime import (
    BatchRunner,
    Deadline,
    Fault,
    FaultInjector,
    PlanCache,
    check_deadline,
    parse_documents,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.service import ClipService, ServiceConfig
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml

WORKERS = int(os.environ.get("CLIP_TEST_WORKERS", "1"))

#: Input position 2 parses but fails evaluation: it is the runner's
#: document 1, since the malformed text at position 1 never reaches it.
MALFORMED = "<dept><dname>broken</dept>"
#: ``a:x`` and ``x`` both strip to the local name ``x``.
COLLIDING = ' xmlns:a="urn:a" a:x="1" x="2">'
INJECTED = FaultInjector({1: Fault(kind="raise", error="ExecutionError")})
EXPECTED = [
    (1, "XmlParseError", 1), (2, "ExecutionError", 1),
    (4, "XmlParseError", 1),
]


@pytest.fixture(scope="module")
def mapping():
    return deptstore.mapping_fig3()


@pytest.fixture(scope="module")
def texts():
    good = [
        to_xml(make_deptstore_instance(
            DeptstoreSpec(departments=1, projects_per_dept=1,
                          employees_per_dept=2, seed=seed)
        ))
        for seed in range(3)
    ]
    colliding = good[0].replace(">", COLLIDING, 1)
    return [good[0], MALFORMED, good[1], good[2], colliding]


def _records(failures) -> list:
    return [(f["index"], f["error"], f["attempts"]) for f in failures]


def _runtime(mapping, texts, policy) -> dict:
    parsed = parse_documents(
        texts, lambda text: parse_xml(text, schema=mapping.source), policy
    )
    batch = BatchRunner(
        mapping, workers=WORKERS, error_policy=policy, cache=PlanCache(),
        injector=INJECTED,
    ).run(parsed.documents)
    batch.reindex(parsed.positions, parsed.failures, parsed.dead_letters)
    return {
        "failures": _records(f.to_dict() for f in batch.failures),
        "succeeded": batch.success_indices,
        "dead_letters": len(batch.dead_letters),
        "metrics": (batch.metrics.failures, batch.metrics.dead_letter),
    }


def _service(mapping, texts, policy, tmp_path) -> dict:
    service = ClipService(
        ServiceConfig.resolve(
            environ={}, workers=WORKERS,
            dead_letter_dir=str(tmp_path / "service-letters"),
        ),
        injector=INJECTED,
    )
    registered = service.dispatch("POST", "/mappings", {},
                                  dumps(mapping).encode())
    fp = json.loads(registered.body)["fingerprint"]
    response = service.dispatch(
        "POST", "/transform/batch", {},
        json.dumps({"mapping": fp, "documents": texts,
                    "error_policy": policy, "workers": WORKERS}).encode(),
    )
    assert response.status == 200, response.body
    doc = json.loads(response.body)
    letters = [p for p in doc.get("dead_letters", []) if p.endswith(".xml")]
    metrics = doc["metrics"]
    return {
        "failures": _records(doc["failures"]),
        "succeeded": [result["index"] for result in doc["results"]],
        "dead_letters": len(letters),
        "metrics": (metrics["failures"], metrics["dead_letter"]),
    }


def _cli(mapping, texts, policy, tmp_path, monkeypatch, capsys) -> dict:
    mapping_path = tmp_path / "mapping.json"
    save(mapping, str(mapping_path))
    paths = []
    for position, text in enumerate(texts):
        path = tmp_path / f"doc{position}.xml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    letters_dir = tmp_path / "cli-letters"
    metrics_path = tmp_path / "metrics.json"
    argv = ["batch", str(mapping_path), *paths, "--workers", str(WORKERS),
            "--error-policy", policy, "--metrics-json", str(metrics_path)]
    if policy == "collect":
        argv += ["--dead-letter-dir", str(letters_dir)]
    # The CLI has no fault-injection flag; hand its runner the injector.
    monkeypatch.setattr(
        repro.runtime, "BatchRunner",
        functools.partial(BatchRunner, injector=INJECTED),
    )
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    failures = [
        (paths.index(match[0]), match[1], int(match[2]))
        for match in re.findall(
            r"^failed: (\S+): (\w+): .* \((\d+) attempts?\)$",
            captured.err, flags=re.MULTILINE,
        )
    ]
    succeeded = [
        paths.index(line.split(":")[0])
        for line in captured.out.splitlines()
        if line.endswith(" elements")
    ]
    letters = (
        [name for name in os.listdir(letters_dir) if name.endswith(".xml")]
        if letters_dir.exists() else []
    )
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    return {
        "failures": failures,
        "succeeded": succeeded,
        "dead_letters": len(letters),
        "metrics": (metrics["failures"], metrics["dead_letter"]),
    }


@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_every_surface_isolates_the_same_failures(
    mapping, texts, policy, tmp_path, monkeypatch, capsys
):
    runtime = _runtime(mapping, texts, policy)
    service = _service(mapping, texts, policy, tmp_path)
    cli = _cli(mapping, texts, policy, tmp_path, monkeypatch, capsys)
    letters = 3 if policy == "collect" else 0
    assert runtime == {
        "failures": EXPECTED,
        "succeeded": [0, 3],
        "dead_letters": letters,
        "metrics": (3, letters),
    }
    assert service == runtime
    assert cli == runtime


@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_a_parse_past_the_deadline_aborts_under_every_policy(policy):
    def slow_parse(text):
        while True:
            check_deadline()

    with pytest.raises(DocumentTimeout), Deadline(0.05):
        parse_documents(["<dept/>"], slow_parse, policy)


def test_unreadable_input_is_dead_lettered_as_empty_text(mapping, tmp_path):
    good = tmp_path / "good.xml"
    good.write_text(to_xml(deptstore.source_instance()), encoding="utf-8")
    missing = str(tmp_path / "missing.xml")

    def read(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    parsed = parse_documents(
        [missing, str(good)],
        lambda text: parse_xml(text, schema=mapping.source),
        "collect", read=read,
    )
    assert parsed.positions == [1]
    (failure,) = parsed.failures
    assert (failure.index, failure.error) == (0, "FileNotFoundError")
    (letter,) = parsed.dead_letters
    assert letter.document == ""


def _single_document(mapping, base: str, text: str, endpoint: str,
                     directory) -> dict:
    """``text`` through a single-document endpoint of a fresh service;
    ``/transform/delta`` chains off a successful transform of ``base``."""
    service = ClipService(ServiceConfig.resolve(
        environ={}, dead_letter_dir=str(directory),
    ))
    registered = service.dispatch("POST", "/mappings", {},
                                  dumps(mapping).encode())
    fp = json.loads(registered.body)["fingerprint"]
    if endpoint == "/transform":
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, text.encode()
        )
    else:
        first = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, base.encode()
        )
        assert first.status == 200, first.body
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({"request": dict(first.headers)["X-Clip-Request"],
                        "document": text}).encode(),
        )
    doc = json.loads(response.body)
    letters = [p for p in doc.pop("dead_letters", []) if p.endswith(".xml")]
    assert [Path(p).read_text(encoding="utf-8") for p in letters] == [text]
    for volatile in ("message", "request"):
        doc.pop(volatile)
    return {
        "status": response.status,
        "envelope": doc,
        "dead_letters": len(letters),
        "counted": service.metrics.dead_letters,
    }


@pytest.mark.parametrize("endpoint", ["/transform", "/transform/delta"])
def test_colliding_attributes_fail_like_malformed_xml(
    mapping, texts, endpoint, tmp_path
):
    malformed = _single_document(mapping, texts[0], MALFORMED, endpoint,
                                 tmp_path / "malformed")
    colliding = _single_document(mapping, texts[0], texts[4], endpoint,
                                 tmp_path / "colliding")
    assert malformed["status"] == 400
    assert malformed["envelope"]["error"] == "XmlParseError"
    assert malformed["dead_letters"] == malformed["counted"] == 1
    assert colliding == malformed
