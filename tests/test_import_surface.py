"""Import surface: a ``batch`` run loads only the tgd engine, and every
public name resolves to the object it names however packages load.

Packages export their names lazily (:mod:`repro._lazy`), so both
properties are checked in fresh interpreters: in this one, other tests
have already imported everything.  No timing is asserted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.io import save
from repro.scenarios import deptstore
from repro.xml.serialize import to_xml

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a ``batch`` run over the tgd engine has no use for.
NOT_FOR_BATCH = (
    "repro.generation",
    "repro.lineage",
    "repro.matching",
    "repro.scenarios",
    "repro.xquery",
    "repro.xslt",
    "repro.fuzz",
    "repro.service",
    "repro.algebra.compose",
    "repro.algebra.containment",
    "repro.algebra.inverse",
    "repro.runtime.incremental",
    "repro.xml.diff",
)

#: ...nor does a pool worker, which rebuilds its plan from a shipped tgd
#: and never derives a plan key.
NOT_FOR_WORKERS = NOT_FOR_BATCH + ("repro.io", "repro.xsd.parser")

#: A worker running a pipeline's plan rebuilds its steps from their
#: tgds: it needs neither the pipeline nor the composition algebra.
NOT_FOR_PIPELINE_WORKERS = NOT_FOR_WORKERS + (
    "repro.pipeline", "repro.transformer", "repro.algebra",
)

#: Exported names that are meant to be modules; every other exported
#: name is a function, class or constant.
MODULE_EXPORTS = {
    "repro": {"algebra", "core", "errors", "executor", "generation",
              "runtime", "scenarios", "xml", "xquery", "xsd"},
    "repro.scenarios": {"deptstore", "generic", "published", "workload"},
}

#: Exported names shared with a submodule of their package.
COLLISIONS = {
    ("repro.xsd", "schema"),
    ("repro.xsd", "validate"),
    ("repro.algebra", "compose"),
    ("repro.xquery", "serialize"),
}

#: Packages whose exports load on first use.
LAZY = ("repro", "repro.algebra", "repro.core", "repro.executor",
        "repro.runtime", "repro.xml", "repro.xsd")

PACKAGES = LAZY + ("repro.fuzz", "repro.generation", "repro.io",
                   "repro.lineage", "repro.matching", "repro.scenarios",
                   "repro.service", "repro.xquery", "repro.xslt")


def _python(code: str, *paths: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, *paths))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def batch_inputs(tmp_path):
    mapping = tmp_path / "fig7.json"
    save(deptstore.mapping_fig7(), str(mapping))
    docs = []
    for index in range(4):
        doc = tmp_path / f"doc{index}.xml"
        doc.write_text(to_xml(deptstore.source_instance()), encoding="utf-8")
        docs.append(str(doc))
    return str(mapping), docs, tmp_path / "out"


def test_batch_imports_only_the_tgd_engine(batch_inputs):
    mapping, docs, out = batch_inputs
    argv = ["batch", mapping, *docs, "--workers", "2", "--output-dir", str(out)]
    report = _python(
        "import json, sys\n"
        "from repro.cli import main\n"
        f"status = main({argv!r})\n"
        "print(json.dumps({'status': status, 'modules': sorted(sys.modules)}))\n"
    )
    assert report["status"] == 0
    assert len(list(out.iterdir())) == len(docs)
    modules = set(report["modules"])
    assert "repro.algebra.normalize" in modules  # the canonical plan key
    assert sorted(modules.intersection(NOT_FOR_BATCH)) == []


def test_in_process_batch_loads_no_pool_modules(batch_inputs):
    """``--workers 1`` runs in-process: the pool's modules stay unloaded."""
    mapping, docs, out = batch_inputs
    argv = ["batch", mapping, *docs, "--workers", "1", "--output-dir", str(out)]
    report = _python(
        "import json, sys\n"
        "from repro.cli import main\n"
        f"status = main({argv!r})\n"
        "print(json.dumps({'status': status, 'modules': sorted(sys.modules)}))\n"
    )
    assert report["status"] == 0
    assert len(list(out.iterdir())) == len(docs)
    modules = set(report["modules"])
    assert "repro.runtime.batch" in modules
    assert sorted(modules.intersection(
        ("multiprocessing", "concurrent.futures.process"))) == []


@pytest.fixture
def module_probe(tmp_path):
    """An injector that writes, per document, the modules its worker
    has loaded to ``<probe>.<index>``; returns ``<probe>``."""
    (tmp_path / "module_probe.py").write_text(
        "import sys\n"
        "class ModuleProbe:\n"
        "    def __init__(self, path):\n"
        "        self.path = path\n"
        "    def fire(self, index, attempt=0):\n"
        "        with open(f'{self.path}.{index}', 'w') as handle:\n"
        "            handle.write('\\n'.join(sorted(sys.modules)))\n",
        encoding="utf-8",
    )
    return str(tmp_path / "modules")


def _probed_modules(probe: str, index: int) -> set:
    with open(f"{probe}.{index}", encoding="utf-8") as handle:
        return set(handle.read().split("\n"))


def test_spawn_worker_imports_only_the_tgd_engine(
    batch_inputs, module_probe, tmp_path
):
    """A ``spawn`` worker starts from a fresh interpreter: what it
    imports is its own, not inherited from the parent."""
    mapping, docs, _ = batch_inputs
    report = _python(
        "import json, multiprocessing\n"
        "from module_probe import ModuleProbe\n"
        "from repro.io import load\n"
        "from repro.runtime import BatchRunner, PlanCache, batch\n"
        "from repro.xml.parser import parse_xml\n"
        "batch._pool_context = lambda: multiprocessing.get_context('spawn')\n"
        f"clip = load({mapping!r})\n"
        "docs = [parse_xml(open(p).read(), schema=clip.source)"
        f" for p in {docs!r}]\n"
        "result = BatchRunner(clip, workers=2, cache=PlanCache(),"
        f" injector=ModuleProbe({module_probe!r})).run(docs)\n"
        "print(json.dumps({'documents': len(result)}))\n",
        str(tmp_path),
    )
    assert report["documents"] == len(docs)
    for index in range(len(docs)):
        modules = _probed_modules(module_probe, index)
        assert "repro.runtime.batch" in modules
        assert sorted(modules.intersection(NOT_FOR_WORKERS)) == []


def test_spawn_worker_of_a_pipeline_plan_imports_no_pipeline(
    module_probe, tmp_path
):
    """A pipeline's plan crosses the pool as one description of tgds:
    its ``spawn`` worker rebuilds every step without the pipeline,
    transformer or algebra modules."""
    report = _python(
        "import json, multiprocessing\n"
        "from module_probe import ModuleProbe\n"
        "from repro.pipeline import Pipeline\n"
        "from repro.runtime import BatchRunner, PlanCache, batch\n"
        "from repro.scenarios import publications as pub\n"
        "batch._pool_context = lambda: multiprocessing.get_context('spawn')\n"
        "pipeline = Pipeline([pub.normalize_mapping(), pub.publish_mapping()])\n"
        "feeds = [pub.feed_instance() for _ in range(3)]\n"
        "result = BatchRunner(pipeline.plan(), workers=2, cache=PlanCache(),"
        f" injector=ModuleProbe({module_probe!r})).run(feeds)\n"
        "print(json.dumps({'documents': len(result)}))\n",
        str(tmp_path),
    )
    assert report["documents"] == 3
    for index in range(3):
        modules = _probed_modules(module_probe, index)
        assert "repro.runtime.batch" in modules
        assert sorted(modules.intersection(NOT_FOR_PIPELINE_WORKERS)) == []


_DESCRIBE = """
import importlib, json, pkgutil, sys, types

def describe(package, attr):
    value = getattr(package, attr)
    if isinstance(value, types.ModuleType):
        return "module " + value.__name__
    return " ".join((type(value).__qualname__, str(getattr(value, "__module__", "")),
                     str(getattr(value, "__qualname__", ""))))

def submodules(package):
    return sorted(m.name for m in pkgutil.iter_modules(package.__path__))
"""

_NAMES_FIRST = _DESCRIBE + """
name = {name!r}
package = importlib.import_module(name)
shared = [attr for attr in package.__all__ if attr in submodules(package)]
loaded_first = [attr for attr in shared if f"{{name}}.{{attr}}" in sys.modules]
# Names shared with a submodule first, before another name's
# resolution can import that submodule.
order = shared + [attr for attr in package.__all__ if attr not in shared]
before = {{attr: getattr(package, attr) for attr in order}}
described = {{attr: describe(package, attr) for attr in order}}
for sub in submodules(package):
    importlib.import_module(f"{{name}}.{{sub}}")
star = {{}}
exec(f"from {{name}} import *", star)
moved = []
for attr, value in before.items():
    fresh = {{}}
    exec(f"from {{name}} import {{attr}}", fresh)
    if not (getattr(package, attr) is fresh[attr] is star[attr] is value):
        moved.append(attr)
print(json.dumps({{"described": described, "moved": moved, "shared": shared,
                  "loaded_first": loaded_first}}))
"""

_SUBMODULES_FIRST = _DESCRIBE + """
names = {names!r}
for name in names:
    package = importlib.import_module(name)
    for sub in submodules(package):
        importlib.import_module(f"{{name}}.{{sub}}")
print(json.dumps({{name: {{attr: describe(sys.modules[name], attr)
                         for attr in sys.modules[name].__all__}}
                  for name in names}}))
"""


@pytest.fixture(scope="module")
def submodules_first():
    """Every package's exports, resolved after all submodules loaded."""
    return _python(_SUBMODULES_FIRST.format(names=PACKAGES))


@pytest.mark.parametrize("name", PACKAGES)
def test_exported_names_resolve_to_their_objects(name, submodules_first):
    """Each exported name is the same object whether it resolves before
    or after its package's submodules load (the four names shared with
    a submodule included), and a module only where one is meant."""
    report = _python(_NAMES_FIRST.format(name=name))
    described = report["described"]
    assert report["moved"] == []
    assert described == submodules_first[name]
    modules = MODULE_EXPORTS.get(name, set())
    assert {attr for attr, what in described.items()
            if what.startswith("module ")} == modules
    assert all(described[attr] == f"module {name}.{attr}" for attr in modules)
    collisions = {attr for package, attr in COLLISIONS if package == name}
    assert collisions <= set(report["shared"]) - modules
    if name in LAZY:
        assert report["loaded_first"] == []
