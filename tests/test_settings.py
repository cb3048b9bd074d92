"""One resolver for every setting: :func:`repro.settings.resolve_setting`.

Boolean variables share one parser, so every boolean variable
(``CLIP_OPTIMIZE`` among them) accepts the same spellings and rejects
the same typos with a ``ValueError`` that names the variable.
"""

from __future__ import annotations

import pytest

from repro.core.compile import compile_clip
from repro.executor import prepare
from repro.executor.planner import OPTIMIZE_ENV
from repro.runtime import BatchRunner, PlanCache, fingerprint
from repro.scenarios import deptstore
from repro.service.config import resolve_setting as service_resolve_setting
from repro.settings import boolean, resolve_setting

TRUE_SPELLINGS = ["1", "true", "yes", "on", "TRUE", " Yes ", "On"]
FALSE_SPELLINGS = ["0", "false", "no", "off", "FALSE", " No ", "Off"]


@pytest.mark.parametrize("raw", TRUE_SPELLINGS)
def test_boolean_accepts_true_spellings(raw):
    assert boolean(raw) is True


@pytest.mark.parametrize("raw", FALSE_SPELLINGS)
def test_boolean_accepts_false_spellings(raw):
    assert boolean(raw) is False


@pytest.mark.parametrize("raw", ["banana", "2", "y", "enabled", "-1"])
def test_boolean_rejects_everything_else(raw):
    with pytest.raises(ValueError):
        boolean(raw)


def test_flag_beats_environment_beats_default():
    env = {"CLIP_X": "off"}
    assert resolve_setting(True, "CLIP_X", False, parse=boolean, environ=env)
    assert not resolve_setting(None, "CLIP_X", True, parse=boolean, environ=env)
    assert resolve_setting(None, "CLIP_X", True, parse=boolean, environ={})
    # A blank variable counts as unset.
    assert resolve_setting(
        None, "CLIP_X", True, parse=boolean, environ={"CLIP_X": "  "}
    )


def test_service_config_shares_the_resolver():
    assert service_resolve_setting is resolve_setting


@pytest.mark.parametrize("raw", TRUE_SPELLINGS)
def test_optimize_accepts_true_spellings(monkeypatch, raw):
    monkeypatch.setenv(OPTIMIZE_ENV, raw)
    assert prepare(compile_clip(deptstore.mapping_fig3())).optimize is True


@pytest.mark.parametrize("raw", FALSE_SPELLINGS)
def test_optimize_accepts_false_spellings(monkeypatch, raw):
    monkeypatch.setenv(OPTIMIZE_ENV, raw)
    assert prepare(compile_clip(deptstore.mapping_fig3())).optimize is False


def test_unrecognized_optimize_value_raises_naming_the_variable(monkeypatch):
    """``CLIP_OPTIMIZE=banana`` once silently meant "on"."""
    monkeypatch.setenv(OPTIMIZE_ENV, "banana")
    mapping = deptstore.mapping_fig3()
    with pytest.raises(ValueError, match="CLIP_OPTIMIZE='banana'"):
        prepare(compile_clip(mapping))
    with pytest.raises(ValueError, match="CLIP_OPTIMIZE"):
        fingerprint(mapping)
    with pytest.raises(ValueError, match="CLIP_OPTIMIZE"):
        BatchRunner(mapping, cache=PlanCache())
    # An explicit flag never consults the environment.
    assert prepare(compile_clip(mapping), optimize=True).optimize is True
