"""RunConfig: the single env-knob resolution point (PR 7 satellite).

Pins the precedence contract — defaults < environment < CLI flags — and
the round-trip through :func:`repro.eval.config.apply`, which is how a
resolved configuration crosses process boundaries (pool workers rebuild
it with :func:`from_env`).
"""

import argparse

import pytest

from repro.eval import config as run_config
from repro.eval.config import RunConfig, apply, from_args, from_env
from repro.kernels.api import BACKEND_NUMPY, BACKEND_PYTHON


def test_defaults_when_env_empty():
    config = from_env({})
    assert config == RunConfig()
    assert config.resolved_jobs() >= 1
    assert config.resolved_backend() in (BACKEND_PYTHON, BACKEND_NUMPY)
    assert str(config.resolved_telemetry_dir()) == "telemetry"
    assert config.resolved_trace_scale() == 1.0


def test_env_overrides_defaults():
    config = from_env(
        {
            "REPRO_JOBS": "3",
            "REPRO_BACKEND": "PYTHON",
            "REPRO_TELEMETRY": "1",
            "REPRO_TELEMETRY_DIR": "out",
            "REPRO_TRACE_CACHE": "/tmp/cache",
            "REPRO_TRACE_SCALE": "0.25",
        }
    )
    assert config.jobs == 3
    assert config.backend == "python"  # normalised to lower case
    assert config.telemetry is True
    assert config.telemetry_dir == "out"
    assert config.trace_cache == "/tmp/cache"
    assert config.resolved_trace_scale() == 0.25


def test_args_override_env():
    args = argparse.Namespace(
        jobs=7, backend="python", telemetry=True, telemetry_dir="cli-dir"
    )
    config = from_args(args, environ={"REPRO_JOBS": "2", "REPRO_BACKEND": ""})
    assert config.jobs == 7
    assert config.backend == "python"
    assert config.telemetry is True
    assert config.telemetry_dir == "cli-dir"


def test_absent_args_leave_env_in_force():
    args = argparse.Namespace(jobs=None, backend=None)
    config = from_args(args, environ={"REPRO_JOBS": "4"})
    assert config.jobs == 4


def test_bad_values_raise_with_knob_name():
    with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
        from_env({"REPRO_JOBS": "many"})
    with pytest.raises(ValueError, match="--jobs must be >= 1"):
        from_args(argparse.Namespace(jobs=0), environ={})
    with pytest.raises(ValueError, match="unknown backend"):
        from_env({"REPRO_BACKEND": "fortran"}).resolved_backend()
    with pytest.raises(ValueError, match="REPRO_TRACE_SCALE"):
        from_env({"REPRO_TRACE_SCALE": "-1"}).resolved_trace_scale()


def test_apply_round_trips_through_environment():
    config = RunConfig(
        jobs=2,
        backend="python",
        telemetry=True,
        telemetry_dir="rt",
        trace_cache="cache",
        trace_scale=0.5,
    )
    env = {}
    returned = apply(config, environ=env)
    assert returned is config
    assert from_env(env) == config


def test_apply_leaves_unpinned_fields_unexported():
    env = {}
    apply(RunConfig(), environ=env)
    assert env == {}


def test_module_accessors_reread_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert run_config.resolve_jobs() == 5
    assert run_config.resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert run_config.resolve_backend() == "python"
    assert run_config.resolve_backend("python") == "python"
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert run_config.telemetry_enabled() is True
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", "elsewhere")
    assert str(run_config.telemetry_dir()) == "elsewhere"
    monkeypatch.setenv("REPRO_TRACE_SCALE", "2.0")
    assert run_config.trace_scale() == 2.0


def test_with_overrides_keeps_none_fields():
    base = RunConfig(jobs=2, backend="python")
    same = base.with_overrides(jobs=None, backend=None)
    assert same == base
    changed = base.with_overrides(jobs=9)
    assert changed.jobs == 9 and changed.backend == "python"
