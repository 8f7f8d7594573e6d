"""Typed runtime configuration: the single env-knob resolution point.

Every runtime knob the harness honours — worker count, kernel backend,
telemetry switches, trace-cache location and scale — resolves **here**
and nowhere else, with one precedence rule everywhere::

    defaults  <  environment variables  <  explicit CLI flags

:class:`RunConfig` is the typed carrier of a resolved configuration.
Process boundaries still use the environment as transport (pool workers
and subprocesses inherit it), so :func:`apply` exports a config back into
``os.environ`` after CLI flags have been folded in; workers then rebuild
the identical config with :func:`from_env`.

The lint R002 determinism rule allowlists exactly this module for
environment reads: any other ``os.environ`` consultation inside
``src/repro`` is a finding.  Callers that need one knob without holding a
:class:`RunConfig` use the module-level accessors (:func:`resolve_jobs`,
:func:`resolve_backend`, :func:`telemetry_enabled`, ...), which re-read
the environment on every call — cheap, and it keeps tests that flip
``monkeypatch.setenv`` mid-session honest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, MutableMapping, Optional

from ..kernels.api import BACKEND_NUMPY, BACKEND_PYTHON, available_backends

__all__ = [
    "ENV_BACKEND",
    "ENV_JOBS",
    "ENV_REGISTRY",
    "ENV_TELEMETRY",
    "ENV_TELEMETRY_DIR",
    "ENV_TRACE_CACHE",
    "ENV_TRACE_SCALE",
    "RunConfig",
    "apply",
    "from_args",
    "from_env",
    "registry_manifest",
    "resolve_backend",
    "resolve_jobs",
    "telemetry_dir",
    "telemetry_enabled",
    "trace_cache_dir",
    "trace_scale",
]

ENV_JOBS = "REPRO_JOBS"
ENV_BACKEND = "REPRO_BACKEND"
ENV_TELEMETRY = "REPRO_TELEMETRY"
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"
ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"
ENV_TRACE_SCALE = "REPRO_TRACE_SCALE"
ENV_REGISTRY = "REPRO_REGISTRY"

#: Values accepted as "on" for boolean knobs.
_TRUTHY = ("1", "true", "on")

#: Default telemetry output directory (relative to the working directory).
DEFAULT_TELEMETRY_DIR = "telemetry"


@dataclass(frozen=True)
class RunConfig:
    """One resolved runtime configuration.

    ``None`` fields mean "not pinned": :meth:`resolved_jobs` and
    :meth:`resolved_backend` fill them with the dynamic defaults (CPU
    count, feature-detected backend) at the point of use, so a config can
    be stored, shipped across a process boundary and resolved late.
    """

    jobs: Optional[int] = None
    backend: Optional[str] = None
    telemetry: bool = False
    telemetry_dir: Optional[str] = None
    trace_cache: Optional[str] = None
    trace_scale: Optional[float] = None
    registry: Optional[str] = None

    # -- late resolution -----------------------------------------------------

    def resolved_jobs(self) -> int:
        """Effective worker count (>= 1)."""
        workers = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        return workers

    def resolved_backend(self) -> str:
        """Effective kernel backend name (validated)."""
        choice = (self.backend or "").strip().lower()
        if not choice:
            return (
                BACKEND_NUMPY
                if len(available_backends()) > 1
                else BACKEND_PYTHON
            )
        if choice not in (BACKEND_PYTHON, BACKEND_NUMPY):
            raise ValueError(
                f"unknown backend {choice!r} (expected"
                f" {BACKEND_PYTHON!r} or {BACKEND_NUMPY!r})"
            )
        if choice == BACKEND_NUMPY and len(available_backends()) == 1:
            raise RuntimeError(
                "numpy backend requested but numpy is unavailable"
            )
        return choice

    def resolved_telemetry_dir(self) -> Path:
        """Manifest output directory."""
        return Path(self.telemetry_dir or DEFAULT_TELEMETRY_DIR)

    def resolved_trace_scale(self) -> float:
        """Trace-length scale factor (> 0)."""
        scale = 1.0 if self.trace_scale is None else self.trace_scale
        if scale <= 0:
            raise ValueError(f"{ENV_TRACE_SCALE} must be positive")
        return scale

    def with_overrides(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (``None`` = keep)."""
        kept = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **kept) if kept else self


# ---------------------------------------------------------------------------
# Resolution: defaults < env < CLI flags
# ---------------------------------------------------------------------------

def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def from_env(environ: Optional[Mapping[str, str]] = None) -> RunConfig:
    """Build a config from environment variables over the defaults."""
    env = os.environ if environ is None else environ
    jobs_raw = env.get(ENV_JOBS, "").strip()
    backend_raw = env.get(ENV_BACKEND, "").strip()
    dir_raw = env.get(ENV_TELEMETRY_DIR, "").strip()
    cache_raw = env.get(ENV_TRACE_CACHE, "")
    scale_raw = env.get(ENV_TRACE_SCALE, "").strip()
    return RunConfig(
        jobs=_parse_int(ENV_JOBS, jobs_raw) if jobs_raw else None,
        backend=backend_raw.lower() or None,
        telemetry=env.get(ENV_TELEMETRY, "").strip() in _TRUTHY,
        telemetry_dir=dir_raw or None,
        trace_cache=cache_raw or None,
        trace_scale=(
            _parse_float(ENV_TRACE_SCALE, scale_raw) if scale_raw else None
        ),
        registry=env.get(ENV_REGISTRY, "") or None,
    )


def from_args(
    args: Any = None, environ: Optional[Mapping[str, str]] = None
) -> RunConfig:
    """Resolve a config from CLI arguments over the environment.

    ``args`` is any object exposing (a subset of) ``jobs``, ``backend``,
    ``telemetry`` and ``telemetry_dir`` attributes — an argparse namespace
    in practice.  Missing or ``None`` attributes leave the environment
    value in force.
    """
    config = from_env(environ)
    if args is None:
        return config
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    telemetry = getattr(args, "telemetry", None)
    return config.with_overrides(
        jobs=jobs,
        backend=getattr(args, "backend", None),
        telemetry=telemetry if telemetry else None,
        telemetry_dir=getattr(args, "telemetry_dir", None),
        registry=getattr(args, "registry", None),
    )


def apply(
    config: RunConfig,
    environ: Optional[MutableMapping[str, str]] = None,
) -> RunConfig:
    """Export ``config`` into the environment (the transport layer).

    Pool workers and measured subprocesses inherit ``os.environ``, so
    after folding CLI flags in, the resolved knobs are written back out.
    Only pinned fields are exported — unpinned ones stay resolvable to
    their dynamic defaults on the far side.  Returns ``config`` so call
    sites can resolve and apply in one expression.
    """
    env = os.environ if environ is None else environ
    if config.jobs is not None:
        env[ENV_JOBS] = str(config.jobs)
    if config.backend is not None:
        env[ENV_BACKEND] = config.backend
    if config.telemetry:
        env[ENV_TELEMETRY] = "1"
    if config.telemetry_dir is not None:
        env[ENV_TELEMETRY_DIR] = config.telemetry_dir
    if config.trace_cache is not None:
        env[ENV_TRACE_CACHE] = config.trace_cache
    if config.trace_scale is not None:
        env[ENV_TRACE_SCALE] = repr(config.trace_scale)
    if config.registry is not None:
        env[ENV_REGISTRY] = config.registry
    return config


# ---------------------------------------------------------------------------
# Module-level accessors (re-read the environment per call)
# ---------------------------------------------------------------------------

def resolve_jobs(explicit: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else CPUs."""
    if explicit is not None:
        return RunConfig(jobs=int(explicit)).resolved_jobs()
    return from_env().resolved_jobs()


def resolve_backend(override: Optional[str] = None) -> str:
    """Effective backend name.

    Precedence: explicit ``override`` argument, then the ``REPRO_BACKEND``
    environment variable, then feature detection (numpy when importable).
    Unknown names raise rather than silently degrade — a forced backend is
    a correctness assertion in CI.
    """
    if override:
        return RunConfig(backend=override).resolved_backend()
    return from_env().resolved_backend()


def telemetry_enabled() -> bool:
    """Whether run telemetry is switched on (``REPRO_TELEMETRY=1``)."""
    return from_env().telemetry


def telemetry_dir() -> Path:
    """Manifest directory: ``REPRO_TELEMETRY_DIR``, default ``telemetry/``."""
    return from_env().resolved_telemetry_dir()


def trace_cache_dir() -> Optional[str]:
    """Trace-cache directory override (``REPRO_TRACE_CACHE``), or None."""
    return from_env().trace_cache


def trace_scale() -> float:
    """Trace-length scale factor (``REPRO_TRACE_SCALE``, default 1.0)."""
    return from_env().resolved_trace_scale()


def registry_manifest() -> Optional[str]:
    """Benchmark-set registry manifest path (``REPRO_REGISTRY``), or None.

    ``None`` means "use the checked-in default if present" — resolution
    of that default lives in :mod:`repro.workloads.registry`, which owns
    the manifest format; this accessor only transports the knob.
    """
    return from_env().registry
