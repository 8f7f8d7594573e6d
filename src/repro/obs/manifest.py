"""Run manifests: the durable JSON record of one engine job or session.

Under ``REPRO_TELEMETRY=1`` every engine job and every finished served
session writes one JSON **run manifest** — config hash, trace identity
and cache-file provenance, wall and CPU time, loads/second, peak RSS,
metrics, attribution counters — to the directory named by
``REPRO_TELEMETRY_DIR`` (default ``telemetry/``), plus heartbeat progress
lines on stderr.  Both build it through :func:`build_manifest`, with one
:func:`metrics_record`.  Manifests are the diffable record of a run:
``python -m repro stats --diff A B`` compares two manifest sets to flag
perf or accuracy regressions, and CI validates them against
``run_manifest.schema.json``.

This module is deliberately free of simulator imports: it handles plain
dicts and reads jobs and metrics by attribute (the engine and the
serving layer own that glue).  Its clocks are the ones the rest of the
tree uses for display and manifests; like everything in ``repro.obs``
they observe runs and never feed time back into simulated state.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "MANIFEST_SCHEMA_ID",
    "attribution_record",
    "build_manifest",
    "canonical_json",
    "config_hash",
    "cpu_clock",
    "enabled",
    "file_provenance",
    "heartbeat",
    "iso_utc",
    "jsonable",
    "load_manifests",
    "metrics_record",
    "output_dir",
    "peak_rss_kb",
    "perf_clock",
    "wall_clock",
    "write_manifest",
]

#: Schema identifier embedded in (and required of) every manifest.
MANIFEST_SCHEMA_ID = "repro.run_manifest/v1"


# ---------------------------------------------------------------------------
# Runtime switches
# ---------------------------------------------------------------------------

def enabled() -> bool:
    """Whether run telemetry is switched on (``REPRO_TELEMETRY=1``).

    Resolution lives in :mod:`repro.eval.config` (the one sanctioned
    environment-reading module); imported lazily so this module keeps its
    no-simulator-imports property at import time.
    """
    from ..eval.config import telemetry_enabled

    return telemetry_enabled()


def output_dir() -> Path:
    """Manifest directory: ``REPRO_TELEMETRY_DIR``, default ``telemetry/``."""
    from ..eval.config import telemetry_dir

    return telemetry_dir()


# ---------------------------------------------------------------------------
# Clocks and process statistics (observability only, never simulated state)
# ---------------------------------------------------------------------------

def wall_clock() -> float:
    """Current wall time in seconds since the epoch.

    Manifest timestamps and heartbeat pacing only; nothing simulated may
    consume this value (the R002 determinism rule polices exactly that,
    and exempts ``repro.obs`` as the package whose job is measuring).
    """
    return time.time()


def perf_clock() -> float:
    """Monotonic high-resolution timer for measuring run durations.

    Display/manifest only — see :func:`wall_clock` for the policy.
    """
    return time.perf_counter()


def cpu_clock() -> float:
    """Process CPU time in seconds (user + system)."""
    return time.process_time()


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalised to KiB.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def iso_utc(epoch_seconds: float) -> str:
    """Render an epoch timestamp as an ISO-8601 UTC string."""
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.isoformat(timespec="seconds").replace("+00:00", "Z")


# ---------------------------------------------------------------------------
# Canonical JSON and hashing
# ---------------------------------------------------------------------------

def jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-encodable structures.

    Dataclasses (predictor/machine configs inside job overrides) become
    dicts; mappings and sequences recurse; anything else non-primitive
    falls back to ``repr`` so hashing never fails on an exotic override.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        jsonable(value), sort_keys=True, separators=(",", ":"),
    )


def config_hash(spec: Any) -> str:
    """SHA-256 over the canonical JSON of a job/config spec."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


def file_provenance(path: Path) -> Dict[str, Any]:
    """Identity of an on-disk artifact (trace cache file provenance)."""
    record: Dict[str, Any] = {"path": str(path), "exists": path.exists()}
    if record["exists"]:
        stat = path.stat()
        record["bytes"] = stat.st_size
        record["mtime_ns"] = stat.st_mtime_ns
    return record


# ---------------------------------------------------------------------------
# The manifest record
# ---------------------------------------------------------------------------

def metrics_record(metrics: Any) -> Optional[Dict[str, Any]]:
    """The manifest and finish-response view of a metrics object.

    ``None`` (a job that counted no predictions) stays ``None``.
    """
    if metrics is None:
        return None
    return {
        "loads": metrics.loads,
        "predictions": metrics.predictions,
        "speculative": metrics.speculative,
        "correct_speculative": metrics.correct_speculative,
        "correct_predictions": metrics.correct_predictions,
        "prediction_rate": metrics.prediction_rate,
        "accuracy": metrics.accuracy,
        "misprediction_rate": metrics.misprediction_rate,
        "correct_rate": metrics.correct_rate,
        "coverage": metrics.coverage,
    }


def attribution_record(metrics: Any) -> Optional[Dict[str, int]]:
    """The attribution counters of an instrumented metrics object, else None."""
    attribution = getattr(metrics, "attribution", None)
    return attribution() if attribution is not None else None


def build_manifest(
    spec: Any,
    job: Any,
    trace: Dict[str, Any],
    *,
    started_wall: float,
    wall_s: float,
    cpu_s: float,
    backend: Optional[str],
    metrics: Any = None,
    attribution: Optional[Dict[str, int]] = None,
    cycles: Optional[int] = None,
    divergence: Optional[str] = None,
    trace_id: Optional[str] = None,
    flight_recorder: Optional[str] = None,
    registry: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One run manifest (``run_manifest.schema.json``).

    ``spec`` is hashed into ``config_hash``.  ``job`` is read by attribute
    into the ``job`` block: an engine :class:`~repro.eval.engine.Job`, or
    for a served session the job its config maps to, labelled
    ``kind="serve"``.  ``trace`` is the trace block; its ``loads`` also
    give ``run.loads_per_sec``.  ``metrics`` becomes the
    :func:`metrics_record`; ``registry`` is a metrics-registry snapshot
    for the ``obs`` block.
    """
    loads = trace.get("loads")
    return {
        "schema": MANIFEST_SCHEMA_ID,
        "config_hash": config_hash(spec),
        "job": {
            "trace": job.trace,
            "factory": job.factory,
            "variant": job.variant,
            "kind": job.kind,
            "overrides": jsonable(job.overrides),
            "instructions": job.instructions,
            "warmup_fraction": job.warmup_fraction,
            "gap": job.gap,
            "instrument": job.instrument,
        },
        "trace": trace,
        "run": {
            "started_at": iso_utc(started_wall),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "loads_per_sec": (
                loads / wall_s if loads and wall_s > 0 else None
            ),
            "peak_rss_kb": peak_rss_kb(),
            "pid": os.getpid(),
            "python": platform.python_version(),
            "backend": backend,
        },
        "metrics": metrics_record(metrics),
        "cycles": cycles,
        "divergence": divergence,
        "attribution": attribution,
        "obs": {
            "trace_id": trace_id,
            "flight_recorder": flight_recorder,
            "metrics": registry,
        },
    }


# ---------------------------------------------------------------------------
# Heartbeats and manifest IO
# ---------------------------------------------------------------------------

def heartbeat(message: str) -> None:
    """One progress line on stderr (workers interleave safely per line)."""
    print(f"[telemetry] pid={os.getpid()} {message}",
          file=sys.stderr, flush=True)


def write_manifest(
    data: Dict[str, Any], directory: Optional[Path] = None
) -> Path:
    """Atomically write one manifest; returns its path.

    The file name is derived from variant/trace/config-hash, so re-running
    the same job spec overwrites its own manifest (last writer wins) and
    distinct specs never collide.
    """
    directory = directory if directory is not None else output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    digest = str(data.get("config_hash", ""))[:12] or "nohash"
    variant = _slug(str(data.get("job", {}).get("variant", "")) or "run")
    trace = _slug(str(data.get("job", {}).get("trace", "")) or "trace")
    path = directory / f"{variant}-{trace}-{digest}.json"
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_manifests(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every ``*.json`` manifest under ``directory``, sorted by file name."""
    manifests: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("*.json")):
        with path.open() as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data["_path"] = str(path)
            manifests.append(data)
    return manifests


def _slug(text: str) -> str:
    """File-name-safe slug (job variants may contain spaces/commas)."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in text)
