"""Untimed prepare step: the trace cache the workloads read.

The first run in a checkout generates every trace named in
``expected.json`` into ``.perfbench/traces`` (the program's own
``REPRO_TRACE_CACHE`` cache), checks each trace's content digest against
the checked-in one, and records each cache file's sha256.  Every run then
reads every file once, which warms the page cache, and refuses to measure
if a file's sha256 no longer matches.  Trace generation and first reads
therefore never land in a timed phase or in ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable

from common import SRC, TRACE_CACHE, WORK, child_env

MANIFEST = WORK / "traces.json"

_GENERATE = """
import json, sys
from repro.workloads import suites
paths = {}
for name in sys.argv[1:]:
    suites.get_predictor_stream(name)
    paths[name] = str(suites.trace_cache_path(name))
print(json.dumps(paths))
"""


class PrepareError(RuntimeError):
    """The trace cache cannot be trusted; nothing may be measured."""


def generate(names: Iterable[str]) -> Dict[str, Path]:
    """Generate (or find) the cache files of ``names``; name -> path."""
    names = list(names)
    if not names:
        return {}
    done = subprocess.run(
        [sys.executable, "-c", _GENERATE, *names],
        env=child_env(), cwd=str(SRC.parent),
        stdout=subprocess.PIPE, check=True, text=True, timeout=600,
    )
    return {
        name: Path(path)
        for name, path in json.loads(done.stdout.splitlines()[-1]).items()
    }


def content_digest(path: Path) -> str:
    """sha256 over a cache file's event columns (header excluded).

    The ``.npz`` container stores zip timestamps, so the file bytes of two
    generations differ; the columns do not.
    """
    import numpy as np

    digest = hashlib.sha256()
    with np.load(path) as data:
        for key in sorted(data.files):
            if key == "header":
                continue
            column = data[key]
            digest.update(f"{key}:{column.dtype}:{column.shape};".encode())
            digest.update(column.tobytes())
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare(expected: dict) -> Dict[str, Path]:
    """Make the trace cache ready and verified; trace name -> file path."""
    traces = expected["traces"]
    manifest: Dict[str, dict] = {}
    if MANIFEST.exists():
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    missing = [
        name for name in traces
        if name not in manifest
        or not (TRACE_CACHE / manifest[name]["file"]).exists()
    ]
    if missing:
        TRACE_CACHE.mkdir(parents=True, exist_ok=True)
        for name, path in generate(missing).items():
            digest = content_digest(path)
            if digest != traces[name]["digest"]:
                raise PrepareError(
                    f"trace {name} generated with content digest {digest},"
                    f" expected {traces[name]['digest']}"
                )
            manifest[name] = {"file": path.name, "sha256": file_sha256(path)}
        tmp = MANIFEST.with_name(MANIFEST.name + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        os.replace(tmp, MANIFEST)
        _compile_sources()
    paths = {}
    for name in traces:
        path = TRACE_CACHE / manifest[name]["file"]
        if file_sha256(path) != manifest[name]["sha256"]:
            raise PrepareError(
                f"trace file {path.name} changed since it was verified;"
                f" delete {WORK} to regenerate"
            )
        paths[name] = path
    return paths


def _compile_sources() -> None:
    """Byte-compile the program once, so no set-up pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC),
         str(Path(__file__).resolve().parent)],
        env=child_env(), stdout=subprocess.DEVNULL, check=True, timeout=300,
    )
