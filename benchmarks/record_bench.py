#!/usr/bin/env python
"""Record one fig5 full-grid wall-clock measurement into BENCH_fig5.json.

The trajectory file at the repo root is append-only perf history for the
figure-suite hot loop; ``python -m repro stats bench --gate PCT`` renders
it and regression-gates the newest entry.  Usage::

    python benchmarks/record_bench.py --label pr6-numpy --backend numpy
    python benchmarks/record_bench.py --check        # schema-check only

The measured command is the real user-facing entry point — a fresh
``python -m repro run fig5 --full`` subprocess pinned to one worker — so
the number tracks what a contributor actually waits for.  Trace caches
are warmed beforehand (untimed): the first-ever run generates 45 traces,
which is workload-generator cost, not predictor-evaluation cost.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.obs.stats import (  # noqa: E402
    BENCH_SCHEMA_ID,
    check_bench_file,
)

DEFAULT_FILE = REPO_ROOT / "BENCH_fig5.json"


def _warm_traces() -> None:
    from repro.workloads import suites

    for name in suites.trace_names():
        suites.get_trace(name)


def _observed_backend(requested: str) -> str:
    """The backend the measured run actually exercises.

    Requesting ``numpy`` does not guarantee kernel execution: a predictor
    without batch support, or overrides outside the kernels' modelled
    envelope, make every dispatch raise ``BatchFallback`` and the whole
    run silently executes the scalar loop.  The engine records the
    *observed* backend on each ``JobResult`` (``"python"`` when no kernel
    dispatch succeeded), so probe one small job per fig5 variant and
    record what the measurement will really be.
    """
    from repro.eval.engine import Job, execute_job
    from repro.eval.experiments import quick_trace_set
    from repro.obs.stats import DEFAULT_VARIANTS

    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = requested
    try:
        trace = quick_trace_set()[0]
        for variant, (factory, overrides, gap) in DEFAULT_VARIANTS.items():
            result = execute_job(Job(
                trace=trace, factory=factory, overrides=dict(overrides),
                gap=gap, instructions=2000, variant=variant,
            ))
            if result.backend == "numpy":
                return "numpy"
        return "python"
    finally:
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def _measure(backend: str, jobs: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_JOBS"] = str(jobs)
    env["REPRO_BACKEND"] = backend
    command = [sys.executable, "-m", "repro", "run", "fig5", "--full"]
    started = time.monotonic()
    subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.monotonic() - started


def _append(path: Path, entry: dict) -> None:
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    else:
        payload = {
            "schema": BENCH_SCHEMA_ID,
            "benchmark": "python -m repro run fig5 --full (45 traces)",
            "entries": [],
        }
    payload["entries"].append(entry)
    path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", choices=("python", "numpy"), default="numpy",
        help="kernel backend to measure (default: numpy)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="engine worker count (default 1: serial is the comparable"
             " configuration across hosts)",
    )
    parser.add_argument("--label", required=False,
                        help="entry label (default: git short hash)")
    parser.add_argument("--note", default="", help="free-form context")
    parser.add_argument(
        "--file", type=Path, default=DEFAULT_FILE, metavar="PATH",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="only schema-check the trajectory file, do not measure",
    )
    args = parser.parse_args(argv)

    if args.check:
        problems = check_bench_file(args.file)
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.file}: {'FAIL' if problems else 'ok'}")
        return 1 if problems else 0

    label = args.label
    if label is None:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        label = completed.stdout.strip() or "worktree"

    print("warming trace caches ...", flush=True)
    _warm_traces()
    observed = _observed_backend(args.backend)
    if observed != args.backend:
        print(
            f"requested backend {args.backend!r}, but every kernel"
            f" dispatch fell back to the scalar loop — recording the"
            f" observed backend {observed!r}",
            file=sys.stderr,
        )
    print(f"timing fig5 --full (backend={observed},"
          f" jobs={args.jobs}) ...", flush=True)
    wall = _measure(args.backend, args.jobs)
    entry = {
        "label": label,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "wall_s": round(wall, 1),
        "backend": observed,
        "jobs": args.jobs,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "note": args.note,
    }
    _append(args.file, entry)
    print(f"{wall:.1f}s -> appended {entry['label']!r} to {args.file}")
    problems = check_bench_file(args.file)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
