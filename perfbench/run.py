"""Benchmark for the figure grid and the prediction server.

    python3 perfbench/run.py --workload grid-kernel --seed 1 --seconds 25 \\
        --trace 0

Workloads: ``grid-kernel``, ``grid-residue`` (see ``grids.py``) and
``serve-stream`` (see ``serve_stream.py``).  ``--trace 0`` measures and
prints every end-to-end metric; ``--trace 1`` runs with the per-layer
ledger (``ledger.py``) and prints every per-layer metric.  Before the last
line the command prints a table of name, value, unit and sample count;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits non-zero, without that line, when
the program cannot be set up, and non-zero after it when an output does
not match.  Every time is host time scaled by the run's host-speed factor
(``calibrate.py``); the table also shows the factor.  See ``README.md``
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Tuple

import calibrate
from common import (
    BENCH, ROOT, SRC, WORKLOADS, child_env, load_expected, percentile,
    session_order,
)

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "wall_s": "s",
    "loads_per_s": "loads/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "trace.load_s": "s",
    "engine.jobs": "count",
    "engine.build_s": "s",
    "engine.overhead_s": "s",
    "kernels.lb_solve_s": "s",
    "kernels.lt_solve_s": "s",
    "kernels.rows_s": "s",
    "kernels.cfi_s": "s",
    "kernels.commit_s": "s",
    "kernels.dispatch_s": "s",
    "kernels.dispatched": "count",
    "kernels.fallback": "count",
    "kernels.declined": "count",
    "kernels.dispatch_ratio": "ratio",
    "scalar.loop_s": "s",
    "scalar.loads": "count",
    "timing.simulate_s": "s",
    "timing.loads": "count",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.bytes_in": "bytes",
    "protocol.bytes_out": "bytes",
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "shard.hop_p50_ms": "ms",
    "shard.hop_overhead_ms": "ms",
    "session.feed_kernel_ms": "ms",
    "session.feed_scalar_ms": "ms",
    "session.kernel_feed_ratio": "ratio",
    "ledger.traced_s": "s",
    "ledger.coverage": "ratio",
    "ledger.overhead_pct": "%",
    "ledger.spans": "count",
    "ledger.dropped": "count",
}

#: Ledger layer -> per-layer self-time metric.
SELF_TIME = {
    "trace.load": "trace.load_s",
    "engine.build": "engine.build_s",
    "engine.job": "engine.overhead_s",
    "kernels.lb_solve": "kernels.lb_solve_s",
    "kernels.lt_solve": "kernels.lt_solve_s",
    "kernels.rows": "kernels.rows_s",
    "kernels.cfi": "kernels.cfi_s",
    "kernels.commit": "kernels.commit_s",
    "kernels.dispatch": "kernels.dispatch_s",
    "scalar.loop": "scalar.loop_s",
    "timing.simulate": "timing.simulate_s",
}

#: Set-up samples per run (fresh processes); the median is reported.
SETUP_SAMPLES = 5
#: Host-speed reference timings before each set-up sample.
SETUP_REFERENCES = 3


class SetupError(RuntimeError):
    """The program could not be prepared or started."""


def spawn_grid(args: argparse.Namespace, probe: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(BENCH / "grids.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    spawned_at = time.perf_counter()
    done = subprocess.run(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=170,
    )
    if done.returncode:
        raise SetupError(f"grid process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_grid(
    out: Dict[str, Any], expected: dict
) -> Tuple[int, int, int, List[float]]:
    """(attempted, failed, loads, job walls) over every pass."""
    attempted = failed = loads = 0
    walls: List[float] = []
    for done in out["passes"]:
        for row in done["jobs"]:
            attempted += 1
            walls.append(row["wall_s"])
            key = row["key"]
            if row["cycles"] is not None:
                ok = expected["cycles"].get(key) == row["cycles"]
                loads += expected["traces"][key.split("/")[0]]["loads"]
            else:
                ok = expected["jobs"].get(key) == row["counters"]
                loads += row["counters"][0]
            failed += not ok
    return attempted, failed, loads, walls


def run_grid(
    args: argparse.Namespace, expected: dict, meter: calibrate.Meter
) -> Dict[str, Any]:
    if args.trace:
        out = spawn_grid(args, probe=False)
        attempted, failed, _, _ = check_grid(out, expected)
        return {
            "attempted": attempted, "failed": failed, "layers": out["layers"],
            "factor": calibrate.factor(out["reference_s"]),
        }
    setups = []
    for index in range(SETUP_SAMPLES):
        meter.sample(SETUP_REFERENCES)
        out = spawn_grid(args, probe=index < SETUP_SAMPLES - 1)
        setups.append(out["setup_s"])
    attempted, failed, loads, walls = check_grid(out, expected)
    scale = calibrate.factor(meter.samples + out["reference_s"])
    result: Dict[str, Any] = {
        "attempted": attempted, "failed": failed, "factor": scale,
    }
    passes = [done["wall_s"] for done in out["passes"]]
    result["e2e"] = {
        "wall_s": (median(passes) * scale, len(passes)),
        "loads_per_s": (loads / (sum(passes) * scale), loads),
        "op_p50_ms": (median(walls) * 1e3 * scale, len(walls)),
        "op_p99_ms": (percentile(walls, 0.99) * 1e3 * scale, len(walls)),
        "setup_s": (median(setups) * scale, len(setups)),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
    }
    return result


def layer_metrics(
    layers: Dict[str, Any], scale: float
) -> Dict[str, Tuple[float, int]]:
    """Every per-layer metric; layers a workload does not use read 0.

    Times (units ``s`` and ``ms``) are scaled by the run's host-speed
    factor ``scale``, as the end-to-end times are.
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer, total in layers["self_s"].items():
        if layer in SELF_TIME:
            values[SELF_TIME[layer]] = total
    dispatch = layers["dispatch"]
    tried = sum(dispatch.values())
    values.update({
        "engine.jobs": layers["jobs"],
        "kernels.dispatched": dispatch["dispatched"],
        "kernels.fallback": dispatch["fallback"],
        "kernels.declined": dispatch["declined"],
        "kernels.dispatch_ratio": (
            dispatch["dispatched"] / tried if tried else 0.0
        ),
        "scalar.loads": layers["scalar_loads"],
        "timing.loads": layers["timing_loads"],
        "ledger.traced_s": layers["traced_s"],
        "ledger.coverage": layers["coverage"],
        "ledger.spans": layers["spans"],
        "ledger.dropped": layers["dropped"],
    })
    for key, name in (
        ("overhead_pct", "ledger.overhead_pct"),
        ("decode_ms", "protocol.decode_ms"),
        ("encode_ms", "protocol.encode_ms"),
        ("bytes_in", "protocol.bytes_in"),
        ("bytes_out", "protocol.bytes_out"),
        ("queue_wait_p50_ms", "server.queue_wait_p50_ms"),
        ("queue_wait_p99_ms", "server.queue_wait_p99_ms"),
        ("hop_p50_ms", "shard.hop_p50_ms"),
        ("hop_overhead_ms", "shard.hop_overhead_ms"),
        ("feed_kernel_ms", "session.feed_kernel_ms"),
        ("feed_scalar_ms", "session.feed_scalar_ms"),
        ("kernel_feed_ratio", "session.kernel_feed_ratio"),
    ):
        if key in layers:
            values[name] = layers[key]
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms"):
            values[name] *= scale
    return {name: (value, 1) for name, value in values.items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prepare

    expected = load_expected()
    meter = calibrate.Meter()
    try:
        paths = prepare.prepare(expected)
        if args.workload == "serve-stream":
            import serve_stream

            result = serve_stream.run(
                session_order(args.seed), paths, args.seconds,
                bool(args.trace), SETUP_SAMPLES, SETUP_REFERENCES,
                args.seed, meter,
            )
        else:
            result = run_grid(args, expected, meter)
    except (SetupError, prepare.PrepareError, OSError,
            subprocess.SubprocessError) as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = layer_metrics(result["layers"], result["factor"])
        units = PER_LAYER
    else:
        metrics = result["e2e"]
        units = END_TO_END
    print(f"{'host-speed factor':28s} {result['factor']:14.6g}")
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"{name:28s} {value:14.6g} {unit:8s} n={samples}")
    failed = int(result["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
