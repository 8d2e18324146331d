"""enertree benchmark: seeded Monte-Carlo sweeps, timed end to end, with a
separate traced run for per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each invocation is one process with no threads that runs the
workload's batches back to back (a closed loop with one caller) until
``--seconds`` of measured time have passed. Every run is checked (see
``workloads.py``); at the default seed the first batch must also match the
digests in ``golden.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
holds further figures that are not gated (``info``). A traced run also
writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

NAMES = ("edge_lambda_n30", "targeted_lossy_n30", "trace_replay_n30")


def import_enertree() -> None:
    """Import the package from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import enertree
    except ImportError as exc:
        sys.exit(f"error: cannot import enertree from {SRC}: {exc}")
    if not Path(enertree.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: enertree was imported from {enertree.__file__}, not {SRC}")


def setup_probe(name: str) -> float:
    """Time from starting a fresh interpreter to the point where the first
    run could start: interpreter, ``import enertree``, and loading and
    validating the workload's configuration."""
    import subprocess

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return t1 - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_enertree()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    config = workload.load_config()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import platform
    import shutil

    import measure

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        m = measure.Measurement(workload, config, args.seed, work)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, info = measure.per_layer(m, args.seconds, spans)
        else:
            metrics, info = measure.end_to_end(m, args.seconds, lambda: setup_probe(args.workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                python=platform.python_version(), cpus=os.cpu_count())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": m.failed == 0 and bool(metrics),
        "attempted": max(m.attempted, 1),
        "failed": m.failed if metrics else max(m.failed, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
