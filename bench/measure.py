"""The measuring loops behind ``run.py``: batches back to back for the
end-to-end metrics, and alternating untraced and traced passes for the
per-layer metrics."""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracer import Tracer
from workloads import DEFAULT_SEED, batch_seed

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 15
PROBES_PER_GAP = 2


def golden_failures(name: str, digests: dict) -> dict[int, str]:
    """Runs of the default seed's first batch whose outputs differ from the
    pinned digests. On a mismatch the digests this checkout gave are
    printed, so that a deliberate change of output is re-pinned by editing
    golden.json, where it can be reviewed."""
    want = json.loads(GOLDEN.read_text())[name]
    if digests != want:
        print(f"golden digests of {name} at this checkout: {json.dumps(digests)}", file=sys.stderr)
    runs = range(max(len(want["snapshots"]), len(digests["snapshots"])))
    for key in ("runs_csv", "summary_json", "artifacts"):
        if digests[key] != want[key]:
            return {i: f"{key} differs from the golden digest" for i in runs}
    if len(digests["snapshots"]) != len(want["snapshots"]):
        return {i: "run count differs from the golden digest" for i in runs}
    return {
        i: "final snapshot differs from the golden digest"
        for i, (got, pinned) in enumerate(zip(digests["snapshots"], want["snapshots"]))
        if got != pinned
    }


class Measurement:
    """Runs batches of one workload and accumulates what they produced."""

    def __init__(self, workload, config, seed: int, work: Path):
        self.workload = workload
        self.config = config
        self.seed = seed
        self.work = work
        self.clock = HostSpeed()
        self.batches: list[tuple] = []  # (batch, host factor during it)
        self.attempted = 0
        self.failed = 0

    def run(self, index: int, expect: dict | None = None):
        """Run and check batch ``index``; returns it, or None when it raised.
        ``expect`` holds digests an earlier pass over the same batch gave."""
        out = self.work / f"batch_{index}"
        gc.collect()
        before = self.clock.iterations, self.clock.seconds
        try:
            seed = batch_seed(self.seed, index)
            batch = self.workload.run_batch(self.config, seed, out, self.clock)
        except Exception:
            traceback.print_exc()
            self.attempted += self.config.repetitions
            self.failed += self.config.repetitions
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failures = dict(batch.failures)
        if self.seed == DEFAULT_SEED and index == 0:
            failures.update(golden_failures(self.workload.name, batch.digests))
        if expect is not None and batch.digests != expect:
            failures.update({i: "outputs differ between passes" for i in range(batch.runs)})
        for i, why in sorted(failures.items()):
            print(f"batch {index} run {i} failed: {why}", file=sys.stderr)
        sampled = self.clock.iterations - before[0], self.clock.seconds - before[1]
        self.batches.append((batch, self.clock.factor(*sampled) if sampled[0] else None))
        self.attempted += batch.runs
        self.failed += len(failures)
        return batch


def end_to_end(m: Measurement, seconds: float, setup_probe) -> tuple[dict, dict]:
    """Batches back to back until ``seconds`` of measured time have passed.

    Rates and times are scaled to the nominal host speed (``hostspeed.py``),
    each batch by the host's speed sampled during it, and ``setup_s`` by the
    speed sampled over the whole run; the info line keeps them as measured.
    The set-up probes run between batches, outside the measured time, so
    that they sample the host across the whole run.
    """
    setup_s = []
    busy = 0.0
    while not m.batches or busy < seconds:
        batch = m.run(len(m.batches))
        if batch is None:
            break
        busy += batch.elapsed_s
        setup_s += [setup_probe() for _ in range(min(PROBES_PER_GAP, SETUP_PROBES - len(setup_s)))]
    if not m.batches:
        return {}, {}
    setup_s += [setup_probe() for _ in range(SETUP_PROBES - len(setup_s))]
    window = m.clock.factor()
    batches = [(b, f or window) for b, f in m.batches]
    run_s = [t for b, _ in batches for t in b.run_s]
    run_scaled = [t / f for b, f in batches for t in b.run_s]
    runs = len(run_s)
    steps = sum(b.live_steps for b, _ in batches)
    scaled_s = sum(b.elapsed_s / f for b, f in batches)
    measured = {
        "setup_s": statistics.median(setup_s),
        "runs_per_s": runs / busy,
        "steps_per_s": steps / busy,
        "run_s.p50": statistics.median(run_s),
    }
    scaled = {
        "setup_s": measured["setup_s"] / window,
        "runs_per_s": runs / scaled_s,
        "steps_per_s": steps / scaled_s,
        "run_s.p50": statistics.median(run_scaled),
    }
    if runs >= 100:  # at least ten samples beyond the 90th percentile
        measured["run_s.p90"] = statistics.quantiles(run_s, n=10)[-1]
        scaled["run_s.p90"] = statistics.quantiles(run_scaled, n=10)[-1]
    replayed = sum(b.replay_steps for b, _ in batches)
    if replayed:
        measured["replay_steps_per_s"] = replayed / sum(b.replay_s for b, _ in batches)
        scaled["replay_steps_per_s"] = replayed / sum(b.replay_s / f for b, f in batches)
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "runs_per_s": (scaled["runs_per_s"], "1/s"),
        "steps_per_s": (scaled["steps_per_s"], "1/s"),
        "run_s.p50": (scaled["run_s.p50"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"runs": runs, "batches": len(batches), "measured_s": busy,
            "fail_frac": m.failed / m.attempted, "host_factor": window,
            "scaled": scaled, "as_measured": measured}
    return metrics, info


def per_layer(m: Measurement, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the first batch until
    ``seconds`` have passed. Counts come from one traced pass and must
    repeat exactly in every other; times are medians over the passes."""
    m.clock = HostSpeed(interval_s=math.inf)  # no samples inside traced spans
    untraced_s, traced_s, layers = [], [], []
    tracer = last = None
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        plain = m.run(0)
        if plain is None:
            break
        tracer = Tracer()
        with tracer:
            traced = m.run(0, expect=plain.digests)
        if traced is None:
            break
        untraced_s.append(plain.elapsed_s)
        traced_s.append(traced.elapsed_s)
        layers.append(tracer.layer_metrics())
        last = traced
    if not layers:
        return {}, {}
    metrics = {}
    for name, (value, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            print(f"{name} differs between traced passes: {values}", file=sys.stderr)
            m.failed += 1
        metrics[name] = (value, unit)
    metrics["tracing_overhead"] = (statistics.median(traced_s) / statistics.median(untraced_s), "x")
    write_spans(tracer, spans_path)
    # Step totals of one pass, summed from each run's outcome, to balance
    # the tracer's counts against.
    info = {"passes": len(layers), "untraced_s": untraced_s, "traced_s": traced_s,
            "live_steps": last.live_steps, "replay_steps": last.replay_steps}
    return metrics, info


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the last traced pass's run-level spans and every span's totals."""
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    path.write_text(json.dumps({
        "spans": [{"id": i, "name": n, "start": a - t0, "end": b - t0, "parent": p}
                  for i, n, a, b, p in sorted(tracer.spans)],
        "totals": {n: {"calls": c, "total_s": t, "self_s": s}
                   for n, (c, t, s) in sorted(tracer.stats.items())},
    }, indent=1) + "\n")

