"""The benchmark's workloads and the checks behind its failure count.

A workload runs in batches. Batch ``b`` of workload seed ``s`` is one
experiment with ``master_seed = s + b * BATCH_SEED_STRIDE``, so batch 0 of
the default seed is exactly the committed configuration's experiment, and
the golden digests in ``golden.json`` pin it. Every run of every batch is
checked for the invariants in ``check_run``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from enertree import cli, harness, scheduler
from enertree.core import is_spanning_tree
from enertree.errors import DomainError, ReplayMismatch

DEFAULT_SEED = 42
BATCH_SEED_STRIDE = 100_003
CONSERVATION_RTOL = 1e-9

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Batch:
    """What one batch produced, as the measuring loop and the checks see it."""

    elapsed_s: float = 0.0  # host time of the whole batch, checks and host samples excluded
    run_s: list[float] = field(default_factory=list)  # host time per run
    live_steps: int = 0
    replay_steps: int = 0
    replay_s: float = 0.0
    failures: dict[int, str] = field(default_factory=dict)  # run index -> why
    digests: dict = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return len(self.run_s)


def batch_seed(seed: int, batch: int) -> int:
    return seed + batch * BATCH_SEED_STRIDE


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(config, outcome) -> str | None:
    """The per-run invariants; returns why the run failed, or None."""
    e = outcome.pop.energy
    total = config.resolved_total()
    if abs(math.fsum(e.per_node) + e.lost - total) > CONSERVATION_RTOL * total:
        return "energy not conserved"
    if min(e.per_node) < 0.0:
        return "negative node energy"
    if not outcome.completed:
        return "formation did not complete"
    if not is_spanning_tree(outcome.pop.network):
        return "completed run is not a spanning tree"
    return None


def batch_digests(out_dir: Path, summary, artifact: str | None) -> dict:
    """sha256 of runs.csv and summary.json, of every per-run artifact, and
    each run's final snapshot digest."""
    per_run = hashlib.sha256()
    if artifact is not None:
        for i in range(len(summary.results)):
            per_run.update(sha256_file(out_dir / f"run_{i}" / artifact).encode())
    return {
        "runs_csv": sha256_file(out_dir / "runs.csv"),
        "summary_json": sha256_file(out_dir / "summary.json"),
        "artifacts": per_run.hexdigest() if artifact else None,
        "snapshots": [r.outcome.digest for r in summary.results],
    }


class Workload:
    """One named workload: its set-up and how it runs one batch."""

    name = ""
    artifact: str | None = None  # per-run file each run writes, if any

    def load_config(self):
        """Set-up: load and validate the workload's configuration."""
        raise NotImplementedError

    def run_batch(self, config, master_seed: int, out_dir: Path, clock) -> Batch:
        """Run and time one batch with ``master_seed``, writing into
        ``out_dir``; ``clock`` is the host-speed sampler."""
        raise NotImplementedError

    def _record(self, config, out_dir: Path, clock, run) -> tuple[Batch, object]:
        """Run one experiment through ``run``, timing each run from the
        progress hook, then check every run. ``clock.between_runs`` may
        sample the host's speed in the hook; its time is left out."""
        batch = Batch()
        starts, ends = [perf_counter()], []
        paused = 0.0

        def progress(result):
            nonlocal paused
            ends.append(perf_counter())
            paused += clock.between_runs()
            starts.append(perf_counter())

        summary = run(progress)
        batch.elapsed_s = perf_counter() - starts[0] - paused
        batch.run_s = [end - start for start, end in zip(starts, ends)]
        for r in summary.results:
            batch.live_steps += r.outcome.total_steps
            why = check_run(config, r.outcome)
            if why is not None:
                batch.failures[r.run_index] = why
        batch.digests = batch_digests(out_dir, summary, self.artifact)
        return batch, summary


class EdgeLambda(Workload):
    name = "edge_lambda_n30"
    BASE = dict(n=30, protocol="kary:2", energy_protocol="lambda:2", loss="lossless",
                initial_energy="uniform", repetitions=10)

    def load_config(self):
        return harness.ExperimentConfig.from_dict(self.BASE)

    def run_batch(self, config, master_seed, out_dir, clock):
        config = replace(config, master_seed=master_seed)
        batch, _ = self._record(config, out_dir, clock, lambda progress: harness.run_experiment(
            config, out_dir=out_dir, progress=progress))
        return batch


class TargetedLossy(Workload):
    name = "targeted_lossy_n30"
    artifact = "metrics.csv"
    CONFIG = ROOT / "configs" / "lossy_targeted_n30.json"

    def load_config(self):
        return harness.ExperimentConfig.from_json(self.CONFIG)

    def run_batch(self, config, master_seed, out_dir, clock):
        argv = ["experiment", "--config", str(self.CONFIG), "--seed", str(master_seed),
                "--out", str(out_dir), "--quiet"]

        def run(progress):
            # The CLI returns only an exit code; the summary it builds is
            # taken from its call into run_experiment, with the progress
            # hook added, for this call only.
            run_experiment = cli.run_experiment
            summaries = []

            def capture(*args, **kwargs):
                summaries.append(run_experiment(*args, **kwargs, progress=progress))
                return summaries[-1]

            cli.run_experiment = capture
            try:
                code = cli.main(argv)
            finally:
                cli.run_experiment = run_experiment
            if code != 0:
                raise RuntimeError(f"enertree experiment exited with {code}")
            return summaries[-1]

        batch, _ = self._record(replace(config, master_seed=master_seed), out_dir, clock, run)
        return batch


class TraceReplay(Workload):
    name = "trace_replay_n30"
    artifact = "trace.txt"
    BASE = dict(n=30, protocol="arbitrary", energy_protocol="rand", loss="normal:0.2,0.05",
                initial_energy="random", repetitions=30, emit_traces=True)

    def load_config(self):
        return harness.ExperimentConfig.from_dict(self.BASE)

    def run_batch(self, config, master_seed, out_dir, clock):
        config = replace(config, master_seed=master_seed)
        batch, summary = self._record(config, out_dir, clock, lambda progress: harness.run_experiment(
            config, out_dir=out_dir, progress=progress))
        for i, r in enumerate(summary.results):
            t0 = perf_counter()
            try:
                trace = scheduler.read_trace(out_dir / f"run_{i}" / "trace.txt")
                replayed = harness.replay_trace(trace)
            except (DomainError, ReplayMismatch) as exc:
                batch.failures[i] = f"replay failed: {exc}"
                continue
            finally:
                dt = perf_counter() - t0
                batch.run_s[i] += dt
                batch.replay_s += dt
                batch.elapsed_s += dt
                clock.between_runs()
            batch.replay_steps += replayed.total_steps
            if not (replayed.digest == trace.final_digest == r.outcome.digest):
                batch.failures[i] = "replay digest differs from the recorded digest"
        return batch


WORKLOADS = {w.name: w for w in (EdgeLambda, TargetedLossy, TraceReplay)}
