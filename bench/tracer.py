"""Per-layer tracer for the enertree benchmark.

Spans and counts are recorded around calls into each module's public
functions, from outside the package: a wrapper is installed in the namespace
where each function is *called*. ``runner`` imports ``apply_formation_rule``,
``incident_distance`` and the other per-step functions by name, so patching
their defining modules would miss every call the engine makes; methods
(``RandomScheduler.next_pair``, ``LiveEnergyDriver.move``, ...) are wrapped on
their class.

A span's self time is its duration minus the part covered by its child
spans. Fine-grained spans (one or more per simulated step) are aggregated in
memory as (calls, total, self); spans at run level and above are also kept
whole, with their parent, and written out when the benchmark ends.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from time import perf_counter

from enertree import cli, harness, runner, scheduler
from enertree.core import EnergyState, TreeNetwork
from enertree.formation import CONNECTING_RULES, NOOP, UW
from enertree.metrics import ConvergenceDetector

# Spans kept whole (one per run or coarser); the rest are aggregated only.
COARSE = frozenset({
    "harness.run_experiment",
    "harness.run_single",
    "harness.build_population",
    "harness.replay_trace",
    "runner.simulate",
    "runner.replay_simulate",
    "scheduler.write_trace",
    "scheduler.read_trace",
    "metrics.write_metrics_csv",
})


class Tracer:
    """Wrappers, and the spans and counts they record, for one traced pass.
    Use as a context manager: entering installs the wrappers, leaving
    restores the originals."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._ids = itertools.count()
        self._stack: list[list] = []  # [child_s, span id] per open span
        self._saved: list[tuple] = []
        self._last_idle = False
        self._in_replay = 0

    # -- recording ----------------------------------------------------------
    def wrap(self, fn, name, hook=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        keep = name in COARSE
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            frame = [0.0, next(ids) if keep else None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep:
                    spans.append((frame[1], name, t0, t1, parent[1] if parent else None))
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, hook))

    def install(self) -> None:
        p = self._patch
        p(scheduler.RandomScheduler, "next_pair", "scheduler.next_pair")
        p(scheduler.ScriptedScheduler, "next_pair", "scheduler.replay_next_pair")
        p(harness, "write_trace", "scheduler.write_trace", self._on_write_trace)
        p(scheduler, "read_trace", "scheduler.read_trace")
        p(runner, "apply_formation_rule", "formation.apply_formation_rule", self._on_formation)
        p(runner, "is_formation_complete", "formation.is_formation_complete")
        p(runner, "apply_estimation_rules", "estimation.apply_estimation_rules")
        p(runner, "estimation_stabilized", "estimation.estimation_stabilized")
        p(runner.LiveEnergyDriver, "move", "energy.move", self._on_move)
        p(runner, "sample_beta", "energy.sample_beta")
        p(runner, "incident_distance", "metrics.incident_distance")
        p(runner, "distribution_distance", "metrics.distribution_distance")
        p(ConvergenceDetector, "observe", "metrics.observe")
        p(harness, "write_metrics_csv", "metrics.write_metrics_csv")
        p(EnergyState, "transfer", "core.transfer")
        p(TreeNetwork, "add_edge", "core.add_edge")
        p(harness, "build_population", "harness.build_population")
        p(harness, "run_single", "harness.run_single")
        p(harness, "run_experiment", "harness.run_experiment", self._on_run_experiment)
        p(cli, "run_experiment", "harness.run_experiment", self._on_run_experiment)
        self._patch_replay()

    def _patch_replay(self) -> None:
        # A replay's simulate span is named apart from the live one, and its
        # steps are kept out of the live step and idle counts.
        live = self.wrap(harness.simulate, "runner.simulate", self._on_simulate)
        replayed = self.wrap(harness.simulate, "runner.replay_simulate", self._on_simulate)
        traced_replay = self.wrap(harness.replay_trace, "harness.replay_trace")

        def simulate(*args, **kwargs):
            return (replayed if self._in_replay else live)(*args, **kwargs)

        def replay_trace(trace):
            self._in_replay += 1
            try:
                return traced_replay(trace)
            finally:
                self._in_replay -= 1

        self._saved.append((harness, "simulate", harness.simulate))
        self._saved.append((harness, "replay_trace", harness.replay_trace))
        harness.simulate = simulate
        harness.replay_trace = replay_trace

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks on results ---------------------------------------------------
    def _on_formation(self, tag, args, kwargs) -> None:
        c = self.counts
        if tag in CONNECTING_RULES:
            c["formation.connects"] += 1
        elif tag == UW:
            c["formation.uw"] += 1
        elif tag == NOOP:
            c["formation.noop"] += 1
        self._last_idle = tag == NOOP or tag == UW
        if self._last_idle and not self._in_replay:
            c["runner.idle_steps"] += 1

    def _on_move(self, result, args, kwargs) -> None:
        if result[0]:
            self.counts["energy.moves_active"] += 1
            if self._last_idle:
                self.counts["runner.idle_steps"] -= 1  # energy moved after all

    def _on_write_trace(self, result, args, kwargs) -> None:
        self.counts["scheduler.trace_bytes"] += os.path.getsize(args[1])

    def _on_run_experiment(self, summary, args, kwargs) -> None:
        out_dir = kwargs.get("out_dir")
        if out_dir is None:
            return
        for root, _dirs, files in os.walk(out_dir):
            for f in files:
                self.counts["harness.bytes_written"] += os.path.getsize(os.path.join(root, f))

    def _on_simulate(self, outcome, args, kwargs) -> None:
        if self._in_replay:
            self.counts["runner.replay_steps"] += outcome.total_steps
            return
        # Phase A (formation and estimation) ends at stabilization, or at the
        # formation budget when the estimates never settle within it.
        budget = kwargs["formation_budget"]
        if outcome.stabilized:
            phase_a = min(outcome.formation_steps + outcome.estimation_steps, budget)
        else:
            phase_a = min(budget, outcome.total_steps)
        self.counts["runner.steps_formation"] += phase_a
        self.counts["runner.steps_redistribution"] += outcome.total_steps - phase_a

    # -- report -------------------------------------------------------------
    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        st = self.stats
        c = self.counts

        def calls(name):
            return st[name][0]

        def self_s(name):
            return st[name][2]

        def total_s(name):
            return st[name][1]

        live_steps = c["runner.steps_formation"] + c["runner.steps_redistribution"]
        moves = calls("energy.move")
        return {
            "scheduler.pairs": (calls("scheduler.next_pair"), "count"),
            "scheduler.replay_pairs": (calls("scheduler.replay_next_pair"), "count"),
            "scheduler.self_s": (self_s("scheduler.next_pair"), "s"),
            "scheduler.replay_self_s": (self_s("scheduler.replay_next_pair"), "s"),
            "scheduler.trace_write_s": (total_s("scheduler.write_trace"), "s"),
            "scheduler.trace_read_s": (total_s("scheduler.read_trace"), "s"),
            "scheduler.trace_bytes": (c["scheduler.trace_bytes"], "bytes"),
            "formation.calls": (calls("formation.apply_formation_rule"), "count"),
            "formation.connects": (c["formation.connects"], "count"),
            "formation.uw": (c["formation.uw"], "count"),
            "formation.noop": (c["formation.noop"], "count"),
            "formation.self_s": (self_s("formation.apply_formation_rule"), "s"),
            "formation.complete_checks": (calls("formation.is_formation_complete"), "count"),
            "estimation.rule_calls": (calls("estimation.apply_estimation_rules"), "count"),
            "estimation.rule_self_s": (self_s("estimation.apply_estimation_rules"), "s"),
            "estimation.oracle_calls": (calls("estimation.estimation_stabilized"), "count"),
            "estimation.oracle_self_s": (self_s("estimation.estimation_stabilized"), "s"),
            "energy.move_calls": (moves, "count"),
            "energy.moves_active": (c["energy.moves_active"], "count"),
            "energy.active_ratio": (c["energy.moves_active"] / moves if moves else 0.0, "ratio"),
            "energy.move_self_s": (self_s("energy.move"), "s"),
            "energy.beta_draws": (calls("energy.sample_beta"), "count"),
            "metrics.incident_calls": (calls("metrics.incident_distance"), "count"),
            "metrics.incident_self_s": (self_s("metrics.incident_distance"), "s"),
            "metrics.dd_full_calls": (calls("metrics.distribution_distance"), "count"),
            "metrics.dd_full_self_s": (self_s("metrics.distribution_distance"), "s"),
            "metrics.observe_calls": (calls("metrics.observe"), "count"),
            "metrics.observe_self_s": (self_s("metrics.observe"), "s"),
            "metrics.csv_write_s": (total_s("metrics.write_metrics_csv"), "s"),
            "core.transfer_calls": (calls("core.transfer"), "count"),
            "core.transfer_self_s": (self_s("core.transfer"), "s"),
            "core.add_edge_calls": (calls("core.add_edge"), "count"),
            "runner.steps_formation": (c["runner.steps_formation"], "count"),
            "runner.steps_redistribution": (c["runner.steps_redistribution"], "count"),
            "runner.replay_steps": (c["runner.replay_steps"], "count"),
            "runner.idle_steps": (c["runner.idle_steps"], "count"),
            "runner.idle_ratio": (c["runner.idle_steps"] / live_steps if live_steps else 0.0, "ratio"),
            "runner.simulate_self_s": (self_s("runner.simulate"), "s"),
            "runner.replay_simulate_self_s": (self_s("runner.replay_simulate"), "s"),
            "harness.build_population_s": (total_s("harness.build_population"), "s"),
            "harness.write_s": (self_s("harness.run_experiment"), "s"),
            "harness.bytes_written": (c["harness.bytes_written"], "bytes"),
            "harness.replay_self_s": (self_s("harness.replay_trace"), "s"),
        }
