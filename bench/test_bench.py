"""Self-test of the benchmark's tracer: counts repeat exactly and balance.

    python3 -m pytest -q bench/test_bench.py

Each workload is run traced twice, one pass each, as separate processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("edge_lambda_n30", "targeted_lossy_n30", "trace_replay_n30")


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    *_, info, result = out.stdout.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0, out.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    return json.loads(info)["info"], metrics, units


@pytest.fixture(scope="module", params=WORKLOADS)
def two_runs(request):
    return traced_run(request.param), traced_run(request.param)


def test_counts_repeat_exactly(two_runs):
    (_, first, units), (_, second, _) = two_runs
    counts = [k for k, unit in units.items() if unit in ("count", "bytes", "ratio")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_counts_balance(two_runs):
    (info, m, _), _ = two_runs
    live = m["runner.steps_formation"] + m["runner.steps_redistribution"]
    assert m["scheduler.pairs"] == live == info["live_steps"] > 0
    assert m["scheduler.replay_pairs"] == m["runner.replay_steps"] == info["replay_steps"]
    # every workload runs two-phase: one energy move per redistribution step
    assert m["energy.move_calls"] == m["runner.steps_redistribution"]
    assert m["formation.calls"] == m["estimation.rule_calls"] == live + m["runner.replay_steps"]
    assert m["formation.connects"] == m["core.add_edge_calls"]
    assert 1.0 < m["tracing_overhead"]
