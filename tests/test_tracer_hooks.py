"""Guard for the benchmark tracer's patch points.

``bench/tracer.py`` wraps functions and methods of the package where the
engine calls them: ``RandomScheduler.next_pair``,
``ScriptedScheduler.next_pair``, ``LiveEnergyDriver.move``,
``runner.sample_beta`` and the other ``runner``, ``harness``, ``cli`` and
``scheduler`` globals. A name that is renamed, or moved so that the engine
no longer calls it there, breaks the benchmark's traced pass. This test runs
a small traced experiment through the CLI and replays its traces under the
tracer, checks that every wrapper was called, and that leaving the tracer
restores the originals.
"""

import importlib.util
import json
from pathlib import Path

from enertree import cli, harness, scheduler

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("enertree_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_patch_point_and_restores_it(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        n=6, protocol="kary:2", energy_protocol="rand", loss="normal:0.2,0.05",
        repetitions=2, emit_traces=True, emit_metrics=True,
    )))
    out = tmp_path / "out"
    tracer = _load_tracer().Tracer()
    with tracer:
        patched = list(tracer._saved)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        argv = ["experiment", "--config", str(config), "--out", str(out), "--quiet"]
        assert cli.main(argv) == 0
        for i in range(2):
            trace = scheduler.read_trace(out / f"run_{i}" / "trace.txt")
            assert harness.replay_trace(trace).digest == trace.final_digest
        layers = tracer.layer_metrics()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    # the stabilization oracle runs only for a run that starts on a formed tree
    idle = {name for name, (calls, _, _) in tracer.stats.items() if not calls}
    assert idle == {"estimation.estimation_stabilized"}
    assert layers["energy.move_calls"][0] > 0
    assert layers["energy.beta_draws"][0] > 0
    assert layers["scheduler.replay_pairs"][0] > 0
    assert layers["runner.replay_steps"][0] > 0
