import csv
import json
import math
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enertree import harness
from enertree.cli import main as cli_main
from enertree.energy import parse_energy_protocol
from enertree.errors import ConfigError, DomainError, ReplayMismatch
from enertree.formation import load_snapshot
from enertree.harness import (
    MAX_N,
    ExperimentConfig,
    replay_trace,
    run_experiment,
    run_single,
    split_initial_energy,
)
from enertree.metrics import distribution_distance
from enertree.runner import default_budget, default_window, simulate
from enertree.scheduler import RandomScheduler, make_rng, read_trace, write_trace

from conftest import DEMO_EDGES, DEMO_ENERGIES, build_tree, samples


# ------------------------------------------------------------- configuration
def test_config_defaults():
    config = ExperimentConfig(n=10)
    assert config.resolved_total() == 10_000.0
    assert default_budget(10) == 500 * 45
    assert default_window(10) == 10 * 45


def test_defaults_left_out_run_as_defaults_written_out():
    # A budget, window, cadence or total left out resolves to the values a
    # config can write out.
    implicit = ExperimentConfig(n=12, repetitions=1, loss="normal:0.2,0.05")
    explicit = ExperimentConfig(
        n=12, repetitions=1, loss="normal:0.2,0.05", total_energy=12e3,
        step_budget=default_budget(12), quiescence_window=default_window(12), metric_cadence=12,
    )
    a, b = run_single(implicit, 0), run_single(explicit, 0)
    assert a.row() == b.row()
    assert a.outcome.digest == b.outcome.digest


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(initial_energy="weird")
    with pytest.raises(ConfigError):
        ExperimentConfig(energy_protocol="lambda:0.5")
    with pytest.raises(ConfigError, match="target_energy_basis=initial"):
        ExperimentConfig(phase_mode="concurrent")  # default post_formation basis
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n": 5, "bogus": 1})


@pytest.mark.parametrize("field", ["step_budget", "quiescence_window", "metric_cadence"])
@pytest.mark.parametrize("value", [0, -5, 2.5, True])
def test_config_rejects_bad_loop_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("setting", [
    {"metric_cadence": 0}, {"step_budget": -5},
    # malformed or non-finite spec parameters
    {"energy_protocol": "lambda:abc"}, {"energy_protocol": "rand:3"}, {"loss": "normal:0.2"},
    {"protocol": "kary:x"}, {"energy_protocol": "kdepth:2.5"},
    {"energy_protocol": "lambda:nan"}, {"energy_protocol": "lambda:inf"}, {"loss": 5},
    {"energy_protocol": "kdepth:" + "9" * 400},
    # a spec that is not a string, even one whose text is a spec ("0" is lossless)
    {"loss": None}, {"loss": 0},
])
def test_cli_experiment_rejects_bad_loop_settings(tmp_path, capsys, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "repetitions": 1, **setting}))
    assert cli_main(["experiment", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("setting", [
    {"n": 10.5}, {"n": True}, {"n": None}, {"repetitions": 1.5}, {"master_seed": 1.5},
    {"total_energy": math.nan}, {"total_energy": math.inf}, {"total_energy": True},
    {"total_energy": 1e308},
    {"emit_traces": "no"}, {"emit_traces": None}, {"emit_metrics": 1}, {"emit_metrics": "true"},
])
def test_cli_experiment_rejects_bad_numbers(tmp_path, capsys, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "repetitions": 1, **setting}))
    assert cli_main(["experiment", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(setting)) in err


@pytest.mark.parametrize("spec", ["lambda:1e17", "rand:2,1e17"])
def test_cli_experiment_rejects_an_exchange_ratio_past_the_bound(tmp_path, capsys, spec):
    # Past 2^50, lam + 1.0 rounds towards lam and an exchange can take more
    # than the child holds: with lambda:1e17 this config once ended run 4
    # with a node at -2.2737367544323206e-13 and exited 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "protocol": "kary:2", "energy_protocol": spec,
                               "initial_energy": "random", "repetitions": 5, "master_seed": 1}))
    out = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^50" in err
    assert not out.exists()


def test_cli_experiment_rejects_a_metric_cadence_past_2_to_the_53(tmp_path, capsys):
    # dd_drift turns the cadence into a float: this one once ended in an
    # OverflowError traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 5, "repetitions": 1, "metric_cadence": 1' + "0" * 400 + "}")
    assert cli_main(["experiment", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: metric_cadence") and err.count("\n") == 1
    with pytest.raises(ConfigError, match="2\\^53"):
        ExperimentConfig(metric_cadence=2**53 + 1)
    ExperimentConfig(n=5, metric_cadence=2**53)
    pop = build_tree(6, DEMO_EDGES, DEMO_ENERGIES)
    with pytest.raises(DomainError, match="2\\^53"):
        simulate(pop, formation=None, scheduler=RandomScheduler(make_rng(0), pop.n),
                 energy_protocol=parse_energy_protocol("lambda:2"), metric_cadence=2**53 + 1)


OVERFLOW = {"n": 4, "protocol": "kary:2", "total_energy": 1e300, "step_budget": 20000,
            "repetitions": 1}


@pytest.mark.parametrize("spec", ["lambda:1125899906842624", "rand:2,1125899906842624",
                                  "lambda:1e8"])
def test_cli_experiment_rejects_a_ratio_whose_product_with_the_total_overflows(
        tmp_path, capsys, spec):
    # At 1e300, ratio * E_c is infinite, the edge test is false and the edge
    # never fires: lambda:2^50 once ended unconverged at tau 20,000.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**OVERFLOW, "energy_protocol": spec}))
    assert cli_main(["experiment", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exchange ratio") and err.count("\n") == 1


def test_a_ratio_is_bounded_by_its_product_with_the_total():
    # 4 * ratio * total must be finite; kappa and the targeted protocols
    # take any total.
    limit = sys.float_info.max / 4
    ExperimentConfig(**{**OVERFLOW, "energy_protocol": "lambda:2", "total_energy": 1e300})
    ExperimentConfig(**{**OVERFLOW, "energy_protocol": "lambda:1e7"})
    ExperimentConfig(**{**OVERFLOW, "energy_protocol": "lambda:1125899906842624",
                        "total_energy": limit / 2.0**50})
    with pytest.raises(ConfigError, match="exchange ratio"):
        ExperimentConfig(**{**OVERFLOW, "energy_protocol": "lambda:1125899906842624",
                            "total_energy": limit / 2.0**49})
    for spec in ["kappa:0.5", "ideal", "kdepth:2", "rand"]:
        ExperimentConfig(**{**OVERFLOW, "energy_protocol": spec})


def test_cli_redistribute_rejects_a_ratio_whose_product_with_the_snapshot_total_overflows(
        tmp_path, capsys):
    snap = tmp_path / "snap.txt"
    assert cli_main(["form", "--n", "4", "--protocol", "kary:2", "--total-energy", "1e300",
                     "--out", str(snap), "--quiet"]) == 0
    argv = ["redistribute", "--snapshot", str(snap), "--budget", "20000", "--quiet",
            "--energy-protocol"]
    assert cli_main(argv + ["lambda:1125899906842624"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exchange ratio") and err.count("\n") == 1
    assert cli_main(argv + ["lambda:2"]) == 0


def _set(rows, i, column, value):
    """The snapshot rows with one field replaced."""
    rows = [list(row) for row in rows]
    rows[i][column] = value
    return rows


@pytest.mark.parametrize("edit, message", [
    (lambda rows: _set(rows, 0, 6, "nan"), "finite"),
    (lambda rows: _set(rows, 0, 0, "1"), "duplicate snapshot id 1"),
    (lambda rows: _set(rows, 0, 2, "0"), "self edge"),
    # node 0's parent becomes one of its children
    (lambda rows: _set(rows, 0, 2, next(r[0] for r in rows if r[2] == "0")), "cycle"),
    (lambda rows: _set(rows, 0, 6, "abc"), "malformed snapshot line"),
    (lambda rows: _set(rows, 0, 2, "x"), "malformed snapshot line"),
    (lambda rows: _set(rows, 0, 4, "-1"), "must lie in [0, 6)"),
    (lambda rows: _set(rows, 0, 6, "1.7e308"), "<= 1e300"),
    (lambda rows: _set(rows, next(i for i, r in enumerate(rows) if r[1] == "L"), 1, "R1"),
     "has state R1 but its edges make it L"),
])
def test_cli_redistribute_rejects_bad_snapshot(tmp_path, capsys, edit, message):
    snap = tmp_path / "snap.txt"
    assert cli_main(["form", "--n", "6", "--out", str(snap), "--quiet"]) == 0
    rows = [line.split() for line in snap.read_text().splitlines() if not line.startswith("#")]
    rows = edit(rows)
    snap.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    rc = cli_main(["redistribute", "--snapshot", str(snap), "--energy-protocol", "lambda:2",
                   "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["redistribute --energy-protocol lambda:2 --snapshot",
                                     "experiment --config"])
def test_cli_rejects_undecodable_file(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe0 S -1 0 0 0 1.0\n")
    assert cli_main(command.split() + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    pytest.param("[" * 100_000, "cannot read config", id="nested"),  # a RecursionError
    pytest.param("[1, 2]", "must hold a JSON object", id="array"),
])
def test_cli_experiment_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli_main(["experiment", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_cli_rejects_an_integer_past_the_digit_limit(tmp_path, capsys, command):
    # json.loads raises ValueError for an integer literal past CPython's
    # 4,300-digit limit for str-to-int conversion
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"master_seed": ' + "9" * 5000 + "}")
    extra = ["--grid", "n=4", "--out", str(tmp_path / "sweep")] if command == "sweep" else []
    assert cli_main([command, "--config", str(cfg), *extra, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_config_json_roundtrip(tmp_path):
    config = ExperimentConfig(n=5, protocol="kary:3", energy_protocol="kappa:0.4")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_json(path) == config


# ------------------------------------------------------------ initial energy
def test_uniform_split_exact_shares():
    config = ExperimentConfig(n=8, initial_energy="uniform")
    energies = split_initial_energy(config, make_rng(0))
    assert energies == [1000.0] * 8


def test_random_split_sums_exactly_to_total():
    config = ExperimentConfig(n=13, initial_energy="random", total_energy=977.0)
    for seed in range(20):
        energies = split_initial_energy(config, make_rng(seed))
        assert math.fsum(energies) == 977.0
        assert all(e >= 0 for e in energies)
        assert len(set(energies)) > 1


# ------------------------------------------------------------------- running
def test_two_node_exchange_hits_the_unique_fixed_point():
    config = ExperimentConfig(
        n=2, protocol="arbitrary", energy_protocol="lambda:2", master_seed=1
    )
    result = run_single(config, 0)
    assert result.converged
    assert result.tau == 1
    assert sorted(result.outcome.pop.energy.per_node) == pytest.approx(
        [2000.0 / 3.0, 4000.0 / 3.0]
    )
    assert result.ed <= 1e-6 * 2000.0


def test_run_single_deterministic():
    config = ExperimentConfig(n=10, energy_protocol="rand", loss="normal:0.2,0.05")
    a = run_single(config, 3, record_trace=True)
    b = run_single(config, 3, record_trace=True)
    assert a.row() == b.row()
    assert a.outcome.trace.lines() == b.outcome.trace.lines()


def test_distinct_runs_differ():
    config = ExperimentConfig(n=10, energy_protocol="lambda:2")
    a = run_single(config, 0)
    b = run_single(config, 1)
    assert a.seed != b.seed
    assert a.tau != b.tau or a.outcome.pop.energy.per_node != b.outcome.pop.energy.per_node


def test_concurrent_mode_runs_and_conserves():
    config = ExperimentConfig(
        n=8,
        energy_protocol="kdepth:2",
        phase_mode="concurrent",
        target_energy_basis="initial",
        master_seed=5,
    )
    result = run_single(config, 0, validate=True)
    assert result.outcome.completed
    assert result.outcome.pop.energy.conservation_ok()


def test_concurrent_mode_exchange_waits_for_completion():
    # distance-based convergence only counts once the tree is complete
    config = ExperimentConfig(
        n=8,
        energy_protocol="lambda:2",
        phase_mode="concurrent",
        target_energy_basis="initial",
        master_seed=6,
    )
    result = run_single(config, 0, validate=True)
    out = result.outcome
    assert out.completed
    assert result.converged
    assert result.tau >= out.formation_steps
    total = out.pop.energy.total()
    assert distribution_distance(out.pop.network, out.pop.energy.per_node) <= 1e-9 * total


@pytest.mark.parametrize("protocol", ["arbitrary", "kary:2"])
@pytest.mark.parametrize("energy", ["ideal", "lambda:2", "rand", "kappa:0.5", "kdepth:2"])
def test_the_target_basis_changes_no_run(tmp_path, protocol, energy):
    # No energy moves before the protocol joins, so both bases start from
    # the initial total: every output but the config echo is the same.
    for loss in ("lossless", "normal:0.2,0.05"):
        for initial in ("uniform", "random"):
            outputs = []
            for basis in ("initial", "post_formation"):
                config = ExperimentConfig(
                    n=12, protocol=protocol, energy_protocol=energy, loss=loss,
                    initial_energy=initial, repetitions=2, master_seed=3,
                    target_energy_basis=basis, emit_traces=True, emit_metrics=True,
                )
                out = tmp_path / f"{protocol}-{energy}-{loss}-{initial}-{basis}"
                summary = run_experiment(config, out)
                traces = []
                for i in range(2):
                    lines = (out / f"run_{i}" / "trace.txt").read_text().splitlines()
                    config_line = json.loads(lines.pop(2).removeprefix("# config="))
                    assert config_line == config.to_dict()
                    traces.append(lines)
                outputs.append((
                    (out / "runs.csv").read_bytes(),
                    [(out / f"run_{i}" / "metrics.csv").read_bytes() for i in range(2)],
                    [(r.outcome.digest, repr(r.outcome.metric_runs)) for r in summary.results],
                    traces,
                ))
            assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- experiment
def test_experiment_aggregate_matches_rows(tmp_path):
    config = ExperimentConfig(
        n=6, energy_protocol="lambda:2", repetitions=5, master_seed=11
    )
    summary = run_experiment(config, out_dir=tmp_path)
    with open(tmp_path / "runs.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    assert len(rows) == 5
    stored = json.loads((tmp_path / "summary.json").read_text())
    for name in ("tau", "ed_percent", "loss_percent", "formation_steps"):
        values = [r[name] for r in rows]
        assert stored["aggregate"][name]["mean"] == pytest.approx(
            statistics.fmean(values), rel=1e-9
        )
        assert stored["aggregate"][name]["stddev"] == pytest.approx(
            statistics.pstdev(values), rel=1e-9
        )
    assert stored["aggregate"]["converged_count"] == sum(r["converged"] for r in rows)


def _stddev(values) -> float:
    """The population stddev that ``aggregate_rows`` writes for a column."""
    rows = [dict.fromkeys(harness.AGGREGATE_FIELDS, x) | {"converged": 1} for x in values]
    return harness.aggregate_rows(rows)["tau"]["stddev"]


def test_population_stddev_hand_checked():
    assert _stddev([5.0]) == 0.0
    assert _stddev([2, 4, 4, 4, 5, 5, 7, 9]) == 2.0
    assert _stddev([1, 2, 3, 4]) == math.sqrt(1.25)  # 1.25 is exact
    # The variance is 494/9, and 7.408703590297623 is the correctly rounded
    # sqrt(494)/3 (CPython 3.10's pstdev gave one ulp below it).
    assert _stddev([28, 10, 21]) == 7.408703590297623


NUMBERS = st.one_of(
    st.integers(0, 10**7),
    st.floats(0.0, 1e6),
    st.floats(1e-300, 1e300, allow_subnormal=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(NUMBERS, min_size=1, max_size=12))
def test_population_stddev_is_correctly_rounded(values):
    r = _stddev(values)
    xs = [Fraction(x) for x in values]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    half_ulp = Fraction(math.ulp(r)) / 2
    assert max(Fraction(r) - half_ulp, 0) ** 2 <= var <= (Fraction(r) + half_ulp) ** 2


def test_experiment_single_repetition_equals_row():
    config = ExperimentConfig(n=5, energy_protocol="kappa:0.5", repetitions=1)
    summary = run_experiment(config)
    row = summary.results[0].row()
    assert summary.aggregate["tau"]["mean"] == row["tau"]
    assert summary.aggregate["tau"]["stddev"] == 0.0


def test_experiment_emits_artifacts(tmp_path):
    config = ExperimentConfig(
        n=5,
        energy_protocol="lambda:2",
        repetitions=2,
        emit_metrics=True,
        emit_traces=True,
        master_seed=2,
    )
    run_experiment(config, out_dir=tmp_path)
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "summary.json").exists()
    for i in range(2):
        assert (tmp_path / f"run_{i}" / "metrics.csv").exists()
        assert (tmp_path / f"run_{i}" / "trace.txt").exists()
    header = (tmp_path / "run_0" / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,dd,total_energy,lost"


def test_experiment_drops_each_trace_once_written(tmp_path):
    # A run's records live on in its trace.txt only, which still replays to
    # the run's digest; without an output directory the traces are kept.
    config = ExperimentConfig(
        n=6,
        protocol="arbitrary",
        energy_protocol="rand",
        loss="normal:0.2,0.05",
        repetitions=3,
        emit_traces=True,
        master_seed=4,
    )
    summary = run_experiment(config, out_dir=tmp_path)
    for i, result in enumerate(summary.results):
        assert result.outcome.trace is None
        trace = read_trace(tmp_path / f"run_{i}" / "trace.txt")
        assert replay_trace(trace).digest == trace.final_digest == result.outcome.digest
    assert all(r.outcome.trace is not None for r in run_experiment(config).results)


# -------------------------------------------------------------------- replay
def test_replay_reproduces_digest():
    config = ExperimentConfig(
        n=8, energy_protocol="rand", loss="normal:0.2,0.05", master_seed=21
    )
    result = run_single(config, 0, record_trace=True)
    trace = result.outcome.trace
    outcome = replay_trace(trace)
    assert outcome.digest == trace.final_digest


def test_replay_detects_tampering(tmp_path):
    config = ExperimentConfig(n=6, energy_protocol="lambda:2", master_seed=8)
    result = run_single(config, 0, record_trace=True)
    trace = result.outcome.trace
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    text = path.read_text()
    # flip one recorded transfer amount
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 6 and parts[4] not in ("-", "0.0"):
            parts[4] = repr(float(parts[4]) * 1.5)
            lines[i] = " ".join(parts)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayMismatch):
        replay_trace(read_trace(path))


# ------------------------------------------------------------------------ CLI
@pytest.mark.parametrize("protocol", ["lambda:2", "rand", "kappa:0.5", "ideal", "kdepth:2"])
def test_cli_redistribute_on_a_line_past_the_float_range(tmp_path, protocol):
    # 1,100 nodes: 2^1099 (the top ideal share over the leaf's, and k^d of
    # the deepest depth target at k = 2) is past the largest float
    snap = tmp_path / "line.txt"
    snap.write_text("".join(f"{i} {'R1' if i == 0 else 'I1' if i < 1099 else 'L'} {i - 1} "
                            f"{i} 0 0 1000.0\n" for i in range(1100)))
    out = tmp_path / "red"
    assert cli_main(["redistribute", "--snapshot", str(snap), "--energy-protocol", protocol,
                     "--budget", "3000", "--out", str(out), "--quiet"]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[-1][0] == "3000"
    assert all(math.isfinite(float(x)) and float(x) >= 0.0 for row in rows for x in row[1:])


def test_cli_experiment_with_a_depth_target_past_the_float_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "energy_protocol": "kdepth:1" + "0" * 160,
                               "repetitions": 1}))
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    with open(tmp_path / "out" / "runs.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["converged"] == "1"
    assert all(math.isfinite(float(row[k])) and float(row[k]) >= 0.0
               for k in ("tau", "ed", "ed_percent", "loss_percent"))


def test_cli_form_and_redistribute(tmp_path, capsys):
    snap = tmp_path / "snapshot.txt"
    rc = cli_main(
        ["form", "--n", "10", "--protocol", "kary:2", "--seed", "7",
         "--out", str(snap), "--quiet"]
    )
    assert rc == 0
    pop = load_snapshot(snap.read_text().splitlines())
    pop.network.validate()
    assert pop.network.edge_count == 9
    out = tmp_path / "red"
    rc = cli_main(
        ["redistribute", "--snapshot", str(snap), "--energy-protocol", "lambda:2",
         "--seed", "3", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    assert (out / "metrics.csv").exists()
    final = load_snapshot((out / "final_snapshot.txt").read_text().splitlines())
    # converged means the distribution distance fell below 1e-9 of the total
    total = final.energy.total()
    assert distribution_distance(final.network, final.energy.per_node) <= 1e-9 * total


def test_cli_experiment_deterministic_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "energy_protocol": "lambda:2", "repetitions": 3}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["experiment", "--config", str(cfg), "--seed", "42",
                     "--out", str(out1), "--quiet"]) == 0
    assert cli_main(["experiment", "--config", str(cfg), "--seed", "42",
                     "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


def test_cli_replay_exit_codes(tmp_path):
    cfg = ExperimentConfig(n=6, energy_protocol="kappa:0.5", master_seed=4)
    result = run_single(cfg, 0, record_trace=True)
    path = tmp_path / "trace.txt"
    write_trace(result.outcome.trace, path)
    assert cli_main(["replay", "--trace", str(path), "--quiet"]) == 0
    text = path.read_text().splitlines()
    for i, line in enumerate(text):
        parts = line.split()
        if len(parts) == 6 and parts[4] != "-":
            parts[4] = repr(float(parts[4]) + 1.0)
            text[i] = " ".join(parts)
            break
    path.write_text("\n".join(text) + "\n")
    assert cli_main(["replay", "--trace", str(path), "--quiet"]) == 2


@pytest.mark.parametrize("protocol", ["kary:2", "arbitrary"])
@pytest.mark.parametrize("cut", ["skipped", "last"])
def test_cli_replay_of_a_truncated_trace_exits_2(tmp_path, capsys, protocol, cut):
    # A replay skips idle steps, but a skip that needs a pair beyond the end
    # of the script still fails the replay, as the step-by-step path does.
    cfg = ExperimentConfig(n=10, protocol=protocol, energy_protocol="ideal",
                           loss="normal:0.2,0.05", master_seed=4)
    path = tmp_path / "trace.txt"
    write_trace(run_single(cfg, 0, record_trace=True).outcome.trace, path)
    lines = path.read_text().splitlines()
    if cut == "last":
        keep = len(lines) - 1
    else:  # halfway through the quiet tail after the last recorded move
        last_move = max(
            i for i, line in enumerate(lines) if line[0] != "#" and line.split()[4] != "-"
        )
        keep = (last_move + len(lines)) // 2
        assert lines[keep].split()[3:] in (["NOOP", "-", "-"], ["UW", "-", "-"])
    path.write_text("\n".join(lines[:keep]) + "\n")
    assert cli_main(["replay", "--trace", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("replay mismatch: ") and err.count("\n") == 1


def _record(lines, field, value, moved=False):
    """lines with one field of the first record (that moved energy) set."""
    i = next(i for i, line in enumerate(lines)
             if not line.startswith("#") and (not moved or line.split()[4] != "-"))
    parts = lines[i].split()
    parts[field] = value if not callable(value) else value(parts)
    return lines[:i] + [" ".join(parts)] + lines[i + 1:]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:4] + [lines[4] + " \u00e9"] + lines[5:], "cannot read trace"),
    (lambda lines: [lines[0], "# seed=abc"] + lines[2:], "malformed trace header"),
    (lambda lines: lines[:2] + ["# config={bad"] + lines[3:], "malformed trace header"),
    (lambda lines: lines[:2] + ["# config=[6]"] + lines[3:], "integer n"),
    (lambda lines: lines[:2] + ["# config=" + "[" * 100_000] + lines[3:],
     "malformed trace header"),  # json.loads raises RecursionError
    (lambda lines: lines[:1] + lines[2:], "missing seed or config"),
    (lambda lines: lines[:4] + ["# seed=1"] + lines[4:], "unexpected trace header line"),
    (lambda lines: lines[:5] + ["# digest=-"] + lines[5:], "line: '# digest=-'"),  # after a record
    (lambda lines: _record(lines, 4, "x", moved=True), "malformed trace record"),
    (lambda lines: _record(lines, 4, "inf", moved=True), "malformed trace record"),
    (lambda lines: _record(lines, 5, "1.5", moved=True), "malformed trace record"),
    (lambda lines: _record(lines, 3, "BOGUS"), "malformed trace record"),
    (lambda lines: _record(lines, 1, "6"), "invalid pair"),
    (lambda lines: _record(lines, 2, lambda parts: parts[1]), "invalid pair"),
    (lambda lines: lines[:5] + lines[6:], "consecutive"),
])
def test_cli_replay_rejects_malformed_trace(tmp_path, capsys, edit, message):
    cfg = ExperimentConfig(n=6, energy_protocol="ideal", loss="normal:0.2,0.05", master_seed=4)
    path = tmp_path / "trace.txt"
    write_trace(run_single(cfg, 0, record_trace=True).outcome.trace, path)
    lines = edit(path.read_text().splitlines())
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert cli_main(["replay", "--trace", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("n", [MAX_N + 1, 10**10])
@pytest.mark.parametrize("command", ["experiment", "form", "sweep", "replay"])
def test_cli_rejects_a_huge_n_before_building_anything(tmp_path, capsys, monkeypatch, n,
                                                       command):
    def built(*args):
        raise AssertionError("a population was built")

    cfg = ExperimentConfig(n=6, energy_protocol="ideal", master_seed=4)
    trace = tmp_path / "trace.txt"
    write_trace(run_single(cfg, 0, record_trace=True).outcome.trace, trace)
    lines = trace.read_text().splitlines()
    lines[2] = "# config=" + json.dumps({**cfg.to_dict(), "n": n})
    trace.write_text("\n".join(lines) + "\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 5, "repetitions": 1}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": n, "repetitions": 1}))
    argv = {
        "experiment": ["--config", str(huge)],
        "form": ["--n", str(n)],
        "sweep": ["--config", str(config), "--grid", f"n={n}", "--out", str(tmp_path / "out")],
        "replay": ["--trace", str(trace)],
    }[command]
    monkeypatch.setattr(harness, "split_initial_energy", built)
    monkeypatch.setattr(harness, "build_population", built)
    assert cli_main([command, *argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: n must be at most {MAX_N} (got {n})\n"


def test_config_accepts_the_largest_n():
    assert ExperimentConfig(n=MAX_N).n == MAX_N  # built, never run


def test_cli_rejects_unknown_flags(capsys):
    assert cli_main(["experiment", "--nope"]) == 1
    assert cli_main(["form", "--n", "not-a-number"]) == 1


def test_cli_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "repetitions": 2, "energy_protocol": "lambda:2"}))
    out = tmp_path / "sweep"
    rc = cli_main([
        "sweep", "--config", str(cfg), "--grid", "energy_protocol=lambda:2,kappa:0.5",
        "--out", str(out), "--quiet",
    ])
    assert rc == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert len(dirs) == 2
    for d in dirs:
        assert (out / d / "summary.json").exists()


@pytest.mark.parametrize("grid", ["n=5,10000000000", "energy_protocol=lambda:2,lambda:1e17"])
def test_cli_sweep_validates_every_combination_before_it_runs_one(tmp_path, capsys, grid):
    # The bad value is in the last combination: nothing may be written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "repetitions": 1}))
    out = tmp_path / "swp"
    assert cli_main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, experiments", [
    (["experiment", "--out", "{out}"], 1),
    (["experiment"], 1),  # the summary goes to stdout
    (["sweep", "--grid", 'loss=["lossless", "normal:0.2,0.05"]', "--out", "{out}"], 2),
])
def test_cli_progress_leaves_stdout_and_artifacts_byte_identical(tmp_path, capsys, argv, experiments):
    # --progress writes one line per run to stderr and nothing else: stdout
    # and every file written are the bytes of the same command without it.
    # A sweep counts the runs of each combination's experiment on its own.
    runs = 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "repetitions": 3, "energy_protocol": "lambda:2",
                               "emit_traces": True, "emit_metrics": True}))
    seen = []
    for flag in ([], ["--progress"]):
        out = tmp_path / f"out{len(seen)}"
        args = [a.replace("{out}", str(out)) for a in argv] + ["--config", str(cfg)] + flag
        assert cli_main(args) == 0
        captured = capsys.readouterr()
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else {}
        seen.append((captured.out, files))
        lines = captured.err.splitlines()
        assert len(lines) == (experiments * runs if flag else 0)
        assert all(line.startswith(f"progress: {i % runs + 1}/{runs} runs, ")
                   and " runs/s, ETA " in line for i, line in enumerate(lines))
    assert seen[0] == seen[1]
    assert seen[0][1] or "--out" not in argv


def test_cli_sweep_takes_a_json_array_of_values_with_commas(tmp_path):
    # each sweep directory holds the runs.csv of an experiment on its config
    base = {"n": 6, "repetitions": 2, "energy_protocol": "ideal"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base))
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--config", str(cfg), "--grid", 'loss=["lossless", "normal:0.2,0.05"]',
                   "--out", str(out), "--quiet"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["loss=lossless", "loss=normal-0.2,0.05"]
    for loss in ("lossless", "normal:0.2,0.05"):
        one = tmp_path / f"{loss}.json"
        one.write_text(json.dumps({**base, "loss": loss}))
        assert cli_main(["experiment", "--config", str(one), "--out", str(tmp_path / loss),
                         "--quiet"]) == 0
        expected = (tmp_path / loss / "runs.csv").read_bytes()
        assert (out / f"loss={loss.replace(':', '-')}" / "runs.csv").read_bytes() == expected


@pytest.mark.parametrize("grids, message", [
    (["n=2", "n=3"], "grid field 'n' given twice"),
    (["n=2", " n =3"], "grid field 'n' given twice"),
    (["n=[]"], "grid field 'n' has no values"),
    (["n=" + "[" * 100_000], "n must be an integer"),  # json.loads raises RecursionError
    ([], "sweep needs at least one --grid"),
])
def test_cli_sweep_rejects_a_bad_grid_with_one_error_line(tmp_path, capsys, grids, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "repetitions": 1}))
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), "--quiet"]
    for grid in grids:
        argv += ["--grid", grid]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "sweep").exists()


def test_no_metric_samples_with_recording_off():
    # the redistribution's first stop samples step 0 only when it records
    config = ExperimentConfig(n=6, energy_protocol="lambda:2", loss="normal:0.2,0.05")
    live = run_single(config, 0, record_trace=True)
    assert samples(live.outcome) == []
    assert samples(replay_trace(live.outcome.trace)) == []
    recorded = run_single(config, 0, record_metrics=True)
    assert samples(recorded.outcome)[0][0] == 0


@pytest.mark.contract
def test_dd_zero_verdict_after_a_cadence_resync_matches_step_path(monkeypatch):
    # Every move overstates the running dd by 1.0, so dd falls within
    # tolerance only at the full recomputation of a cadence step; the skip
    # must then stop at the next step, where the step path declares it.
    from enertree import runner
    from enertree.energy import LambdaExchange
    from enertree.scheduler import RandomScheduler

    exact = runner.incident_distance
    calls = [0]

    def drifting(net, energy, u, v):
        calls[0] += 1
        return exact(net, energy, u, v) + calls[0]

    monkeypatch.setattr(runner, "incident_distance", drifting)
    outcomes = []
    for validate in (False, True):
        calls[0] = 0
        pop = build_tree(6, DEMO_EDGES, list(DEMO_ENERGIES))
        outcomes.append(simulate(pop, formation=None, scheduler=RandomScheduler(make_rng(0), 6),
                                 energy_protocol=LambdaExchange(2.0), metric_cadence=7,
                                 validate=validate))
    skipping, step = outcomes
    assert skipping.skipped_steps > 0
    assert step.report.converged and step.report.tau < default_budget(6)
    assert skipping.report == step.report
    assert skipping.total_steps == step.total_steps
    assert samples(skipping) == samples(step)


def test_budget_exhaustion_reports_unconverged_row():
    # a starved step budget is a clean unconverged outcome, not an error;
    # with the budget shared by both phases the formation cannot finish
    config = ExperimentConfig(
        n=10, energy_protocol="lambda:2", master_seed=3, step_budget=5,
    )
    result = run_single(config, 0)
    assert not result.converged
    assert result.tau == 5
    assert not result.outcome.completed
    assert math.isnan(result.ed)  # no ideal baseline without a tree


def test_energy_budget_exhaustion_on_formed_tree():
    # redistribution horizon reached: converged = false, tau = horizon,
    # metrics still well defined
    from enertree.energy import LambdaExchange

    pop = build_tree(6, DEMO_EDGES, [1000.0] * 6)
    from enertree.scheduler import RandomScheduler

    outcome = simulate(
        pop,
        formation=None,
        scheduler=RandomScheduler(make_rng(4), 6),
        energy_protocol=LambdaExchange(2.0),
        energy_budget=3,
        window=10,
    )
    assert not outcome.report.converged
    assert outcome.report.tau == 3
    assert outcome.ideal is not None


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_redistribute_rejects_bad_budget(tmp_path, capsys, budget):
    snap = tmp_path / "snap.txt"
    assert cli_main(["form", "--n", "6", "--protocol", "kary:2", "--out", str(snap), "--quiet"]) == 0
    rc = cli_main(["redistribute", "--snapshot", str(snap), "--energy-protocol", "lambda:2",
                   "--budget", budget, "--quiet"])
    assert rc == 1
    assert "energy budget must be >= 1" in capsys.readouterr().err


def test_single_node_run():
    config = ExperimentConfig(
        n=1, protocol="arbitrary", energy_protocol="ideal", master_seed=1
    )
    result = run_single(config, 0)
    assert result.converged and result.tau == 0
    assert result.formation_steps == 0
    assert result.ed == 0.0


def test_cli_mode_override_forces_initial_basis(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "energy_protocol": "kdepth:2", "repetitions": 2}))
    out = tmp_path / "out"
    rc = cli_main(["experiment", "--config", str(cfg), "--mode", "concurrent",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    stored = json.loads((out / "summary.json").read_text())
    assert stored["config"]["phase_mode"] == "concurrent"
    assert stored["config"]["target_energy_basis"] == "initial"
