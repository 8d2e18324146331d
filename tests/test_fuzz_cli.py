"""Fuzzing the CLI input boundary: a damaged snapshot, config, sweep grid or
``form`` argument list must give exit code 0, or exit code 1 with one
``error:`` line, and never a traceback; a damaged trace may also give exit
code 2 with one ``replay mismatch:`` line.

The inputs are generated locally by Hypothesis from a valid snapshot of
``enertree form``, a valid experiment config and real ``trace.txt`` files,
each with one field, token or line replaced or one parent rewired, and from
grid specs and ``form`` arguments built of good and bad tokens. Integers
stay small (n <= 8, repetitions <= 2) so that every accepted input is a
short run.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from enertree.cli import main as cli_main
from enertree.harness import ExperimentConfig

N = 5
FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

TOKENS = st.one_of(
    st.integers(-3, 2 * N).map(str),
    st.floats().map(repr),
    st.sampled_from(["S", "L", "R1", "I1", "I0", "L1", "-", "", "1e300", "1.7e308", "0x1", "1_0"]),
    st.text("0123456789.-+eRILSnaif", min_size=1, max_size=6),
)
SPECS = [
    "arbitrary", "kary:2", "kary:1", "ideal", "lambda:2", "rand", "rand:2,3", "kappa:0.5",
    "kdepth:2", "kdepth:" + "9" * 400, "lossless", "normal:0.2,0.05", "normal:-1,0",
    "uniform", "random", "twophase", "concurrent", "initial", "post_formation",
]
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(),
    st.sampled_from(SPECS),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
)


def _run(argv: list[str], mismatch_ok: bool = False) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    err = err.getvalue()
    one_line = err.count("\n") == 1
    assert (
        rc == 0
        or (rc == 1 and err.startswith("error: ") and one_line)
        or (mismatch_ok and rc == 2 and err.startswith("replay mismatch: ") and one_line)
    ), (rc, err)


def _formed_rows() -> list[list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.txt"
        assert cli_main(["form", "--n", str(N), "--protocol", "kary:2", "--out", str(snap),
                         "--initial-energy", "random", "--quiet"]) == 0
        lines = snap.read_text().splitlines()
    return [line.split() for line in lines if not line.startswith("#")]


ROWS = _formed_rows()


@st.composite
def damaged_snapshots(draw) -> list[list[str]]:
    rows = [list(row) for row in ROWS]
    i = draw(st.integers(0, N - 1))
    if draw(st.booleans()):
        rows[i][draw(st.integers(0, 6))] = draw(TOKENS)
    else:
        rows[i][2] = str(draw(st.integers(-1, N - 1)))
    return rows


@FUZZ
@given(
    damaged_snapshots(),
    st.sampled_from(["ideal", "lambda:2", "rand", "kappa:0.5", "kdepth:2"]),
    st.sampled_from(["lossless", "normal:0.2,0.05"]),
)
def test_redistribute_survives_a_damaged_snapshot(rows, protocol, loss):
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.txt"
        snap.write_text("\n".join(" ".join(row) for row in rows) + "\n")
        _run(["redistribute", "--snapshot", str(snap), "--energy-protocol", protocol,
              "--loss", loss, "--out", str(Path(tmp) / "out"), "--quiet"])


BASE = {"n": N, "repetitions": 2, "emit_traces": True, "emit_metrics": True}
FIELDS = sorted(ExperimentConfig.__dataclass_fields__) + ["unknown"]


@FUZZ
@given(st.sampled_from(FIELDS), VALUES)
def test_experiment_survives_a_damaged_config(name, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**BASE, name: value}))
        _run(["experiment", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--quiet"])


def grid_values(key: str):
    """Grid values as typed: JSON and not, an integer past the parser's digit
    limit, and text without digits (a digit string could ask for a large n)."""
    return st.one_of(
        st.integers(-2, 2 if key == "repetitions" else 8).map(str),
        st.floats().map(repr),
        st.sampled_from(SPECS + ["true", "false", "null", "[1, 2]", '{"n": 3}', '"3"', "NaN",
                                 "1e400", "9" * 5000, "", " ", "[", "=", ":"]),
        st.text("abcdkmnoprstuvxyz_:.-+ \"[]{}/", max_size=6),
    )


@st.composite
def grid_specs(draw) -> list[str]:
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(FIELDS + ["", " n", "N", "n "]))
        spec = key + "=" + ",".join(draw(st.lists(grid_values(key), max_size=2)))
        specs.append(spec if draw(st.integers(0, 9)) else spec.replace("=", ""))
    if draw(st.booleans()):
        specs.append(specs[0])
    return specs


@FUZZ
@given(grid_specs())
def test_sweep_survives_a_damaged_grid(specs):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(BASE))
        argv = ["sweep", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--quiet"]
        for spec in specs:
            argv += ["--grid", spec]
        _run(argv)


@st.composite
def form_arguments(draw) -> list[str]:
    options = {
        "--n": st.integers(-2, 8).map(str) | st.sampled_from(["", "x", "2.5", "9" * 5000]),
        "--protocol": st.sampled_from(SPECS + ["kary:0", "kary:9", "kary:-1", "kary:2.5", ""]),
        "--seed": st.integers(-(2**70), 2**70).map(str) | st.sampled_from(["", "1e3", "9" * 5000]),
        "--total-energy": st.floats().map(repr) | st.sampled_from(["", "1e-320", "1e301", "-0"]),
        "--initial-energy": st.sampled_from(["uniform", "random", "", "Random"]),
        # a file, a directory, and a file in a directory that does not exist
        "--out": st.sampled_from(["{tmp}/snap.txt", "{tmp}", "{tmp}/missing/snap.txt"]),
        "--bogus": st.just("1"),
    }
    argv = ["form", "--quiet"]
    for name, values in options.items():
        # --n (required) nine times in ten, every other option one time in four
        wanted = draw(st.integers(0, 9)) > 0 if name == "--n" else draw(st.integers(0, 3)) == 0
        if wanted:
            argv += [name, draw(values)]
    return argv


@FUZZ
@given(form_arguments())
def test_form_survives_damaged_arguments(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _run([arg.replace("{tmp}", tmp) for arg in argv])


def _traces() -> list[list[str]]:
    traces = []
    for protocol, loss in (("lambda:2", "lossless"), ("ideal", "normal:0.2,0.05")):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({**BASE, "repetitions": 1, "energy_protocol": protocol,
                                       "loss": loss, "initial_energy": "random"}))
            assert cli_main(["experiment", "--config", str(cfg), "--out", tmp, "--quiet"]) == 0
            traces.append((Path(tmp) / "run_0" / "trace.txt").read_text().splitlines())
    return traces


TRACES = _traces()
TRACE_TOKENS = st.one_of(
    TOKENS,
    st.sampled_from(["SS", "UW", "NOOP", "LAMBDA", "IDEAL", "BOGUS", "nan", "inf", "-0.5", "1.0",
                     "{", "}", '"n":', "#", "seed=abc", "config={bad", "\u00e9", "\u221e"]),
)


@st.composite
def damaged_traces(draw) -> str:
    lines = list(draw(st.sampled_from(TRACES)))
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TRACE_TOKENS)
        lines[i] = " ".join(tokens)
    else:
        lines[i] = draw(st.text(max_size=20) | st.sampled_from(lines))
    return "\n".join(lines) + "\n"


@FUZZ
@given(damaged_traces())
def test_replay_survives_a_damaged_trace(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        _run(["replay", "--trace", str(path), "--quiet"], mismatch_ok=True)
