"""Command-line interface.

Subcommands: form (grow one tree and emit a snapshot), redistribute (run an
energy protocol over a snapshot), experiment (seeded repetitions from a JSON
config), replay (re-execute a trace and verify its digest), sweep (cartesian
parameter grids of experiments). experiment and sweep take --progress, which
prints a line per run to stderr and changes no other output.

Exit codes: 0 success, 1 configuration/usage error, malformed input (config,
snapshot, trace) or an unwritable output, 2 replay digest mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

from .energy import LossModel, parse_energy_protocol
from .errors import ConfigError, DomainError, ReplayMismatch
from .formation import load_snapshot, snapshot_digest, snapshot_lines
from .harness import ExperimentConfig, replay_trace, run_experiment, run_single
from .metrics import energy_distance, write_metrics_csv
from .runner import simulate
from .scheduler import RandomScheduler, make_rng, read_trace


_PROGRESS_HELP = "print runs done, runs/s and ETA to stderr after each run"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with one line instead of argparse's usage and 2
        raise ConfigError(message)


def _progress(args, total: int) -> dict:
    """The ``run_experiment`` keywords for ``--progress``: a hook that prints
    runs done out of ``total``, runs/s and the ETA to stderr after each run.
    Without the flag there are none, so a caller that wraps
    ``run_experiment`` may hand it a hook of its own (the benchmark does)."""
    if not args.progress:
        return {}
    start = time.perf_counter()
    done = 0

    def report(result) -> None:
        nonlocal done
        done += 1
        rate = done / max(time.perf_counter() - start, 1e-9)
        print(f"progress: {done}/{total} runs, {rate:.1f} runs/s, "
              f"ETA {(total - done) / rate:.1f} s", file=sys.stderr, flush=True)

    return {"progress": report}


def _build_parser() -> _Parser:
    parser = _Parser(prog="enertree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_form = sub.add_parser("form", help="grow a tree and emit a node snapshot")
    p_form.add_argument("--n", type=int, required=True)
    p_form.add_argument("--protocol", default="arbitrary", help="arbitrary | kary:K")
    p_form.add_argument("--seed", type=int, default=42)
    p_form.add_argument("--total-energy", type=float, default=None)
    p_form.add_argument("--initial-energy", default="uniform", choices=["uniform", "random"])
    p_form.add_argument("--out", default=None, help="snapshot file (default stdout)")
    p_form.add_argument("--quiet", action="store_true")

    p_red = sub.add_parser("redistribute", help="run an energy protocol on a snapshot")
    p_red.add_argument("--snapshot", required=True)
    p_red.add_argument("--energy-protocol", required=True,
                       help="ideal | lambda:L | rand | kappa:K | kdepth:K")
    p_red.add_argument("--loss", default="lossless", help="lossless | normal:MEAN,STD")
    p_red.add_argument("--seed", type=int, default=42)
    p_red.add_argument("--budget", type=int, default=None)
    p_red.add_argument("--window", type=int, default=None)
    p_red.add_argument("--out", default=None, help="output directory")
    p_red.add_argument("--quiet", action="store_true")

    p_exp = sub.add_parser("experiment", help="run seeded repetitions from a config file")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.add_argument("--mode", choices=["twophase", "concurrent"], default=None)
    p_exp.add_argument("--quiet", action="store_true")
    p_exp.add_argument("--progress", action="store_true", help=_PROGRESS_HELP)

    p_rep = sub.add_parser("replay", help="re-execute a trace and verify its digest")
    p_rep.add_argument("--trace", required=True)
    p_rep.add_argument("--quiet", action="store_true")

    p_sw = sub.add_parser("sweep", help="cartesian grid of experiments")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--grid", action="append", default=[],
                      help="FIELD=V1,V2,... or a JSON array FIELD=[V1, ...] (once per field)")
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--quiet", action="store_true")
    p_sw.add_argument("--progress", action="store_true", help=_PROGRESS_HELP)

    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_form(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        protocol=args.protocol,
        energy_protocol=None,
        total_energy=args.total_energy,
        initial_energy=args.initial_energy,
        master_seed=args.seed,
        repetitions=1,
    )
    outcome = run_single(config, 0).outcome
    pop = outcome.pop
    if not outcome.completed:
        print("formation did not complete within the step budget", file=sys.stderr)
        return 1
    lines = snapshot_lines(pop)
    text = "\n".join(["# columns: id state parent w d h energy"] + lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    _say(args, f"# formed in {outcome.formation_steps} steps, "
               f"estimates stabilized after {outcome.estimation_steps} more; "
               f"digest={snapshot_digest(pop)}")
    return 0


def _cmd_redistribute(args) -> int:
    try:
        lines = Path(args.snapshot).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read snapshot: {exc}")
    pop = load_snapshot(lines)
    protocol = parse_energy_protocol(args.energy_protocol)
    loss = LossModel.parse(args.loss)
    scheduler = RandomScheduler(make_rng(args.seed), pop.n) if pop.n > 1 else None
    outcome = simulate(
        pop,
        formation=None,
        scheduler=scheduler,
        energy_protocol=protocol,
        loss=loss,
        energy_budget=args.budget,
        window=args.window,
    )
    report = outcome.report
    ed = energy_distance(pop.energy.per_node, outcome.ideal)
    _say(
        args,
        f"converged={report.converged} tau={report.tau} "
        f"dd_at_tau={report.dd_at_tau:.6g} ed={ed:.6g} "
        f"lost={outcome.pop.energy.lost:.6g}",
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(outcome.samples, out / "metrics.csv")
        (out / "final_snapshot.txt").write_text("\n".join(snapshot_lines(pop)) + "\n")
    return 0


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["phase_mode"] = args.mode
        if args.mode == "concurrent":
            overrides["target_energy_basis"] = "initial"
    if overrides:
        config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    return config


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    summary = run_experiment(config, out_dir=args.out, **_progress(args, config.repetitions))
    agg = summary.aggregate
    ed = agg["ed_percent"]["mean"]  # None (null in summary.json) when no tree formed
    _say(
        args,
        f"runs={agg['repetitions']} converged={agg['converged_count']} "
        f"tau={agg['tau']['mean']:.1f} ed%={math.nan if ed is None else ed:.2f} "
        f"loss%={agg['loss_percent']['mean']:.2f}",
    )
    if args.out is None and not args.quiet:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True, allow_nan=False))
    return 0


def _cmd_replay(args) -> int:
    trace = read_trace(args.trace)
    outcome = replay_trace(trace)  # raises ReplayMismatch on digest drift
    _say(args, f"replay ok: {len(trace)} steps, digest={outcome.digest}")
    return 0


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, past the digit limit or nested too deep
        return text


def _parse_grid(specs: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid spec needs FIELD=V1,V2 (got {spec!r})")
        key, text = spec.split("=", 1)
        key = key.strip()
        if key in grid:
            raise ConfigError(f"grid field {key!r} given twice")
        values = _json_or_text(text)
        if not isinstance(values, list):  # not a JSON array: split on commas
            values = [_json_or_text(raw.strip()) for raw in text.split(",")]
        elif not values:
            raise ConfigError(f"grid field {key!r} has no values")
        grid[key] = values
    return grid


def _cmd_sweep(args) -> int:
    base = ExperimentConfig.from_json(args.config)
    grid = _parse_grid(args.grid)
    if not grid:
        raise ConfigError("sweep needs at least one --grid")
    keys = sorted(grid)
    out_root = Path(args.out)
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        config = ExperimentConfig.from_dict({**base.to_dict(), **overrides})
        name = ",".join(
            f"{k}={str(v).replace(':', '-').replace('/', '-')}" for k, v in overrides.items()
        )
        _say(args, f"sweep {name}")
        run_experiment(config, out_dir=out_root / name, **_progress(args, config.repetitions))
    return 0


_COMMANDS = {
    "form": _cmd_form,
    "redistribute": _cmd_redistribute,
    "experiment": _cmd_experiment,
    "replay": _cmd_replay,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
