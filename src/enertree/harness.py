"""Experiment configuration, single-run orchestration, batch execution, and
trace replay.

A run is fully determined by (config, master_seed, run_index): the run seed
derives from the master seed, and every random draw (initial energy split,
merge-key shuffle, scheduler picks, exchange ratios, loss fractions) comes
from one MT19937 stream seeded with it, in a fixed order.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .core import MAX_ENERGY, MAX_N, EnergyState, Population, TreeNetwork
from .energy import EnergyProtocol, LossModel, check_total, parse_energy_protocol
from .errors import ConfigError, DomainError, ReplayMismatch
from .formation import FormationProtocol, snapshot_digest
from .metrics import energy_distance, write_metrics_csv
from .runner import (
    CONCURRENT,
    MAX_CADENCE,
    TWOPHASE,
    SimOutcome,
    default_budget,
    default_window,
    simulate,
)
from .scheduler import (
    InteractionTrace,
    RandomScheduler,
    ScriptedScheduler,
    derive_run_seed,
    make_rng,
    write_trace,
)

UNIFORM = "uniform"
RANDOM = "random"

# The two target_energy_basis values give the same run: no energy moves
# before the protocol joins, so the total it starts from is the initial
# total. The field stays because summary.json and every trace header echo
# the config.
BASIS_POST_FORMATION = "post_formation"
BASIS_INITIAL = "initial"

@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 10
    protocol: str = "kary:2"  # formation protocol spec
    energy_protocol: Optional[str] = "lambda:2"
    loss: str = "lossless"
    initial_energy: str = UNIFORM
    total_energy: Optional[float] = None  # default n * 1e3
    repetitions: int = 100
    master_seed: int = 42
    step_budget: Optional[int] = None  # per phase; default 500 * C(n,2)
    phase_mode: str = TWOPHASE
    target_energy_basis: str = BASIS_POST_FORMATION
    quiescence_window: Optional[int] = None  # default 10 * C(n,2)
    metric_cadence: Optional[int] = None  # default 1 for n <= 10, else n
    emit_traces: bool = False
    emit_metrics: bool = False

    def __post_init__(self):
        required = ("n", "repetitions")
        for name in required + ("step_budget", "quiescence_window", "metric_cadence"):
            value = getattr(self, name)
            if (value is not None or name in required) and (type(value) is not int or value < 1):
                raise ConfigError(f"{name} must be an integer >= 1 (got {value!r})")
        if self.n > MAX_N:
            raise ConfigError(f"n must be at most {MAX_N} (got {self.n})")
        if type(self.master_seed) is not int:
            raise ConfigError(f"master_seed must be an integer (got {self.master_seed!r})")
        for name in ("emit_traces", "emit_metrics"):
            if type(getattr(self, name)) is not bool:
                raise ConfigError(f"{name} must be true or false (got {getattr(self, name)!r})")
        if self.initial_energy not in (UNIFORM, RANDOM):
            raise ConfigError(f"unknown initial energy mode {self.initial_energy!r}")
        if self.phase_mode not in (TWOPHASE, CONCURRENT):
            raise ConfigError(f"unknown phase mode {self.phase_mode!r}")
        if self.target_energy_basis not in (BASIS_INITIAL, BASIS_POST_FORMATION):
            raise ConfigError(f"unknown target basis {self.target_energy_basis!r}")
        if self.phase_mode == CONCURRENT and self.target_energy_basis != BASIS_INITIAL:
            raise ConfigError("concurrent mode requires target_energy_basis=initial")
        total = self.total_energy
        if total is not None and (type(total) not in (int, float) or not 0 < total <= MAX_ENERGY):
            raise ConfigError(f"total_energy must be positive and <= 1e300 (got {total!r})")
        if self.metric_cadence is not None and self.metric_cadence > MAX_CADENCE:
            raise ConfigError(f"metric_cadence must be at most 2^53 (got {self.metric_cadence!r})")
        try:
            self.formation()
            if self.energy_protocol is not None:
                check_total(self.energy(), self.resolved_total())
            self.loss_model()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    # -- resolved accessors -------------------------------------------------
    def formation(self) -> FormationProtocol:
        return FormationProtocol.parse(self.protocol)

    def energy(self) -> Optional[EnergyProtocol]:
        if self.energy_protocol is None:
            return None
        return parse_energy_protocol(self.energy_protocol)

    def loss_model(self) -> LossModel:
        return LossModel.parse(self.loss)

    def resolved_total(self) -> float:
        return self.n * 1e3 if self.total_energy is None else self.total_energy

    def engine_args(self) -> dict:
        """The ``simulate`` keywords this config fixes, for live runs and
        replay alike. A budget or window left out is written out as
        ``simulate``'s default, which the benchmark's tracer reads."""
        budget = self.step_budget or default_budget(self.n)
        return dict(
            formation=self.formation(),
            energy_protocol=self.energy(),
            loss=self.loss_model(),
            phase_mode=self.phase_mode,
            formation_budget=budget,
            energy_budget=budget,
            window=self.quiescence_window or default_window(self.n),
            metric_cadence=self.metric_cadence,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return ExperimentConfig(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json(path: "str | Path") -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, encoding or digit count
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return ExperimentConfig.from_dict(data)


def split_initial_energy(config: ExperimentConfig, rng) -> list[float]:
    """Uniform mode gives total/n to each node. Random mode draws n uniform
    weights and normalizes, pinning the last node to the exact residual so
    the vector sums to the total exactly."""
    n = config.n
    total = config.resolved_total()
    if config.initial_energy == UNIFORM:
        share = total / n
        return [share] * n
    weights = [rng.random() for _ in range(n)]
    scale = total / math.fsum(weights)
    energies = [w * scale for w in weights]
    partial = math.fsum(energies[:-1])
    energies[-1] = total - partial
    return energies


def build_population(config: ExperimentConfig, rng) -> Population:
    """Draw order: initial energies (random mode only), then the merge-key
    permutation, then everything the scheduler consumes."""
    energies = split_initial_energy(config, rng)
    w = list(range(config.n))
    rng.shuffle(w)
    formation = config.formation()
    net = TreeNetwork(config.n, arity_bound=formation.k)
    return Population(net, EnergyState(energies), w=w)


@dataclass
class RunResult:
    run_index: int
    seed: int
    formation_steps: int
    estimation_steps: int
    tau: int
    converged: bool
    ed: float
    ed_percent: float
    loss_percent: float
    outcome: SimOutcome = field(repr=False)

    def row(self) -> dict:
        return {name: cast(getattr(self, name)) for name, cast in RUNS_CSV_CASTS.items()}


# A runs.csv row is every RunResult field but the outcome, converged as 0/1.
RUNS_CSV_CASTS = {
    f.name: {"int": int, "bool": int, "float": float}[f.type]
    for f in fields(RunResult)
    if f.name != "outcome"
}
RUNS_CSV_HEADER = list(RUNS_CSV_CASTS)


def run_single(
    config: ExperimentConfig,
    run_index: int,
    *,
    record_trace: Optional[bool] = None,
    record_metrics: Optional[bool] = None,
    validate: bool = False,
) -> RunResult:
    """Execute one seeded run of the configured experiment."""
    seed = derive_run_seed(config.master_seed, run_index)
    rng = make_rng(seed)
    pop = build_population(config, rng)
    scheduler = RandomScheduler(rng, config.n) if config.n > 1 else None
    if record_trace is None:
        record_trace = config.emit_traces
    if record_metrics is None:
        record_metrics = config.emit_metrics
    outcome = simulate(
        pop,
        scheduler=scheduler,
        trace=InteractionTrace(seed, config.to_dict()) if record_trace else None,
        validate=validate,
        record_metrics=record_metrics,
        **config.engine_args(),
    )
    return _result_from_outcome(config, run_index, seed, outcome)


def _result_from_outcome(
    config: ExperimentConfig, run_index: int, seed: int, outcome: SimOutcome
) -> RunResult:
    report = outcome.report
    if report is None:
        tau, converged = 0, True
    else:
        tau, converged = report.tau, report.converged
    if outcome.ideal is not None:
        ed = energy_distance(outcome.pop.energy.per_node, outcome.ideal)
        ed_percent = 100.0 * ed / outcome.ideal.total
    else:
        ed = math.nan
        ed_percent = math.nan
    initial_total = outcome.pop.energy.initial_total
    loss_percent = (
        100.0 * outcome.pop.energy.lost / initial_total if initial_total > 0 else 0.0
    )
    return RunResult(
        run_index=run_index,
        seed=seed,
        formation_steps=outcome.formation_steps,
        estimation_steps=outcome.estimation_steps,
        tau=tau,
        converged=converged,
        ed=ed,
        ed_percent=ed_percent,
        loss_percent=loss_percent,
        outcome=outcome,
    )


AGGREGATE_FIELDS = [
    "formation_steps",
    "estimation_steps",
    "tau",
    "ed",
    "ed_percent",
    "loss_percent",
]


def aggregate_rows(rows: list[dict]) -> dict:
    """Mean and population stddev of each numeric column, plus convergence
    counts. NaNs (never-formed runs) are excluded per column; a column with
    no other value has None for both, which summary.json writes as null."""
    out: dict = {"repetitions": len(rows)}
    for name in AGGREGATE_FIELDS:
        values = [r[name] for r in rows if not math.isnan(r[name])]
        if values:
            out[name] = {
                "mean": statistics.fmean(values),
                "stddev": statistics.pstdev(values),
            }
        else:
            out[name] = {"mean": None, "stddev": None}
    out["converged_count"] = sum(int(r["converged"]) for r in rows)
    return out


@dataclass
class ExperimentSummary:
    config: ExperimentConfig
    results: list[RunResult]
    aggregate: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "aggregate": self.aggregate,
        }


def run_experiment(
    config: ExperimentConfig,
    out_dir: "str | Path | None" = None,
    *,
    progress=None,
) -> ExperimentSummary:
    """Execute config.repetitions independent seeded runs and aggregate.

    With ``out_dir`` set, writes runs.csv and summary.json, plus per-run
    metrics.csv / trace.txt when the config enables them. A run's trace is
    dropped from its outcome once its trace.txt is written.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = []
    for i in range(config.repetitions):
        result = run_single(config, i)
        results.append(result)
        if progress is not None:
            progress(result)
        if out is not None and (config.emit_metrics or config.emit_traces):
            run_dir = out / f"run_{i}"
            run_dir.mkdir(exist_ok=True)
            if config.emit_metrics and result.outcome.metric_runs:
                write_metrics_csv(result.outcome.metric_runs, run_dir / "metrics.csv")
            if config.emit_traces and result.outcome.trace is not None:
                write_trace(result.outcome.trace, run_dir / "trace.txt")
                result.outcome.trace = None  # trace.txt holds it now
    rows = [r.row() for r in results]
    summary = ExperimentSummary(config, results, aggregate_rows(rows))
    if out is not None:
        with open(out / "runs.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RUNS_CSV_HEADER)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        (out / "summary.json").write_text(
            json.dumps(summary.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    return summary


def replay_trace(trace: InteractionTrace) -> SimOutcome:
    """Re-execute a recorded run: pairs come from the trace, formation and
    estimation rules are recomputed, energy moves are applied verbatim.
    Raises ReplayMismatch unless the re-execution runs exactly the trace's
    steps and ends at its recorded digest."""
    config = ExperimentConfig.from_dict(trace.config)
    rng = make_rng(trace.seed)
    pop = build_population(config, rng)
    try:
        outcome = simulate(
            pop,
            scheduler=ScriptedScheduler(trace),
            record_metrics=False,
            **config.engine_args(),
        )
    except DomainError as exc:
        # e.g. the re-execution did not stop where the record did, so the
        # scripted pair supply ran dry: the trace is not self-consistent
        raise ReplayMismatch(f"trace diverged during re-execution: {exc}") from exc
    if outcome.total_steps != len(trace):
        raise ReplayMismatch(
            f"the re-execution ended at step {outcome.total_steps} of {len(trace)} recorded"
        )
    digest = snapshot_digest(outcome.pop)
    if trace.final_digest is not None and digest != trace.final_digest:
        raise ReplayMismatch(
            f"replayed digest {digest[:12]}... != recorded {trace.final_digest[:12]}..."
        )
    return outcome
