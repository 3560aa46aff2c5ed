"""Scenario runner, A/B comparison, and sensitivity sweeps.

Owns config ingestion, seed management, and all CSV export: per-seed
round histories, per-scenario summaries, the cross-scenario comparison
table, long-format sweep grids, and tidy plot-data series.
"""

from __future__ import annotations

import csv
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import json

import numpy as np

from .abm import PolicyIntervention, SimConfig, SimRun, simulate
from .errors import ConfigError, HeadfxError
from .metrics import METRIC_COLUMNS, MetricsSummary, summarize, write_summary_csv
from .dynamics import PortraitResult

__all__ = [
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "SweepSpec",
    "RunArtifact",
    "ABComparison",
    "SweepArtifact",
    "canonical_policies",
    "run_scenario",
    "ab_compare",
    "sensitivity_sweep",
    "export_plot_data",
    "export_phase_csv",
    "parse_config",
]

SCENARIO_NAMES = ("Baseline", "High_Tax", "Boost_Small", "Combined")

# Calibrated intervention magnitudes behind the four named scenarios.
_HIGH_TAX = dict(kind="high_tax", start_round=10, top_k=3, raised_share=0.7)
_BOOST_SMALL = dict(kind="boost_small", start_round=10, bottom_fraction=0.5,
                    boost_multiplier=1.2)
_SUBSIDY = dict(kind="subsidy", start_round=10, bottom_fraction=0.5,
                per_round_amount=12.0)

SWEEPABLE_PARAMETERS = (
    "network_effect_beta",
    "base_revenue_share",
    "n_streamers",
    "n_viewers",
)

_PLATFORM_KEYS = (
    "n_streamers",
    "n_viewers",
    "n_rounds",
    "base_revenue_share",
    "network_effect_beta",
    "quality_decay_rate",
    "random_effect_scale",
)
_OVERRIDE_KEYS = (
    "revenue_per_viewer",
    "match_bonus",
    "prices",
    "quality_responsiveness",
    "investment_audience_scale",
    "investment_min_revenue",
    "investment_step_cap",
    "boost_investment",
    "subsidy_quality_efficiency",
    "exit_revenue_floor",
    "exit_patience",
    "interaction_weight",
    "n_content_types",
)
_POLICY_KEYS = (
    "kind",
    "start_round",
    "top_k",
    "raised_share",
    "bottom_fraction",
    "boost_multiplier",
    "per_round_amount",
)


def canonical_policies(name: str) -> tuple[PolicyIntervention, ...]:
    """Policy schedule for a named scenario."""
    if name == "Baseline":
        return ()
    if name == "High_Tax":
        return (PolicyIntervention(**_HIGH_TAX),)
    if name == "Boost_Small":
        return (PolicyIntervention(**_BOOST_SMALL),)
    if name == "Combined":
        return (
            PolicyIntervention(**_HIGH_TAX),
            PolicyIntervention(**_BOOST_SMALL),
            PolicyIntervention(**_SUBSIDY),
        )
    raise ConfigError(f"unknown scenario name {name!r}; expected one of {SCENARIO_NAMES} or 'custom'")


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario to replicate across paired seeds."""

    name: str
    sim: SimConfig
    n_seeds: int = 10
    seed_base: int = 0

    def seeds(self) -> list[int]:
        return list(range(self.seed_base, self.seed_base + self.n_seeds))


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter grid run on top of a base scenario."""

    parameter: str
    values: tuple
    base: ScenarioSpec

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"unsupported sweep parameter {self.parameter!r}; "
                f"expected one of {SWEEPABLE_PARAMETERS}"
            )
        if not self.values:
            raise ConfigError("sweep values must be non-empty")


@dataclass(frozen=True)
class RunArtifact:
    """Everything produced by one scenario batch."""

    scenario: str
    seeds: tuple[int, ...]
    summaries: tuple[MetricsSummary, ...]
    runs: tuple[SimRun, ...]
    mean: dict[str, float]
    sd: dict[str, float]
    history_paths: tuple[Path, ...]


def make_scenario(name: str, sim: SimConfig | None = None, n_seeds: int = 10,
                  seed_base: int = 0) -> ScenarioSpec:
    """Expand a scenario name into a spec with its canonical schedule."""
    base = sim if sim is not None else SimConfig()
    schedule = canonical_policies(name) if name != "custom" else base.policy_schedule
    return ScenarioSpec(
        name=name,
        sim=dataclasses.replace(base, policy_schedule=schedule),
        n_seeds=n_seeds,
        seed_base=seed_base,
    )


def _simulate_seed(task: tuple[str, SimConfig]) -> SimRun:
    scenario, cfg = task
    try:
        return simulate(cfg)
    except HeadfxError as exc:
        raise type(exc)(f"scenario {scenario!r}, seed {cfg.seed}: {exc}") from exc


def _write_history_csv(path: Path, run: SimRun) -> None:
    n = len(run.records[0].viewer_counts) if run.records else 0
    header = (
        ["round"]
        + [f"n_{i + 1}" for i in range(n)]
        + [f"rev_{i + 1}" for i in range(n)]
        + ["platform_rev"]
        + [f"q_{i + 1}" for i in range(n)]
        + ["mean_satisfaction"]
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in run.records:
            row = [rec.round_index]
            row += [int(x) for x in rec.viewer_counts]
            row += [f"{x:.6g}" for x in rec.streamer_revenues]
            row += [f"{rec.platform_revenue:.6g}"]
            row += [f"{x:.6g}" for x in rec.qualities]
            row += [f"{rec.mean_satisfaction:.6g}"]
            writer.writerow(row)


def _aggregate(summaries) -> tuple[dict[str, float], dict[str, float]]:
    mean = {}
    sd = {}
    for col in METRIC_COLUMNS:
        vals = np.array([getattr(s, col) for s in summaries])
        mean[col] = float(vals.mean())
        sd[col] = float(vals.std())
    return mean, sd


def run_scenario(spec: ScenarioSpec, out_dir=None, threads: int = 1) -> RunArtifact:
    """Run n_seeds replications with seeds seed_base..seed_base+n_seeds-1.

    Writes one round-history CSV per seed plus summary.csv (per-seed rows
    and mean/sd rows at 4 decimals) when out_dir is given. Identical specs
    regenerate identical artifacts.
    """
    tasks = [(spec.name, dataclasses.replace(spec.sim, seed=s)) for s in spec.seeds()]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(_simulate_seed, tasks))
    else:
        runs = [_simulate_seed(task) for task in tasks]
    summaries = [summarize(run.records, run.q_initial) for run in runs]
    mean, sd = _aggregate(summaries)

    history_paths: list[Path] = []
    if out_dir is not None:
        scen_dir = Path(out_dir) / spec.name
        scen_dir.mkdir(parents=True, exist_ok=True)
        for seed, run in zip(spec.seeds(), runs):
            path = scen_dir / f"seed_{seed}.csv"
            _write_history_csv(path, run)
            history_paths.append(path)
        with (scen_dir / "summary.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", *METRIC_COLUMNS])
            for seed, summ in zip(spec.seeds(), summaries):
                writer.writerow(
                    [seed] + [f"{getattr(summ, col):.4f}" for col in METRIC_COLUMNS]
                )
            writer.writerow(["mean"] + [f"{mean[col]:.4f}" for col in METRIC_COLUMNS])
            writer.writerow(["sd"] + [f"{sd[col]:.4f}" for col in METRIC_COLUMNS])

    return RunArtifact(
        scenario=spec.name,
        seeds=tuple(spec.seeds()),
        summaries=tuple(summaries),
        runs=tuple(runs),
        mean=mean,
        sd=sd,
        history_paths=tuple(history_paths),
    )


@dataclass(frozen=True)
class ABComparison:
    """Paired-seed comparison across scenarios."""

    artifacts: tuple[RunArtifact, ...]
    ordering_fractions: dict[tuple[str, str, str], float]

    def artifact(self, name: str) -> RunArtifact:
        for art in self.artifacts:
            if art.scenario == name:
                return art
        raise KeyError(name)


def ab_compare(specs, out_dir=None, threads: int = 1) -> ABComparison:
    """Run several scenarios on identical seed plans and compare them.

    ordering_fractions[(metric, a, b)] is the fraction of paired seeds in
    which scenario a's metric is strictly below scenario b's.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ConfigError("ab_compare needs at least 2 scenarios")
    plans = {(s.n_seeds, s.seed_base) for s in specs}
    if len(plans) != 1:
        raise ConfigError("scenario seed plans differ; pairing would be broken")

    artifacts = [run_scenario(spec, out_dir=out_dir, threads=threads) for spec in specs]
    fractions: dict[tuple[str, str, str], float] = {}
    n_seeds = specs[0].n_seeds
    for metric in METRIC_COLUMNS:
        for a in artifacts:
            for b in artifacts:
                if a.scenario == b.scenario:
                    continue
                wins = sum(
                    getattr(sa, metric) < getattr(sb, metric)
                    for sa, sb in zip(a.summaries, b.summaries)
                )
                fractions[(metric, a.scenario, b.scenario)] = wins / n_seeds

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_csv(
            out / "comparison.csv",
            [(art.scenario, MetricsSummary(**art.mean)) for art in artifacts],
        )
        with (out / "orderings.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "scenario_a", "scenario_b", "fraction_a_below_b"])
            for (metric, a, b), frac in sorted(fractions.items()):
                writer.writerow([metric, a, b, f"{frac:.4f}"])
    return ABComparison(artifacts=tuple(artifacts), ordering_fractions=fractions)


@dataclass(frozen=True)
class SweepArtifact:
    """Per-grid-point aggregates of a one-parameter sweep."""

    parameter: str
    values: tuple
    artifacts: tuple[RunArtifact, ...]

    def means(self, metric: str) -> list[float]:
        return [art.mean[metric] for art in self.artifacts]


def sensitivity_sweep(sweep: SweepSpec, out_dir=None, threads: int = 1) -> SweepArtifact:
    """Run the base scenario at each parameter value; emit a long CSV."""
    artifacts = []
    for value in sweep.values:
        try:
            sim = dataclasses.replace(sweep.base.sim, **{sweep.parameter: value})
        except Exception as exc:
            raise ConfigError(
                f"sweep value {value!r} invalid for {sweep.parameter}: {exc}"
            ) from exc
        spec = ScenarioSpec(
            name=f"{sweep.base.name}_{sweep.parameter}_{value}",
            sim=sim,
            n_seeds=sweep.base.n_seeds,
            seed_base=sweep.base.seed_base,
        )
        artifacts.append(run_scenario(spec, out_dir=None, threads=threads))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / f"sweep_{sweep.parameter}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "value", "metric", "mean", "sd"])
            for value, art in zip(sweep.values, artifacts):
                for metric in METRIC_COLUMNS:
                    writer.writerow(
                        [
                            sweep.parameter,
                            f"{value:.6g}" if isinstance(value, float) else value,
                            metric,
                            f"{art.mean[metric]:.6g}",
                            f"{art.sd[metric]:.6g}",
                        ]
                    )
    return SweepArtifact(
        parameter=sweep.parameter, values=tuple(sweep.values), artifacts=tuple(artifacts)
    )


_PLOT_KINDS = ("viewers", "revenues", "quality", "satisfaction")


def export_plot_data(artifact: RunArtifact, kind: str, out_dir) -> Path:
    """Write one tidy per-round series for a completed scenario batch.

    viewers/revenues/quality are long format (seed, round, streamer,
    value); satisfaction is (seed, round, mean_satisfaction). One row per
    round per seed (per streamer where applicable).
    """
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; expected one of {_PLOT_KINDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{artifact.scenario}_{kind}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if kind == "satisfaction":
            writer.writerow(["seed", "round", "mean_satisfaction"])
            for seed, run in zip(artifact.seeds, artifact.runs):
                for rec in run.records:
                    writer.writerow([seed, rec.round_index, f"{rec.mean_satisfaction:.6g}"])
        else:
            field = {"viewers": "viewer_counts", "revenues": "streamer_revenues",
                     "quality": "qualities"}[kind]
            writer.writerow(["seed", "round", "streamer", kind])
            for seed, run in zip(artifact.seeds, artifact.runs):
                for rec in run.records:
                    values = getattr(rec, field)
                    for i, v in enumerate(values):
                        text = str(int(v)) if kind == "viewers" else f"{v:.6g}"
                        writer.writerow([seed, rec.round_index, i + 1, text])
    return path


def export_phase_csv(portrait: PortraitResult, path) -> Path:
    """Write (trajectory, t, streamer, n, q) sample pairs for plotting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory", "t", "streamer", "n", "q"])
        for idx, traj in enumerate(portrait.trajectories):
            if traj is None:
                continue
            for t, n, q in zip(traj.times, traj.n, traj.q):
                for i in range(n.shape[0]):
                    writer.writerow([idx, f"{t:.6g}", i + 1, f"{n[i]:.6g}", f"{q[i]:.6g}"])
    return path


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def parse_config(path) -> ScenarioSpec | SweepSpec:
    """Strict parse of a scenario or sweep config file.

    JSON object with keys: name (required), seed, n_seeds, platform
    (headline parameters), overrides (behavioral coefficients), policies
    (custom scenarios only), sweep (turns the result into a SweepSpec).
    Unknown keys anywhere are rejected by name.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(
        raw,
        ("name", "seed", "n_seeds", "platform", "overrides", "policies", "sweep"),
        "the top level",
    )
    if "name" not in raw:
        raise ConfigError(f"{path}: missing required key 'name'")
    name = raw["name"]
    if name != "custom" and name not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario name {name!r}; expected one of {SCENARIO_NAMES} or 'custom'"
        )

    kwargs: dict = {}
    platform = raw.get("platform", {})
    if not isinstance(platform, dict):
        raise ConfigError("[platform] must be an object")
    _reject_unknown(platform, _PLATFORM_KEYS, "[platform]")
    kwargs.update(platform)

    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("[overrides] must be an object")
    _reject_unknown(overrides, _OVERRIDE_KEYS, "[overrides]")
    if "prices" in overrides and overrides["prices"] is not None:
        overrides = dict(overrides)
        overrides["prices"] = tuple(float(p) for p in overrides["prices"])
    kwargs.update(overrides)

    policies = raw.get("policies", [])
    if policies and name != "custom":
        raise ConfigError(
            f"[policies] is only allowed for 'custom' scenarios; {name!r} has a canonical schedule"
        )
    schedule = []
    for idx, pol in enumerate(policies):
        if not isinstance(pol, dict):
            raise ConfigError(f"[policies][{idx}] must be an object")
        _reject_unknown(pol, _POLICY_KEYS, f"[policies][{idx}]")
        if "kind" not in pol:
            raise ConfigError(f"[policies][{idx}] is missing 'kind'")
        try:
            schedule.append(PolicyIntervention(**pol))
        except ValueError as exc:
            raise ConfigError(f"[policies][{idx}]: {exc}") from exc

    try:
        sim = SimConfig(policy_schedule=tuple(schedule), **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    seed_base = raw.get("seed", 0)
    n_seeds = raw.get("n_seeds", 10)
    if not isinstance(seed_base, int) or not isinstance(n_seeds, int) or n_seeds < 1:
        raise ConfigError("'seed' must be an integer and 'n_seeds' a positive integer")
    spec = make_scenario(name, sim=sim, n_seeds=n_seeds, seed_base=seed_base)

    if "sweep" in raw:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("[sweep] must be an object")
        _reject_unknown(sweep, ("parameter", "values"), "[sweep]")
        if "parameter" not in sweep or "values" not in sweep:
            raise ConfigError("[sweep] requires 'parameter' and 'values'")
        return SweepSpec(
            parameter=sweep["parameter"], values=tuple(sweep["values"]), base=spec
        )
    return spec
