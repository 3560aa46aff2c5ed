"""Scenario runner, A/B comparison, and sensitivity sweeps.

Owns config ingestion, seed management, and the scenario outputs: per-seed
round histories, per-scenario summaries, the cross-scenario comparison
table and long-format sweep grids. write_table and write_json are the
program's only writers; every CSV and JSON file is UTF-8 with LF line
ends.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .abm import PolicyIntervention, SimConfig, SimRun, simulate
from .core import PlatformParams, StreamerParams
from .errors import (
    ConfigError,
    Domain,
    DomainError,
    require,
    require_array,
    require_fields,
)
from .metrics import METRIC_COLUMNS, MetricsSummary, summarize

__all__ = [
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "SweepSpec",
    "RunArtifact",
    "ABComparison",
    "SweepArtifact",
    "canonical_policies",
    "make_scenario",
    "run_scenario",
    "ab_compare",
    "sensitivity_sweep",
    "parse_config",
    "parse_instance",
    "write_table",
    "write_json",
]

# Calibrated intervention magnitudes behind the four named scenarios.
_HIGH_TAX = dict(kind="high_tax", start_round=10, top_k=3, raised_share=0.7)
_BOOST_SMALL = dict(kind="boost_small", start_round=10, bottom_fraction=0.5,
                    boost_multiplier=1.2)
_SUBSIDY = dict(kind="subsidy", start_round=10, bottom_fraction=0.5,
                per_round_amount=12.0)
# Each named scenario's policy schedule, in the order the policies apply.
_SCHEDULES = {
    "Baseline": (),
    "High_Tax": (_HIGH_TAX,),
    "Boost_Small": (_BOOST_SMALL,),
    "Combined": (_HIGH_TAX, _BOOST_SMALL, _SUBSIDY),
}
SCENARIO_NAMES = tuple(_SCHEDULES)

SWEEPABLE_PARAMETERS = (
    "network_effect_beta",
    "base_revenue_share",
    "n_streamers",
    "n_viewers",
)

# The document's sections name the fields of the classes they build:
# [platform] SimConfig's first block, [overrides] its behavioral second
# block (everything after seed), and each policy a PolicyIntervention.
_SIM_FIELDS = [f.name for f in dataclasses.fields(SimConfig)]
_PLATFORM_KEYS = _SIM_FIELDS[: _SIM_FIELDS.index("policy_schedule")]
_OVERRIDE_KEYS = _SIM_FIELDS[_SIM_FIELDS.index("seed") + 1:]
_POLICY_KEYS = [f.name for f in dataclasses.fields(PolicyIntervention)]
_SCENARIO_KEYS = ("name", "seed", "n_seeds", "platform", "overrides", "policies", "sweep")
# The instance file's PlatformParams fields that take their class defaults
# when the file leaves them out.
_INSTANCE_PLATFORM_KEYS = ("beta", "tau", "revenue_per_viewer", "phi")
_INSTANCE_KEYS = ("n_viewers", *_INSTANCE_PLATFORM_KEYS, "prices", "alpha", "q", "cost")


def canonical_policies(name: str) -> tuple[PolicyIntervention, ...]:
    """Policy schedule for a named scenario."""
    if name not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario name {name!r}; expected one of {SCENARIO_NAMES} or 'custom'"
        )
    return tuple(PolicyIntervention(**policy) for policy in _SCHEDULES[name])


_SCENARIO_DOMAINS = {"n_seeds": Domain(1, integer=True), "seed_base": Domain(0, integer=True)}


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario to replicate across paired seeds."""

    name: str
    sim: SimConfig
    n_seeds: int = 10
    seed_base: int = 0

    def __post_init__(self):
        require_fields(self, _SCENARIO_DOMAINS)
        # A zero-round run is valid for the simulator, but it has no history
        # to summarize, so a scenario must have at least one round.
        if self.sim.n_rounds < 1:
            raise DomainError(
                f"scenario {self.name!r}: n_rounds must be >= 1, got {self.sim.n_rounds}"
            )

    def seeds(self) -> list[int]:
        return list(range(self.seed_base, self.seed_base + self.n_seeds))


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter grid run on top of a base scenario.

    scenarios holds the base scenario at each grid value, built (and so
    checked) with the spec itself.
    """

    parameter: str
    values: tuple
    base: ScenarioSpec
    scenarios: tuple[ScenarioSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"unsupported sweep parameter {self.parameter!r}; "
                f"expected one of {SWEEPABLE_PARAMETERS}"
            )
        if not (isinstance(self.values, (list, tuple)) and self.values):
            raise ConfigError(f"sweep values must be a non-empty list, got {self.values!r}")
        object.__setattr__(self, "values", tuple(self.values))
        scenarios = []
        for value in self.values:
            try:
                sim = dataclasses.replace(self.base.sim, **{self.parameter: value})
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"sweep value {value!r} invalid for {self.parameter}: {exc}"
                ) from exc
            scenarios.append(dataclasses.replace(
                self.base, name=f"{self.base.name}_{self.parameter}_{value}", sim=sim
            ))
        object.__setattr__(self, "scenarios", tuple(scenarios))


@dataclass(frozen=True)
class RunArtifact:
    """One scenario batch's per-seed summaries, and their mean and sd by metric."""

    scenario: str
    summaries: tuple[MetricsSummary, ...]
    mean: dict[str, float]
    sd: dict[str, float]


def make_scenario(name: str, sim: SimConfig | None = None, n_seeds: int = 10,
                  seed_base: int = 0) -> ScenarioSpec:
    """Expand a scenario name into a spec with its canonical schedule.

    Raises ConfigError naming the scenario when sim has fewer rounds than
    the round its canonical policies start at, or too few streamers for
    their ranks.
    """
    base = sim if sim is not None else SimConfig()
    schedule = canonical_policies(name) if name != "custom" else base.policy_schedule
    try:
        scenario_sim = dataclasses.replace(base, policy_schedule=schedule)
    except DomainError as exc:
        # base has validated its own schedule, so only a canonical one fails here
        start = max(p.start_round for p in schedule)
        if start <= base.n_rounds:
            raise ConfigError(f"scenario {name!r}: {exc}") from exc
        raise ConfigError(
            f"scenario {name!r} needs n_rounds >= {start}: its canonical policies "
            f"start at round {start}, but n_rounds is {base.n_rounds}"
        ) from exc
    return ScenarioSpec(
        name=name,
        sim=scenario_sim,
        n_seeds=n_seeds,
        seed_base=seed_base,
    )


def write_table(path, header, rows) -> Path:
    """Write the CSV table at path: the header row, then rows.

    UTF-8 with LF line ends; creates the parent directories. Callers
    format their own cells.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path, document) -> Path:
    """Write document at path as indented JSON, UTF-8 with LF line ends;
    creates the parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8", newline="")
    return path


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
    write_table(path, header, (
        [rec.round_index, *(int(x) for x in rec.viewer_counts)]
        + [f"{x:.6g}" for x in (*rec.streamer_revenues, rec.platform_revenue,
                                *rec.qualities, rec.mean_satisfaction)]
        for rec in run.records
    ))


def _aggregate(summaries) -> tuple[dict[str, float], dict[str, float]]:
    mean = {}
    sd = {}
    for col in METRIC_COLUMNS:
        vals = np.array([getattr(s, col) for s in summaries])
        mean[col] = float(vals.mean())
        sd[col] = float(vals.std())
    return mean, sd


def _artifact(spec: ScenarioSpec, runs: list[SimRun], out_dir) -> RunArtifact:
    """Summaries and aggregates of one scenario's runs; its CSVs when out_dir is given."""
    summaries = [summarize(run.records, run.q_initial) for run in runs]
    mean, sd = _aggregate(summaries)

    if out_dir is not None:
        scen_dir = Path(out_dir) / spec.name
        for seed, run in zip(spec.seeds(), runs):
            _write_history_csv(scen_dir / f"seed_{seed}.csv", run)
        rows = [[seed] + [f"{getattr(summ, col):.4f}" for col in METRIC_COLUMNS]
                for seed, summ in zip(spec.seeds(), summaries)]
        rows.append(["mean"] + [f"{mean[col]:.4f}" for col in METRIC_COLUMNS])
        rows.append(["sd"] + [f"{sd[col]:.4f}" for col in METRIC_COLUMNS])
        write_table(scen_dir / "summary.csv", ["seed", *METRIC_COLUMNS], rows)

    return RunArtifact(
        scenario=spec.name,
        summaries=tuple(summaries),
        mean=mean,
        sd=sd,
    )


def _run_scenarios(specs, out_dir, threads: int) -> list[RunArtifact]:
    """Every seed of every scenario in specs, as one flat run list on one
    pool of min(threads, run count) workers (in process when that is 1);
    one artifact per scenario."""
    require("threads", threads, 1, integer=True)
    cfgs = [dataclasses.replace(spec.sim, seed=s) for spec in specs for s in spec.seeds()]
    workers = min(threads, len(cfgs))
    if workers > 1:
        # imported here, so runs in process never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(simulate, cfgs))
    else:
        runs = list(map(simulate, cfgs))
    flat = iter(runs)
    return [_artifact(spec, list(itertools.islice(flat, spec.n_seeds)), out_dir)
            for spec in specs]


def run_scenario(spec: ScenarioSpec, out_dir=None, threads: int = 1) -> RunArtifact:
    """Run n_seeds replications with seeds seed_base..seed_base+n_seeds-1.

    Writes one round-history CSV per seed plus summary.csv (per-seed rows
    and mean/sd rows at 4 decimals) when out_dir is given. Identical specs
    regenerate identical artifacts.
    """
    return _run_scenarios([spec], out_dir, threads)[0]


@dataclass(frozen=True)
class ABComparison:
    """Paired-seed comparison across scenarios."""

    artifacts: tuple[RunArtifact, ...]
    ordering_fractions: dict[tuple[str, str, str], float]


def ab_compare(specs, out_dir=None, threads: int = 1) -> ABComparison:
    """Run several scenarios on identical seed plans and compare them.

    ordering_fractions[(metric, a, b)] is the fraction of paired seeds in
    which scenario a's metric is strictly below scenario b's.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ConfigError("ab_compare needs at least 2 scenarios")
    names = [s.name for s in specs]
    if len(set(names)) < len(names):
        raise ConfigError(f"scenario names repeat in {names}: outputs are keyed by name")
    plans = {(s.n_seeds, s.seed_base) for s in specs}
    if len(plans) != 1:
        raise ConfigError("scenario seed plans differ; pairing would be broken")

    artifacts = _run_scenarios(specs, out_dir, threads)
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
        write_table(out / "comparison.csv", ["scenario", *METRIC_COLUMNS], (
            [art.scenario] + [f"{art.mean[col]:.4f}" for col in METRIC_COLUMNS]
            for art in artifacts
        ))
        write_table(
            out / "orderings.csv", ["metric", "scenario_a", "scenario_b", "fraction_a_below_b"],
            ([metric, a, b, f"{frac:.4f}"] for (metric, a, b), frac in sorted(fractions.items())),
        )
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
    artifacts = _run_scenarios(sweep.scenarios, None, threads)

    if out_dir is not None:
        write_table(Path(out_dir) / f"sweep_{sweep.parameter}.csv",
                    ["parameter", "value", "metric", "mean", "sd"], (
            [sweep.parameter, f"{value:.6g}" if isinstance(value, float) else value,
             metric, f"{art.mean[metric]:.6g}", f"{art.sd[metric]:.6g}"]
            for value, art in zip(sweep.values, artifacts)
            for metric in METRIC_COLUMNS
        ))
    return SweepArtifact(
        parameter=sweep.parameter, values=tuple(sweep.values), artifacts=tuple(artifacts)
    )


def _read_document(path, allowed, where: str) -> dict:
    """The JSON object in the file at path, whose keys must all be in allowed."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise ConfigError(f"cannot read {where} {path}: {exc}") from exc
    return _fields(raw, allowed, where)


def _fields(value, allowed, where: str) -> dict:
    """value itself, if it is an object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return value


def parse_config(path) -> ScenarioSpec | SweepSpec:
    """Strict parse of a scenario or sweep config file.

    JSON object with keys: name (required), seed, n_seeds, platform
    (headline parameters), overrides (behavioral coefficients), policies
    (custom scenarios only), sweep (turns the result into a SweepSpec).
    Unknown keys anywhere are rejected by name.
    """
    raw = _read_document(path, _SCENARIO_KEYS, "scenario config")
    if "name" not in raw:
        raise ConfigError(f"{path}: missing required key 'name'")
    name = raw["name"]
    kwargs = {
        **_fields(raw.get("platform", {}), _PLATFORM_KEYS, "[platform]"),
        **_fields(raw.get("overrides", {}), _OVERRIDE_KEYS, "[overrides]"),
    }
    policies = raw.get("policies", [])
    if not isinstance(policies, list):
        raise ConfigError(f"[policies] must be a list, got {policies!r}")
    if policies and name in SCENARIO_NAMES:
        raise ConfigError(
            f"[policies] is only allowed for 'custom' scenarios; {name!r} has a canonical schedule"
        )
    sweep = _fields(raw.get("sweep", {}), ("parameter", "values"), "[sweep]")
    if "sweep" in raw and not ("parameter" in sweep and "values" in sweep):
        raise ConfigError("[sweep] requires 'parameter' and 'values'")

    try:
        schedule = []
        for idx, pol in enumerate(policies):
            where = f"[policies][{idx}]"
            if "kind" not in _fields(pol, _POLICY_KEYS, where):
                raise ConfigError(f"{where} is missing 'kind'")
            schedule.append(PolicyIntervention(**pol))
        sim = SimConfig(policy_schedule=tuple(schedule), **kwargs)
        spec = make_scenario(
            name, sim=sim, n_seeds=raw.get("n_seeds", 10), seed_base=raw.get("seed", 0)
        )
        if "sweep" in raw:
            return SweepSpec(parameter=sweep["parameter"], values=sweep["values"], base=spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return spec


def parse_instance(path) -> tuple[PlatformParams, list[StreamerParams], np.ndarray]:
    """Strict parse of an optimize-theta instance file.

    JSON object with alpha and q (required, one entry per streamer), cost
    (default 1.0 each), prices, n_viewers (default 1000), beta, tau,
    revenue_per_viewer and phi; a key left out takes PlatformParams'
    default. Returns the platform, the streamers and the quality vector q.
    """
    raw = _read_document(path, _INSTANCE_KEYS, "instance file")
    for key in ("alpha", "q"):
        if key not in raw:
            raise ConfigError(f"instance file is missing {key!r}")
    try:
        # A count must be a whole number a float holds exactly: int() truncates 50.7.
        n_viewers = raw.get("n_viewers", 1000)
        require("n_viewers", n_viewers, 0, 2**53, "()")
        if not float(n_viewers).is_integer():
            raise ConfigError(f"n_viewers must be a whole number, got {n_viewers!r}")
        # StreamerParams checks each alpha and cost entry's domain
        alpha = require_array("alpha", raw["alpha"]).tolist()
        n = (len(alpha),)
        q = require_array("q", raw["q"], 0, shape=n)
        cost = require_array("cost", raw.get("cost", [1.0] * len(alpha)), shape=n).tolist()
        platform = PlatformParams(
            n_streamers=len(alpha),
            n_viewers=int(n_viewers),
            # an explicit null is no list of prices, not the default
            prices=require_array("prices", raw["prices"]) if "prices" in raw else None,
            **{key: raw[key] for key in _INSTANCE_PLATFORM_KEYS if key in raw},
        )
        streamers = [StreamerParams(alpha=a, cost_coefficient=c) for a, c in zip(alpha, cost)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return platform, streamers, q
