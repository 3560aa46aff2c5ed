"""Tests for the scenario runner, config parsing, and exports."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx import cli, equilibrium, harness, welfare
from headfx.abm import POLICY_KINDS, SimConfig, init_platform, simulate
from headfx.cli import main
from headfx.core import PlatformParams, StreamerParams
from headfx.equilibrium import FixedPointConfig
from headfx.errors import ConfigError, DomainError
from headfx.harness import (
    SWEEPABLE_PARAMETERS,
    ScenarioSpec,
    SweepSpec,
    ab_compare,
    make_scenario,
    parse_config,
    parse_instance,
    run_scenario,
    sensitivity_sweep,
    write_json,
    write_table,
)
from headfx.metrics import MetricsSummary, summarize

FAST_SIM = SimConfig(n_streamers=6, n_viewers=80, n_rounds=10)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INSTANCE_N3 = str(CONFIGS / "instance_n3.json")
BASELINE = str(CONFIGS / "baseline.json")


def seed_runs(spec):
    """abm.simulate's run at each of spec's seeds, in seed order."""
    return [simulate(dataclasses.replace(spec.sim, seed=s)) for s in spec.seeds()]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_instance_takes_the_class_defaults(self, tmp_path):
        # the instance format's own defaults are n_viewers 1000 and cost 1.0;
        # the rest are PlatformParams' and StreamerParams'
        path = write_config(tmp_path, {"alpha": [1.2, 0.4], "q": [0.8, 0.5]})
        platform, streamers, q = parse_instance(path)
        want = PlatformParams(n_streamers=2, n_viewers=1000)
        for field in dataclasses.fields(PlatformParams):
            assert np.array_equal(getattr(platform, field.name), getattr(want, field.name))
        assert streamers == [StreamerParams(alpha=a, cost_coefficient=1.0) for a in (1.2, 0.4)]
        assert np.array_equal(q, [0.8, 0.5])

    def test_minimal_baseline_fills_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, {"name": "Baseline", "seed": 42}))
        assert isinstance(spec, ScenarioSpec)
        assert spec.seed_base == 42 and spec.n_seeds == 10
        assert spec.sim.n_streamers == 15
        assert spec.sim.n_viewers == 1000
        assert spec.sim.n_rounds == 50
        assert spec.sim.base_revenue_share == 0.2
        assert spec.sim.network_effect_beta == 0.15
        assert spec.sim.quality_decay_rate == 0.01
        assert spec.sim.random_effect_scale == 0.2
        assert spec.sim.policy_schedule == ()

    def test_named_scenarios_expand_canonical_schedules(self, tmp_path):
        spec = parse_config(write_config(tmp_path, {"name": "Combined"}))
        kinds = [p.kind for p in spec.sim.policy_schedule]
        assert kinds == ["high_tax", "boost_small", "subsidy"]

    @pytest.mark.parametrize(
        "payload",
        [{"name": "Bogus"}, {"name": "Bogus", "policies": [{"kind": "high_tax"}]},
         {"name": ["Baseline"]}],
    )
    def test_unknown_scenario_name_is_named(self, tmp_path, payload):
        message = re.escape(f"unknown scenario name {payload['name']!r}")
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, payload))

    def test_misspelled_key_rejected_by_name(self, tmp_path):
        path = write_config(
            tmp_path, {"name": "Baseline", "platform": {"n_streamrs": 10}}
        )
        with pytest.raises(ConfigError, match="n_streamrs"):
            parse_config(path)

    def test_out_of_domain_commission_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"name": "Baseline", "platform": {"base_revenue_share": 1.2}}
        )
        with pytest.raises(ConfigError, match="base_revenue_share"):
            parse_config(path)

    def test_policies_forbidden_for_named_scenarios(self, tmp_path):
        path = write_config(
            tmp_path,
            {"name": "Baseline", "policies": [{"kind": "subsidy"}]},
        )
        with pytest.raises(ConfigError, match="canonical"):
            parse_config(path)

    def test_custom_scenario_with_policies(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "name": "custom",
                "policies": [
                    {"kind": "high_tax", "start_round": 3, "top_k": 2, "raised_share": 0.5}
                ],
                "platform": {"n_rounds": 10},
            },
        )
        spec = parse_config(path)
        assert spec.sim.policy_schedule[0].top_k == 2

    def test_sweep_config(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "name": "Baseline",
                "sweep": {"parameter": "network_effect_beta", "values": [0.05, 0.15]},
            },
        )
        spec = parse_config(path)
        assert isinstance(spec, SweepSpec)
        assert spec.values == (0.05, 0.15)

    def test_unknown_sweep_parameter_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"name": "Baseline", "sweep": {"parameter": "nope", "values": [1]}},
        )
        with pytest.raises(ConfigError, match="nope"):
            parse_config(path)


class TestSpecChecks:
    @pytest.mark.parametrize(
        "kwargs,message",
        [({"n_seeds": 0}, "n_seeds must be >= 1"), ({"n_seeds": True}, "n_seeds must be an integer"),
         ({"seed_base": -1}, "seed_base must be >= 0"),
         ({"seed_base": 1.5}, "seed_base must be an integer")],
    )
    def test_scenario_spec_checks_itself(self, kwargs, message):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1)
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(spec, **kwargs)
        with pytest.raises(DomainError, match=message):
            make_scenario("Baseline", sim=FAST_SIM, **{"n_seeds": 1, **kwargs})

    @pytest.mark.parametrize("name", ["High_Tax", "Boost_Small", "Combined"])
    def test_canonical_policies_must_fit_the_horizon(self, name):
        short = dataclasses.replace(FAST_SIM, n_rounds=9)
        with pytest.raises(ConfigError, match=rf"scenario '{name}' needs n_rounds >= 10"):
            make_scenario(name, sim=short, n_seeds=1)
        # the policies start at round 10, so ten rounds are enough
        spec = make_scenario(name, sim=dataclasses.replace(FAST_SIM, n_rounds=10), n_seeds=1)
        assert spec.sim.policy_schedule == harness.canonical_policies(name)

    def test_baseline_fits_any_horizon(self):
        spec = make_scenario("Baseline", sim=dataclasses.replace(FAST_SIM, n_rounds=1),
                             n_seeds=1)
        assert spec.sim.policy_schedule == ()

    def test_scenario_needs_a_round(self):
        # SimConfig allows zero rounds; a scenario has to summarize a history
        with pytest.raises(DomainError, match="n_rounds must be >= 1"):
            ScenarioSpec(name="Baseline", sim=dataclasses.replace(FAST_SIM, n_rounds=0))

    @pytest.mark.parametrize("values", [5, (), [], "0.1", None])
    def test_sweep_values_must_be_a_non_empty_list(self, values):
        base = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1)
        with pytest.raises(ConfigError, match="sweep values must be a non-empty list"):
            SweepSpec(parameter="network_effect_beta", values=values, base=base)

    def test_sweep_builds_its_grid(self):
        base = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=3)
        sweep = SweepSpec(parameter="n_viewers", values=[40, 80], base=base)
        assert sweep.values == (40, 80)
        assert [s.name for s in sweep.scenarios] == ["Baseline_n_viewers_40",
                                                     "Baseline_n_viewers_80"]
        assert [s.sim.n_viewers for s in sweep.scenarios] == [40, 80]
        assert {(s.n_seeds, s.seed_base) for s in sweep.scenarios} == {(2, 3)}


class TestRunScenario:
    def test_single_seed_reproduces_simulate(self, tmp_path):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1, seed_base=5)
        artifact = run_scenario(spec, out_dir=tmp_path)
        (direct,) = seed_runs(spec)
        assert artifact.summaries == (summarize(direct.records, direct.q_initial),)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=0)
        run_scenario(spec, out_dir=tmp_path / "a")
        run_scenario(spec, out_dir=tmp_path / "b")
        for rel in ["Baseline/seed_0.csv", "Baseline/seed_1.csv", "Baseline/summary.csv"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_parallel_workers_match_sequential(self, tmp_path):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=3, seed_base=0)
        run_scenario(spec, out_dir=tmp_path / "seq", threads=1)
        run_scenario(spec, out_dir=tmp_path / "par", threads=2)
        for rel in ["Baseline/seed_0.csv", "Baseline/seed_2.csv", "Baseline/summary.csv"]:
            assert (tmp_path / "seq" / rel).read_bytes() == (tmp_path / "par" / rel).read_bytes()

    def test_summary_csv_layout(self, tmp_path):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=0)
        run_scenario(spec, out_dir=tmp_path)
        lines = (tmp_path / "Baseline" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("seed,gini,")
        assert len(lines) == 1 + 2 + 2  # header, two seeds, mean, sd
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("sd,")

    def test_history_csv_header(self, tmp_path):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1, seed_base=0)
        run_scenario(spec, out_dir=tmp_path)
        header = (tmp_path / "Baseline" / "seed_0.csv").read_text().splitlines()[0]
        n = FAST_SIM.n_streamers
        expected = (
            ["round"]
            + [f"n_{i+1}" for i in range(n)]
            + [f"rev_{i+1}" for i in range(n)]
            + ["platform_rev"]
            + [f"q_{i+1}" for i in range(n)]
            + ["mean_satisfaction"]
        )
        assert header == ",".join(expected)

    def test_history_holds_every_datum(self, tmp_path):
        # each cell of seed_<k>.csv is its RoundRecord's value: counts as
        # integers, the rest at 6 significant digits
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=0)
        run_scenario(spec, out_dir=tmp_path)
        for seed, run in zip(spec.seeds(), seed_runs(spec)):
            with (tmp_path / "Baseline" / f"seed_{seed}.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(run.records) == FAST_SIM.n_rounds
            for row, rec in zip(rows, run.records):
                assert int(row["round"]) == rec.round_index
                for i in range(FAST_SIM.n_streamers):
                    assert int(row[f"n_{i + 1}"]) == rec.viewer_counts[i]
                    assert row[f"rev_{i + 1}"] == f"{rec.streamer_revenues[i]:.6g}"
                    assert row[f"q_{i + 1}"] == f"{rec.qualities[i]:.6g}"
                assert row["platform_rev"] == f"{rec.platform_revenue:.6g}"
                assert row["mean_satisfaction"] == f"{rec.mean_satisfaction:.6g}"

    def test_readme_long_series_recipe(self, tmp_path, monkeypatch):
        # the README's "Long-format series" block, run on a 2-seed history,
        # writes one (seed, round, streamer, viewers) row per viewer count
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Long-format series", 1)[1]
        recipe = section.split("```python\n", 1)[1].split("```", 1)[0]
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=0)
        run_scenario(spec, out_dir=tmp_path / "headfx_out")
        monkeypatch.chdir(tmp_path)
        exec(recipe, {})
        with (tmp_path / "Baseline_viewers.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "round", "streamer", "viewers"]
        assert rows[1:] == [
            [str(seed), str(rec.round_index), str(i + 1), str(count)]
            for seed, run in zip(spec.seeds(), seed_runs(spec))
            for rec in run.records
            for i, count in enumerate(rec.viewer_counts)
        ]

    def test_satisfaction_rises_then_levels_off(self):
        # smoothed with a 5-round window; the raw per-round mean carries
        # ~0.03 of Gumbel noise around its plateau
        good = 0
        for run in seed_runs(make_scenario("Baseline", n_seeds=10, seed_base=0)):
            sats = np.array([rec.mean_satisfaction for rec in run.records])
            assert sats[5:].mean() > sats[0] + 0.2  # rapid early rise
            smooth = np.convolve(sats[4:], np.ones(5) / 5, mode="valid")
            good += bool(np.all(np.diff(smooth) >= -0.01))
        assert good >= 7


class TestABCompare:
    def test_self_comparison_is_identical(self, tmp_path):
        a = ScenarioSpec(name="A", sim=FAST_SIM, n_seeds=2, seed_base=0)
        b = ScenarioSpec(name="B", sim=FAST_SIM, n_seeds=2, seed_base=0)
        comparison = ab_compare([a, b])
        art_a, art_b = comparison.artifacts
        for col, value in art_a.mean.items():
            assert art_b.mean[col] == value
        for (metric, x, y), frac in comparison.ordering_fractions.items():
            assert frac == 0.0  # strict inequality never holds between clones

    def test_mismatched_seed_plans_rejected(self):
        a = ScenarioSpec(name="A", sim=FAST_SIM, n_seeds=2, seed_base=0)
        b = ScenarioSpec(name="B", sim=FAST_SIM, n_seeds=3, seed_base=0)
        with pytest.raises(ConfigError, match="pairing"):
            ab_compare([a, b])

    def test_repeated_scenario_names_rejected_before_any_run(self, tmp_path, capsys):
        # outputs and orderings are keyed by name, so a repeat would overwrite
        a = ScenarioSpec(name="A", sim=FAST_SIM, n_seeds=2, seed_base=0)
        b = ScenarioSpec(name="B", sim=FAST_SIM, n_seeds=2, seed_base=0)
        out = tmp_path / "ab"
        with pytest.raises(ConfigError, match=r"scenario names repeat in \['A', 'B', 'A'\]"):
            ab_compare([a, b, a], out_dir=out)
        assert not out.exists()
        assert main(["ab-test", "--scenarios", "Baseline", "Baseline", "--out", str(out)]) == 2
        assert "scenario names repeat in ['Baseline', 'Baseline']" in capsys.readouterr().err
        assert not out.exists()

    def test_comparison_csv_written(self, tmp_path):
        specs = [
            make_scenario(name, sim=FAST_SIM, n_seeds=2, seed_base=0)
            for name in ("Baseline", "Boost_Small")
        ]
        ab_compare(specs, out_dir=tmp_path)
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0] == "scenario,gini,top3_share,viewer_mobility,tail_share,avg_satisfaction,quality_improvement"
        assert len(lines) == 3
        assert (tmp_path / "orderings.csv").exists()

    def test_comparison_csv_at_four_decimals(self, tmp_path, monkeypatch):
        summary = MetricsSummary(1 / 3, 2 / 3, 1 / 7, 1 / 3, 0.0, -1 / 3)
        monkeypatch.setattr(harness, "summarize", lambda records, q_initial: summary)
        specs = [make_scenario(name, sim=FAST_SIM, n_seeds=2) for name in ("Baseline", "Combined")]
        ab_compare(specs, out_dir=tmp_path)
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[1:] == [
            "Baseline,0.3333,0.6667,0.1429,0.3333,0.0000,-0.3333",
            "Combined,0.3333,0.6667,0.1429,0.3333,0.0000,-0.3333",
        ]


class TestWriters:
    def test_write_table_is_utf8_lf_after_the_header(self, tmp_path):
        path = write_table(tmp_path / "new" / "t.csv", ["name", "value"],
                           [["gini", "0.5000"], ["ünï", 3], ["a,b", ""]])
        data = path.read_bytes()
        assert b"\r" not in data
        assert data == 'name,value\ngini,0.5000\nünï,3\n"a,b",\n'.encode("utf-8")

    def test_write_json_is_indented_utf8_lf(self, tmp_path):
        path = write_json(tmp_path / "new" / "s.json", {"kind": "ü", "hhi": [0.5, 1]})
        assert path.read_bytes() == json.dumps({"kind": "ü", "hhi": [0.5, 1]},
                                               indent=2).encode("utf-8") + b"\n"


def _files(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestOnePool:
    """A command sends every (scenario, seed) run to one pool; odd seed counts
    split each scenario's seeds across the two workers."""

    def test_ab_compare_pooled_matches_sequential(self, tmp_path):
        specs = [
            make_scenario(name, sim=FAST_SIM, n_seeds=3, seed_base=2)
            for name in ("Baseline", "High_Tax", "Boost_Small")
        ]
        for threads in (1, 2):
            ab_compare(specs, out_dir=tmp_path / str(threads), threads=threads)
        sequential = _files(tmp_path / "1")
        assert len(sequential) == 2 + 3 * 4  # comparison, orderings; per scenario 3 seeds, summary
        assert _files(tmp_path / "2") == sequential

    def test_sweep_pooled_matches_sequential(self, tmp_path):
        base = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=3, seed_base=0)
        spec = SweepSpec(parameter="n_viewers", values=(40, 60, 80), base=base)
        for threads in (1, 2):
            sensitivity_sweep(spec, out_dir=tmp_path / str(threads), threads=threads)
        sequential = _files(tmp_path / "1")
        assert list(sequential) == [Path("sweep_n_viewers.csv")]
        assert _files(tmp_path / "2") == sequential


    @pytest.mark.parametrize(
        "threads, n_tasks, expected",
        [(64, 3, [3]), (2, 3, [2]), (8, 1, []), (1, 3, [])],
        ids=["capped_by_tasks", "capped_by_threads", "one_task", "one_thread"],
    )
    def test_pool_size_is_min_of_threads_and_tasks(self, monkeypatch, threads, n_tasks,
                                                     expected):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and runs the tasks in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=n_tasks, seed_base=0)
        artifact = run_scenario(spec, threads=threads)
        assert sizes == expected
        assert len(artifact.summaries) == n_tasks

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        spec = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1, seed_base=0)
        with pytest.raises(DomainError, match="threads must be >= 1"):
            run_scenario(spec, threads=threads)


class TestSweep:
    def test_long_format_csv(self, tmp_path):
        base = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=2, seed_base=0)
        spec = SweepSpec(parameter="n_viewers", values=(40, 80), base=base)
        artifact = sensitivity_sweep(spec, out_dir=tmp_path)
        assert len(artifact.artifacts) == 2
        lines = (tmp_path / "sweep_n_viewers.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,metric,mean,sd"
        assert len(lines) == 1 + 2 * 6

    def test_invalid_value_names_grid_point(self):
        # the spec builds its grid's scenarios, so a bad value fails before any run
        base = ScenarioSpec(name="Baseline", sim=FAST_SIM, n_seeds=1, seed_base=0)
        with pytest.raises(ConfigError, match="1.5"):
            SweepSpec(parameter="base_revenue_share", values=(0.1, 1.5), base=base)


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_unknown_scenario_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "Bogus"}))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "Baseline",
                    "n_seeds": 1,
                    "platform": {"n_streamers": 6, "n_viewers": 80, "n_rounds": 8},
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == {"Baseline/seed_0.csv", "Baseline/summary.csv"}
        assert [p.name for p in out.rglob("*.csv") if b"\r" in p.read_bytes()] == []

    def test_optimize_theta_roundtrip(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "alpha": [1.2, 1.0, 0.4],
                    "q": [0.8, 0.7, 0.5],
                    "cost": [2.0, 2.0, 2.0],
                    "beta": 0.002,
                    "n_viewers": 50,
                }
            )
        )
        out = tmp_path / "opt"
        assert main(["optimize-theta", "--instance", str(inst), "--out", str(out)]) == 0
        lines = (out / "theta_star.csv").read_text().splitlines()
        assert lines[0] == "streamer_id,theta_star"
        assert len(lines) == 4
        welfare_text = (out / "welfare.csv").read_text()
        assert "kkt_residual" in welfare_text

    @pytest.mark.parametrize(
        "instance, stable, max_real",
        [(None, "True", -0.967261),
         ({"alpha": [1, 1, 1], "q": [0.5, 0.5, 0.5], "beta": 50, "n_viewers": 1000},
          "False", 16665.7)],
        ids=["instance_n3", "beta_m_5e4"],
    )
    def test_optimize_theta_reports_audience_stability(self, tmp_path, capsys, instance,
                                                       stable, max_real):
        path = INSTANCE_N3
        if instance is not None:
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(instance))
        out = tmp_path / "opt"
        assert main(["optimize-theta", "--instance", str(path), "--out", str(out)]) == 0
        rows = dict(line.split(",") for line in (out / "welfare.csv").read_text().splitlines())
        assert rows["converged"] == "True"
        assert rows["viewer_stable"] == stable
        assert float(rows["viewer_max_eigen_real_part"]) == pytest.approx(max_real, rel=1e-5)
        verdict = "stable" if stable == "True" else "unstable"
        assert f"audience equilibrium {verdict}" in capsys.readouterr().out

    def test_optimize_theta_output_is_pinned(self, tmp_path, capsys):
        # Bytes recorded before the welfare formulas moved into one kernel.
        # The oracle gap is a difference of two welfares near 167, so a
        # last-bit change to either formula moves its printed digits.
        out = tmp_path / "opt"
        argv = ["optimize-theta", "--instance", INSTANCE_N3, "--out", str(out), "--grid-oracle"]
        assert main(argv) == 0
        assert (out / "theta_star.csv").read_bytes() == (
            b"streamer_id,theta_star\n1,1\n2,0\n3,0\n"
        )
        assert (out / "welfare.csv").read_bytes() == (
            b"quantity,value\nconsumer_surplus,119.439\nproducer_surplus,37.24\n"
            b"platform_profit,10\ntotal_welfare,166.679\nkkt_residual,0\niterations,3\n"
            b"converged,True\nactive_set,2;3\nviewer_stable,True\n"
            b"viewer_max_eigen_real_part,-0.967261\n"
        )
        assert (
            "grid oracle: theta [1.0, 0.0, 0.0] welfare 166.679 "
            "(optimizer - oracle = +1.17e-12)"
        ) in capsys.readouterr().out.splitlines()

    def test_grid_oracle_size_checked_before_solving(self, tmp_path, capsys):
        inst = write_config(tmp_path, {"alpha": [1.2, 1.0, 0.4, 0.9], "q": [0.8, 0.7, 0.5, 0.6]})
        out = tmp_path / "opt"
        code = main(["optimize-theta", "--instance", str(inst), "--out", str(out), "--grid-oracle"])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: grid oracle supports 2 or 3 streamers" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_grid_oracle_failure_exits_3_before_writing(self, tmp_path, capsys, monkeypatch):
        # one sweep per fixed point: the oracle's first block cannot converge
        monkeypatch.setattr(
            welfare, "_default_fixed_point",
            lambda market, tol, max_iter=5000: FixedPointConfig(tol=tol, max_iter=1),
        )
        out = tmp_path / "opt"
        code = main(["optimize-theta", "--instance", INSTANCE_N3, "--out", str(out), "--grid-oracle"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: grid oracle fixed point did not converge")
        assert captured.out == ""
        assert not out.exists()

    def test_optimize_theta_singular_feedback_exits_3(self, tmp_path, capsys):
        # beta M = 2 at the symmetric split: the welfare gradient's
        # I - beta M dP/dV is singular
        inst = write_config(tmp_path, {"alpha": [1, 1], "q": [0.5, 0.5], "beta": 0.04,
                                       "n_viewers": 50})
        out = tmp_path / "opt"
        assert main(["optimize-theta", "--instance", str(inst), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
        assert "singular" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-theta", "--instance", INSTANCE_N3, "--config", "/nonexistent.json"],
            ["optimize-theta", "--instance", INSTANCE_N3, "--seed", "5"],
            ["optimize-theta", "--instance", INSTANCE_N3, "--seeds", "7"],
            ["optimize-theta", "--instance", INSTANCE_N3, "--threads", "9"],
            ["optimize-theta", "--instance", INSTANCE_N3, "--phi", "2"],
            ["equilibrium", "--seeds", "7"],
            ["equilibrium", "--threads", "9"],
            ["dynamics", "--seeds", "7"],
            ["dynamics", "--threads", "9"],
            ["dynamics", "--tol", "1e-10"],
            ["equilibrium", "--tol", "1e-10"],
            ["optimize-theta", "--instance", INSTANCE_N3, "--tol", "1e-8"],
            ["dynamics", "--delta0", "1e-3"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [{"alpha": [float("nan"), 1.0, 0.4]}, {"q": [0.8, float("nan"), 0.5]},
         {"q": [0.8, -0.7, 0.5]}, {"prices": [0.0, float("nan"), 0.0]},
         {"n_viewers": float("inf")}, {"n_viewers": 50.7}, {"n_viewers": 10**400},
         {"n_viewers": 0},
         {"alpha": 5}, {"alpha": ["x"]}, {"q": "ab"}, {"beta": [1]}, {"tau": None},
         {"cost": [float("inf"), 1.0, 1.0]}, {"alpha": [1.2, float("inf"), 0.4]}],
    )
    def test_optimize_theta_invalid_instance_exit_code(self, tmp_path, capsys, bad):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"alpha": [1.2, 1.0, 0.4], "q": [0.8, 0.7, 0.5], **bad}))
        code = main(["optimize-theta", "--instance", str(inst), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_integer_override_runs_as_its_float(self, tmp_path):
        # JSON integers reach SimConfig as ints; the round kernel's float buffers take them
        outputs = []
        for bonus in (0, 0.0):
            cfg = write_config(tmp_path, {
                "name": "Baseline", "n_seeds": 2, "overrides": {"match_bonus": bonus},
                "platform": {"n_streamers": 6, "n_viewers": 80, "n_rounds": 10},
            })
            out = tmp_path / type(bonus).__name__
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(_files(out))
        assert outputs[0] == outputs[1]

    def test_equilibrium_csv_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "Baseline",
                    "platform": {"n_streamers": 4, "n_viewers": 60},
                    "overrides": {},
                }
            )
        )
        out = tmp_path / "eq"
        assert main(
            ["equilibrium", "--config", str(cfg), "--out", str(out), "--beta", "0.01"]
        ) == 0
        lines = (out / "equilibrium.csv").read_text().splitlines()
        assert lines[0] == "streamer_id,n_star,q_star,share,profit"
        assert len(lines) == 5

    def test_ab_test_writes_comparison(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "Baseline",
                    "n_seeds": 2,
                    "platform": {"n_streamers": 6, "n_viewers": 80, "n_rounds": 12},
                }
            )
        )
        out = tmp_path / "ab"
        code = main(
            [
                "ab-test", "--config", str(cfg), "--out", str(out),
                "--scenarios", "Baseline", "Boost_Small",
            ]
        )
        assert code == 0
        assert (out / "comparison.csv").exists()
        assert (out / "orderings.csv").exists()

    def test_ab_test_rejects_horizon_too_short_for_policies(self, tmp_path):
        # canonical schedules start at round 10; an 8-round horizon cannot host them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"name": "Baseline", "n_seeds": 2, "platform": {"n_rounds": 8}})
        )
        code = main(["ab-test", "--config", str(cfg), "--scenarios", "Baseline", "Combined"])
        assert code == 2

    def test_ab_test_short_horizon_names_the_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"name": "Baseline", "platform": {"n_rounds": 5}})
        code = main(["ab-test", "--config", str(cfg), "--scenarios", "Baseline", "High_Tax",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'High_Tax'" in err
        assert "canonical policies start at round 10" in err

    def test_sweep_cli_flags(self, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep", "--parameter", "network_effect_beta", "--values", "0.05,0.15",
                "--seeds", "2", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep_network_effect_beta.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,metric,mean,sd"
        assert len(lines) == 1 + 2 * 6

    def test_sweep_config_takes_seed_flags(self, tmp_path):
        sweep = {"parameter": "network_effect_beta", "values": [0.05, 0.15]}
        platform = {"n_streamers": 6, "n_viewers": 80, "n_rounds": 10}
        flagged = write_config(
            tmp_path, {"name": "Baseline", "platform": platform, "sweep": sweep}, "a.json"
        )
        pinned = write_config(
            tmp_path,
            {"name": "Baseline", "seed": 5, "n_seeds": 2, "platform": platform, "sweep": sweep},
            "b.json",
        )
        assert main(["sweep", "--config", str(flagged), "--seed", "5", "--seeds", "2",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--config", str(pinned), "--out", str(tmp_path / "b")]) == 0
        name = "sweep_network_effect_beta.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert main(["sweep", "--config", str(pinned), "--seed", "0",
                     "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "payload,flags,key",
        [
            ({"platform": {"network_effect_beta": float("nan")}}, [], "network_effect_beta"),
            ({"platform": {"network_effect_beta": float("inf")}}, [], "network_effect_beta"),
            ({"overrides": {"match_bonus": float("nan")}}, [], "match_bonus"),
            ({"overrides": {"interaction_weight": float("inf")}}, [], "interaction_weight"),
            ({"overrides": {"prices": [0.0] * 14 + [float("nan")]}}, [], "prices"),
            (None, [], "cannot read"),
            ({"overrides": {"prices": "abc"}}, [], "prices"),
            ({"overrides": {"prices": 5}}, [], "prices"),
            ({"name": "custom", "policies": 5}, [], "policies"),
            ({"name": "custom", "policies": [{"kind": "subsidy", "per_round_amount": "x"}]},
             [], "per_round_amount"),
            ({"sweep": {"parameter": "n_viewers", "values": 5}}, [], "sweep values"),
            ({"seed": -1}, [], "seed_base"),
            ({"overrides": {"boost_investment": "false"}}, [], "boost_investment"),
            ({"platform": {"n_viewers": 10**48}}, [], "n_viewers"),
            ({}, ["--seeds", "0"], "n_seeds"),
            ({}, ["--seeds", "-1"], "n_seeds"),
        ],
        ids=["beta_nan", "beta_inf", "match_bonus_nan", "interaction_weight_inf", "prices_nan",
             "missing_file", "prices_string", "prices_number", "policies_number",
             "policy_amount_string", "sweep_values_number", "seed_negative", "boost_string",
             "n_viewers_beyond_intp", "seeds_flag_zero", "seeds_flag_negative"],
    )
    def test_simulate_rejects_non_finite_config(self, tmp_path, capsys, payload, flags, key):
        # payload None: no file at the --config path
        cfg = tmp_path / "missing.json"
        if payload is not None:
            cfg = write_config(tmp_path, {"name": "Baseline", "n_seeds": 1, **payload})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "o" / "Baseline").exists()

    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"platform": {"n_streamers": 15.5}}, "n_streamers"),
            ({"platform": {"n_viewers": 100.5}}, "n_viewers"),
            ({"platform": {"n_rounds": 2.5}}, "n_rounds"),
            ({"overrides": {"exit_patience": 5.0}}, "exit_patience"),
            ({"overrides": {"n_content_types": True}}, "n_content_types"),
            ({"name": "custom", "policies": [{"kind": "subsidy", "start_round": 10.5}]},
             "start_round"),
            ({"name": "custom", "policies": [{"kind": "high_tax", "top_k": 2.5}]}, "top_k"),
            ({"seed": True}, "seed_base"),
            ({"n_seeds": True}, "n_seeds"),
        ],
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_simulate_rejects_non_integer_counts(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path, {"name": "Baseline", "n_seeds": 1, **payload})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be an integer" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dynamics", "--dt", "nan"], "dt must be finite and > 0"),
            (["dynamics", "--dt", "inf"], "dt must be finite and > 0"),
            (["dynamics", "--t-end", "nan"], "t_end must be finite and > 0"),
            (["dynamics", "--t-end", "inf"], "t_end must be finite and > 0"),
            (["dynamics", "--t-end", "1e300", "--dt", "1e-10"], "t_end / dt must be at most"),
            (["dynamics", "--dt", "5e-324"], "t_end / dt must be at most"),
            (["dynamics", "--t-end", "1e300", "--dt", "1e-5"], "t_end / dt must be at most"),
            (["dynamics", "--dt", "500", "--t-end", "200"], "rounds to zero RK4 steps"),
            (["equilibrium", "--beta", "inf"], "beta must be finite and >= 0"),
            (["dynamics", "--beta", "inf"], "beta must be finite and >= 0"),
        ],
        ids=["dt_nan", "dt_inf", "t_end_nan", "t_end_inf", "steps_inf", "dt_subnormal",
             "steps_beyond_intp", "zero_steps", "eq_beta_inf", "dyn_beta_inf"],
    )
    def test_analytic_commands_reject_non_finite_controls(self, tmp_path, capsys, argv,
                                                          message):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["ab-test"], ["sweep", "--parameter", "n_viewers", "--values", "50"]],
        ids=lambda argv: argv[0],
    )
    def test_zero_rounds_rejected_before_any_seed_runs(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"name": "Baseline", "n_seeds": 1,
                                      "platform": {"n_rounds": 0}})
        out = tmp_path / "o"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_rounds must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, n_streamers, argv, message",
        [
            ("Combined", 2, ["simulate"],
             "scenario 'Combined': high_tax top_k 3 exceeds n_streamers 2"),
            ("Boost_Small", 1, ["simulate"],
             "scenario 'Boost_Small': boost_small bottom_fraction 0.5 selects no streamer of 1"),
            ("Baseline", 2, ["ab-test", "--scenarios", "Baseline", "High_Tax"],
             "scenario 'High_Tax': high_tax top_k 3 exceeds n_streamers 2"),
            ("Combined", 15, ["sweep", "--parameter", "n_streamers", "--values", "15,2"],
             "sweep value 2 invalid for n_streamers: high_tax top_k 3 exceeds n_streamers 2"),
        ],
        ids=["simulate-top_k", "simulate-bottom_fraction", "ab-test", "sweep"],
    )
    def test_unrankable_policies_rejected_before_any_seed_runs(
        self, tmp_path, capsys, name, n_streamers, argv, message
    ):
        cfg = write_config(tmp_path, {
            "name": name, "n_seeds": 1,
            "platform": {"n_streamers": n_streamers, "n_viewers": 40, "n_rounds": 10},
        })
        out = tmp_path / "o"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    def test_unconverged_equilibrium_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "FixedPointConfig",
                            functools.partial(FixedPointConfig, max_iter=1))
        out = tmp_path / "o"
        assert main(["equilibrium", "--out", str(out)]) == 3
        assert "equilibrium solve did not converge" in capsys.readouterr().err
        assert not (out / "equilibrium_summary.json").exists()
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibrium", "--beta", "1e307"],
            ["dynamics", "--beta", "1e307"],
            ["dynamics", "--kind", "path-dependence", "--beta", "1e307"],
            ["dynamics", "--kind", "portrait", "--beta", "1e307"],
            ["optimize-theta", "--instance", "{instance}"],
            ["optimize-theta", "--instance", "{instance}", "--grid-oracle"],
        ],
        ids=["equilibrium", "trajectory", "path-dependence", "portrait", "optimize",
             "grid-oracle"],
    )
    def test_numerical_failure_prints_one_line(self, tmp_path, capsys, argv):
        # the network term overflows to a non-finite utility on the first
        # step; the solver's own check reports it, and numpy stays silent
        instance = json.loads(Path(INSTANCE_N3).read_text()) | {"beta": 1e308}
        path = write_config(tmp_path, instance)
        out = tmp_path / "o"
        argv = [arg.format(instance=path) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "beta, verdict, max_real",
        [(["--beta", "0"], "unstable", 16.31), ([], "stable", -0.2113)],
        ids=["beta_0", "config_beta"],
    )
    def test_equilibrium_states_its_stability(self, tmp_path, capsys, beta, verdict,
                                              max_real):
        # At beta 0 the Q_MAX clamp binds on every streamer of baseline.json,
        # so the dispersed point the probe returns is not a stable rest point.
        out = tmp_path / "eq"
        assert main(["equilibrium", "--config", BASELINE, "--out", str(out), *beta]) == 0
        assert f", {verdict}: max eigenvalue real part" in capsys.readouterr().out
        summary = json.loads((out / "equilibrium_summary.json").read_text())
        assert sorted(summary) == sorted(
            ["beta", "max_share", "residual", "hhi", "stable", "eigen_real_parts"])
        assert summary["beta"] == (0.0 if beta else 0.15)
        assert summary["stable"] is (verdict == "stable")
        assert len(summary["eigen_real_parts"]) == 2 * 15
        assert summary["eigen_real_parts"][0] == pytest.approx(max_real, rel=1e-3)
        assert {p.name for p in out.iterdir()} == {"equilibrium.csv",
                                                   "equilibrium_summary.json"}

    @pytest.mark.parametrize("config", [BASELINE, str(CONFIGS / "combined.json")],
                             ids=["baseline", "combined"])
    def test_analytic_instance_is_the_abm_population(self, config):
        # equilibrium and dynamics solve the market the seed's ABM run simulates
        sim = parse_config(config).sim
        population = init_platform(sim)
        platform, streamers = cli.analytic_instance(sim)
        assert platform.n_streamers == len(streamers) == sim.n_streamers
        assert platform.n_viewers == sim.n_viewers
        costs = np.array([s.cost_coefficient for s in streamers])
        assert costs.tobytes() == population.cost_coef.tobytes()
        assert {s.alpha for s in streamers} == {population.mean_quality_sens}

    def test_analytic_instance_allocates_only_the_population(self):
        # At M = 100,000 and N = 50 the kept viewer columns (three float64,
        # two int8) make 2.6 MB. The bound sits below the 4.47 MB of a draw
        # that also allocates the round kernel's buffers.
        cli.analytic_instance(SimConfig(n_streamers=2, n_viewers=10))  # lazy imports
        tracemalloc.start()
        try:
            cli.analytic_instance(SimConfig(n_streamers=50, n_viewers=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["ab-test"], ["sweep", "--parameter", "n_viewers", "--values", "50"]],
        ids=lambda argv: argv[0],
    )
    def test_threads_below_one_exit_2(self, tmp_path, capsys, argv, threads):
        cfg = write_config(tmp_path, {"name": "Baseline", "n_seeds": 1,
                                      "platform": {"n_viewers": 40, "n_rounds": 10}})
        out = tmp_path / "o"
        code = main(argv + ["--config", str(cfg), "--threads", threads, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"threads must be >= 1, got {threads}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "equilibrium", "dynamics"])
    def test_negative_prices_exit_2_in_every_subcommand(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"name": "Baseline", "n_seeds": 1,
                                      "platform": {"n_streamers": 3, "n_viewers": 40},
                                      "overrides": {"prices": [-1.0, 0.0, 2.0]}})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "prices[0] must be finite and >= 0" in err
        assert not out.exists()

    def test_sweep_without_parameters_is_config_error(self):
        assert main(["sweep"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--parameter", "n_viewers", "--values", "500,1000"], ["--parameter", "n_viewers"],
         ["--values", "500,1000"]],
        ids=["both", "parameter", "values"],
    )
    def test_sweep_flags_beside_a_sweep_config_exit_2(self, tmp_path, capsys, flags):
        config = write_config(tmp_path, {
            "name": "Baseline", "n_seeds": 1, "platform": {"n_viewers": 40, "n_rounds": 10},
            "sweep": {"parameter": "network_effect_beta", "values": [0.05]},
        })
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), *flags, "--out", str(out)]) == 2
        assert "config already has a [sweep] section" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-1", "0"])
    def test_portrait_grid_below_one_exit_2(self, tmp_path, capsys, grid):
        out = tmp_path / "o"
        code = main(["dynamics", "--kind", "portrait", "--grid", grid, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"--grid must be >= 1, got {grid}" in err
        assert not out.exists()

    def test_portrait_grid_beyond_memory_exit_2(self, tmp_path, capsys):
        # 2**62 starts: numpy refuses the array before it allocates anything
        out = tmp_path / "o"
        code = main(["dynamics", "--kind", "portrait", "--grid", str(2**62), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--grid" in err
        assert not out.exists()

    def test_stability_kind_is_an_invalid_choice(self, tmp_path, capsys):
        # equilibrium states the stability of the point it solves
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--kind", "stability", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'stability'" in capsys.readouterr().err
        assert not out.exists()

    def test_trajectory_buffer_numpy_cannot_allocate_exit_2(self, tmp_path, capsys):
        # 1e18 records: numpy refuses the shape before touching any memory
        out = tmp_path / "o"
        code = main(["dynamics", "--kind", "trajectory", "--dt", "1e-17", "--t-end", "10",
                     "--record-every", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert "999999999999999873 trajectory records" in err and "--record-every" in err
        assert not out.exists()

    def test_trajectory_starts_where_the_equilibrium_probe_starts(self, tmp_path, monkeypatch):
        seen = {}
        integrate, solve_joint = cli.integrate, equilibrium.solve_joint_equilibrium

        def spy_integrate(platform, streamers, state0, cfg, theta=None):
            seen["instance"], seen["trajectory"] = (platform, streamers), state0.n.copy()
            return integrate(platform, streamers, state0, cfg, theta)

        def spy_solve_joint(platform, streamers, cfg, n0=None, **kwargs):
            seen["probe"] = np.array(n0)
            return solve_joint(platform, streamers, cfg, n0=n0, **kwargs)

        monkeypatch.setattr(cli, "integrate", spy_integrate)
        monkeypatch.setattr(equilibrium, "solve_joint_equilibrium", spy_solve_joint)
        config = write_config(
            tmp_path, {"name": "Baseline", "platform": {"n_streamers": 3, "n_viewers": 70}}
        )
        code = main(["dynamics", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--beta", "0.005", "--dt", "0.05", "--t-end", "1"])
        assert code == 0
        platform, streamers = seen["instance"]
        cfg = equilibrium.FixedPointConfig()
        equilibrium.max_share_from_perturbed_start(platform, streamers, cfg)
        n0 = np.full(3, 70.0 / 3)
        n0[0] = min(n0[0] + 1e-3 * 70.0, 70.0)
        assert np.array_equal(seen["trajectory"], seen["probe"])
        assert np.array_equal(seen["trajectory"], n0)

    def test_dynamics_sidecar_summary(self, tmp_path):
        out = tmp_path / "dyn"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"name": "Baseline", "platform": {"n_streamers": 3, "n_viewers": 60}})
        )
        code = main(
            [
                "dynamics", "--config", str(cfg), "--out", str(out),
                "--kind", "trajectory", "--beta", "0.005",
                "--dt", "0.05", "--t-end", "5", "--record-every", "10",
            ]
        )
        assert code == 0
        summary = json.loads((out / "dynamics_summary.json").read_text())
        assert "terminal_hhi" in summary and "stable" in summary
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,n_1,n_2,n_3,q_1,q_2,q_3"

    @pytest.mark.parametrize(
        "kind, table, header, keys",
        [
            ("path-dependence", "path_dependence.csv", "t,gap_plus,gap_minus",
             ["winner_plus", "winner_minus", "terminal_hhi", "terminal_share_gap"]),
            ("portrait", "phase_portrait.csv", "trajectory,t,streamer,n,q",
             ["n_trajectories", "n_failures", "terminal_hhi"]),
        ],
    )
    def test_dynamics_kinds_write_their_outputs(self, tmp_path, kind, table, header, keys):
        cfg = write_config(tmp_path, {"name": "Baseline", "platform": {"n_streamers": 3,
                                                                      "n_viewers": 60}})
        out = tmp_path / "dyn"
        code = main(["dynamics", "--config", str(cfg), "--out", str(out), "--kind", kind,
                     "--beta", "0.005", "--dt", "0.05", "--t-end", "1", "--grid", "2"])
        assert code == 0
        summary = json.loads((out / "dynamics_summary.json").read_text())
        assert sorted(summary) == sorted(["kind", "beta", *keys])
        assert summary["kind"] == kind
        assert {p.name for p in out.iterdir()} == {"dynamics_summary.json", table}
        lines = (out / table).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1


    def test_phase_portrait_csv_holds_every_sample(self, tmp_path, monkeypatch):
        # one row per (trajectory, sample, streamer) of each completed
        # trajectory, the floats at 6 significant digits
        seen = {}

        def spy_portrait(*args, **kwargs):
            seen["portrait"] = cli_portrait(*args, **kwargs)
            return seen["portrait"]

        cli_portrait = cli.phase_portrait
        monkeypatch.setattr(cli, "phase_portrait", spy_portrait)
        cfg = write_config(tmp_path, {"name": "Baseline", "platform": {"n_streamers": 3,
                                                                      "n_viewers": 60}})
        out = tmp_path / "dyn"
        code = main(["dynamics", "--config", str(cfg), "--out", str(out), "--kind", "portrait",
                     "--beta", "0.005", "--dt", "0.05", "--t-end", "1", "--grid", "2"])
        assert code == 0
        with (out / "phase_portrait.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [
            {"trajectory": str(idx), "t": f"{t:.6g}", "streamer": str(i + 1),
             "n": f"{n[i]:.6g}", "q": f"{q[i]:.6g}"}
            for idx, traj in enumerate(seen["portrait"].trajectories)
            if traj is not None
            for t, n, q in zip(traj.times, traj.n, traj.q)
            for i in range(3)
        ]
        assert len(seen["portrait"].completed()) == 2
        assert rows == expected

# Values no documented key accepts everywhere: NaN, infinities, negatives,
# fractions, booleans, null, strings, lists, objects, integers past intp.
JUNK = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1, -2.5, 0.5, True, False, None, "x", "1",
     [], [1.0], {}, {"a": 1}, 2**63, 10**30, -(2**64)]
)
_SIM = SimConfig()


@st.composite
def scenario_documents(draw):
    """A scenario or sweep config at tiny sizes, every value valid."""
    n = draw(st.integers(3, 4))  # the top-3 share warns below 3 streamers
    # the named schedules start at round 10, so only Baseline runs at 3 rounds
    name = draw(st.sampled_from(("Baseline", "custom", "Combined")))
    doc = {
        "name": name, "seed": draw(st.integers(0, 5)), "n_seeds": 1,
        "platform": {"n_streamers": n, "n_viewers": draw(st.integers(1, 50)),
                     "n_rounds": draw(st.integers(1, 3)),
                     "network_effect_beta": draw(st.sampled_from([0.0, 0.15, 0.5]))},
        "overrides": draw(st.fixed_dictionaries({}, optional={
            "prices": st.just([0.1] * n), "match_bonus": st.just(0.3),
            "exit_patience": st.integers(1, 3), "n_content_types": st.integers(1, 3),
            "boost_investment": st.booleans(), "interaction_weight": st.just(0.1)})),
    }
    if name == "custom":
        doc["policies"] = [
            {"kind": kind, "start_round": 1, "top_k": 1, "per_round_amount": 2.0}
            for kind in draw(st.lists(st.sampled_from(POLICY_KINDS), max_size=2))
        ]
    if draw(st.booleans()):
        parameter = draw(st.sampled_from(SWEEPABLE_PARAMETERS))
        values = [3, 4] if parameter.startswith("n_") else [0.1, 0.2]
        doc["sweep"] = {"parameter": parameter, "values": values}
    return doc


@st.composite
def instance_documents(draw):
    """An optimize-theta instance file at tiny sizes, every value valid."""
    n = draw(st.integers(1, 3))
    doc = {key: draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
           for key, lo, hi in (("alpha", 0.0, 2.0), ("q", 0.0, 1.0), ("cost", 0.5, 3.0),
                               ("prices", 0.0, 0.2))}
    return {**doc, "n_viewers": draw(st.integers(1, 50)), "beta": draw(st.floats(0.0, 0.01)),
            "tau": 0.2, "phi": 1.0}


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            yield from _slots(child)


@st.composite
def damaged(draw, documents):
    """A valid document with up to two values replaced by junk or dropped."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 9)) == 0:
            return draw(JUNK)  # the whole document
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JUNK)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    document=st.one_of(
        st.tuples(st.just("config"), damaged(scenario_documents())),
        st.tuples(st.just("instance"), damaged(instance_documents())),
    )
)
def test_any_document_exits_with_a_documented_code(document):
    kind, payload = document
    if kind == "instance":
        command = "optimize-theta"
    else:
        command = "sweep" if isinstance(payload, dict) and "sweep" in payload else "simulate"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, f"--{kind}", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)
