"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import COUNT_READERS, Span, self_times  # noqa: E402
from headfx.cli import main as cli_main  # noqa: E402
from headfx.metrics import METRIC_COLUMNS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    proc = _run("abm_scale", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    every_name = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = {m.group(1) for m in map(METRIC_LINE.match, lines[:-1]) if m}
    assert set(declared) <= printed <= every_name


def test_per_layer_catalogue_matches_benchmark_json():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert declared == list(layers.CATALOGUE)
    computed, _ = layers.per_layer([], passes=1, main_pid=0)
    whole_run = {"trace_overhead_ratio", "viewer_choices_per_s", "failed_fraction"}
    assert set(computed) | whole_run == set(declared)
    workloads = {w["name"] for w in SPEC["workloads"]}
    for moves, on, quiet in layers.CATALOGUE.values():
        assert set(on.split()) <= workloads and set(quiet.split()) <= workloads


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("policy_study", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _span(sid, parent, t0, t1, pid=1, cpu=None):
    cpu = (t1 - t0) if cpu is None else cpu
    return Span(sid, parent, 0, f"s{sid}", pid, t0, t1, 0.0, cpu)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0, cpu=7.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 2, 1.5, 2.5),      # grandchild: inside span 2, not subtracted from 1 again
        _span(4, 1, 5.0, 6.0, cpu=0.25),
        _span(5, 1, 2.0, 9.0, pid=2),  # a forked worker runs concurrently
    ]
    selfs = self_times(spans)
    wall, cpu = selfs[1]
    assert wall == pytest.approx(10.0 - 2.0 - 1.0)
    assert cpu == pytest.approx(7.0 - 2.0 - 0.25)
    assert selfs[2][0] == pytest.approx(2.0 - 1.0)
    assert selfs[3][0] == pytest.approx(1.0)
    assert selfs[5][0] == pytest.approx(7.0)


def test_repeated_equilibria_are_counted_at_criterion_7_tolerance():
    def eq(n0, q0):
        return SimpleNamespace(state=SimpleNamespace(n=np.array([n0, 100.0 - n0]), q=np.array([q0, q0])))

    args = {"platform": SimpleNamespace(n_viewers=100)}
    count = COUNT_READERS["equilibrium.enumerate_equilibria"]
    assert count(args, [eq(60.0, 0.5)]) == {"duplicates": 0}
    # Within 1e-6*M in n and 1e-6 in q of an earlier find: a repeat.
    repeated = [eq(60.0, 0.5), eq(60.0 + 5e-5, 0.5 + 5e-7), eq(60.0 - 5e-5, 0.5)]
    assert count(args, repeated) == {"duplicates": 2}
    # Distinct in n or in q: not a repeat.
    assert count(args, [eq(60.0, 0.5), eq(60.0 + 2e-4, 0.5), eq(60.0, 0.5 + 2e-6)]) == {"duplicates": 0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(6500) == 99.0
    assert layers.tail_percentile(12) == 0.0
    assert layers.tail_percentile(100) == 90.0


@pytest.fixture(scope="module")
def scenario_outputs(tmp_path_factory):
    """Real CLI outputs of a small two-seed batch and a small sweep."""
    out = tmp_path_factory.mktemp("cli")
    config = out / "small.json"
    config.write_text(json.dumps({"name": "Baseline", "seed": 4, "n_seeds": 2,
                                  "platform": {"n_viewers": 200, "n_rounds": 6}}))
    assert cli_main(["simulate", "--config", str(config), "--out", str(out / "sim")]) == 0
    assert cli_main(["sweep", "--config", str(config), "--parameter", "n_viewers",
                     "--values", "100,200", "--out", str(out / "sweep")]) == 0
    return out


def _rewrite_cell(path: Path, row: int, column: str, value: str) -> None:
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[row][lines[0].index(column)] = value
    path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")


def test_history_check_rejects_a_broken_revenue_identity(scenario_outputs, tmp_path):
    scen = tmp_path / "Baseline"
    shutil.copytree(scenario_outputs / "sim" / "Baseline", scen)
    assert checks.scenario_problems(scen, [4, 5], 200, 1.0, 6) == []
    _rewrite_cell(scen / "seed_5.csv", 3, "platform_rev", "41.5")
    problems = checks.scenario_problems(scen, [4, 5], 200, 1.0, 6)
    assert len(problems) == 1 and "revenue" in problems[0]


def test_history_check_rejects_lost_viewers(scenario_outputs, tmp_path):
    scen = tmp_path / "Baseline"
    shutil.copytree(scenario_outputs / "sim" / "Baseline", scen)
    path = scen / "seed_4.csv"
    old = path.read_text().splitlines()[2].split(",")[1]
    _rewrite_cell(path, 2, "n_1", str(int(old) - 1))
    assert any("sum n_i" in p for p in checks.scenario_problems(scen, [4, 5], 200, 1.0, 6))


def test_summary_check_rejects_a_wrong_mean_row(scenario_outputs, tmp_path):
    scen = tmp_path / "Baseline"
    shutil.copytree(scenario_outputs / "sim" / "Baseline", scen)
    summary = scen / "summary.csv"
    mean = float(summary.read_text().splitlines()[3].split(",")[1])
    _rewrite_cell(summary, 3, "gini", f"{mean + 0.01:.4f}")
    assert any("gini" in p for p in checks.summary_problems(summary, [4, 5]))


def test_sweep_check_rejects_a_missing_row(scenario_outputs, tmp_path):
    path = tmp_path / "sweep.csv"
    lines = (scenario_outputs / "sweep" / "sweep_n_viewers.csv").read_text().splitlines()
    path.write_text("\n".join(lines) + "\n")
    assert checks.sweep_problems(path, "n_viewers", [100, 200], METRIC_COLUMNS) == []
    path.write_text("\n".join(line for line in lines if not line.startswith("n_viewers,200,gini")) + "\n")
    assert checks.sweep_problems(path, "n_viewers", [100, 200], METRIC_COLUMNS) == [
        "sweep.csv: no row for (200, gini)"]


def _path_dependence(out: Path, winner_plus: int, hhi: float) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "dynamics_summary.json").write_text(json.dumps(
        {"winner_plus": winner_plus, "winner_minus": 4, "terminal_hhi": hhi}))
    (out / "path_dependence.csv").write_text("t,gap_plus,gap_minus\n0,0.5,-0.5\n200,999,-1\n")
    return out


def test_path_dependence_check(tmp_path):
    assert checks.path_dependence_problems(_path_dependence(tmp_path / "ok", 0, 0.99)) == []
    assert checks.path_dependence_problems(_path_dependence(tmp_path / "a", 2, 0.99))
    assert checks.path_dependence_problems(_path_dependence(tmp_path / "b", 0, 0.5))


def _solver_ops(found: list) -> list:
    def state(n0, q0):
        return SimpleNamespace(n=np.array([n0, 100.0 - n0]), q=np.array([q0, q0]))

    solved = state(60.0, 0.5)
    return [
        workloads.Op("find_critical_beta", 0.01),
        workloads.Op("solve_joint_equilibrium", SimpleNamespace(state=solved, converged=True)),
        workloads.Op("integrate", SimpleNamespace(terminal=state(60.0 + 1e-5, 0.5))),
        workloads.Op("enumerate_equilibria", [SimpleNamespace(state=state(*f)) for f in found]),
        workloads.Op("stability_at", SimpleNamespace(stable=True, eigen_real_parts=np.array([-1.0]))),
        workloads.Op("path-dependence"),
    ]


def test_criterion_7_check_rejects_a_repeated_equilibrium(tmp_path):
    solver = workloads.SolverLoops(0, tmp_path, tmp_path / "work")
    _path_dependence(solver.out, 0, 0.99)
    ops = _solver_ops([(60.0, 0.5)])
    solver.check(ops)
    assert [op.problems for op in ops] == [[]] * 6
    ops = _solver_ops([(60.0, 0.5), (60.0 + 5e-5, 0.5)])
    solver.check(ops)
    assert ops[3].problems == ["2 equilibria found, 0 away from the solved one"]


def _allocation(out: Path, kkt: str, active: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "welfare.csv").write_text(
        "quantity,value\ntotal_welfare,166.679\n"
        f"kkt_residual,{kkt}\niterations,3\nconverged,True\nactive_set,{active}\n")
    return out


ORACLE = "grid oracle: theta [1.0, 0.0, 0.0] welfare 166.679 (optimizer - oracle = +3.13e-12)\n"


def test_allocation_check(tmp_path):
    assert checks.allocation_problems(_allocation(tmp_path / "ok", "0", "2;3"), ORACLE) == []
    assert checks.allocation_problems(_allocation(tmp_path / "kkt", "1e-6", "2;3"), ORACLE)
    assert checks.allocation_problems(_allocation(tmp_path / "support", "0", "3"), ORACLE)
    below = ORACLE.replace("+3.13e-12", "-0.01")
    assert checks.allocation_problems(_allocation(tmp_path / "w", "0", "2;3"), below)
