"""Output checks for the benchmark workloads.

Each check reads what one CLI invocation or solver call produced and
returns a list of problems; an empty list means the output is correct.
The tolerances are those of the acceptance criteria in
``tests/test_acceptance.py`` where one applies.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# Values in the history CSV are written with 6 significant digits, so each
# may be off by half a unit in the 6th digit.
_G6 = 5e-6


def history_problems(path: Path, m: int, r: float, rounds: int) -> list[str]:
    """Every row conserves viewers (sum n_i = M) and revenue (sum rev_i + platform_rev = R M)."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_cols = [i for i, h in enumerate(header) if h.startswith("n_")]
    rev_cols = [i for i, h in enumerate(header) if h.startswith("rev_")]
    plat = header.index("platform_rev")
    problems = []
    if len(body) != rounds:
        problems.append(f"{path.name}: {len(body)} rows, expected {rounds}")
    for row in body:
        viewers = sum(int(row[i]) for i in n_cols)
        if viewers != m:
            problems.append(f"{path.name} round {row[0]}: sum n_i = {viewers}, expected {m}")
        revs = [float(row[i]) for i in rev_cols] + [float(row[plat])]
        slack = _G6 * sum(abs(x) for x in revs) + 1e-9 * r * m
        if abs(sum(revs) - r * m) > slack:
            problems.append(
                f"{path.name} round {row[0]}: revenue sums to {sum(revs):.9g}, expected {r * m:g}"
            )
    return problems


def summary_problems(path: Path, seeds: list[int]) -> list[str]:
    """The mean row agrees with the per-seed rows at the written 4 decimals."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    by_key = {row[0]: row for row in rows[1:]}
    problems = []
    missing = [s for s in seeds if str(s) not in by_key]
    if missing or "mean" not in by_key:
        return [f"{path}: missing rows for seeds {missing} or the mean row"]
    for col in range(1, len(header)):
        mean = sum(float(by_key[str(s)][col]) for s in seeds) / len(seeds)
        written = float(by_key["mean"][col])
        # each seed row and the mean row are rounded to 4 decimals
        if abs(mean - written) > 1e-4 + 1e-12:
            problems.append(f"{path}: {header[col]} mean row {written} vs seed mean {mean:.6f}")
    return problems


def scenario_problems(scen_dir: Path, seeds: list[int], m: int, r: float, rounds: int) -> list[str]:
    """History files for every seed plus a consistent summary.csv."""
    problems = []
    for seed in seeds:
        path = scen_dir / f"seed_{seed}.csv"
        if not path.is_file():
            problems.append(f"missing {path}")
            continue
        problems += history_problems(path, m, r, rounds)
    summary = scen_dir / "summary.csv"
    if not summary.is_file():
        return problems + [f"missing {summary}"]
    return problems + summary_problems(summary, seeds)


def sweep_problems(path: Path, parameter: str, values: list[float], metrics) -> list[str]:
    """Every (value, metric) row of the long-format sweep grid is present and finite."""
    if not path.is_file():
        return [f"missing {path}"]
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = set()
    problems = []
    for row in rows:
        if row["parameter"] != parameter:
            problems.append(f"{path.name}: row for parameter {row['parameter']!r}")
        if not (math.isfinite(float(row["mean"])) and math.isfinite(float(row["sd"]))):
            problems.append(f"{path.name}: non-finite value in {row}")
        seen.add((float(row["value"]), row["metric"]))
    for value in values:
        for metric in metrics:
            if not any(abs(v - value) <= 1e-6 * abs(value) and mm == metric for v, mm in seen):
                problems.append(f"{path.name}: no row for ({value}, {metric})")
    return problems


def path_dependence_problems(out: Path) -> list[str]:
    """Criterion 9 as it applies to the N-streamer CLI run.

    The twin whose streamer 0 starts ahead ends with streamer 0 dominant
    (HHI above 0.9); the twin that starts it behind does not.
    """
    summary_path = out / "dynamics_summary.json"
    csv_path = out / "path_dependence.csv"
    if not summary_path.is_file() or not csv_path.is_file():
        return [f"missing path-dependence outputs in {out}"]
    summary = json.loads(summary_path.read_text())
    problems = []
    if summary.get("winner_plus") != 0:
        problems.append(f"advantaged twin won by streamer {summary.get('winner_plus')}, not 0")
    if summary.get("winner_minus") == 0:
        problems.append("disadvantaged twin still won by streamer 0")
    if not summary.get("terminal_hhi", 0.0) > 0.9:
        problems.append(f"terminal HHI {summary.get('terminal_hhi')} not above 0.9")
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows or not all(math.isfinite(float(x)) for row in rows for x in row):
        problems.append("path_dependence.csv is empty or non-finite")
    return problems


_ORACLE = re.compile(
    r"^grid oracle: theta \[(?P<theta>[^\]]*)\] welfare (?P<w>\S+) "
    r"\(optimizer - oracle = (?P<gap>\S+)\)$",
    re.MULTILINE,
)


def oracle_line(stdout: str) -> str:
    """The grid-oracle line that optimize-theta prints, or ''."""
    match = _ORACLE.search(stdout)
    return match.group(0) if match else ""


def allocation_problems(out: Path, stdout: str) -> list[str]:
    """Criterion 10: optimizer welfare >= grid welfare - 1e-6 |W|, KKT
    residual < 1e-8, and the same zero support as the grid optimum."""
    welfare_path = out / "welfare.csv"
    match = _ORACLE.search(stdout)
    if not welfare_path.is_file() or match is None:
        return [f"missing welfare.csv or grid-oracle line for {out}"]
    with welfare_path.open(newline="") as fh:
        values = dict(csv.reader(fh))
    problems = []
    if values.get("converged") != "True":
        problems.append(f"optimizer reports converged={values.get('converged')}")
    if not float(values["kkt_residual"]) < 1e-8:
        problems.append(f"KKT residual {values['kkt_residual']} not below 1e-8")
    w_grid = float(match.group("w"))
    gap = float(match.group("gap"))
    if gap < -1e-6 * abs(w_grid):
        problems.append(f"optimizer welfare below the grid oracle by {-gap:.3g}")
    grid_zeros = {i + 1 for i, th in enumerate(match.group("theta").split(",")) if float(th) == 0.0}
    active = {int(i) for i in values.get("active_set", "").split(";") if i}
    if active != grid_zeros:
        problems.append(f"active set {sorted(active)} differs from grid zeros {sorted(grid_zeros)}")
    return problems
