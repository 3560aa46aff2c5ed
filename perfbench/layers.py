"""Per-layer metrics of the traced run, and what each is expected to move.

A metric name has the form ``<layer>.<function>.<stat>``: ``busy_s`` is a
span's wall time including the spans it calls, ``self_s`` excludes child
spans, ``offcpu_s`` is self wall time minus self process-CPU time (time a
layer waited on the pool, I/O or the scheduler). Every figure is per pass:
totals over the traced passes divided by their number, so counts repeat
exactly from run to run of one seed. A function a workload never calls
reports 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Span, self_times

# name -> (end-to-end metrics it should move, workloads it should move
# them on, workloads on which no change is predicted). Units and
# directions are in BENCHMARK.json.
CATALOGUE = {
    "cli.main.self_s": ("wall_s", "policy_study", "welfare_grid"),
    "cli.main.offcpu_s": ("wall_s", "policy_study", "welfare_grid"),
    "harness.run_scenario.calls": ("wall_s viewer_choices_per_s", "policy_study", "abm_scale"),
    "harness.run_scenario.self_s": ("wall_s viewer_choices_per_s", "policy_study", "abm_scale"),
    "harness.run_scenario.offcpu_s": ("wall_s viewer_choices_per_s", "policy_study", "abm_scale"),
    "harness.pool_busy_ratio": ("wall_s", "policy_study", "abm_scale"),
    "harness.export_plot_data.busy_s": ("wall_s", "policy_study", "solver_loops"),
    "abm.simulate.calls": ("wall_s", "policy_study abm_scale", "solver_loops welfare_grid"),
    "abm.simulate.busy_s": ("wall_s", "policy_study abm_scale", "solver_loops welfare_grid"),
    "abm.setup_s": ("wall_s peak_rss_mb", "abm_scale", "policy_study"),
    "abm.run_round.calls": ("viewer_choices_per_s", "abm_scale", "solver_loops welfare_grid"),
    "abm.run_round.p50_ms": ("viewer_choices_per_s", "abm_scale", "solver_loops welfare_grid"),
    "abm.run_round.tail_ms": ("viewer_choices_per_s", "abm_scale", "solver_loops welfare_grid"),
    "abm.run_round.self_s": ("viewer_choices_per_s", "abm_scale", "solver_loops welfare_grid"),
    "abm.apply_policy.calls": ("wall_s", "policy_study", "solver_loops"),
    "abm.apply_policy.busy_s": ("wall_s", "policy_study", "solver_loops"),
    "abm.utility_cells": ("viewer_choices_per_s", "abm_scale", "policy_study"),
    "abm.cells_per_s": ("viewer_choices_per_s", "abm_scale", "policy_study"),
    "metrics.summarize.calls": ("wall_s", "policy_study", "abm_scale"),
    "metrics.summarize.busy_s": ("wall_s", "policy_study", "abm_scale"),
    "core.calls": ("wall_s", "solver_loops welfare_grid", "policy_study abm_scale"),
    "core.busy_s": ("wall_s", "solver_loops welfare_grid", "policy_study abm_scale"),
    "equilibrium.solve_viewer_fixed_point.calls": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_viewer_fixed_point.busy_s": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_viewer_fixed_point.iterations": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_viewer_fixed_point.converged_ratio": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_joint_equilibrium.calls": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_joint_equilibrium.busy_s": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_joint_equilibrium.iterations": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.solve_joint_equilibrium.converged_ratio": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "equilibrium.enumerate_equilibria.busy_s": ("wall_s", "solver_loops", "welfare_grid"),
    "equilibrium.enumerate_equilibria.duplicates": ("failed_fraction", "solver_loops", "welfare_grid"),
    "equilibrium.find_critical_beta.busy_s": ("wall_s", "solver_loops", "welfare_grid"),
    "equilibrium.max_share_from_perturbed_start.calls": ("wall_s", "solver_loops", "welfare_grid"),
    "dynamics.integrate.calls": ("wall_s", "solver_loops", "welfare_grid"),
    "dynamics.integrate.busy_s": ("wall_s", "solver_loops", "welfare_grid"),
    "dynamics.rk4_steps": ("wall_s", "solver_loops", "welfare_grid"),
    "dynamics.rk4_step_us": ("wall_s", "solver_loops", "welfare_grid"),
    "dynamics.path_dependence_experiment.busy_s": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "dynamics.path_dependence_experiment.self_s": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "dynamics.stability_at.calls": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "dynamics.stability_at.busy_s": ("wall_s", "solver_loops", "policy_study abm_scale"),
    "dynamics.divergence_failures": ("failed_fraction", "solver_loops", ""),
    "welfare.grid_search_allocation.calls": ("wall_s peak_rss_mb", "welfare_grid", "solver_loops"),
    "welfare.grid_search_allocation.busy_s": ("wall_s peak_rss_mb", "welfare_grid", "solver_loops"),
    "welfare.grid_points": ("wall_s peak_rss_mb", "welfare_grid", "solver_loops"),
    "welfare.grid_points_per_s": ("wall_s peak_rss_mb", "welfare_grid", "solver_loops"),
    "welfare.optimize_allocation.calls": ("wall_s", "welfare_grid", "policy_study abm_scale"),
    "welfare.optimize_allocation.busy_s": ("wall_s", "welfare_grid", "policy_study abm_scale"),
    "welfare.optimize_allocation.iterations": ("wall_s", "welfare_grid", "policy_study abm_scale"),
    "welfare.optimize_allocation.kkt_residual_max": ("wall_s", "welfare_grid", "policy_study abm_scale"),
    "welfare.welfare_at_theta.busy_s": ("wall_s", "welfare_grid", "policy_study abm_scale"),
    # Whole-run figures that the untraced metrics cannot carry (see README).
    "trace_overhead_ratio": ("", "", "policy_study abm_scale solver_loops welfare_grid"),
    "viewer_choices_per_s": ("viewer_choices_per_s", "policy_study abm_scale", "solver_loops welfare_grid"),
    "failed_fraction": ("failed_fraction", "", "policy_study abm_scale solver_loops welfare_grid"),
}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(round(pct * n) / 100) >= 10:
            return pct
    return 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(pct * len(ordered)) / 100) - 1)]


def per_layer(spans: list[Span], passes: int, main_pid: int) -> tuple[dict[str, float], str]:
    """Every traced metric except the whole-run ones, plus a note on the tail."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)
    names = {span.sid: span.name for span in spans}

    def total(name, key=None):
        group = by_name.get(name, ())
        if key is None:
            return sum(s.wall for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def busy(name):
        return total(name) / passes

    def self_s(name):
        return sum(selfs[s.sid][0] for s in by_name.get(name, ())) / passes

    def offcpu(name):
        return sum(selfs[s.sid][0] - selfs[s.sid][1] for s in by_name.get(name, ())) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.main.offcpu_s"] = offcpu("cli.main")

    run_scenario = "harness.run_scenario"
    out[f"{run_scenario}.calls"] = calls(run_scenario)
    out[f"{run_scenario}.self_s"] = self_s(run_scenario)
    out[f"{run_scenario}.offcpu_s"] = offcpu(run_scenario)
    pooled = sum(s.counts["threads"] * s.wall for s in by_name.get(run_scenario, ())
                 if s.counts.get("threads", 1) > 1)
    worker_busy = sum(s.wall for s in by_name.get("abm.simulate", ()) if s.pid != main_pid)
    out["harness.pool_busy_ratio"] = ratio(worker_busy, pooled)
    out["harness.export_plot_data.busy_s"] = busy("harness.export_plot_data")

    out["abm.simulate.calls"] = calls("abm.simulate")
    out["abm.simulate.busy_s"] = busy("abm.simulate")
    rounds = by_name.get("abm.run_round", [])
    out["abm.setup_s"] = (busy("abm.simulate") - sum(
        s.wall for s in rounds if names.get(s.parent) == "abm.simulate") / passes)
    round_ms = [s.wall * 1e3 for s in rounds]
    tail = tail_percentile(len(round_ms))
    out["abm.run_round.calls"] = calls("abm.run_round")
    out["abm.run_round.p50_ms"] = statistics.median(round_ms) if round_ms else 0.0
    out["abm.run_round.tail_ms"] = percentile(round_ms, tail)
    out["abm.run_round.self_s"] = self_s("abm.run_round")
    out["abm.apply_policy.calls"] = calls("abm.apply_policy")
    out["abm.apply_policy.busy_s"] = busy("abm.apply_policy")
    out["abm.utility_cells"] = total("abm.run_round", "cells") / passes
    out["abm.cells_per_s"] = ratio(total("abm.run_round", "cells"), total("abm.run_round"))

    out["metrics.summarize.calls"] = calls("metrics.summarize")
    out["metrics.summarize.busy_s"] = busy("metrics.summarize")

    # Only outermost core calls, so a core function calling another counts once.
    core = [s for s in spans if s.name.startswith("core.")
            and not names.get(s.parent, "").startswith("core.")]
    out["core.calls"] = len(core) / passes
    out["core.busy_s"] = sum(s.wall for s in core) / passes

    for solver in ("equilibrium.solve_viewer_fixed_point", "equilibrium.solve_joint_equilibrium"):
        out[f"{solver}.calls"] = calls(solver)
        out[f"{solver}.busy_s"] = busy(solver)
        out[f"{solver}.iterations"] = total(solver, "iterations") / passes
        out[f"{solver}.converged_ratio"] = ratio(total(solver, "converged"), len(by_name.get(solver, ())))
    enum = "equilibrium.enumerate_equilibria"
    out[f"{enum}.busy_s"] = busy(enum)
    out[f"{enum}.duplicates"] = total(enum, "duplicates") / passes
    out["equilibrium.find_critical_beta.busy_s"] = busy("equilibrium.find_critical_beta")
    out["equilibrium.max_share_from_perturbed_start.calls"] = calls(
        "equilibrium.max_share_from_perturbed_start")

    integrate = "dynamics.integrate"
    out[f"{integrate}.calls"] = calls(integrate)
    out[f"{integrate}.busy_s"] = busy(integrate)
    steps = total(integrate, "rk4_steps")
    out["dynamics.rk4_steps"] = steps / passes
    completed = sum(s.wall for s in by_name.get(integrate, ()) if "raised" not in s.counts)
    out["dynamics.rk4_step_us"] = ratio(completed * 1e6, steps)
    pde = "dynamics.path_dependence_experiment"
    out[f"{pde}.busy_s"] = busy(pde)
    out[f"{pde}.self_s"] = self_s(pde)
    out["dynamics.stability_at.calls"] = calls("dynamics.stability_at")
    out["dynamics.stability_at.busy_s"] = busy("dynamics.stability_at")
    out["dynamics.divergence_failures"] = sum(
        1 for s in by_name.get(integrate, ()) if s.counts.get("raised") == "DivergenceError") / passes

    grid = "welfare.grid_search_allocation"
    out[f"{grid}.calls"] = calls(grid)
    out[f"{grid}.busy_s"] = busy(grid)
    out["welfare.grid_points"] = total(grid, "grid_points") / passes
    out["welfare.grid_points_per_s"] = ratio(total(grid, "grid_points"), total(grid))
    opt = "welfare.optimize_allocation"
    out[f"{opt}.calls"] = calls(opt)
    out[f"{opt}.busy_s"] = busy(opt)
    out[f"{opt}.iterations"] = total(opt, "iterations") / passes
    out[f"{opt}.kkt_residual_max"] = max(
        (s.counts.get("kkt_residual", 0.0) for s in by_name.get(opt, ())), default=0.0)
    out["welfare.welfare_at_theta.busy_s"] = busy("welfare.welfare_at_theta")

    note = f"abm.run_round.tail_ms is p{tail:g} of {len(round_ms)} traced rounds"
    return out, note
