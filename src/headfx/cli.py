"""Command-line interface.

    headfx <subcommand> [flags]

Subcommands: equilibrium, dynamics, simulate, ab-test, sweep,
optimize-theta. Exit codes: 0 success, 2 config error, 3 numerical
failure, which includes an equilibrium solve that did not converge
(`equilibrium` then writes no file). Every output file is written by
harness.write_table or harness.write_json: CSV tables with a header row
and JSON sidecars, all UTF-8 with LF line ends. Each subcommand parses
only the flags it reads, but equilibrium and dynamics accept --seed
unread. The solvers run at their library defaults: equilibrium at
FixedPointConfig(), optimize-theta at optimize_allocation's tol, and
the path-dependence twins of dynamics start core.PERTURBATION * M
apart. equilibrium states the stability verdict of the joint
equilibrium it solved (dynamics.stability_at), optimize-theta that of
the audience equilibrium under theta* (dynamics.jacobian's audience
block); an unstable point still exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .abm import SimConfig, init_platform
from .core import (
    PERTURBATION,
    Market,
    MarketState,
    PlatformParams,
    StreamerParams,
    streamer_profit,
)
from .dynamics import (
    IntegratorConfig,
    assess_stability,
    hhi,
    integrate,
    jacobian,
    path_dependence_experiment,
    phase_portrait,
    stability_at,
)
from .equilibrium import FixedPointConfig, max_share_from_perturbed_start
from .errors import ConfigError, DomainError, NumericalError
from .harness import (
    SCENARIO_NAMES,
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
from .logit import quality_best_response
from .metrics import METRIC_COLUMNS
from .welfare import grid_search_allocation, optimize_allocation

__all__ = ["main"]


def analytic_instance(sim: SimConfig) -> tuple[PlatformParams, list[StreamerParams]]:
    """Map a scenario config onto the closed-form model.

    The market is abm.init_platform(sim), and from the CLI sim.seed is always
    0 (a config's seed key moves only the ABM runs' seeds): its streamers'
    cost coefficients, and alpha the viewers' mean quality sensitivity on the
    analytic logit's unit scale (the ABM's divides by random_effect_scale; its
    network term is beta ns_j log1p(n_i), not beta n_i). The rest is the config's.
    """
    population = init_platform(sim)
    platform = PlatformParams(
        n_streamers=sim.n_streamers,
        n_viewers=sim.n_viewers,
        beta=sim.network_effect_beta,
        tau=sim.base_revenue_share,
        revenue_per_viewer=sim.revenue_per_viewer,
        prices=sim.prices,
    )
    streamers = [
        StreamerParams(alpha=population.mean_quality_sens, cost_coefficient=float(c))
        for c in population.cost_coef
    ]
    return platform, streamers


def _load_scenario(args) -> ScenarioSpec:
    if args.config:
        spec = parse_config(args.config)
        if isinstance(spec, SweepSpec):
            raise ConfigError("this subcommand takes a scenario config, not a sweep")
    else:
        spec = make_scenario("Baseline")
    return _apply_seed_flags(spec, args)


def _apply_seed_flags(spec: ScenarioSpec, args) -> ScenarioSpec:
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed_base=args.seed)
    if getattr(args, "seeds", None) is not None:
        spec = dataclasses.replace(spec, n_seeds=args.seeds)
    return spec


def _cmd_equilibrium(args) -> int:
    spec = _load_scenario(args)
    platform, streamers = analytic_instance(spec.sim)
    if args.beta is not None:
        platform = dataclasses.replace(platform, beta=args.beta)
    share, result = max_share_from_perturbed_start(platform, streamers, FixedPointConfig())
    if not result.converged:
        raise NumericalError(
            f"equilibrium solve did not converge (residual {result.residual:.3g})"
        )
    report = stability_at(platform, streamers, result.state)
    n, q = result.state.n, result.state.q
    path = write_table(
        args.out / "equilibrium.csv",
        ["streamer_id", "n_star", "q_star", "share", "profit"],
        (
            [i + 1, f"{n[i]:.6g}", f"{q[i]:.6g}", f"{n[i] / platform.n_viewers:.6g}",
             f"{streamer_profit(n[i], q[i], platform, s):.6g}"]
            for i, s in enumerate(streamers)
        ),
    )
    sidecar = write_json(args.out / "equilibrium_summary.json", {
        "beta": platform.beta, "max_share": share, "residual": result.residual,
        "hhi": hhi(n), "stable": report.stable,
        "eigen_real_parts": [float(x) for x in report.eigen_real_parts],
    })
    print(f"wrote {path} (max share {share:.4f}, residual {result.residual:.3g}, "
          f"{'stable' if report.stable else 'unstable'}: max eigenvalue real part "
          f"{report.eigen_real_parts[0]:.3g})")
    print(f"wrote {sidecar}")
    return 0


def _cmd_dynamics(args) -> int:
    spec = _load_scenario(args)
    platform, streamers = analytic_instance(spec.sim)
    if args.beta is not None:
        platform = dataclasses.replace(platform, beta=args.beta)
    cfg = IntegratorConfig(dt=args.dt, t_end=args.t_end, record_every=args.record_every)
    market = Market.from_params(platform, streamers)
    summary: dict = {"kind": args.kind, "beta": platform.beta}

    if args.kind == "trajectory":
        # from the equilibrium probe's start, at the best response to even shares
        n0 = market.perturbed_start()
        q0 = quality_best_response(market.revenue, market.c, np.full(n0.size, 1.0 / n0.size))
        traj = integrate(platform, streamers, MarketState(n=n0, q=q0), cfg)
        labels = range(1, n0.size + 1)
        path = write_table(
            args.out / "trajectory.csv",
            ["t", *(f"n_{i}" for i in labels), *(f"q_{i}" for i in labels)],
            ([f"{x:.6g}" for x in (t, *n, *q)] for t, n, q in zip(traj.times, traj.n, traj.q)),
        )
        report = stability_at(platform, streamers, traj.terminal)
        summary["terminal_hhi"] = hhi(traj.terminal.n)
        summary["stable"] = report.stable
        summary["max_eigen_real_part"] = float(report.eigen_real_parts[0])
        print(f"wrote {path}")
    elif args.kind == "path-dependence":
        record = path_dependence_experiment(
            platform, streamers, delta0=PERTURBATION * market.m, cfg=cfg
        )
        rows = zip(record.times, record.gap_plus, record.gap_minus)
        path = write_table(args.out / "path_dependence.csv", ["t", "gap_plus", "gap_minus"],
                           ([f"{x:.6g}" for x in row] for row in rows))
        summary["winner_plus"] = record.winner_plus
        summary["winner_minus"] = record.winner_minus
        summary["terminal_hhi"] = record.terminal_hhi_plus
        summary["terminal_share_gap"] = record.terminal_share_gap
        print(f"wrote {path}")
    else:  # portrait
        if args.grid < 1:
            raise ConfigError(f"--grid must be >= 1, got {args.grid}")
        try:
            shares = np.linspace(0.05, 0.95, args.grid)
        except (ValueError, MemoryError):
            raise ConfigError(f"--grid {args.grid} starts do not fit in memory") from None
        m = market.m
        big_n = platform.n_streamers
        starts = []
        for share0 in shares:
            n0 = np.full(big_n, (1.0 - share0) * m / max(big_n - 1, 1))
            n0[0] = share0 * m
            starts.append(
                MarketState(n=n0, q=quality_best_response(market.revenue, market.c, n0 / m))
            )
        portrait = phase_portrait(platform, streamers, starts, cfg)
        if not portrait.completed():
            idx, reason = portrait.failures[0]
            raise NumericalError(f"no phase-portrait trajectory finished; start {idx}: {reason}")
        path = write_table(
            args.out / "phase_portrait.csv", ["trajectory", "t", "streamer", "n", "q"],
            ([idx, f"{t:.6g}", i + 1, f"{n[i]:.6g}", f"{q[i]:.6g}"]
             for idx, traj in enumerate(portrait.trajectories)
             if traj is not None
             for t, n, q in zip(traj.times, traj.n, traj.q)
             for i in range(n.shape[0])),
        )
        summary["n_trajectories"] = len(portrait.trajectories)
        summary["n_failures"] = len(portrait.failures)
        terminal_hhis = [hhi(t.terminal.n) for t in portrait.completed()]
        summary["terminal_hhi"] = terminal_hhis
        print(f"wrote {path}")

    sidecar = write_json(args.out / "dynamics_summary.json", summary)
    print(f"wrote {sidecar}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_scenario(args)
    artifact = run_scenario(spec, out_dir=args.out, threads=args.threads)
    print(f"{spec.name}: {spec.n_seeds} seeds -> {args.out / spec.name}")
    for col in METRIC_COLUMNS:
        print(f"  {col}: {artifact.mean[col]:.4f} (sd {artifact.sd[col]:.4f})")
    return 0


def _cmd_ab_test(args) -> int:
    base = _load_scenario(args)
    specs = [
        make_scenario(name, sim=base.sim, n_seeds=base.n_seeds, seed_base=base.seed_base)
        for name in args.scenarios
    ]
    comparison = ab_compare(specs, out_dir=args.out, threads=args.threads)
    header = "scenario      " + "  ".join(f"{c:>18s}" for c in METRIC_COLUMNS)
    print(header)
    for art in comparison.artifacts:
        cells = "  ".join(
            f"{art.mean[c]:>10.4f}±{art.sd[c]:<6.4f}" for c in METRIC_COLUMNS
        )
        print(f"{art.scenario:<12s}  {cells}")
    print(f"wrote {args.out / 'comparison.csv'} and {args.out / 'orderings.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_config(args.config) if args.config else make_scenario("Baseline")
    if isinstance(spec, SweepSpec):
        if args.parameter is not None or args.values is not None:
            raise ConfigError(
                "config already has a [sweep] section; drop --parameter and --values"
            )
        spec = dataclasses.replace(spec, base=_apply_seed_flags(spec.base, args))
    else:
        if not args.parameter or not args.values:
            raise ConfigError(
                "config has no [sweep] section; pass --parameter and --values"
                if args.config
                else "sweep needs --parameter and --values (or a config)"
            )
        spec = SweepSpec(
            parameter=args.parameter,
            values=tuple(_parse_values(args.parameter, args.values)),
            base=_apply_seed_flags(spec, args),
        )
    artifact = sensitivity_sweep(spec, out_dir=args.out, threads=args.threads)
    print(f"wrote {args.out / f'sweep_{spec.parameter}.csv'}")
    for value, art in zip(artifact.values, artifact.artifacts):
        print(
            f"  {spec.parameter}={value}: gini {art.mean['gini']:.4f} "
            f"satisfaction {art.mean['avg_satisfaction']:.4f}"
        )
    return 0


def _parse_values(parameter: str, text: str) -> list:
    caster = int if parameter in ("n_streamers", "n_viewers") else float
    try:
        return [caster(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {text!r}: {exc}") from exc


def _cmd_optimize_theta(args) -> int:
    platform, streamers, q = parse_instance(args.instance)
    if args.grid_oracle:
        theta_grid, w_grid = grid_search_allocation(platform, streamers, q)
    solution = optimize_allocation(platform, streamers, q)
    breakdown = solution.breakdown
    # The welfare layer holds q fixed, so the verdict is the audience
    # block's: the joint (n, q) flow is not at rest at this state.
    big_n = platform.n_streamers
    report = assess_stability(
        jacobian(platform, streamers, solution.state, solution.theta)[:big_n, :big_n]
    )
    max_real = float(report.eigen_real_parts[0])
    theta_path = write_table(args.out / "theta_star.csv", ["streamer_id", "theta_star"],
                             ([i + 1, f"{th:.6g}"] for i, th in enumerate(solution.theta.theta)))
    welfare_path = write_table(args.out / "welfare.csv", ["quantity", "value"], [
        ["consumer_surplus", f"{breakdown.consumer_surplus:.6g}"],
        ["producer_surplus", f"{breakdown.producer_surplus:.6g}"],
        ["platform_profit", f"{breakdown.platform_profit:.6g}"],
        ["total_welfare", f"{breakdown.total:.6g}"],
        ["kkt_residual", f"{solution.kkt_residual:.6g}"],
        ["iterations", solution.iterations],
        ["converged", solution.converged],
        ["active_set", ";".join(str(i + 1) for i in solution.active_set)],
        ["viewer_stable", report.stable],
        ["viewer_max_eigen_real_part", f"{max_real:.6g}"],
    ])

    print(f"theta* = {np.round(solution.theta.theta, 6).tolist()}")
    print(
        f"welfare {breakdown.total:.6g} (CS {breakdown.consumer_surplus:.6g}, "
        f"PS {breakdown.producer_surplus:.6g}, Pi {breakdown.platform_profit:.6g})"
    )
    print(f"KKT residual {solution.kkt_residual:.3g}; active set "
          f"{[i + 1 for i in solution.active_set] or 'none'}")
    print(f"audience equilibrium {'stable' if report.stable else 'unstable'} "
          f"(max eigenvalue real part {max_real:.3g})")
    if args.grid_oracle:
        print(
            f"grid oracle: theta {np.round(theta_grid.theta, 6).tolist()} "
            f"welfare {w_grid:.6g} (optimizer - oracle = {solution.welfare - w_grid:+.3g})"
        )
    print(f"wrote {theta_path} and {welfare_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=Path("headfx_out"),
                        help="output directory (default headfx_out)")
    scenario = argparse.ArgumentParser(add_help=False, parents=[output])
    scenario.add_argument("--config", type=str, default=None, help="scenario config file")
    scenario.add_argument(
        "--seed", type=int, default=None,
        help="base seed of the ABM replications (simulate, ab-test, sweep); "
        "equilibrium and dynamics build their analytic instance from seed 0 and ignore it",
    )
    runs = argparse.ArgumentParser(add_help=False, parents=[scenario])
    runs.add_argument("--seeds", type=int, default=None, help="replication count")
    runs.add_argument("--threads", type=int, default=1, help="worker processes (>= 1)")

    parser = argparse.ArgumentParser(
        prog="headfx",
        description="Two-sided streaming-market simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", parents=[scenario], help="solve the static equilibrium")
    p_eq.add_argument("--beta", type=float, default=None, help="network-effect override")
    p_eq.set_defaults(func=_cmd_equilibrium)

    p_dyn = sub.add_parser("dynamics", parents=[scenario], help="integrate the dynamic system")
    p_dyn.add_argument("--dt", type=float, default=IntegratorConfig.dt)
    p_dyn.add_argument("--t-end", type=float, default=IntegratorConfig.t_end)
    p_dyn.add_argument("--beta", type=float, default=None)
    p_dyn.add_argument(
        "--kind",
        choices=["trajectory", "path-dependence", "portrait"],
        default="trajectory",
    )
    p_dyn.add_argument("--record-every", type=int, default=100)
    p_dyn.add_argument("--grid", type=int, default=5, help="portrait grid size")
    p_dyn.set_defaults(func=_cmd_dynamics)

    p_sim = sub.add_parser("simulate", parents=[runs], help="run one scenario batch")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ab = sub.add_parser("ab-test", parents=[runs], help="paired-seed scenario comparison")
    p_ab.add_argument("--scenarios", nargs="+", default=list(SCENARIO_NAMES))
    p_ab.set_defaults(func=_cmd_ab_test)

    p_sweep = sub.add_parser("sweep", parents=[runs], help="one-parameter sensitivity sweep")
    p_sweep.add_argument("--parameter", type=str, default=None)
    p_sweep.add_argument("--values", type=str, default=None, help="comma-separated grid values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_opt = sub.add_parser("optimize-theta", parents=[output],
                           help="optimize promotion shares for an instance file")
    p_opt.add_argument("--instance", type=str, required=True)
    p_opt.add_argument("--grid-oracle", action="store_true")
    p_opt.set_defaults(func=_cmd_optimize_theta)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # the solvers test what they compute for finiteness and raise
        # NumericalError, so numpy's warnings on the way would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
