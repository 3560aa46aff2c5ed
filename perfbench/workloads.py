"""The four benchmark workloads.

Each workload generates its inputs from the seed when it is constructed
(this is the set-up the benchmark times), then runs identical passes. A
pass is a closed loop with one client: every call starts after the
previous one returned. The program is reached only through
``headfx.cli.main`` and the public solvers of ``equilibrium``,
``dynamics`` and ``welfare``, looked up on their modules at call time
so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from headfx import cli, dynamics, equilibrium
from headfx.core import MarketState, PlatformParams, StreamerParams
from headfx.dynamics import IntegratorConfig
from headfx.equilibrium import FixedPointConfig
from headfx.metrics import METRIC_COLUMNS

import checks


@dataclasses.dataclass
class Op:
    """One CLI invocation or one public-function call."""

    label: str
    value: object = None
    problems: list = dataclasses.field(default_factory=list)


def files_digest(root: Path, extra: list[str] = ()) -> str:
    """sha256 over every output file (relative path and bytes) plus extra text."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    for text in extra:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


class Workload:
    """Base: inputs live under ``work/inputs``, one pass writes ``work/pass``."""

    name = ""
    # Sum of M x rounds x seeds over the ABM runs of one pass.
    viewer_choices = 0

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed
        self.root = root
        self.inputs = work / "inputs"
        self.out = work / "pass"
        self.inputs.mkdir(parents=True, exist_ok=True)
        # Called before every operation; the traced run numbers them.
        self.on_op = lambda: None

    def cli(self, label: str, argv: list[str]) -> Op:
        """headfx.cli.main in-process, with its output captured."""
        self.on_op()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:
            return Op(label, out.getvalue(), [f"raised {type(exc).__name__}: {exc}"])
        op = Op(label, out.getvalue())
        if rc != 0:
            op.problems.append(f"exit code {rc}: {op.value.strip()[-300:]}")
        return op

    def call(self, label: str, func, *args, **kwargs) -> Op:
        self.on_op()
        try:
            return Op(label, func(*args, **kwargs))
        except Exception as exc:
            return Op(label, None, [f"raised {type(exc).__name__}: {exc}"])

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> str:
        """Add output problems to the ops; return the digest of the outputs."""
        raise NotImplementedError


# Shipped-config values behind the policy workload: every scenario runs
# 10 seeds of 50 rounds; M = 1000 unless swept; revenue per viewer R = 1.
_SEEDS, _ROUNDS, _M, _R = 10, 50, 1000, 1.0
_SWEEP_M = (500, 1000, 2000)


class PolicyStudy(Workload):
    name = "policy_study"
    viewer_choices = _SEEDS * _ROUNDS * (_M + 4 * _M + 5 * _M + sum(_SWEEP_M))

    def run_pass(self) -> list[Op]:
        # sweep takes the seed of its config file when given one; --seed is
        # passed anyway, as a user would.
        common = ["--seed", str(self.seed), "--threads", "2"]
        out = self.rel(self.out)
        return [
            self.cli("simulate", ["simulate", "--config", "configs/combined.json",
                                  *common, "--out", f"{out}/simulate"]),
            self.cli("ab-test", ["ab-test", "--config", "configs/baseline.json",
                                 *common, "--out", f"{out}/ab"]),
            self.cli("sweep-beta", ["sweep", "--config", "configs/sweep_beta.json",
                                    *common, "--out", f"{out}/sweep_beta"]),
            self.cli("sweep-m", ["sweep", "--parameter", "n_viewers",
                                 "--values", ",".join(map(str, _SWEEP_M)),
                                 *common, "--out", f"{out}/sweep_m"]),
        ]

    def check(self, ops: list[Op]) -> str:
        seeds = list(range(self.seed, self.seed + _SEEDS))
        simulate, ab, sweep_beta, sweep_m = ops
        simulate.problems += checks.scenario_problems(
            self.out / "simulate" / "Combined", seeds, _M, _R, _ROUNDS)
        for scenario in ("Baseline", "High_Tax", "Boost_Small", "Combined"):
            ab.problems += checks.scenario_problems(self.out / "ab" / scenario, seeds, _M, _R, _ROUNDS)
        sweep_cfg = json.loads((self.root / "configs" / "sweep_beta.json").read_text())["sweep"]
        sweep_beta.problems += checks.sweep_problems(
            self.out / "sweep_beta" / f"sweep_{sweep_cfg['parameter']}.csv",
            sweep_cfg["parameter"], sweep_cfg["values"], METRIC_COLUMNS)
        sweep_m.problems += checks.sweep_problems(
            self.out / "sweep_m" / "sweep_n_viewers.csv", "n_viewers", _SWEEP_M, METRIC_COLUMNS)
        return files_digest(self.out)


# One large Combined-policy batch; 12 rounds keep a pass near 5 s while
# the policies (from round 10) are active for three of them.
_SCALE_M, _SCALE_N, _SCALE_ROUNDS = 100_000, 50, 12


class AbmScale(Workload):
    name = "abm_scale"
    viewer_choices = _SCALE_M * _SCALE_ROUNDS

    def __init__(self, seed: int, root: Path, work: Path):
        super().__init__(seed, root, work)
        self.config = self.inputs / "abm_scale.json"
        self.config.write_text(json.dumps({
            "name": "Combined", "seed": seed, "n_seeds": 1,
            "platform": {"n_streamers": _SCALE_N, "n_viewers": _SCALE_M, "n_rounds": _SCALE_ROUNDS},
        }, indent=2))

    def run_pass(self) -> list[Op]:
        return [self.cli("simulate", ["simulate", "--config", self.rel(self.config),
                                      "--threads", "1", "--out", self.rel(self.out)])]

    def check(self, ops: list[Op]) -> str:
        ops[0].problems += checks.scenario_problems(
            self.out / "Combined", [self.seed], _SCALE_M, _R, _SCALE_ROUNDS)
        return files_digest(self.out)


# Criterion 7 of the acceptance suite: 2 streamers, M = 100, solved at half
# the instance's critical network effect. The instance is the first of the
# acceptance suite's family, built the same way, and the seed draws the
# enumeration starts, which changes the solver's iteration count by less
# than 1 %. Seeded instances were tried and dropped: their solve cost
# varies up to fivefold from one instance to the next, which no run length
# here evens out. One instance keeps a pass short enough that the median
# of a run is taken over about five passes.
_FP = FixedPointConfig(tol=1e-11, max_iter=60000)
_ODE = IntegratorConfig(dt=0.05, t_end=200.0, record_every=4000)


def criterion7_instance(index: int) -> tuple[PlatformParams, list[StreamerParams]]:
    rng = np.random.default_rng(index)
    alpha, eta, cost = rng.uniform(0.9, 1.1, 2), rng.uniform(0.8, 1.2, 2), rng.uniform(2.5, 3.5, 2)
    streamers = [StreamerParams(alpha=float(a), eta=float(e), cost_coefficient=float(c))
                 for a, e, c in zip(alpha, eta, cost)]
    return PlatformParams(n_streamers=2, n_viewers=100, beta=0.0, tau=0.2), streamers


class SolverLoops(Workload):
    name = "solver_loops"

    def __init__(self, seed: int, root: Path, work: Path):
        super().__init__(seed, root, work)
        self.platform, self.streamers = criterion7_instance(0)
        self.start_seed = int(np.random.default_rng(seed).integers(1 << 31))

    def _solve(self) -> list[Op]:
        beta = self.call("find_critical_beta", equilibrium.find_critical_beta,
                         self.platform, self.streamers, 1e-4, 1.0, 0.95, _FP)
        if beta.problems:
            return [beta]
        plat = dataclasses.replace(self.platform, beta=0.5 * beta.value)
        eq = self.call("solve_joint_equilibrium", equilibrium.solve_joint_equilibrium,
                       plat, self.streamers, _FP)
        if eq.problems:
            return [beta, eq]
        n0 = np.array([51.0, 49.0])
        return [
            beta, eq,
            self.call("integrate", dynamics.integrate, plat, self.streamers,
                      MarketState(n=n0, q=eq.value.state.q * 1.05), _ODE),
            self.call("enumerate_equilibria", equilibrium.enumerate_equilibria,
                      plat, self.streamers, dataclasses.replace(_FP, n_starts=24),
                      seed=self.start_seed),
            self.call("stability_at", dynamics.stability_at, plat, self.streamers, eq.value.state),
        ]

    def run_pass(self) -> list[Op]:
        # The criterion-7 integrator step keeps a pass short; the twins still
        # settle (HHI 1) well before t_end. The subcommand builds its
        # instance from the config's seed, so --seed does not change it.
        return self._solve() + [self.cli("path-dependence", [
            "dynamics", "--kind", "path-dependence", "--config", "configs/baseline.json",
            "--dt", str(_ODE.dt), "--seed", str(self.seed), "--out", self.rel(self.out)])]

    def check(self, ops: list[Op]) -> str:
        by_label = {op.label: op for op in ops}
        by_label["path-dependence"].problems += checks.path_dependence_problems(self.out)
        if len(ops) < 6 or any(op.problems for op in ops[:5]):
            return files_digest(self.out)
        beta, eq, traj, distinct, report = ops[:5]
        state = eq.value.state
        if not eq.value.converged:
            eq.problems.append("joint equilibrium did not converge")
        dn = float(np.max(np.abs(traj.value.terminal.n - state.n)))
        dq = float(np.max(np.abs(traj.value.terminal.q - state.q)))
        if dn > 1e-6 * 100 or dq > 1e-6:
            traj.problems.append(f"ODE terminal off the fixed point by {dn:.2e} in n, {dq:.2e} in q")
        # Criterion 7: the multi-start enumeration finds exactly one
        # equilibrium, and it is the one the joint solve found.
        far = [r for r in distinct.value
               if np.max(np.abs(r.state.n - state.n)) > 1e-6 * 100
               or np.max(np.abs(r.state.q - state.q)) > 1e-6]
        if len(distinct.value) != 1 or far:
            distinct.problems.append(
                f"{len(distinct.value)} equilibria found, {len(far)} away from the solved one")
        if not report.value.stable:
            report.problems.append("interior equilibrium reported unstable")
        extra = [beta.value.hex(), state.n.tobytes().hex(), state.q.tobytes().hex(),
                 traj.value.terminal.n.tobytes().hex(),
                 report.value.eigen_real_parts.tobytes().hex()]
        extra += [r.state.n.tobytes().hex() + r.state.q.tobytes().hex() for r in distinct.value]
        return files_digest(self.out, extra)


class WelfareGrid(Workload):
    name = "welfare_grid"

    def __init__(self, seed: int, root: Path, work: Path):
        super().__init__(seed, root, work)
        # One instance in the style of criterion 10: 3 streamers, M = 50,
        # beta in [0, 0.004].
        rng = np.random.default_rng(seed)
        generated = self.inputs / "instance.json"
        generated.write_text(json.dumps({
            "alpha": rng.uniform(0.5, 1.3, 3).tolist(),
            "q": rng.uniform(0.4, 0.9, 3).tolist(),
            "cost": [2.0, 2.0, 2.0],
            "beta": float(rng.uniform(0.0, 0.004)),
            "tau": 0.2,
            "n_viewers": 50,
        }, indent=2))
        self.instance_files = [root / "configs" / "instance_n3.json", generated]

    def run_pass(self) -> list[Op]:
        return [
            self.cli(f"optimize-theta:{path.stem}", [
                "optimize-theta", "--instance", self.rel(path), "--grid-oracle",
                "--out", self.rel(self.out / str(i))])
            for i, path in enumerate(self.instance_files)
        ]

    def check(self, ops: list[Op]) -> str:
        for i, op in enumerate(ops):
            op.problems += checks.allocation_problems(self.out / str(i), op.value or "")
        return files_digest(self.out, [checks.oracle_line(op.value or "") for op in ops])


WORKLOADS = {w.name: w for w in (PolicyStudy, AbmScale, SolverLoops, WelfareGrid)}
