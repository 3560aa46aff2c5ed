"""In-memory span recorder and the wrappers that feed it.

A span is recorded around every call to a public function of a headfx
layer. Each span keeps its name, start and end (``time.perf_counter``,
which is one clock for every process on the machine), the process CPU
time at both ends, the span that caused it, the benchmark operation it
belongs to, and a few counts read from the call's arguments or result.

Spans stay in memory. The benchmark process writes them out when its run
ends. Pool workers of ``headfx.harness`` are forked: they inherit the
wrappers and the stack of open spans (so their spans name the
``run_scenario`` span that started the pool as parent), and write their
own spans to ``worker-<pid>-<n>.json`` in the trace directory when the
worker process exits.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing.util
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Public functions of each layer are taken from the module's __all__; cli
# exposes only main. A name a later version removes is simply not wrapped.
LAYER_MODULES = ("cli", "harness", "abm", "metrics", "core", "equilibrium", "dynamics", "welfare")


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    pid: int
    t0: float
    t1: float = 0.0
    cpu0: float = 0.0
    cpu1: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    def to_json(self) -> list:
        return [self.sid, self.parent, self.op, self.name, self.pid,
                self.t0, self.t1, self.cpu0, self.cpu1, self.counts]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Recorder:
    """Collects spans for one process; forked children start empty."""

    def __init__(self, worker_dir: Path):
        self.pid = self.main_pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self._next = 0
        self._flush_registered = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Keep the open stack so the child's first span names its cause.
        self.pid = os.getpid()
        self.spans = []
        self._flush_registered = False

    def next_op(self) -> None:
        """Start a new benchmark operation; later spans carry its number."""
        self.op += 1

    def _new_id(self) -> int:
        self._next += 1
        return (self.pid << 32) | self._next

    def begin(self, name: str) -> Span:
        if self.pid != self.main_pid and not self._flush_registered:
            # Worker memory is lost at exit; write the spans out just before.
            multiprocessing.util.Finalize(self, self.write_worker_file, exitpriority=10)
            self._flush_registered = True
        parent = self.stack[-1].sid if self.stack else None
        span = Span(self._new_id(), parent, self.op, name, self.pid,
                    time.perf_counter(), cpu0=time.process_time())
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.cpu1 = time.process_time()
        span.t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def write_worker_file(self) -> None:
        path = self.worker_dir / f"worker-{self.pid}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps([s.to_json() for s in self.spans]))
        self.spans = []

    def collect(self) -> list[Span]:
        """This process's spans plus every worker file written so far."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            spans += [Span.from_json(row) for row in json.loads(path.read_text())]
            path.unlink()
        return spans


# Counts read at the end of a call, keyed by span name. Each reader gets
# the bound arguments and the return value.
def _fixed_point_counts(args, result) -> dict:
    return {"iterations": result.iterations, "converged": int(bool(result.converged))}


def _repeated_equilibria(args, result) -> dict:
    """Equilibria listed after one within criterion 7's tolerance of them."""
    m = args["platform"].n_viewers

    def same(a, b):
        return (max(abs(a.state.n - b.state.n)) <= 1e-6 * m
                and max(abs(a.state.q - b.state.q)) <= 1e-6)

    return {"duplicates": sum(any(same(r, e) for e in result[:j]) for j, r in enumerate(result))}


def _grid_points(args, result) -> dict:
    k = int(round(1.0 / args["resolution"]))
    n = args["platform"].n_streamers
    return {"grid_points": k + 1 if n == 2 else (k + 1) * (k + 2) // 2}


COUNT_READERS = {
    "harness.run_scenario": lambda a, r: {"threads": a["threads"]},
    "abm.simulate": lambda a, r: {"viewer_choices": a["cfg"].n_viewers * a["cfg"].n_rounds},
    "abm.run_round": lambda a, r: {"cells": a["cfg"].n_viewers * a["cfg"].n_streamers},
    "equilibrium.solve_viewer_fixed_point": _fixed_point_counts,
    "equilibrium.solve_joint_equilibrium": _fixed_point_counts,
    "equilibrium.enumerate_equilibria": _repeated_equilibria,
    "dynamics.integrate": lambda a, r: {"rk4_steps": int(round(a["cfg"].t_end / a["cfg"].dt))},
    "welfare.grid_search_allocation": _grid_points,
    "welfare.optimize_allocation": lambda a, r: {"iterations": r.iterations, "kkt_residual": r.kkt_residual},
}


def _wrap(func, name: str, recorder: Recorder):
    reader = COUNT_READERS.get(name)
    signature = inspect.signature(func) if reader is not None else None

    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            span.counts["raised"] = type(exc).__name__
            recorder.end(span)
            raise
        if reader is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts.update(reader(bound.arguments, result))
        recorder.end(span)
        return result

    traced.__wrapped__ = func
    traced.__name__ = func.__name__
    traced.__qualname__ = func.__qualname__
    traced.__module__ = func.__module__
    return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every public layer function wherever headfx bound it by name.

    Call after headfx is imported. Returns the span names installed.
    """
    wrappers: dict[int, tuple] = {}
    for layer in LAYER_MODULES:
        module = sys.modules.get(f"headfx.{layer}")
        if module is None:
            continue
        names = ("main",) if layer == "cli" else getattr(module, "__all__", ())
        for attr in names:
            func = getattr(module, attr, None)
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(func)] = (func, _wrap(func, name, recorder), name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "headfx" or mod_name.startswith("headfx."):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
    return sorted(name for _, _, name in wrappers.values())


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Self wall and self CPU time of each span, by span id.

    Self wall is the span's duration minus the part of its interval that
    its child spans in the same process cover. Children in a forked worker
    run concurrently with their parent and are not subtracted: the parent
    spends that time waiting, which shows as off-CPU time.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = [c for c in children.get(span.sid, ()) if c.pid == span.pid]
        covered = 0.0
        end = span.t0
        for c in sorted(kids, key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, span.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[span.sid] = (span.wall - covered, span.cpu - sum(c.cpu for c in kids))
    return out
