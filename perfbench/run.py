"""headfx benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root: the program is imported from ``src/``.
The untraced run (``--trace 0``) prints the end-to-end metrics of
BENCHMARK.json; the traced run (``--trace 1``) repeats the untraced
measurement, then wraps every public layer function in a span and prints
the per-layer metrics. The last line of standard output is one JSON
object; the lines before it state the same figures for a reader. The
exit code is 0 only when every operation succeeded and passed its
output check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The only parallelism measured is the harness's process pool. Set before
# NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_RUNS = 5
WORK_DIR = ".perfbench"
HERE = Path(__file__).resolve().parent


def _parse(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="set the workload up in DIR, print 'ready' and exit")
    return parser.parse_args(argv)


def _import_program(root: Path):
    """Import headfx from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "headfx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/headfx under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import headfx

    if Path(headfx.__file__).resolve().parent != (src / "headfx").resolve():
        raise SystemExit(f"perfbench: imported headfx from {headfx.__file__}, not {src}")
    import workloads

    return workloads.WORKLOADS


def _setup_time(args, root: Path, work: Path) -> float:
    """Fresh interpreter to ready: imports plus input generation."""
    target = work / "setup"
    cmd = [sys.executable, str(Path(__file__).relative_to(root)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(target.relative_to(root))]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up run exited {proc.returncode}")
    shutil.rmtree(target)
    return elapsed


def _passes(workload, seconds: float, reference: list[str], between=lambda: None):
    """Identical passes until `seconds` have gone by.

    Returns the wall time of each pass and the operation tallies. `between`
    runs before each pass, outside the timed region.
    """
    times, attempted, failed, problems = [], 0, 0, []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        between()
        workload.clear_outputs()
        start_pass = time.perf_counter()
        ops = workload.run_pass()
        times.append(time.perf_counter() - start_pass)
        digest = workload.check(ops)
        if not reference:
            reference.append(digest)
        elif digest != reference[0]:
            ops[0].problems.append("seeded outputs differ from the first pass")
        attempted += len(ops)
        for op in ops:
            if op.problems:
                failed += 1
                problems.append(f"{op.label}: {'; '.join(op.problems)[:500]}")
    return times, attempted, failed, problems


def _recorded_digest(workload: str, seed: int) -> str | None:
    baseline = HERE / "baseline.json"
    if not baseline.is_file():
        return None
    return json.loads(baseline.read_text()).get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = _parse(argv, spec["run_seconds"])
    workloads = _import_program(root)
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}")
    cls = workloads[args.workload]

    if args.setup_only:
        cls(args.seed, root, root / args.setup_only)
        print("ready", flush=True)
        return 0

    work = root / WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = cls(args.seed, root, work)

    # Set-up runs are spread over the run, so that a slow spell of a shared
    # machine does not decide all of them.
    setup: list[float] = []
    digest: list[str] = []
    times, attempted, failed, problems = _passes(
        workload, args.seconds, digest,
        lambda: setup.append(_setup_time(args, root, work)))
    while len(setup) < SETUP_RUNS:
        setup.append(_setup_time(args, root, work))
    wall = statistics.median(times)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    lines = [f"{args.workload} seed {args.seed}: {len(times)} untraced passes, "
             f"{attempted} operations, {failed} failed"]

    if args.trace:
        import layers
        import spans

        recorder = spans.Recorder(work)
        spans.install(recorder)
        workload.on_op = recorder.next_op
        traced, t_attempted, t_failed, t_problems = _passes(workload, args.seconds, digest)
        attempted, failed, problems = attempted + t_attempted, failed + t_failed, problems + t_problems
        recorded = recorder.collect()
        (work / "trace.json").write_text(json.dumps([s.to_json() for s in recorded]))
        values, note = layers.per_layer(recorded, len(traced), os.getpid())
        values["trace_overhead_ratio"] = statistics.median(traced) / wall
        values["viewer_choices_per_s"] = workload.viewer_choices / wall
        values["failed_fraction"] = failed / attempted
        declared = spec["per_layer"]
        lines.append(f"{len(traced)} traced passes, {len(recorded)} spans; {note}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        declared = spec["end_to_end"]
        lines.append(f"setup_s is the median of {len(setup)} set-ups "
                     f"({', '.join(f'{t:.3f}' for t in setup)} s), wall_s the median of "
                     f"{len(times)} passes ({', '.join(f'{t:.3f}' for t in times)} s)")
        lines.append(f"failed_fraction = {failed / attempted:g} ratio")
        if workload.viewer_choices:
            lines.append(f"viewer_choices_per_s = {workload.viewer_choices / wall:.6g} 1/s")

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(values))} "
                         "are not both computed and declared in BENCHMARK.json")
    lines += [f"{name} = {values[name]:.6g} {units[name]}" for name in units]
    recorded_digest = _recorded_digest(args.workload, args.seed)
    verdict = ("no digest recorded for this seed" if recorded_digest is None
               else "matches the recorded digest" if recorded_digest == digest[0]
               else "differs from the recorded digest")
    lines.append(f"digest {digest[0]} ({verdict})")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
