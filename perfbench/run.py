"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload booster_fit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Set-up runs SETUPS times, and after each set-up the timed operation
repeats for a SETUPS-th of ``--seconds`` (at least once), so that set-ups
and operations are spread over the whole run. Every set-up and operation
is timed by ``clock.Clock``, which scales its wall time to a reference
machine speed measured next to it. ``setup_s``, ``run_s`` and
``work_per_s`` are medians of those scaled figures; the wall times are
printed beside them. Every repetition is checked for correctness; a
failed check counts as a failed operation.

With ``--trace 1`` the run instead reports the per-layer metrics of one
traced set-up and one traced operation; the tracing overhead compares the
traced operation's wall time with those of the untraced ones just before
and just after it.

``--seed n`` selects the input seed ``seeds[n % len(seeds)]`` of
``reference.json``; index 0 is the acceptance run's BENCH_SEED and the
others are held-out seeds. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS and OpenMP threads, pinned before numpy is imported so that no
#: library picks its own count; 1 is no larger than any machine's nproc.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUPS = 3
WORKLOAD_NAMES = ("booster_fit", "brits_fit", "csv_to_scores")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Timings and check outcomes of the timed operations of one run."""

    def __init__(self, workload, reference: dict, clock) -> None:
        self.workload = workload
        self.reference = reference
        self.clock = clock
        self.walls: list[float] = []
        self.times: list[float] = []
        self.rates: list[float] = []
        self.failures: list[str] = []
        self.last = None
        self.attempted = 0
        self.failed = 0

    def run(self, state, tracer=None) -> None:
        """Time one operation, then check it outside the timed region.

        With a tracer the operation runs inside its "op" phase span.
        """
        self.attempted += 1
        phase = tracer.phase("op") if tracer else contextlib.nullcontext()

        def op():
            with phase:
                return self.workload.op(state, tracer)

        try:
            result, wall, scaled = self.clock.measure(op)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return
        if tracer is None:
            self.walls.append(wall)
            self.times.append(scaled)
            self.rates.append(self.workload.work(state, result) / scaled)
        self.last = result
        errors = self.workload.check(state, result, self.reference)
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def repeat(self, state, seconds: float) -> None:
        """Run operations for about ``seconds``, at least one.

        Another operation starts only if, judged by the last one, it would
        end less than half an operation after the deadline.
        """
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run(state)
            now = time.perf_counter()
            if now - start + (now - t0) / 2 >= seconds:
                return


def run_workload(name: str, args: argparse.Namespace, reference: dict) -> dict:
    from clock import Clock
    from spans import Summary, Tracer

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    seeds = reference["seeds"]
    seed = seeds[args.seed % len(seeds)]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setup_walls, setup_times = [], []
        ops = Ops(workload, reference, Clock())
        rounds = 1 if args.trace else SETUPS
        for _ in range(rounds):
            state = None  # peak memory then holds one set-up, not two
            state, wall, scaled = ops.clock.measure(lambda: workload.setup(seed, work))
            setup_walls.append(wall)
            setup_times.append(scaled)
            ops.repeat(state, args.seconds / rounds)
        quality = workload.quality(state, ops.last) if ops.last is not None else {}
        out = {
            "name": name,
            "seed": seed,
            "input": workload.describe(state),
            "ops": ops,
            "quality": quality,
            "setup_walls": setup_walls,
            "setup_times": setup_times,
        }
        if args.trace:
            tracer = Tracer()
            with tracer.patched(layers.TARGETS):
                with tracer.phase("setup"):
                    state = workload.setup(seed, work, tracer)
                ops.run(state, tracer)
            ops.run(state)
            if len(ops.walls) < 2:
                raise RuntimeError(f"{name}: operations failed around the traced one")
            # The machine's speed drifts over seconds, so the traced operation
            # is compared with the untraced ones that bracket it in time.
            bracket = statistics.mean(ops.walls[-2:])
            values = layers.per_layer(Summary(tracer, "setup"), Summary(tracer, "op"), bracket)
            out["metrics"] = {m: (values[m], unit) for m, unit in layers.METRICS}
        else:
            if not ops.times:
                raise RuntimeError(f"{name}: every operation failed")
            out["metrics"] = {
                "setup_s": (statistics.median(setup_times), "s"),
                "run_s": (statistics.median(ops.times), "s"),
                "work_per_s": (statistics.median(ops.rates), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(res: dict, work_unit: str) -> None:
    ops = res["ops"]
    print(f"== {res['name']}  seed {res['seed']}  input {json.dumps(res['input'], sort_keys=True)}")
    print(f"   setup wall (s):   {' '.join(f'{t:.4f}' for t in res['setup_walls'])}")
    print(f"   setup scaled (s): {' '.join(f'{t:.4f}' for t in res['setup_times'])}")
    print(f"   op wall (s):      {' '.join(f'{t:.4f}' for t in ops.walls)}")
    print(f"   op scaled (s):    {' '.join(f'{t:.4f}' for t in ops.times)}")
    print(f"   work_per_s counts {work_unit} per second")
    for name, (value, unit) in res["metrics"].items():
        print(f"   {name:32s} {value:14.6g} {unit}")
    for name, value in res["quality"].items():
        unit = "count" if name == "test_positives" else "1"
        print(f"   {name:32s} {value:14.6g} {unit}")
    print(f"   {'failed_ratio':32s} {ops.failed / ops.attempted:14.6g} 1"
          f"  ({ops.failed} of {ops.attempted} operations)")
    if "trace.coverage" in res["metrics"]:
        coverage = res["metrics"]["trace.coverage"][0]
        print(f"   trace coverage within 5 % of run_s: {'yes' if abs(coverage - 1) <= 0.05 else 'NO'}")
    for failure in ops.failures:
        print(f"   FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = ROOT / "src"
    if not (src / "iloscast" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    from workloads import WORKLOADS

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args, reference)
        report(res, WORKLOADS[name].work_unit)
        results.append(res)

    prefix = len(results) > 1
    metrics = {
        (f"{res['name']}.{m}" if prefix else m): {"value": value, "unit": unit}
        for res in results
        for m, (value, unit) in res["metrics"].items()
    }
    attempted = sum(res["ops"].attempted for res in results)
    failed = sum(res["ops"].failed for res in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
