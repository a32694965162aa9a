"""csarank benchmark: one workload in one fresh process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload csa-paper --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``, never from an
installed copy. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
installs the layer wrappers on every other timed round and prints the
per-layer metrics instead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 2 means the
run could not start (bad arguments or no ``src/csarank`` to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("csa-paper", "db-dfs", "train-small")
# One BLAS thread on every workload. On a 2-CPU VM a second thread made
# paper-size csa_rerank 30% faster but twice as variable from run to run,
# and train-small 7% slower and three times as variable.
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """Must run before numpy is imported: OpenBLAS reads these variables
    once, when it loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up SETUP_REPS times, warm up, then run timed rounds in a closed loop
    until ``seconds`` have passed and the workload's minimum count of untraced
    rounds is met.

    Memory is measured as the program leaves it: nothing here collects
    garbage, changes GC thresholds or freezes objects (see README.md)."""
    from tracer import Tracer
    from workloads import SETUP_REPS, WORKLOADS, RunStats

    stats = RunStats()
    tracer = Tracer() if trace else None
    clamps = 0

    def set_phase(phase):
        if tracer is not None:
            tracer.phase = phase

    def traced_call(fn, *args):
        """Run fn with the layer wrappers installed; count clamp warnings."""
        nonlocal clamps
        n0 = len(caught)
        tracer.enable()
        try:
            return fn(*args)
        finally:
            tracer.disable()
            clamps += sum("clamping" in str(w.message) for w in caught[n0:])

    workload = WORKLOADS[name](seed, workdir, set_phase)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rep in range(SETUP_REPS):
            # Each set-up writes fresh files: rewriting a file in place costs
            # a flush on some file systems, which would make later reps slower.
            directory = workdir / f"setup{rep}"
            directory.mkdir()
            set_phase("setup")
            t0 = time.perf_counter()
            if tracer is not None:
                traced_call(workload.setup, stats, directory)
            else:
                workload.setup(stats, directory)
            stats.setup_s.append(time.perf_counter() - t0)
            if rep:
                shutil.rmtree(workdir / f"setup{rep - 1}")
        workload.check_setup(stats)
        workload.warmup()

        if tracer is not None:
            tracer.watch_gc()
        start = time.perf_counter()
        rounds = plain_rounds = 0
        # The minimum counts untraced rounds, so that a trace run's p95, taken
        # from its untraced queries, has as many samples as a plain run's.
        while plain_rounds < workload.min_rounds or time.perf_counter() - start < seconds:
            traced = tracer is not None and rounds % 2 == 1
            plain_rounds += not traced
            set_phase(workload.main_phase)
            try:
                if traced:
                    traced_call(workload.round, rounds, stats, traced)
                else:
                    workload.round(rounds, stats, traced)
            except Exception:   # one failed operation; the run goes on
                traceback.print_exc()
                stats.fail(f"round {rounds} raised")
            rounds += 1
        timed_s = time.perf_counter() - start
        if tracer is not None:
            tracer.unwatch_gc()
        workload.finish(stats)
    return {"workload": workload, "stats": stats, "rounds": rounds,
            "timed_s": timed_s, "setup_reps": SETUP_REPS, "clamps": clamps,
            "spans": tracer.summary() if tracer is not None else None,
            "gen2_collections": tracer.gen2_collections if tracer is not None else 0}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "csarank" / "__init__.py").is_file():
        print(f"error: no csarank sources under {src}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(src))

    import metrics

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run still uses it
    values = metrics.compute(result, bool(args.trace), BLAS_THREADS)
    report = metrics.report(ROOT / "BENCHMARK.json", values, bool(args.trace), result)
    metrics.print_table(args, BLAS_THREADS, result, values, report)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
