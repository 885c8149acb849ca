"""Benchmark driver for seizurecnn.

    python3 perfbench/run.py --workload train_sweep --seed 1 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/``.
Inputs are generated from ``--seed`` in a child process, under
``.perfbench/`` in the working directory, and removed when the run
ends. Set-up is timed in three fresh child processes and reported as
their median. Then the workload runs whole passes until ``--seconds``
have elapsed and its outputs are checked outside the timed region.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` the run first measures ``--seconds`` with wrappers
installed, then the same length untraced, and the result carries the
per-layer metrics; the end-to-end numbers of both halves and their
difference (the tracing overhead) are printed above it, and the spans
are written to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = Path(".perfbench")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("train_sweep", "score_clips", "ingest")


def pin_environment() -> int:
    """One BLAS/OpenMP thread per available core and one training worker.

    Must run before numpy is imported; child processes inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["SEIZURECNN_WORKERS"] = "1"
    return nproc


def describe_environment(nproc: int) -> str:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "SEIZURECNN_WORKERS": os.environ["SEIZURECNN_WORKERS"],
    }, sort_keys=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child = parser.add_mutually_exclusive_group()
    child.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    child.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, *extra) -> str:
    """Run this script in a child process for the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), *extra],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return done.stdout


def measure(workload, seconds: float, first_index: int = 0, tracer=None) -> list:
    """Whole passes until ``seconds`` have elapsed, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(first_index + len(passes), tracer))
    return passes


def end_to_end(passes, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "segments_per_s": (statistics.median(p.segments / p.busy for p in passes), "seg/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_environment()
    started = time.perf_counter()
    if not (SRC / "seizurecnn").is_dir():
        print(f"perfbench: no program sources in {SRC}", file=sys.stderr)
        return 2
    try:
        import tracing
        import workloads
        from spans import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.generate:
        cls.generate(Path(args.generate), args.seed)
        # inputs reach the disk now, not by writeback during the timed passes
        for path in Path(args.generate).rglob("*"):
            if path.is_file():
                with open(path, "rb+") as fh:
                    os.fsync(fh.fileno())
        return 0
    if args.setup_probe:
        cls(Path(args.setup_probe), args.seed).setup()
        print(time.perf_counter() - started)
        return 0

    WORK.mkdir(exist_ok=True)
    root = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        child(args, "--generate", str(root))
        setup_s = statistics.median(
            float(child(args, "--setup-probe", str(root)).split()[-1])
            for _ in range(SETUP_REPEATS))
        workload = cls(root, args.seed)
        workload.setup()

        traced = []
        if args.trace:
            # traced first, so that rss growth is seen where it happens
            tracer = Tracer()
            tracing.install(tracer)
            try:
                traced = measure(workload, args.seconds, 0, tracer)
            finally:
                tracer.uninstall()
        problems = [f"wrapped during the untraced run: {w}" for w in tracing.wrapped()]
        passes = measure(workload, args.seconds, len(traced))
        try:
            problems += workload.check()
        except Exception as exc:  # a crashed check is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = min(attempted, sum(p.failed for p in every) + len(problems))
    metrics = end_to_end(passes, setup_s)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)}")
    print(f"env {describe_environment(nproc)}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, value, unit in workload.own_metrics(passes):
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_share {failed / attempted:.6g} 1")

    if args.trace:
        traced_metrics = end_to_end(traced, setup_s)
        for name, (value, unit) in metrics.items():
            if name not in ("setup_s", "peak_rss_mb"):
                diff = traced_metrics[name][0] - value
                print(f"overhead {name} traced={traced_metrics[name][0]:.6g} "
                      f"untraced={value:.6g} diff={diff:+.6g} {unit}")
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        untraced_s = metrics["pass_s"][0]
        layer["trace.overhead_pct"] = 100 * (traced_metrics["pass_s"][0] - untraced_s) / untraced_s
        units = {name: unit for name, unit, _ in tracing.catalog()}
        shares = {m: layer[f"{m}.self_share"] for m in tracing.MODULES}
        print(f"dominant module {max(shares, key=shares.get)} "
              + " ".join(f"{m}={v:.3f}" for m, v in shares.items()))
        print("no module queues work or waits on another process: no waiting metric")
        for name, value in layer.items():
            print(f"layer {name} {value:.6g} {units[name]}")
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-s{args.seed}.json")
        result = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
