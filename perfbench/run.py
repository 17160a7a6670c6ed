"""Benchmark of the wpkrylov library on four convection-diffusion-reaction workloads.

Run from the repository root:

    python3 perfbench/run.py --workload whp-two-level --seed 1 --seconds 25 --trace 0

Each round sets the problem up as ``wpkrylov solve`` / ``wpkrylov bounds``
do and runs the solver or the bound report once; rounds repeat until the
next one would pass ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians
over the rounds); with ``--trace 1`` rounds alternate between untraced
and traced, and it holds the per-layer metrics of the traced rounds and
the tracing overhead.  Every run writes its result, with the machine and
environment it ran on, to ``perfbench/results/``; traced runs also write
their spans there.  The exit code is 1 if any output failed its check
and 2 if the workload is unknown or the library cannot be loaded from
``src/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# Iteration counts and timings depend on the BLAS thread count, so it is
# fixed here, before numpy is imported.  One thread is at most nproc on
# any machine and keeps runs on a shared machine steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 4  # two untraced and two traced

END_TO_END_UNITS = {
    "setup_s": "s",
    "compute_s": "s",
    "time_to_solution_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}
OVERHEAD_UNITS = {
    "trace.overhead_setup_s": "s",
    "trace.overhead_compute_s": "s",
    "trace.overhead_time_to_solution_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="whp-two-level, gcr-identity, gcr-weighted or bounds-two-level")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_library():
    """Import wpkrylov from this checkout's src/, never from an installed copy."""
    if not (SRC / "wpkrylov" / "__init__.py").is_file():
        raise ImportError(f"no wpkrylov package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wpkrylov

    if SRC not in Path(wpkrylov.__file__).resolve().parents:
        raise ImportError(f"wpkrylov was imported from {wpkrylov.__file__}, not from {SRC}")


def run_rounds(workload, spec, reference, seconds, trace):
    """Repeat set-up + timed call; returns the per-round records and spans."""
    import layers
    import workloads

    rounds, span_log = [], []
    min_rounds = MIN_ROUNDS_TRACED if trace else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer = layers.Tracer()
        with layers.instrument(tracer) if traced else contextlib.nullcontext():
            with tracer.span("setup"):
                prepared = workloads.setup(workload, spec)
            with tracer.span("compute"):
                output = workloads.compute(workload, prepared)
        setup_span, compute_span = (s for s in tracer.spans if s[3] == -1)
        record = {
            "traced": traced,
            "setup_s": setup_span[2] - setup_span[1],
            "compute_s": compute_span[2] - compute_span[1],
            "iterations": workloads.iterations(workload, output),
            "deviation": workloads.deviation(workload, output, reference),
            "failures": workloads.check(workload, output, reference),
        }
        record["time_to_solution_s"] = record["setup_s"] + record["compute_s"]
        if traced:
            record["layers"] = layers.layer_metrics(
                tracer.spans, workloads.facts(workload, prepared, output))
            spans = [[name, s - start, e - start, parent] for name, s, e, parent in tracer.spans]
            span_log.append({"round": len(rounds), "spans": spans})
        rounds.append(record)
        del prepared, output, tracer
        gc.collect()
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
            return rounds, span_log


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds):
    plain = [r for r in rounds if not r["traced"]]
    metrics = {key: _median(plain, key)
               for key in ("setup_s", "compute_s", "time_to_solution_s", "iterations")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(rounds):
    import layers

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = layers.median_per_key([r["layers"] for r in traced])
    for key in ("setup_s", "compute_s", "time_to_solution_s"):
        metrics[f"trace.overhead_{key}"] = _median(traced, key) - _median(plain, key)
    return metrics


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        return None


def _git_state():
    """(commit, dirty) of the checkout, or (None, None) when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip()) if status.returncode == 0 else None


def _digest(directory):
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        sha.update(str(path.relative_to(directory)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def environment(args):
    import numpy
    import scipy

    commit, dirty = _git_state()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": _digest(SRC),
        "perfbench_sha256": _digest(HERE),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_results(args, env, rounds, metrics, span_log):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    path = RESULTS / f"BENCH_{stem}.json"
    payload = {"environment": env, "metrics": metrics, "rounds": rounds}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    if span_log:
        (RESULTS / f"SPANS_{stem}.json").write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "rounds": span_log})
            + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = workloads.problem(workload, args.seed)
    reference = workloads.reference_solution(workload, spec)
    rounds, span_log = run_rounds(workload, spec, reference, args.seconds, args.trace)

    if args.trace:
        metrics = per_layer(rounds)
        units = {**layers.LAYER_UNITS, **OVERHEAD_UNITS}
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END_UNITS
    attempted = len(rounds)
    failed = sum(1 for r in rounds if r["failures"])
    env = environment(args)
    path = write_results(args, env, rounds, metrics, span_log)

    print(f"workload {workload.name}: m={workload.mesh}, seed {args.seed}, {attempted} rounds"
          f"{' (alternately traced)' if args.trace else ''}, BLAS threads {BLAS_THREADS}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>16.6f} {unit}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    for i, r in enumerate(rounds):
        for message in r["failures"]:
            print(f"  round {i} FAILED: {message}")
    print(f"  result written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
