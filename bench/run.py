"""Benchmark of the sopa package on seeded synthetic workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it imports the package from the src/ directory next to
bench/ and writes only under bench/out/.  With --workload it runs that one
workload in this process and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
(median over the run) with --trace 0, the per-layer metrics with --trace 1.
Without --workload it runs every workload, each in a fresh process.

Lines before the result give the machine record and each metric's value,
unit, spread (interquartile range over median of the run's samples) and
sample count.  Traced runs also write their spans to
bench/out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
WORKLOAD_NAMES = ("train-long", "train-short-wide", "infer-explain")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> int:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_package():
    """Import sopa from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sopa", "__init__.py")):
        sys.exit(f"error: no sopa package under {src}")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import sopa
    if not os.path.abspath(sopa.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported sopa from {sopa.__file__}, not {src}")


def machine_record(seed: int, blas_threads: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "seed": seed}


def run_one(args, blas_threads: int) -> dict:
    import workloads
    w = workloads.WORKLOADS[args.workload]
    record = machine_record(args.seed, blas_threads)
    print(json.dumps({"machine": record, "workload": w.name, "trace": args.trace}))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    tally = workloads.Tally()
    try:
        paths = workloads.generate(w, args.seed, workdir)
        if args.trace:
            spans = os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.jsonl")
            values = workloads.run_traced(w, args.seed, args.seconds, paths, tally,
                                          spans, record)
            units = {**workloads.LAYER_UNITS, **workloads.LAYER_SUMMARY_UNITS}
            for name, unit in units.items():
                print(f"{w.name:17} {name:40} {values[name]:14.6g} {unit}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in workloads.LAYER_UNITS.items()}
        else:
            samples = workloads.run_end_to_end(w, args.seed, args.seconds, paths, tally)
            units = {**workloads.E2E_UNITS, **workloads.SUMMARY_UNITS}
            metrics = {}
            for name, unit in units.items():
                if not samples[name]:
                    continue
                value, spread, count = workloads.summarize(name, samples[name])
                print(f"{w.name:17} {name:22} {value:14.6g} {unit:9} "
                      f"spread {spread:.4f}  n={count}")
                if name in workloads.E2E_UNITS:
                    metrics[name] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    blas_threads = cap_blas_threads(len(os.sched_getaffinity(0)))
    import_package()
    result = run_one(args, blas_threads) if args.workload else run_all(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
