"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload table1-lenet --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Each metric is printed by
name with its unit and sample count, then failed/attempted operations,
and as the last line one JSON object::

    {"correct": true, "attempted": 29, "failed": 0, "metrics": {...}}

The full result (every metric, the counts one seed repeats exactly, and
a machine fingerprint) is saved as JSON under ``.perfbench/results/``
or to ``--out``.  Everything the run writes stays under ``.perfbench/``
in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time spent on warm reruns")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few cells and requests")
    parser.add_argument("--out", default=None,
                        help="path of the saved result JSON")
    return parser.parse_args(argv)


def isolate_environment():
    """Drop inherited ``REPRO_*`` knobs; keep every cache in the checkout.

    BLAS runs one thread per process, so the two fork workers of the
    scenario, or the serving and client threads, do not oversubscribe
    two cores.  Must run before numpy is imported.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_RESULTS_DIR"] = str(WORK / "results")


def blas_threads():
    """OpenBLAS's thread count as the library reports it, or None."""
    import numpy

    libs = glob.glob(os.path.join(
        os.path.dirname(numpy.__file__) + ".libs", "*openblas*"
    ))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """The checkout's commit, when it is a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def fingerprint(seed):
    """Where and how a result was measured."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": blas_threads(),
            "env": {
                name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")
            },
        },
        "git_commit": git_commit(),
        "seed": seed,
    }


def report(result, names, trace):
    """Print every metric in ``names``; returns the final JSON object."""
    print(f"# {'per-layer (traced run)' if trace else 'end-to-end'} metrics")
    metrics = {}
    for name, unit in names.items():
        entry = result.metrics[name]
        if entry["unit"] != unit:
            raise ValueError(f"{name}: unit {entry['unit']!r}, not {unit!r}")
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:28s} {shown:>14s} {unit:6s} n={entry['samples']}")
        metrics[name] = {"value": value, "unit": unit}
    ledger = result.ledger
    failed = len(ledger.failures)
    print(f"failed/attempted operations: {failed}/{ledger.attempted}")
    for line in ledger.failures[:20]:
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0 and ledger.attempted > 0,
        "attempted": max(1, ledger.attempted),
        "failed": failed if ledger.attempted else 1,
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    isolate_environment()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    wall = time.perf_counter()
    cpu = os.times()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               args.trace, args.tiny, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cpu_end = os.times()
    names = (workloads.per_layer_units() if args.trace
             else workloads.END_TO_END_UNITS)
    missing = sorted(set(names) - set(result.metrics))
    if missing:
        for line in result.ledger.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    final = report(result, names, args.trace)

    saved = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "wall_s": time.perf_counter() - wall,
        "cpu_s": sum(cpu_end[:4]) - sum(cpu[:4]),
        "metrics": result.metrics,
        "attempted": result.ledger.attempted,
        "failures": result.ledger.failures,
        "exact": result.exact,
        "timing": result.timing,
        "fingerprint": fingerprint(args.seed),
    }
    out = Path(args.out) if args.out else (
        WORK / "results" / f"{args.workload}-seed{args.seed}"
        f"-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"# fingerprint: {json.dumps(saved['fingerprint'], sort_keys=True)}")
    print(f"# wall {saved['wall_s']:.1f} s, cpu {saved['cpu_s']:.1f} s; "
          f"saved {out}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
