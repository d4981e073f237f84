"""Self-test of the benchmark harness (about two minutes on two cores).

From the repository root::

    python3 perfbench/selftest.py

Checks that one seed gives an identical serving request stream, that the
metric names ``run.py`` prints match ``BENCHMARK.json``, and that a tiny
run of each workload finishes with 0 failed operations — traced twice
with one seed, repeating every count it records exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def check(ok, what, failures):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_run(workload, trace, out):
    """One ``run.py --tiny`` run: (final JSON line, saved result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        return None, None
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    return final, json.loads(out.read_text("utf-8"))


def main():
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    first = workloads.request_stream(5, tiny=False)
    check(first == workloads.request_stream(5, tiny=False),
          "one seed gives an identical request stream", failures)
    check(first != workloads.request_stream(6, tiny=False),
          "another seed gives another request stream", failures)
    bodies, order = first
    distinct, repeats = workloads.SERVE_STREAM[False]
    check(len(bodies) == distinct and len(order) == distinct + repeats
          and sorted(set(order)) == list(range(distinct)),
          f"stream holds {distinct} distinct bodies and {repeats} repeats",
          failures)

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == workloads.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end names and units match run.py", failures)
    check(per_layer == workloads.per_layer_units(),
          "BENCHMARK.json per_layer names and units match run.py", failures)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match run.py", failures)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        scratch = Path(scratch)
        for workload in workloads.WORKLOADS:
            final, _ = tiny_run(workload, 0, scratch / f"{workload}-0.json")
            check(final is not None and final["failed"] == 0
                  and set(final["metrics"]) == set(end_to_end),
                  f"{workload}: untraced tiny run, 0 failed, end-to-end "
                  "names", failures)
            runs = [
                tiny_run(workload, 1, scratch / f"{workload}-1{n}.json")
                for n in "ab"
            ]
            check(all(final is not None and final["failed"] == 0
                      and set(final["metrics"]) == set(per_layer)
                      for final, _ in runs),
                  f"{workload}: traced tiny runs, 0 failed, per-layer names",
                  failures)
            check(runs[0][1] is not None and runs[1][1] is not None
                  and runs[0][1]["exact"] == runs[1][1]["exact"],
                  f"{workload}: one seed repeats every exact count", failures)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
