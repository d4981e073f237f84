"""The benchmark's two workloads, driven through public entry points.

``table1-lenet`` runs the Table 1 scenario cold on a fresh plan cache,
its tiles on two fork workers, then reruns it warm, each rerun on a
fresh :class:`~repro.plan.PlanArtifactCache` over the same root (what a
second ``runner`` process sees).  ``serve-plan-mix`` starts one plan
server and drives it with two closed-loop keep-alive clients over a
seeded stream of ``POST /v1/plan`` bodies, then restarts it over the
same cache and replays every distinct body warm, from disk.

The scenario replays the runner's canonical smoke configuration
(``runner table1 --scale smoke --workers 2``: seed 1), so its CSV bytes
are checked against a pinned digest on every run.  ``--seed`` drives
the serving workload's request stream and its sample of plans checked
against a direct resolution.

Every operation (a scenario run, a served request, a direct-resolution
check) counts as attempted; one that raises or whose output fails a
check counts as failed.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import tempfile
import threading
import time
from pathlib import Path

from tracing import LayerTracer

MODEL = "lenet-digits"
SCALE = "smoke"
TABLE1_SEED = 1  # the runner's default
TABLE1_WORKERS = 2

#: sha256 over (file name, bytes) of the CSVs ``runner table1 --scale
#: smoke`` writes (any worker count), keyed by tiny.
PINNED_CSV = {
    False: "257777b5247b05a1a2bdecd88569fe81cf3ad7a23e0c5055f92b8159a6d2e63f",
    True: "e1cec8830334a7239dbdf3dd8b1db616da4ac6ba5ad97f4d1470ef109e5d3530",
}

SERVE_METHODS = ("swim", "hetero_swim", "magnitude")
SERVE_BUDGETS = (0.1, 0.3, 0.5, 0.7, 0.9)
SERVE_TECHNOLOGIES = ("pcm", "pcm-comp", "rram", "fefet")
SERVE_CLIENTS = 2
#: (distinct bodies, repeats) of the stream; tiny is the self-test size.
SERVE_STREAM = {False: (200, 1100), True: (12, 40)}
SERVE_DIRECT_CHECKS = {False: 8, True: 3}
PARETO_ALPHA = 1.2

#: Warm reruns per run: at least this many, and more until ``--seconds``
#: have passed since the cold pass started (untraced runs; traced runs do
#: exactly this many).
MIN_RERUNS = 5
SETUPS = 2  # set-ups per untraced run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "rerun_s": "s",
    "wv_speedup": "x",
    "cold_p50_ms": "ms",
    "cold_p95_ms": "ms",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "serve_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Timed layers: span name -> what it wraps (see ``install_layers``).
TIMED_LAYERS = (
    "nn.im2col", "nn.col2im", "nn.maxpool",
    "core.eval_trials", "core.insitu",
    "cim.program", "cim.write_verify", "cim.apply_selection",
    "plan.curvature", "plan.variance", "plan.resolve",
    "cache.get_or_create", "cache.put",
    "sched.map",
    "zoo.train",
)

WORKLOADS = ("table1-lenet", "serve-plan-mix")


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_incl_s"] = "s"
    for kernel in ("nn.im2col", "nn.col2im", "nn.maxpool"):
        units[f"{kernel}_calls"] = "count"
        units[f"{kernel}_mb"] = "MB"
    units.update({
        "cim.verify_cycles": "count",
        "plan.resolve_calls": "count",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.hit_ratio": "ratio",
        "sched.tasks": "count",
        "sched.retries": "count",
        "sched.tiles_computed": "count",
        "sched.tiles_cached": "count",
        "serve.server_ms_p50": "ms",
        "serve.wait_ms_p50": "ms",
        "serve.engine_resolutions": "count",
        "serve.coalesced": "count",
        "trace.unattributed_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


# ---------------------------------------------------------------- helpers


def percentile(samples, p):
    """Nearest-rank percentile (the value with ``100 - p`` % above it)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb():
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Ledger:
    """Attempted and failed operations, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        """One operation; it failed if any of its checks found a problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def attempt(self, what, fn):
        """Run ``fn``; if it raises, record a failed operation, return None."""
        try:
            return fn()
        except Exception as exc:  # the benchmark keeps going and reports it
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None


class Result:
    """Metrics (value, unit, samples), ledger and exact counts of one run."""

    def __init__(self):
        self.metrics = {}
        self.ledger = Ledger()
        self.exact = {}  # counts one seed must repeat exactly
        self.timing = {}  # counts that depend on thread timing

    def put(self, name, value, unit, samples=1):
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}


def release_memory():
    """Collect garbage and hand freed heap back to the system.

    Each serving restart stands for a new server process, so the heap a
    stopped server freed must not count toward the next one's peak RSS.
    glibc keeps freed blocks in per-thread arenas, and which arena a new
    thread reuses depends on timing; trimming makes the peak repeatable.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


def fresh_dir(work, prefix):
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work))


def counters_of(cache):
    """:meth:`PlanArtifactCache.stats` without its two gauges."""
    return {
        key: value for key, value in cache.stats().items()
        if key not in ("memory_cap", "memory_entries")
    }


def cache_metrics(result, stats):
    """``cache.*`` per-layer metrics from summed cache counters."""
    hits = sum(s["memory"] + s["disk"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    result.put("cache.hits", hits, "count")
    result.put("cache.misses", misses, "count")
    result.put("cache.hit_ratio", hits / max(1, hits + misses), "ratio")


def setup_zoo(work):
    """Train the lenet zoo model into an empty cache; returns seconds."""
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload

    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(work, "zoo-"))
    start = time.perf_counter()
    load_workload(get_scale(SCALE).workload(MODEL))
    return time.perf_counter() - start


# ----------------------------------------------------------------- tracing


def install_layers(tracer, sched_results):
    """Wrap each layer's public entry points (see ``TIMED_LAYERS``).

    The layers reach the kernels through ``repro.nn.functional`` module
    attributes, so patching that module sees every call;
    ``evaluate_accuracy_trials`` is imported by name into two modules,
    so each name is patched.
    """
    import repro.core.mc
    import repro.core.metrics
    import repro.experiments.sweeps
    import repro.nn.functional
    import repro.plan.engine
    import repro.plan.orchestrator
    from repro.cim.accelerator import CimAccelerator
    from repro.core.insitu import InSituTrainer
    from repro.core.sensitivity import MagnitudeScorer, SwimScorer
    from repro.nn.layers.pooling import MaxPool2d
    from repro.nn.trainer import Trainer
    from repro.plan.cache import PlanArtifactCache

    functional = repro.nn.functional
    tracer.patch(functional, "im2col", "nn.im2col",
                 work=lambda result, args, kwargs: result[0].nbytes)
    tracer.patch(functional, "col2im", "nn.col2im",
                 work=lambda result, args, kwargs: args[0].nbytes)
    for method in ("forward", "backward", "backward_second"):
        tracer.patch(MaxPool2d, method, "nn.maxpool",
                     work=lambda result, args, kwargs: args[1].nbytes)
    for module in (repro.core.metrics, repro.core.mc,
                   repro.experiments.sweeps):
        tracer.patch(module, "evaluate_accuracy_trials", "core.eval_trials")
    tracer.patch(InSituTrainer, "run", "core.insitu")
    for method in ("program", "program_trials"):
        tracer.patch(CimAccelerator, method, "cim.program")
    tracer.patch(
        CimAccelerator, "write_verify_trials", "cim.write_verify",
        work=lambda result, args, kwargs: int(
            args[0].total_cycles_trials().sum()
        ),
    )
    tracer.patch(
        CimAccelerator, "write_verify_all", "cim.write_verify",
        work=lambda result, args, kwargs: int(args[0].total_cycles()),
    )
    for method in ("apply_selection", "apply_selection_trials"):
        tracer.patch(CimAccelerator, method, "cim.apply_selection")
    # Stage producers run inside ``cache.get_or_create``; patching them
    # uncounted under their stage's name keeps that work out of the
    # cache's self time (a nested span of the same name adds self time).
    engine = repro.plan.engine
    tracer.patch(engine.PlanEngine, "curvature", "plan.curvature")
    tracer.patch(SwimScorer, "scores", "plan.curvature", counted=False)
    tracer.patch(engine.PlanEngine, "variance", "plan.variance")
    for name in ("variance_map_from_stack", "variance_map_from_mapping"):
        tracer.patch(engine, name, "plan.variance", counted=False)
    tracer.patch(engine.PlanEngine, "plan", "plan.resolve")
    tracer.patch(engine, "rank_descending", "plan.resolve", counted=False)
    tracer.patch(MagnitudeScorer, "ranking", "plan.resolve", counted=False)
    tracer.patch(PlanArtifactCache, "get_or_create", "cache.get_or_create")
    tracer.patch(PlanArtifactCache, "put", "cache.put")

    def scheduled(result, args, kwargs):
        sched_results.append(result)
        return len(result.reports)

    tracer.patch(repro.plan.orchestrator, "supervised_map", "sched.map",
                 work=scheduled)
    tracer.patch(Trainer, "fit", "zoo.train")
    tracer.patch_boundary(repro.experiments.sweeps, "run_method_sweep")


def layer_metrics(result, tracer, window, sched_results, span_cost):
    """Per-layer metrics from the tracer's totals over ``window``."""
    totals = tracer.totals()
    empty = {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "work": 0}
    for layer in TIMED_LAYERS:
        record = totals.get(layer, empty)
        result.put(f"{layer}_s", record["self_s"], "s", record["calls"])
        result.put(f"{layer}_incl_s", record["incl_s"], "s", record["calls"])
    for kernel in ("nn.im2col", "nn.col2im", "nn.maxpool"):
        record = totals.get(kernel, empty)
        result.put(f"{kernel}_calls", record["calls"], "count")
        result.put(f"{kernel}_mb", record["work"] / 1e6, "MB")
    write_verify = totals.get("cim.write_verify", empty)
    result.put("cim.verify_cycles", write_verify["work"], "count",
               write_verify["calls"])
    result.put("plan.resolve_calls",
               totals.get("plan.resolve", empty)["calls"], "count")
    reports = [r for res in sched_results for r in res.reports.values()]
    result.put("sched.tasks", len(reports), "count")
    result.put("sched.retries",
               sum(max(0, r.attempts - 1) for r in reports), "count")

    start, end = window
    wall = end - start
    result.timing["trace_window_s"] = wall
    covered = tracer.covered_seconds(start, end)
    spans = sum(record["calls"] for record in totals.values())
    result.put("trace.unattributed_pct", 100.0 * (wall - covered) / wall, "%")
    result.put("trace.overhead_pct", 100.0 * spans * span_cost / wall, "%",
               spans)
    result.exact["layers"] = {
        name: {"calls": record["calls"], "work": record["work"]}
        for name, record in sorted(totals.items())
    }
    result.exact["sched"] = {
        "tasks": len(reports),
        "retries": result.metrics["sched.retries"]["value"],
    }


# --------------------------------------------------------------- scenarios


def csv_digest(outcome, out_dir):
    """sha256 over the CSVs the runner writes for this Table 1 result."""
    from repro.experiments.reporting import save_sweep_csv

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [
        save_sweep_csv(o, str(out_dir / f"table1_sigma{sigma:g}.csv"))
        for sigma, o in sorted(outcome.outcomes.items())
    ]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.basename(path).encode("utf-8"))
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def wv_speedup(outcomes):
    """Write-verify speedup at equal accuracy, minimum over sigmas.

    Per sigma: the smallest positive NWC target whose SWIM mean accuracy
    is within 1 point of its NWC=1.0 accuracy; the speedup is
    ``1 / achieved_nwc`` there.  NWC=0 is skipped, because no
    write-verify at all has no finite speedup.
    """
    speedups = []
    for outcome in outcomes.values():
        curve = outcome.curves["swim"]
        targets = list(curve.nwc_targets)
        means = curve.means()
        reference = means[targets.index(1.0)]
        for i in sorted(range(len(targets)), key=lambda j: targets[j]):
            if curve.achieved_nwc[i] > 0 and means[i] >= reference - 0.01:
                speedups.append(1.0 / float(curve.achieved_nwc[i]))
                break
    return min(speedups)


def run_scenario(seconds, tiny, work, tracer):
    """Cold runs plus warm reruns of Table 1; returns a Result."""
    from repro.experiments.config import get_scale
    from repro.experiments.table1 import run_table1
    from repro.plan import PlanArtifactCache

    scale = get_scale(SCALE)
    kwargs = {"seed": TABLE1_SEED, "workers": TABLE1_WORKERS}
    if tiny:
        kwargs["sigmas"] = (0.15,)

    result = Result()
    ledger = result.ledger
    sched_results = []
    if tracer is not None:
        span_cost = tracer.calibrate()
        install_layers(tracer, sched_results)
    window_start = time.perf_counter()
    setups = [setup_zoo(work) for _ in range(1 if tracer else SETUPS)]

    pinned = PINNED_CSV[tiny]
    cache_stats = {"cold": [], "warm": []}  # PlanArtifactCache.stats()

    def one_run(kind):
        cache = PlanArtifactCache(root=str(plan_root))
        reports = []
        start = time.perf_counter()
        outcome = run_table1(scale, plan_cache=cache, report_out=reports,
                             **kwargs)
        elapsed = time.perf_counter() - start
        cache_stats[kind].append(counters_of(cache))
        digest = csv_digest(outcome, fresh_dir(work, "csv-"))
        return elapsed, outcome, reports[0], digest

    def problems(run):
        _, _, report, digest = run
        found = [f"cell {cell.key!r} failed" for cell in report.failed]
        if digest != pinned:
            found.append(f"CSV sha256 {digest} != pinned {pinned!r}")
        return found

    plan_root = fresh_dir(work, "plan-")
    measure_start = time.perf_counter()
    cold = ledger.attempt("cold run", lambda: one_run("cold"))
    if cold is not None:
        ledger.record("cold run", problems(cold))
    warm = []
    while cold is not None and (
        len(warm) < MIN_RERUNS
        or (tracer is None
            and time.perf_counter() - measure_start < seconds)
    ):
        label = f"warm rerun {len(warm) + 1}"
        run = ledger.attempt(label, lambda: one_run("warm"))
        if run is None:
            break
        found = problems(run)
        if run[3] != cold[3]:
            found.append("CSV differs from the cold run's")
        if run[2].tiles_computed:
            found.append(f"{run[2].tiles_computed} tiles recomputed")
        ledger.record(label, found)
        warm.append(run)
    window = (window_start, time.perf_counter())
    if tracer is not None:
        tracer.uninstall()
    if cold is None or not warm:
        return result

    cold_s, outcome, report, digest = cold
    rerun_s = [run[0] for run in warm]
    result.timing["samples"] = {"setup_s": setups, "rerun_s": rerun_s}
    cells_ms = [1e3 * cell.duration for cell in report.cells]
    result.put("setup_s", statistics.median(setups), "s", len(setups))
    result.put("run_s", cold_s, "s")
    result.put("rerun_s", statistics.median(rerun_s), "s", len(rerun_s))
    result.put("wv_speedup", wv_speedup(outcome.outcomes), "x",
               len(outcome.outcomes))
    result.put("cold_p50_ms", statistics.median(cells_ms), "ms", len(cells_ms))
    result.put("cold_p95_ms", percentile(cells_ms, 95), "ms", len(cells_ms))
    warm_ms = [1e3 * s for s in rerun_s]
    result.put("warm_p50_ms", statistics.median(warm_ms), "ms", len(warm_ms))
    result.put("warm_p99_ms", percentile(warm_ms, 99), "ms", len(warm_ms))
    result.put("serve_rps", len(report.cells) / cold_s, "1/s",
               len(report.cells))
    result.put("peak_rss_mb", peak_rss_mb(), "MB")

    first_warm = warm[0][2]
    result.exact.update({
        "csv_sha256": digest,
        "cells": len(report.cells),
        "tiles": {
            "cold_computed": report.tiles_computed,
            "cold_cached": report.tiles_cached,
            "warm_computed": first_warm.tiles_computed,
            "warm_cached": first_warm.tiles_cached,
        },
        "cache_cold": cache_stats["cold"][0],
        "cache_warm": cache_stats["warm"][0],
        "wv_speedup": result.metrics["wv_speedup"]["value"],
    })
    if tracer is not None:
        layer_metrics(result, tracer, window, sched_results, span_cost)
        cache_metrics(result, [cache_stats["cold"][0],
                               cache_stats["warm"][0]])
        result.put("sched.tiles_computed", report.tiles_computed, "count")
        result.put("sched.tiles_cached", first_warm.tiles_cached, "count")
        for name in ("serve.server_ms_p50", "serve.wait_ms_p50",
                     "serve.engine_resolutions", "serve.coalesced"):
            result.put(name, 0, per_layer_units()[name], 0)
    return result


# ------------------------------------------------------------------ serving


def request_stream(seed, tiny):
    """Seeded ``(bodies, order)``: distinct bodies and the request order.

    Bodies cross a technology with a log-uniform read time in
    [1 s, ~1 year].  The order introduces every body once (its cold
    request) and fills the rest with repeats drawn by Pareto popularity
    among the bodies introduced so far.
    """
    distinct, repeats = SERVE_STREAM[tiny]
    rng = random.Random(seed)
    keys = set()
    bodies = []
    while len(bodies) < distinct:
        technology = rng.choice(SERVE_TECHNOLOGIES)
        read_time = float(f"{10 ** rng.uniform(0.0, 7.5):.4g}")
        if (technology, read_time) in keys:
            continue
        keys.add((technology, read_time))
        bodies.append({
            "methods": list(SERVE_METHODS),
            "nwc_targets": list(SERVE_BUDGETS),
            "technology": technology,
            "read_time": read_time,
            "weight_bits": 4,
        })
    popularity = [rng.paretovariate(PARETO_ALPHA) for _ in bodies]
    marks = [True] * distinct + [False] * repeats
    rng.shuffle(marks)
    first_new = marks.index(True)
    marks[0], marks[first_new] = marks[first_new], marks[0]
    order = []
    seen = []
    for new in marks:
        if new:
            seen.append(len(seen))
            order.append(seen[-1])
        else:
            order.append(
                rng.choices(seen, weights=[popularity[i] for i in seen])[0]
            )
    return bodies, order


def stream_digest(bodies, order):
    text = json.dumps([bodies[i] for i in order], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ServerThread:
    """A :class:`PlanHTTPServer` on its own thread (ephemeral port)."""

    def __init__(self, registry):
        from repro.serve import PlanHTTPServer

        self.registry = registry
        self.server = PlanHTTPServer(registry, port=0)
        self._ready = threading.Event()
        self._loop = None
        self.error = None
        self._thread = threading.Thread(target=self._main, name="plan-server")

    def _main(self):
        import asyncio

        async def serve():
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.run(install_signals=False)

        try:
            asyncio.run(serve())
        except Exception as exc:  # surfaced by start()
            self.error = exc
        finally:
            self._ready.set()

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=120) or self.error is not None:
            self.stop()
            raise RuntimeError(f"plan server did not start: {self.error}")
        return self

    def stop(self):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=120)
        self.registry.close()

    @property
    def port(self):
        return self.server.port


def start_server(plan_root):
    """Build the lenet plan service over ``plan_root`` and serve it."""
    from repro.plan import PlanArtifactCache
    from repro.serve.cli import build_service

    cache = PlanArtifactCache(root=str(plan_root))
    registry = build_service(workloads=(MODEL,), scale=SCALE, cache=cache)
    return ServerThread(registry).start(), cache


def drive(port, bodies, order, tracer):
    """Two closed-loop keep-alive clients over one shared request order.

    Returns one record per position: ``(body index, client seconds,
    server ms, source, key, sha256 of the bytes)``, or an error string.
    """
    from repro.serve import PlanClient

    records = [None] * len(order)
    lock = threading.Lock()
    position = [0]

    def client_main():
        with PlanClient(port=port, timeout=120) as client:
            send = client.plan
            if tracer is not None:
                send = tracer.wrap("serve.client", send)
            while True:
                with lock:
                    i = position[0]
                    position[0] += 1
                if i >= len(order):
                    return
                body = bodies[order[i]]
                start = time.perf_counter()
                try:
                    response = send(body)
                except Exception as exc:  # counted as a failed request
                    records[i] = f"{type(exc).__name__}: {exc}"
                    continue
                records[i] = (
                    order[i], time.perf_counter() - start,
                    client.last_server_ms, response.source, response.key,
                    hashlib.sha256(response.data).hexdigest(),
                )

    threads = [
        threading.Thread(target=client_main, name=f"client-{n}")
        for n in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def direct_digest(body_index, bodies):
    """sha256 of a plan resolved by a memory-only engine, no server."""
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.plan import PlanArtifactCache, PlanEngine
    from repro.serve import parse_plan_request, plan_bytes

    scale = get_scale(SCALE)
    zoo = load_workload(scale.workload(MODEL))
    engine = PlanEngine(
        zoo.model,
        zoo.data.train_x[:scale.sense_samples],
        zoo.data.train_y[:scale.sense_samples],
        workload=zoo.spec.key,
        cache=PlanArtifactCache(disk=False),
        curvature_batch_size=min(256, scale.sense_samples),
    )
    digests = {}
    for i in body_index:
        request = parse_plan_request(json.dumps(bodies[i]).encode("utf-8"))
        digests[i] = hashlib.sha256(plan_bytes(engine.plan(request))).hexdigest()
    return digests


def run_serve(seed, seconds, tiny, work, tracer):
    """Cold pass, warm restarts, direct checks; returns a Result."""
    result = Result()
    ledger = result.ledger
    bodies, order = request_stream(seed, tiny)
    sched_results = []
    if tracer is not None:
        span_cost = tracer.calibrate()
        install_layers(tracer, sched_results)
    window_start = time.perf_counter()

    setups = []
    server = None
    for _ in range(1 if tracer else SETUPS):
        if server is not None:
            server.stop()
            server = cache = None
            release_memory()
        start = time.perf_counter()
        os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(work, "zoo-"))
        plan_root = fresh_dir(work, "plan-")
        server, cache = start_server(plan_root)
        setups.append(time.perf_counter() - start)

    try:
        cold_start = time.perf_counter()
        records = drive(server.port, bodies, order, tracer)
        run_s = time.perf_counter() - cold_start
        counters = dict(server.registry.resolve().counters)
        cache_stats = [counters_of(cache)]
    finally:
        server.stop()
    server = cache = None
    release_memory()

    first = {}  # body index -> sha256 of its first served bytes
    latency = {"cold": [], "warm": [], "coalesced": []}
    server_ms = []
    wait_ms = []
    for position, record in enumerate(records):
        what = f"request {position}"
        if not isinstance(record, tuple):
            ledger.record(what, [record or "never sent"])
            continue
        index, seconds_taken, served_ms, source, _, digest = record
        problems = []
        if source not in latency:
            problems.append(f"source {source!r}")
        else:
            latency[source].append(1e3 * seconds_taken)
        if first.setdefault(index, digest) != digest:
            problems.append(f"bytes of body {index} differ from its first")
        ledger.record(what, problems)
        if served_ms is not None:
            server_ms.append(served_ms)
            wait_ms.append(1e3 * seconds_taken - served_ms)
    resolutions = counters["engine_resolutions"]
    ledger.record("cold pass", [] if resolutions == len(bodies) else [
        f"{resolutions} engine resolutions for {len(bodies)} distinct bodies"
    ])

    replay = list(range(len(bodies)))
    random.Random(seed + 1).shuffle(replay)
    reruns = []
    while (
        len(reruns) < MIN_RERUNS
        or (tracer is None and time.perf_counter() - cold_start < seconds)
    ):
        label = f"warm rerun {len(reruns) + 1}"
        start = time.perf_counter()
        restarted = ledger.attempt(label, lambda: start_server(plan_root))
        if restarted is None:
            break
        server, cache = restarted
        try:
            replayed = drive(server.port, bodies, replay, tracer)
            resolutions = server.registry.resolve().counters[
                "engine_resolutions"
            ]
        finally:
            server.stop()
        reruns.append(time.perf_counter() - start)
        cache_stats.append(counters_of(cache))
        server = cache = restarted = None
        release_memory()
        ledger.record(label, [] if resolutions == 0 else [
            f"{resolutions} engine resolutions on a warm cache"
        ])
        for position, record in enumerate(replayed):
            what = f"{label}, request {position}"
            if not isinstance(record, tuple):
                ledger.record(what, [record or "never sent"])
                continue
            index, _, _, source, _, digest = record
            problems = [] if source == "warm" else [f"source {source!r}"]
            if first.get(index) != digest:
                problems.append("bytes differ from the cold pass")
            ledger.record(what, problems)
    window = (window_start, time.perf_counter())
    if tracer is not None:
        tracer.uninstall()

    checked = random.Random(seed + 2).sample(
        range(len(bodies)), SERVE_DIRECT_CHECKS[tiny]
    )
    direct = ledger.attempt("direct resolution",
                            lambda: direct_digest(checked, bodies))
    for index in checked if direct is not None else ():
        ledger.record(f"direct resolution of body {index}", [] if (
            direct[index] == first.get(index)
        ) else ["served bytes differ from a memory-only engine's"])
    if not latency["cold"] or not latency["warm"] or not reruns:
        return result

    total = sum(len(samples) for samples in latency.values())
    result.timing["samples"] = {"setup_s": setups, "rerun_s": reruns}
    result.put("setup_s", statistics.median(setups), "s", len(setups))
    result.put("run_s", run_s, "s")
    result.put("rerun_s", statistics.median(reruns), "s", len(reruns))
    result.put("wv_speedup", 1.0, "x", 0)
    cold, warm = latency["cold"], latency["warm"]
    result.put("cold_p50_ms", statistics.median(cold), "ms", len(cold))
    result.put("cold_p95_ms", percentile(cold, 95), "ms", len(cold))
    result.put("warm_p50_ms", statistics.median(warm), "ms", len(warm))
    result.put("warm_p99_ms", percentile(warm, 99), "ms", len(warm))
    result.put("serve_rps", total / run_s, "1/s", total)
    result.put("peak_rss_mb", peak_rss_mb(), "MB")

    result.exact.update({
        "stream_sha256": stream_digest(bodies, order),
        "requests": len(order),
        "distinct": len(bodies),
        "engine_resolutions": counters["engine_resolutions"],
        "cold": len(cold),
        "cache_warm_restart": cache_stats[1],
    })
    # Which repeats race their own cold resolution (coalesced instead of
    # warm) depends on how the two clients interleave.
    result.timing.update({
        "warm": len(warm),
        "coalesced": counters["coalesced"],
        "cache_cold": cache_stats[0],
    })
    if tracer is not None:
        layer_metrics(result, tracer, window, sched_results, span_cost)
        cache_metrics(result, cache_stats[:2])
        result.put("sched.tiles_computed", 0, "count")
        result.put("sched.tiles_cached", 0, "count")
        result.put("serve.server_ms_p50", statistics.median(server_ms), "ms",
                   len(server_ms))
        result.put("serve.wait_ms_p50", statistics.median(wait_ms), "ms",
                   len(wait_ms))
        result.put("serve.engine_resolutions", counters["engine_resolutions"],
                   "count")
        result.put("serve.coalesced", counters["coalesced"], "count")
    return result


def run(workload, seed, seconds, trace, tiny, work):
    """Run one workload; ``trace`` selects the per-layer (traced) run."""
    tracer = LayerTracer(fresh_dir(work, "spool-")) if trace else None
    if workload == "serve-plan-mix":
        return run_serve(seed, seconds, tiny, work, tracer)
    return run_scenario(seconds, tiny, work, tracer)
