#!/usr/bin/env python3
"""Benchmark of the ``repro`` EPIC / PRIMM / greedyWM system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload alloc-sparse --seed 0 --seconds 20 --trace 0

It starts one local Spark session with the compute settings of
``repro.experiments.session.get_spark``, builds the workload's graph, warms
up on other inputs, then runs a closed loop (one operation at a time, one
client) for ``--seconds`` seconds and checks every operation's outputs.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced operations and reports per-layer metrics
from spans around the public functions of each ``repro`` module (see
``spans.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record. ``--record-refs N`` instead records the reference
outputs of seeds 0..N-1 into ``refs.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFS = BENCH / "refs.json"

#: Compute settings of ``repro.experiments.session.get_spark`` (what the
#: ``jobs/`` entrypoints run), plus a quiet console and enough retained
#: jobs for exact per-span job counts.
MASTER = "local[*]"
DRIVER_MEMORY = "8g"
SHUFFLE_PARTITIONS = "32"

#: Graph builds per run; ``setup_s`` uses the median.
GRAPH_BUILDS = 3

#: Warm-up operations per run, on algorithm seeds no measured run uses. In a
#: fresh JVM an operation keeps getting faster for several calls; after two
#: the measured ones sit on the flatter part of the curve (see README.md).
WARMUP_OPS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", type=int, default=0, metavar="N")
    return ap.parse_args(argv)


# ---- Spark session ---------------------------------------------------------

def start_spark():
    """A session with get_spark's settings; scratch files stay in the checkout."""
    tmp = WORK_DIR / "tmp"
    local = WORK_DIR / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    from spans import RETAINED_JOBS

    # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_*.
    java_opts = (
        f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData "
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}"
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = SHUFFLE_PARTITIONS
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.ui.retainedJobs={RETAINED_JOBS}",
        f"--conf spark.ui.retainedStages={RETAINED_JOBS}",
        "pyspark-shell",
    ])
    from repro.experiments.session import get_spark

    return get_spark("perfbench")


def jvm_process():
    """The Spark JVM that pyspark launched (a child of this process)."""
    from pyspark import SparkContext

    return getattr(SparkContext._gateway, "proc", None)


def jvm_peak_rss_mb() -> float:
    proc = jvm_process()
    with open(f"/proc/{proc.pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the Spark JVM")


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = jvm_process()
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---- run record ------------------------------------------------------------

def source_digest() -> str:
    """sha256 over the paths and contents of every file under src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args, spark, outputs) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "outputs": outputs,
    }


# ---- operations --------------------------------------------------------------

def load_refs() -> dict:
    return json.loads(REFS.read_text()) if REFS.exists() else {}


def check(workload, out, ref, first) -> list[str]:
    """Reasons the output fails: invariants, the recorded reference for
    this seed, and agreement with the run's first output."""
    bad = list(workload.invariants(out))
    if ref is not None and out != ref:
        bad.append("output differs from the recorded reference")
    if first is not None and out != first:
        bad.append("output differs from the run's first operation")
    return bad


class Loop:
    """Closed loop: one operation at a time, each timed and checked."""

    def __init__(self, workload, op, ref) -> None:
        self.workload, self.op, self.ref = workload, op, ref
        self.attempted = self.failed = 0
        self.first = None
        self.outputs: list[dict] = []

    def run_one(self, wrap=None) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wrap(self.op) if wrap else self.op()
        except Exception as exc:
            dt = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc()
            self.outputs.append({"wall_s": dt, "ok": False, "error": repr(exc)})
            return dt
        dt = time.perf_counter() - t0
        bad = check(self.workload, out, self.ref, self.first)
        if self.first is None:
            self.first = out
        if bad:
            self.failed += 1
            print(f"perfbench: operation {self.attempted} failed: {bad}", file=sys.stderr)
        self.outputs.append({"wall_s": dt, "ok": not bad, "output": out})
        return dt


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    out = {"samples": n, "median": statistics.median(samples)}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = sorted(samples)[n - 11]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    spark = start_spark()
    spark_s = time.perf_counter() - t0
    try:
        return run(args, WORKLOADS[args.workload], spark, spark_s)
    finally:
        stop_spark(spark)


def run(args, workload, spark, spark_s) -> int:
    import numpy as np

    from spans import Tracer, layer_metrics
    from workloads import build_graph, layered_pairs

    spec = workload.spec
    pairs = layered_pairs(spec)
    if args.record_refs:
        return record_refs(args, workload, spark, pairs, build_graph)
    tracer = Tracer(spark, np.bincount(pairs[:, 1], minlength=spec.n))

    # Set-up: the graph is built GRAPH_BUILDS times (traced with --trace 1),
    # then WARMUP_OPS operations run on other algorithm seeds.
    build_s, build_metrics, graph = [], [], None
    for _ in range(GRAPH_BUILDS):
        if graph is not None:
            graph.edges.unpersist(blocking=True)
        t = time.perf_counter()
        if args.trace:
            with tracer.patched(), tracer.span(f"{workload.name}.setup") as root:
                graph = build_graph(spark, pairs, spec.n, workload.name)
            build_metrics.append(layer_metrics(tracer.spans, tracer, root))
        else:
            graph = build_graph(spark, pairs, spec.n, workload.name)
        build_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    warm_bad = []
    for k in range(WARMUP_OPS):
        warm_bad += workload.invariants(workload.make_op(graph, pairs, warmup_seed(args.seed, k))())
    warm_s = time.perf_counter() - t
    setup_s = spark_s + statistics.median(build_s) + warm_s

    ref = load_refs().get(workload.name, {}).get(str(args.seed))
    loop = Loop(workload, workload.make_op(graph, pairs, args.seed), ref)
    setup = {"spark_s": spark_s, "graph_build_s": build_s, "warmup_s": warm_s,
             "setup_s": setup_s, "warmup_invariant_failures": warm_bad}
    if args.trace:
        metrics, checks = traced_loop(args, workload, loop, tracer, build_metrics)
    else:
        walls = []
        deadline = time.perf_counter() + args.seconds
        while True:
            walls.append(loop.run_one())
            if time.perf_counter() >= deadline:
                break
        wall = statistics.median(walls)
        work = workload.work(loop.first) if loop.first is not None else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "work_per_s": (work / wall, "1/s"),
            "driver_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
        }
        checks = {"wall_s": tail(walls), "work": work, "work_unit": workload.work_unit,
                  "jvm_peak_rss_mb": jvm_peak_rss_mb()}

    record = run_record(args, spark, loop.outputs)
    record.update(setup=setup, checks=checks,
                  reference="recorded" if ref is not None else "none for this seed")
    print(json.dumps({"run_record": record}))
    correct = loop.failed == 0 and not warm_bad and checks.get("self_check_ok", True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def warmup_seed(seed: int, k: int) -> int:
    """The ``k``-th warm-up algorithm seed of a run (measured seeds are small)."""
    return 1_000_003 + 2 * seed + k


def traced_loop(args, workload, loop, tracer, build_metrics):
    """Alternate untraced and traced operations; per-layer metrics are
    medians over the traced ones."""
    from spans import RETAINED_JOBS, layer_metrics

    rdd_jobs = tracer.count_jobs(lambda: tracer.sc.parallelize(range(10), 1).count())
    # With adaptive query execution (Spark's default) a DataFrame count runs
    # its shuffle stage and its result stage as two jobs.
    df_jobs = tracer.count_jobs(lambda: tracer.spark.range(10).count())
    self_check_ok = rdd_jobs == (1, 1) and df_jobs[0] == 2

    # Untraced and traced operations alternate, starting and ending with an
    # untraced one, so that warm-up drift does not bias the overhead.
    untraced, traced, per_op = [loop.run_one()], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        root_box = {}

        def wrap(op):
            with tracer.patched(), tracer.span(f"{workload.name}.root") as root:
                root_box["idx"] = root
                return op()

        wall = loop.run_one(wrap)
        traced.append(wall)
        if "idx" in root_box:
            m = layer_metrics(tracer.spans, tracer, root_box["idx"])
            m["trace.wall_s"] = wall
            per_op.append(m)
        untraced.append(loop.run_one())
        if time.perf_counter() >= deadline:
            break

    def med(key: str) -> float:
        return statistics.median(m.get(key, 0.0) for m in per_op) if per_op else 0.0

    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    # The root span and its descendants must cover the operation's wall time.
    residuals = [(m["trace.wall_s"] - m["root.s"]) / m["trace.wall_s"] for m in per_op]
    # Spark evicts the oldest jobs beyond RETAINED_JOBS; job ids count up
    # from 0, so a last id below the limit means no count was cut off.
    last_job = max((m["spark.last_job_id"] for m in per_op), default=-1)
    consistent = (bool(per_op) and max(residuals) <= 0.05
                  and min(m["trace.min_self_s"] for m in per_op) >= 0)

    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    derived = {
        "rrsets.sample.nonempty_frac": (
            med("rrsets.sample.nonempty") / med("rrsets.sample.rr_sets")
            if med("rrsets.sample.rr_sets") else 0.0),
        "spark.checkpoint.share": med("spark.checkpoint.s") / statistics.median(traced),
        "trace.overhead_frac": overhead,
        "trace.residual_frac": max(residuals) if residuals else 1.0,
        "graphs.build.s": statistics.median(b.get("graphs.build.s", 0.0) for b in build_metrics),
        "graphs.build.jobs": statistics.median(b.get("graphs.build.jobs", 0.0) for b in build_metrics),
        "jvm.peak_rss_mb": jvm_peak_rss_mb(),
    }
    metrics = {n: (derived[n] if n in derived else med(n), u) for n, u in units.items()}
    checks = {
        "untraced_wall_s": tail(untraced),
        "traced_wall_s": tail(traced),
        "self_check_jobs": {"rdd_count": rdd_jobs, "range_count": df_jobs},
        "self_check_ok": self_check_ok and consistent and last_job < RETAINED_JOBS,
        "trace_consistent": consistent,
        "per_op": per_op,
    }
    return metrics, checks


def record_refs(args, workload, spark, pairs, build_graph) -> int:
    graph = build_graph(spark, pairs, workload.spec.n, workload.name)
    refs = load_refs()
    mine = refs.setdefault(workload.name, {})
    for seed in range(args.record_refs):
        out = workload.make_op(graph, pairs, seed)()
        bad = workload.invariants(out)
        if bad:
            print(f"perfbench: seed {seed} fails invariants: {bad}", file=sys.stderr)
            return 1
        mine[str(seed)] = out
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {workload.name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
