"""Span tracing around the public functions of ``repro``'s layers.

A :class:`Tracer` replaces each traced function with a wrapper wherever
callers look it up (module attributes of every loaded ``repro`` module, or
the class attribute for methods), and restores the originals on exit.
Spans are kept in memory: name, start, end, parent and counters.

Layer spans also set their own Spark job group and restore the parent's on
exit, so every Spark job lands in the group of the innermost layer span
that launched it. After an operation the tracer waits for Spark's listener
bus to drain and reads each group's jobs from the status tracker. Spark
boundary spans (checkpoint, isEmpty, toPandas, createDataFrame) only time
their calls; their jobs count toward the enclosing layer.
"""
from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Spark keeps this many jobs and stages for the status tracker. It must
#: exceed the jobs of the largest span, or counts are silently cut off
#: (Spark's default of 1,000 is below one greedyWM call on twitter-lite).
RETAINED_JOBS = 100_000

#: Longest wait for Spark's listener bus to deliver job events.
LISTENER_WAIT_MS = 60_000


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    group: str | None
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_counters(in_degree: np.ndarray):
    def count(bound, result) -> dict:
        sizes = [len(s) for s in result]
        flat = np.concatenate(result) if result else np.empty(0, dtype=np.int64)
        return {
            "rr_sets": len(result),
            "rr_nodes": int(sum(sizes)),
            "nonempty": int(sum(1 for n in sizes if n)),
            "edges_examined": int(in_degree[flat].sum()),
        }

    return count


def _welfare_counters(bound, result) -> dict:
    return {"scenarios": len(bound.arguments["allocations"]) * bound.arguments["n_worlds"]}


def _tables_counters(bound, result) -> dict:
    _, tables, util = result
    return {"bytes": int(tables.nbytes + util.nbytes)}


def _primm_counters(bound, result) -> dict:
    return {"n_rr": int(result.n_rr)}


def _rows_counters(bound, result) -> dict:
    return {"rows": len(result)}


def layer_targets(in_degree: np.ndarray) -> list[tuple[str, object, str, Callable | None]]:
    """(span name, owner, attribute, counters) of each traced layer."""
    from repro.alloc import comic_baselines
    from repro.core import utility
    from repro.diffusion import epic
    from repro.graphs import generator
    from repro.im import primm, rrsets

    return [
        ("graphs.build", generator, "from_edge_pairs", None),
        ("rrsets.sample", rrsets, "sample_rr_sets", _sample_counters(in_degree)),
        ("rrsets.select", rrsets.RRCollection, "node_selection", None),
        ("rrsets.coverage", rrsets.RRCollection, "coverage_of", None),
        ("primm", primm, "primm", _primm_counters),
        ("comic.adoption", comic_baselines, "adoption_frequency", None),
        ("epic.welfare", epic, "simulate_welfare_multi", _welfare_counters),
        ("utility.tables", utility, "adoption_tables_for_worlds", _tables_counters),
    ]


def spark_targets(spark) -> list[tuple[str, object, str, Callable | None]]:
    """(span name, class, method, counters) at the Spark boundary."""
    df_cls = type(spark.range(1))
    return [
        ("spark.checkpoint", df_cls, "localCheckpoint", None),
        ("spark.is_empty", df_cls, "isEmpty", None),
        ("spark.to_pandas", df_cls, "toPandas", _rows_counters),
        ("spark.create_df", type(spark), "createDataFrame", None),
    ]


class Tracer:
    """Collects spans and per-group Spark job counts for one process."""

    def __init__(self, spark, in_degree: np.ndarray) -> None:
        self.spark = spark
        self.sc = spark.sparkContext
        self.in_degree = in_degree
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._groups = 0

    # ---- spans -----------------------------------------------------------
    def _open(self, name: str, with_group: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        group = None
        if with_group:
            self._groups += 1
            group = f"perfbench-{self._groups}"
            self.sc.setJobGroup(group, name)
        self.spans.append(Span(name, time.perf_counter(), parent, group))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.group is not None:
            enclosing = self._enclosing_group()
            if enclosing is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)
            else:
                self.sc.setJobGroup(enclosing, self.spans[self._stack[-1]].name)

    def _enclosing_group(self) -> str | None:
        for i in reversed(self._stack):
            if self.spans[i].group is not None:
                return self.spans[i].group
        return None

    @contextmanager
    def span(self, name: str, with_group: bool = True):
        """Open a span; yields its index in ``self.spans``."""
        idx = self._open(name, with_group)
        try:
            yield idx
        finally:
            self._close(idx)

    # ---- patching --------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, counters: Callable | None, with_group: bool):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, with_group) as idx:
                result = fn(*args, **kwargs)
                if counters is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.spans[idx].counters.update(counters(bound, result))
                return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        undo: list[tuple[object, str, object, bool]] = []

        def install(owner, attr, wrapper, original):
            undo.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrapper)

        try:
            for name, owner, attr, counters in layer_targets(self.in_degree):
                original = getattr(owner, attr)
                wrapper = self._wrapper(name, original, counters, True)
                if isinstance(owner, type):
                    install(owner, attr, wrapper, original)
                    continue
                # Callers import by name: patch every module that holds it.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.split(".")[0] != "repro":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            install(mod, key, wrapper, original)
            for name, owner, attr, counters in spark_targets(self.spark):
                original = getattr(owner, attr)
                install(owner, attr, self._wrapper(name, original, counters, False), original)
            yield
        finally:
            for owner, attr, original, was_own in reversed(undo):
                if was_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ---- Spark job accounting -------------------------------------------
    def drain_listener(self) -> None:
        """Wait until Spark has delivered every job event to its status store."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty(LISTENER_WAIT_MS)

    def jobs_in_group(self, group: str) -> list[int]:
        return list(self.sc.statusTracker().getJobIdsForGroup(group))

    def tasks_of_jobs(self, job_ids: list[int]) -> int:
        tracker = self.sc.statusTracker()
        stages: set[int] = set()
        for jid in job_ids:
            info = tracker.getJobInfo(jid)
            if info is not None:
                stages.update(info.stageIds)
        total = 0
        for sid in stages:
            info = tracker.getStageInfo(sid)
            if info is not None:
                total += info.numCompletedTasks
        return total

    def count_jobs(self, action: Callable[[], object]) -> tuple[int, int]:
        """(jobs, tasks) that ``action`` runs, counted through one job group."""
        with self.span("selfcheck") as idx:
            action()
        self.drain_listener()
        jobs = self.jobs_in_group(self.spans[idx].group)
        return len(jobs), self.tasks_of_jobs(jobs)


def layer_metrics(spans: list[Span], tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer metrics of the span tree under ``root``, the latest
    top-level span (every span opened after it is nested in it).

    Self time is a span's duration minus the time its children cover. Jobs
    of a layer span include the jobs of the layer spans nested in it.
    """
    tracer.drain_listener()
    tree = list(range(root, len(spans)))
    child_time = {i: 0.0 for i in tree}
    children: dict[int, list[int]] = {i: [] for i in tree}
    for i in tree[1:]:
        child_time[spans[i].parent] += spans[i].duration
        children[spans[i].parent].append(i)
    own_jobs = {i: tracer.jobs_in_group(spans[i].group) if spans[i].group else []
                for i in tree}

    def inclusive_jobs(i: int) -> int:
        return len(own_jobs[i]) + sum(inclusive_jobs(c) for c in children[i])

    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for i in tree[1:]:
        s = spans[i]
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", s.duration - child_time[i])
        add(f"{s.name}.s", s.duration)
        if s.group is not None:
            add(f"{s.name}.jobs", inclusive_jobs(i))
        for key, value in s.counters.items():
            add(f"{s.name}.{key}", value)
    all_jobs = [j for i in tree for j in own_jobs[i]]
    m["spark.jobs"] = len(all_jobs)
    m["spark.last_job_id"] = max(all_jobs, default=-1)
    m["spark.tasks"] = tracer.tasks_of_jobs(all_jobs)
    m["root.self_s"] = spans[root].duration - child_time[root]
    m["root.s"] = spans[root].duration
    # Spans nest (one thread), so no self time is negative and the self
    # times of the tree sum to the root's duration.
    m["trace.min_self_s"] = min(spans[i].duration - child_time[i] for i in tree)
    return m
