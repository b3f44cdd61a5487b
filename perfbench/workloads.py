"""Workload inputs, operations and output checks.

Each workload has a fixed graph, generated from a constant seed like the
``repro.graphs`` stand-ins; the workload seed is the algorithm seed (PRIMM
coins or EPIC worlds). The same seed gives the same inputs, so the same
outputs. The program under test (``repro``) sees only the generated inputs.

The graphs are layered follower networks (influencers -> followers ->
followers of followers) rather than the ``repro.graphs`` stand-in networks,
because every Pregel loop in ``repro`` runs until the deepest BFS or
diffusion of its batch ends, and costs 0.07-0.15 s of Spark overhead per
job. On douban-book-lite one greedyWM call runs 517-548 jobs and takes
50-85 s, too long for a benchmark made of many short runs. A layered graph
bounds reverse-BFS and forward-diffusion depth by its number of layers, so
one operation takes seconds while still running every layer the workload
is meant to exercise. See ``perfbench/README.md``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.alloc import comic_baselines, greedy_wm as greedy_wm_mod
from repro.core import configs
from repro.diffusion import epic
from repro.graphs import generator


@dataclass(frozen=True)
class GraphSpec:
    """Shape of a layered follower graph.

    ``layers`` are the layer sizes, influencers first. Every node of layer
    ``l + 1`` draws ``in_degree`` in-edges on average from layer ``l``;
    the source of each edge follows a Zipf law of exponent ``alpha`` over
    a random ranking of layer ``l``, so a few hubs carry most edges.
    """

    layers: tuple[int, ...]
    in_degree: float
    seed: int
    alpha: float = 1.0

    @property
    def n(self) -> int:
        return sum(self.layers)


def layered_pairs(spec: GraphSpec) -> np.ndarray:
    """Sorted, distinct (src, dst) edge pairs for ``spec``, shape (m, 2)."""
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(spec.n)
    bounds = np.cumsum((0,) + spec.layers)
    members = [perm[bounds[i]:bounds[i + 1]] for i in range(len(spec.layers))]
    chunks = []
    for upper, lower in zip(members, members[1:]):
        m = int(round(spec.in_degree * len(lower)))
        w = np.arange(1, len(upper) + 1, dtype=float) ** -spec.alpha
        src = upper[rng.choice(len(upper), size=m, p=w / w.sum())]
        dst = lower[rng.integers(0, len(lower), size=m)]
        chunks.append(np.column_stack([src, dst]))
    # Layers are disjoint, so there are no self-loops; drop duplicates as
    # ``from_edge_pairs`` does.
    return np.unique(np.concatenate(chunks).astype(np.int64), axis=0)


def build_graph(spark, pairs: np.ndarray, n: int, name: str):
    """Build the Spark graph through the public ``repro.graphs`` API."""
    return generator.from_edge_pairs(spark, pairs, name=name, n=n, directed=True)


def hubs_by_out_degree(pairs: np.ndarray, n: int) -> np.ndarray:
    """Node ids by out-degree, highest first, ties broken by node id."""
    out = np.bincount(pairs[:, 0], minlength=n)
    return np.lexsort((np.arange(n), -out))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_op(graph, pairs, seed)`` returns a zero-argument callable that
    runs one operation and returns its outputs as plain JSON data;
    ``invariants(outputs)`` lists the seed-independent checks it fails;
    ``work(outputs)`` is the work of one operation, in ``work_unit``.
    """

    name: str
    spec: GraphSpec
    make_op: Callable
    invariants: Callable[[dict], list[str]]
    work: Callable[[dict], float]
    work_unit: str


# ---- alloc-sparse: greedyWM's multi-budget PRIMM path --------------------

ALLOC_BUDGETS = [10, 8, 6, 6, 5, 5, 4, 3, 2, 1]


def _alloc_op(graph, pairs, seed):
    def op() -> dict:
        res = greedy_wm_mod.greedy_wm(
            graph, ALLOC_BUDGETS, eps=0.5, ell=1.0, seed=seed
        )
        return _allocation_output(res)

    return op


def _allocation_output(res) -> dict:
    return {
        "seeds_per_item": {str(i): [int(v) for v in s]
                           for i, s in res.seeds_per_item.items()},
        "n_rr": int(res.n_rr),
    }


def _alloc_invariants(out: dict) -> list[str]:
    per_item = out["seeds_per_item"]
    top = per_item["0"]
    bad = []
    if len(set(top)) != len(top) or len(top) != ALLOC_BUDGETS[0]:
        bad.append("item 0 seeds are not %d distinct nodes" % ALLOC_BUDGETS[0])
    for i, b in enumerate(ALLOC_BUDGETS):
        if per_item[str(i)] != top[:b]:
            bad.append(f"item {i} seeds are not the top-{b} prefix")
    if out["n_rr"] <= 0:
        bad.append("no RR sets")
    return bad


# ---- welfare-epic: EPIC welfare of two fixed allocations -----------------

WELFARE_WORLDS = 16
WELFARE_ITEMS = 10
BUNDLED_HUBS = 5
DISJOINT_HUBS = 50


def welfare_allocations(pairs: np.ndarray, n: int) -> dict[str, dict[int, int]]:
    """greedyWM's shape (top hubs get every item) and item-disj's shape
    (the next hubs get one item each), at the same budget per item."""
    order = hubs_by_out_degree(pairs, n)
    every = (1 << WELFARE_ITEMS) - 1
    return {
        "bundled": {int(v): every for v in order[:BUNDLED_HUBS]},
        "disjoint": {int(v): 1 << (i % WELFARE_ITEMS)
                     for i, v in enumerate(order[:DISJOINT_HUBS])},
    }


def _welfare_op(graph, pairs, seed):
    model = configs.multi_item_model(7, WELFARE_ITEMS)
    allocations = welfare_allocations(pairs, graph.n)

    def op() -> dict:
        res = epic.simulate_welfare_multi(
            graph, model, allocations, n_worlds=WELFARE_WORLDS, seed=seed
        )
        return {
            name: {"welfare": float(r.welfare), "adoptions": float(r.adoptions)}
            for name, r in res.items()
        }

    return op


def _welfare_invariants(out: dict) -> list[str]:
    bad = []
    if not out["bundled"]["welfare"] >= out["disjoint"]["welfare"] - 1e-9:
        bad.append("bundled welfare below disjoint welfare")
    if not out["disjoint"]["adoptions"] > 0:
        bad.append("no adoptions")
    return bad


# ---- comic-rrsim: RR-SIM+ (node-prob RR sampling, Com-IC adoption) -------

COMIC_BUDGET = 5
COMIC_WORLDS = 8


def _comic_op(graph, pairs, seed):
    model = configs.two_item_model(3)

    def op() -> dict:
        return _allocation_output(comic_baselines.rr_sim_plus(
            graph, model, COMIC_BUDGET, COMIC_BUDGET,
            eps=0.5, ell=1.0, seed=seed, n_worlds=COMIC_WORLDS,
        ))

    return op


def _comic_invariants(out: dict) -> list[str]:
    bad = []
    for item in ("0", "1"):
        s = out["seeds_per_item"][item]
        if len(s) != COMIC_BUDGET or len(set(s)) != len(s):
            bad.append(f"item {item} seeds are not {COMIC_BUDGET} distinct nodes")
    return bad


def _n_rr(out: dict) -> float:
    return float(out["n_rr"])


def _scenarios(out: dict) -> float:
    return float(len(out) * WELFARE_WORLDS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "alloc-sparse",
            GraphSpec(layers=(60, 340, 1600), in_degree=2.0, seed=12),
            _alloc_op, _alloc_invariants, _n_rr, "rr_sets",
        ),
        Workload(
            "welfare-epic",
            GraphSpec(layers=(100, 500, 1400), in_degree=4.0, seed=13),
            _welfare_op, _welfare_invariants, _scenarios, "scenarios",
        ),
        Workload(
            "comic-rrsim",
            GraphSpec(layers=(20, 1980), in_degree=2.0, seed=12, alpha=1.5),
            _comic_op, _comic_invariants, _n_rr, "rr_sets",
        ),
    )
}
