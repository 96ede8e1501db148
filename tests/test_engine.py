"""Tests for the scheduling-engine performance layer.

Covers the MinDistSolver cache contract (hit identity, invalidation,
NO_PATH saturation, infeasible-II memoization) and the property that the
vectorized EarlyStart/LateStart bounds match the seed's dict-loop
formulation on random DDGs and random placement orders.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    NO_PATH,
    MinDistSolver,
    StartBounds,
    cyclic_asap,
    graph_fingerprint,
    mindist_matrix,
)
from repro.graph.builder import GraphBuilder
from repro.workloads.synthetic import random_ddg


def chain_graph():
    b = GraphBuilder("chain")
    b.op("a", latency=2).op("b", latency=3).op("c", latency=1)
    b.edge("a", "b").edge("b", "c")
    return b.build()


def recurrence_graph(latency=4, distance=1):
    b = GraphBuilder("rec")
    b.op("x", latency=latency).op("y", latency=1)
    b.edge("x", "y").edge("y", "x", distance=distance)
    return b.build()


class TestMinDistSolverCache:
    def test_repeated_query_returns_same_object(self):
        solver = MinDistSolver()
        g = chain_graph()
        first = solver.solve(g, 2)
        second = solver.solve(g, 2)
        assert first is not None
        assert first[0] is second[0]
        assert first[1] is second[1]
        info = solver.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_ii_are_distinct_entries(self):
        solver = MinDistSolver()
        g = recurrence_graph()
        a = solver.solve(g, 5)
        b = solver.solve(g, 6)
        assert a is not None and b is not None
        assert a[0] is not b[0]
        # The recurrence edge weight shrinks by 1 per extra II.
        assert a[0][1, 0] == b[0][1, 0] + 1

    def test_infeasible_ii_result_is_cached(self):
        solver = MinDistSolver()
        g = recurrence_graph(latency=5, distance=1)  # RecMII = 6
        assert solver.solve(g, 5) is None
        assert solver.solve(g, 5) is None
        info = solver.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_concurrent_same_graph_solves_are_safe(self):
        """The portfolio racer solves one graph from many threads; the
        cache bookkeeping (LRU moves, eviction, byte budget) must stay
        consistent under that concurrency."""
        import threading

        graph = random_ddg(random.Random(3), 60, name="stress")
        # A budget small enough that eviction runs constantly.
        solver = MinDistSolver(cache_bytes=200_000)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    solver.solve(graph, rng.randint(60, 90))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        factors = solver._graphs[graph]
        actual = sum(
            0 if entry is None else entry[0].nbytes
            for entry in factors.cache.values()
        )
        assert factors.cached_bytes == actual

    def test_mutation_invalidates_cache(self):
        solver = MinDistSolver()
        b = GraphBuilder("mut")
        b.op("a", latency=2).op("b", latency=1)
        b.edge("a", "b")
        g = b.build()
        before = solver.solve(g, 3)
        assert before is not None
        assert before[0][0, 1] == 2
        assert before[0][1, 0] == NO_PATH

        from repro.graph.edges import Edge

        g.add_edge(Edge("b", "a", distance=1))
        after = solver.solve(g, 3)
        assert after is not None
        assert after[0][1, 0] == -2  # 1 - 1*3: the new recurrence edge
        assert after[0] is not before[0]
        # The new circuit also makes small IIs infeasible — and that
        # outcome is cached too.
        assert solver.solve(g, 1) is None

    def test_fingerprint_distinguishes_opclass_and_value_flag(self):
        # Same names, latencies and edges — different resource binding.
        # These schedule differently, so their fingerprints must differ
        # (the parallel runner keys its per-loop result cache on them).
        from repro.graph.ops import FADD, FMUL

        def build(opclass, produces_value=True):
            b = GraphBuilder("twin")
            for i in range(3):
                b.op(
                    f"fx{i}", opclass=opclass, latency=4,
                    produces_value=produces_value,
                )
            return b.build()

        adds, muls = build(FADD), build(FMUL)
        assert graph_fingerprint(adds) != graph_fingerprint(muls)
        stores = build(FADD, produces_value=False)
        assert graph_fingerprint(adds) != graph_fingerprint(stores)

    def test_byte_budget_bounds_memory_per_graph(self):
        from repro.engine.mindist import _MIN_CACHED_IIS

        tight = MinDistSolver(cache_bytes=1)
        g = chain_graph()
        for ii in range(1, 12):
            assert tight.solve(g, ii) is not None
        factors = tight._graphs[g]
        # Over budget: only the guaranteed LRU floor survives, newest
        # first, and the byte ledger matches what is actually held.
        assert len(factors.cache) == _MIN_CACHED_IIS
        assert 11 in factors.cache and 1 not in factors.cache
        assert factors.cached_bytes == sum(
            entry[0].nbytes for entry in factors.cache.values()
        )

        # Paper-scale graphs never hit the default budget: a long II
        # sweep stays fully cached for warm re-runs.
        roomy = MinDistSolver()
        for ii in range(1, 12):
            assert roomy.solve(g, ii) is not None
        assert len(roomy._graphs[g].cache) == 11

    def test_fresh_equal_graph_gets_equal_matrix(self):
        solver = MinDistSolver()
        g1, g2 = chain_graph(), chain_graph()
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        r1, r2 = solver.solve(g1, 3), solver.solve(g2, 3)
        assert r1[0] is not r2[0]
        assert np.array_equal(r1[0], r2[0])

    def test_no_path_saturation_preserved(self):
        b = GraphBuilder("sat")
        # Two unconnected chains: cross-pairs must stay exactly NO_PATH.
        b.op("a", latency=1).op("b", latency=1).op("c", latency=1)
        b.op("d", latency=1)
        b.edge("a", "b").edge("b", "c")
        g = b.build()
        dist, names = MinDistSolver().solve(g, 1)
        i, j = names.index("a"), names.index("d")
        assert dist[i, j] == NO_PATH
        assert dist[j, i] == NO_PATH
        # Chained reachable entries are genuine path lengths.
        assert dist[names.index("a"), names.index("c")] == 2

    def test_matrix_is_read_only(self):
        dist, _ = MinDistSolver().solve(chain_graph(), 1)
        with pytest.raises(ValueError):
            dist[0, 0] = 7

    def test_module_level_functions_share_default_solver(self):
        g = chain_graph()
        a = mindist_matrix(g, 4)
        b = mindist_matrix(g, 4)
        assert a[0] is b[0]

    def test_cyclic_asap_returns_fresh_dict(self):
        g = chain_graph()
        a = cyclic_asap(g, 1)
        b = cyclic_asap(g, 1)
        assert a == {"a": 0, "b": 2, "c": 5}
        assert a is not b
        a["a"] = 99
        assert cyclic_asap(g, 1)["a"] == 0


# ---------------------------------------------------------------------------
# Vectorized EarlyStart/LateStart vs the seed's dict-loop formulation.
# ---------------------------------------------------------------------------
def dict_loop_early_start(dist, index, start, name):
    """The seed's O(scheduled) EarlyStart loop (reference)."""
    i = index[name]
    bound = None
    for other, cycle in start.items():
        weight = dist[index[other], i]
        if weight <= NO_PATH // 2:
            continue
        candidate = cycle + int(weight)
        bound = candidate if bound is None else max(bound, candidate)
    return bound


def dict_loop_late_start(dist, index, start, name):
    """The seed's O(scheduled) LateStart loop (reference)."""
    i = index[name]
    bound = None
    for other, cycle in start.items():
        weight = dist[i, index[other]]
        if weight <= NO_PATH // 2:
            continue
        candidate = cycle - int(weight)
        bound = candidate if bound is None else min(bound, candidate)
    return bound


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=2, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_start_bounds_match_dict_loops(seed, size):
    rng = random.Random(seed)
    graph = random_ddg(rng, size, name=f"sb{seed}")
    ii = rng.randint(1, 40)
    solved = mindist_matrix(graph, ii)
    if solved is None:
        ii = ii + 64  # large II is feasible for any generator output
        solved = mindist_matrix(graph, ii)
        assert solved is not None
    dist, names = solved
    index = {name: i for i, name in enumerate(names)}

    bounds = StartBounds(dist)
    start: dict[str, int] = {}
    order = list(names)
    rng.shuffle(order)
    for name in order:
        es_ref = dict_loop_early_start(dist, index, start, name)
        ls_ref = dict_loop_late_start(dist, index, start, name)
        assert bounds.early_start(index[name]) == es_ref
        assert bounds.late_start(index[name]) == ls_ref
        cycle = rng.randint(-5, 3 * ii)
        start[name] = cycle
        bounds.place(index[name], cycle)


def _synthetic_dist(rng, n):
    """A MinDist-shaped matrix: negative entries and "no path" entries,
    both exactly NO_PATH and saturated values below the cutoff."""
    def entry():
        roll = rng.random()
        if roll < 0.2:
            return NO_PATH
        if roll < 0.35:
            return NO_PATH + rng.randint(0, -NO_PATH // 2)
        return rng.randint(-60, 60)

    dist = np.array(
        [[entry() for _ in range(n)] for _ in range(n)], dtype=np.int64
    )
    dist.setflags(write=False)
    return dist


@pytest.mark.parametrize("seed", range(10))
def test_start_bounds_match_naive_formulas_with_reset(seed):
    """Every op's bounds after every placement equal the Section 3.3
    formulas evaluated naively over the scheduled ops, across reset()."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    dist = _synthetic_dist(rng, n)
    index = {f"o{i}": i for i in range(n)}
    bounds = StartBounds(dist)
    for _ in range(3):
        start: dict[str, int] = {}
        order = list(index)
        rng.shuffle(order)
        for name in order[: rng.randint(1, n)]:
            cycle = rng.randint(-400, 400)
            start[name] = cycle
            bounds.place(index[name], cycle)
            for other, i in index.items():
                assert bounds.early_start(i) == dict_loop_early_start(
                    dist, index, start, other
                )
                assert bounds.late_start(i) == dict_loop_late_start(
                    dist, index, start, other
                )
        bounds.reset()
        assert all(
            bounds.early_start(i) is None and bounds.late_start(i) is None
            for i in range(n)
        )


def test_start_bounds_unreachable_row_stays_unconstrained():
    dist = np.array([[0, NO_PATH], [NO_PATH, 0]], dtype=np.int64)
    bounds = StartBounds(dist)
    bounds.place(0, -(10**6))
    assert bounds.early_start(0) == -(10**6)
    assert bounds.late_start(0) == -(10**6)
    assert bounds.early_start(1) is None
    assert bounds.late_start(1) is None
