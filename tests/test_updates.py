"""Tests for incremental updates (Table 7 scenario S1): insert + delete.

Since the delta-tier refactor, *every* algorithm supports ``insert()``:
increment-built graphs (NSW/HNSW) grow natively, everything else lands
in the mutable NSW-style side-graph searched alongside the frozen base
and folded in by ``consolidate()``.
"""

import sys
import threading

import numpy as np
import pytest

from repro import create
from repro.datasets import brute_force_knn, make_clustered
from repro.delta import DeltaTier
from repro.resilience import InvalidQueryError, QueryBudget


@pytest.fixture(scope="module")
def world():
    return make_clustered(12, 400, 4, 4.0, num_queries=10, gt_depth=30, seed=31)


class TestInsert:
    @pytest.mark.parametrize("name", ["nsw", "hnsw"])
    def test_inserted_point_is_findable(self, name, world):
        index = create(name, seed=2)
        index.build(world.base)
        new_vector = world.base[7] + 0.001  # lands right next to point 7
        new_id = index.insert(new_vector)
        assert new_id == world.n
        result = index.search(new_vector, k=3, ef=40)
        assert new_id in result.ids

    @pytest.mark.parametrize("name", ["nsw", "hnsw"])
    def test_insert_many_keeps_recall(self, name, world):
        index = create(name, seed=2)
        index.build(world.base)
        rng = np.random.default_rng(0)
        extra = world.base[rng.choice(world.n, 30)] + rng.normal(
            0, 0.5, (30, world.dim)
        ).astype(np.float32)
        for vector in extra:
            index.insert(vector)
        full_base = np.vstack([world.base, extra])
        gt, _ = brute_force_knn(full_base, world.queries, 10)
        stats = index.evaluate(world.queries, gt, k=10, ef=80)
        assert stats.recall >= 0.85

    def test_wrong_dim_rejected(self, world):
        index = create("nsw", seed=2)
        index.build(world.base)
        with pytest.raises(ValueError, match="dim"):
            index.insert(np.zeros(5, dtype=np.float32))

    @pytest.mark.parametrize("name", ["kgraph", "nsg", "hcnng", "sptag-kdt"])
    def test_non_incremental_algorithms_insert_via_delta(self, name, world):
        """Refinement/divide-and-conquer graphs used to refuse insert();
        the delta tier makes it universal."""
        index = create(name, seed=2)
        index.build(world.base)
        new_vector = world.base[7] + 0.001
        new_id = index.insert(new_vector)
        assert new_id == world.n
        assert index.delta_points == 1
        result = index.search(new_vector, k=3, ef=40)
        assert new_id in result.ids

    @pytest.mark.slow
    def test_nan_insert_rejected(self, world):
        """A NaN insert must fail up front on every insert path — it
        would silently poison greedy construction otherwise."""
        for name in ("nsw", "hnsw", "nsg"):
            index = create(name, seed=2)
            index.build(world.base)
            bad = world.base[0].copy()
            bad[0] = np.nan
            with pytest.raises(InvalidQueryError):
                index.insert(bad)
            assert index.num_points == world.n  # nothing was added

    def test_insert_drops_compressed_tier_loudly(self, world):
        from repro import observability as obs

        index = create("nsg", seed=2)
        index.build(world.base)
        index.enable_compressed()
        was_on, was_tracing = obs.enabled(), obs.tracing()
        obs.enable(metrics=True)
        try:
            index.insert(world.base[3] + 0.001)
            assert index._compressed is None
            events = [e for e in obs.EVENTS.snapshot()
                      if e.get("event") == "compressed.tier_dropped"]
            assert events, "tier drop must emit a structured event"
            value = obs.instruments().compressed_tier_dropped_total.value
            assert value >= 1
        finally:
            obs.disable()
            if was_on:
                obs.enable(metrics=True, trace=was_tracing)

    def test_hnsw_level_growth(self, world):
        index = create("hnsw", seed=2)
        index.build(world.base)
        levels_before = index.max_level
        for _ in range(40):
            index.insert(
                world.base[0]
                + np.random.default_rng(1).normal(0, 1, world.dim).astype(
                    np.float32
                )
            )
        assert index.max_level >= levels_before
        # every layer tracks the same vertex count
        assert all(layer.n == index.graph.n for layer in index.layers)


class TestDelete:
    def test_deleted_never_returned(self, world):
        index = create("hnsw", seed=2)
        index.build(world.base)
        target = int(world.ground_truth[0][0])
        index.delete(target)
        result = index.search(world.queries[0], k=10, ef=60)
        assert target not in result.ids

    def test_recall_on_survivors(self, world):
        index = create("nsg", seed=2)
        index.build(world.base)
        rng = np.random.default_rng(3)
        doomed = rng.choice(world.n, 40, replace=False)
        for vertex in doomed:
            index.delete(int(vertex))
        survivors = np.setdiff1d(np.arange(world.n), doomed)
        remap = {int(old): pos for pos, old in enumerate(survivors)}
        gt, _ = brute_force_knn(world.base[survivors], world.queries, 10)
        hits = 0
        for i, query in enumerate(world.queries):
            result = index.search(query, k=10, ef=80)
            expected = {int(survivors[g]) for g in gt[i]}
            hits += len(expected & set(int(r) for r in result.ids))
        assert hits / (10 * world.num_queries) >= 0.85

    def test_out_of_range_rejected(self, world):
        index = create("hnsw", seed=2)
        index.build(world.base)
        with pytest.raises(IndexError):
            index.delete(10_000)

    def test_num_deleted_tracked(self, world):
        index = create("hnsw", seed=2)
        index.build(world.base)
        assert index.num_deleted == 0
        index.delete(0)
        index.delete(1)
        index.delete(1)  # idempotent
        assert index.num_deleted == 2

    def test_delete_then_insert_roundtrip(self, world):
        index = create("nsw", seed=2)
        index.build(world.base)
        index.delete(5)
        new_id = index.insert(world.base[5])
        result = index.search(world.base[5], k=2, ef=40)
        assert new_id in result.ids
        assert 5 not in result.ids

    def test_delta_point_deletable(self, world):
        """delete() accepts delta-tier ids and they never resurface."""
        index = create("nsg", seed=2)
        index.build(world.base)
        new_vector = world.base[7] + 0.001
        new_id = index.insert(new_vector)
        index.delete(new_id)
        assert index.num_deleted == 1
        result = index.search(new_vector, k=10, ef=80)
        assert new_id not in result.ids


class TestDeltaTier:
    """The universal insert path: frozen base + mutable side-graph."""

    def test_insert_many_keeps_recall_refinement(self, world):
        """Acceptance: recall holds on a refinement-built algorithm with
        ~8% of the points living in the delta tier."""
        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        rng = np.random.default_rng(0)
        extra = world.base[rng.choice(world.n, 30)] + rng.normal(
            0, 0.5, (30, world.dim)
        ).astype(np.float32)
        for vector in extra:
            index.insert(vector)
        assert index.delta_points == 30
        full_base = np.vstack([world.base, extra])
        gt, _ = brute_force_knn(full_base, world.queries, 10)
        stats = index.evaluate(world.queries, gt, k=10, ef=80)
        assert stats.recall >= 0.85

    @pytest.mark.slow
    @pytest.mark.parametrize("name, max_ndc", [
        ("vamana", None),
        # SPTAG-KDT pays ~70 NDC for its tree seeds and a 300 cap
        # reaches the delta walk: acquisition must be charged once
        ("sptag-kdt", 300),
    ], ids=["vamana", "sptag-kdt-ndc300"])
    def test_batch_matches_sequential_with_delta(self, world, name, max_ndc):
        """search_batch's two-tier merge is the sequential merge."""
        from repro.batch import search_batch

        index = create(name, seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        rng = np.random.default_rng(4)
        for row in rng.choice(world.n, 12):
            index.insert(world.base[row] + 0.01)
        index.delete(int(world.n + 3))  # one delta tombstone in the mix
        budget = None if max_ndc is None else QueryBudget(max_ndc=max_ndc)
        batch = search_batch(index, world.queries, k=10, ef=60, workers=2,
                             budget=budget)
        for i, query in enumerate(world.queries):
            result = index.search(query, k=10, ef=60, budget=budget)
            got = batch.ids[i][batch.ids[i] >= 0]
            assert np.array_equal(got, result.ids)
            assert batch.ndc[i] == result.ndc

    def test_budget_spans_both_tiers(self, world):
        """An NDC budget caps base + delta work combined."""
        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        for j in range(20):
            index.insert(world.base[j] + 0.01)
        cap = 60
        result = index.search(
            world.queries[0], k=10, ef=80, budget=QueryBudget(max_ndc=cap)
        )
        assert result.ndc <= cap
        assert result.degraded

    def test_empty_delta_has_no_delta_state(self, world):
        """Before any insert the index carries no delta tier at all —
        the structural guarantee behind the bit-identity invariant."""
        index = create("nsg", seed=2)
        index.build(world.base)
        assert index._delta is None
        index.search(world.queries[0], k=5, ef=40)
        assert index._delta is None


@pytest.mark.slow
class TestConsolidation:
    def test_consolidate_matches_fresh_build(self, world):
        """Consolidation rebuilds through the same phased engine with
        the same seed, so the swapped-in snapshot answers exactly like
        an index built on the merged dataset from scratch."""
        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        extra = [world.base[j] + 0.01 for j in range(8)]
        for vector in extra:
            index.insert(vector)
        report = index.consolidate()
        assert report.n_base == world.n and report.n_delta == 8
        assert index.delta_points == 0
        assert index.graph.n == world.n + 8

        fresh = create("nsg", seed=2)
        fresh.build(np.vstack([world.base] + [v[None] for v in extra]))
        for query in world.queries[:5]:
            a = index.search(query, k=10, ef=60)
            b = fresh.search(query, k=10, ef=60)
            assert np.array_equal(a.ids, b.ids)
            assert a.ndc == b.ndc

    def test_external_ids_stable_across_consolidation(self, world):
        index = create("vamana", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        vec = world.base[11] + 0.002
        new_id = index.insert(vec)
        assert new_id == world.n
        index.consolidate()
        result = index.search(vec, k=2, ef=60)
        assert new_id in result.ids  # same id, now served by the base

    def test_deletes_survive_consolidation(self, world):
        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        target = int(world.ground_truth[0][0])
        vec = world.base[9] + 0.003
        delta_id = index.insert(vec)
        index.delete(target)        # base tombstone
        index.delete(delta_id)      # delta tombstone
        index.consolidate()
        assert index.num_deleted == 2
        assert target not in index.search(world.queries[0], k=10, ef=80).ids
        assert delta_id not in index.search(vec, k=10, ef=80).ids

    def test_auto_consolidation_threshold(self, world):
        index = create("nsg", seed=2)
        index.build(world.base)
        index.delta_max_points = 10
        for j in range(10):
            index.insert(world.base[j] + 0.01)
        thread = index._consolidation_thread
        assert thread is not None
        thread.join(timeout=120)
        assert index._consolidation_error is None
        assert index.delta_points == 0
        assert index.graph.n == world.n + 10

    def test_crash_mid_consolidation_preserves_snapshot(self, world):
        """Acceptance: a crash injected mid-consolidation leaves the
        previous snapshot live and searchable, delta included."""
        from repro import faults

        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        vec = world.base[5] + 0.004
        new_id = index.insert(vec)
        old_graph = index.graph
        for stage in ("build", "swap"):
            with faults.inject(faults.FaultPlan().fail_consolidation(stage)):
                with pytest.raises(RuntimeError, match="consolidation"):
                    index.consolidate()
            assert index.graph is old_graph
            assert index.delta_points == 1
            assert new_id in index.search(vec, k=3, ef=60).ids
        # without the fault plan the same call succeeds
        index.consolidate()
        assert index.delta_points == 0
        assert new_id in index.search(vec, k=3, ef=60).ids

    def test_background_consolidation_thread(self, world):
        index = create("vamana", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        index.insert(world.base[3] + 0.01)
        thread = index.consolidate(wait=False)
        report = index.consolidate(wait=True)  # joins the running pass
        assert not thread.is_alive()
        assert report.n_delta == 1
        assert index.delta_points == 0


class TestUpdatePersistence:
    """delete -> save -> load round trips across index formats."""

    def test_tombstones_survive_v3_roundtrip(self, world, tmp_path):
        from repro.io import load_index, save_index

        index = create("nsg", seed=2)
        index.build(world.base)
        target = int(world.ground_truth[0][0])
        index.delete(target)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.num_deleted == 1
        assert target not in loaded.search(world.queries[0], k=10, ef=80).ids

    def test_tombstones_survive_v4_roundtrip(self, world, tmp_path):
        from repro.io import load_index, save_index

        index = create("nsg", seed=2)
        index.build(world.base)
        index.enable_compressed()
        target = int(world.ground_truth[0][0])
        index.delete(target)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.num_deleted == 1
        assert target not in loaded.search(world.queries[0], k=10, ef=80).ids
        assert loaded._compressed is not None

    def test_delta_survives_v5_roundtrip(self, world, tmp_path):
        import numpy.lib.npyio  # noqa: F401 - np.load path below

        from repro.io import load_index, save_index

        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        vec = world.base[7] + 0.002
        kept = index.insert(vec)
        doomed = index.insert(world.base[8] + 0.002)
        index.delete(doomed)
        index.delete(3)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with np.load(path) as archive:
            assert int(archive["format_version"]) == 5
        loaded = load_index(path)
        assert loaded.delta_points == 2
        assert loaded.num_deleted == 2
        assert kept in loaded.search(vec, k=3, ef=60).ids
        res = loaded.search(world.base[8] + 0.002, k=10, ef=80)
        assert doomed not in res.ids
        # the restored delta keeps growing
        third = loaded.insert(world.base[9] + 0.002)
        assert third == world.n + 2
        assert third in loaded.search(world.base[9] + 0.002, k=3, ef=60).ids

    def test_empty_delta_stays_v3(self, world, tmp_path):
        """Indexes that never saw an insert keep the old format."""
        from repro.io import save_index

        index = create("nsg", seed=2)
        index.build(world.base)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with np.load(path) as archive:
            assert int(archive["format_version"]) == 3

    def test_corrupt_delta_repairable(self, world, tmp_path):
        from repro.resilience import verify_index

        index = create("nsg", seed=2)
        index.build(world.base)
        index.auto_consolidate = False
        index.insert(world.base[4] + 0.01)
        index.insert(world.base[5] + 0.01)
        graph = index._delta._graph
        graph.indices[graph.indptr[0]] = 999  # edge outside the delta
        report = verify_index(index, repair=True, strict=False)
        assert index._delta is None
        assert any("delta tier dropped" in r for r in report.repairs)
        # base search is unaffected
        assert len(index.search(world.queries[0], k=10, ef=60).ids) == 10


def _grown_delta_index(world, inserts=70, seed=11):
    """NSG with ``inserts`` delta points; the default 70 grows the
    vector block three times (16 -> 128 rows) and moves hub rows to
    the end of the edge pool."""
    index = create("nsg", seed=2)
    index.build(world.base)
    index.auto_consolidate = False
    rng = np.random.default_rng(seed)
    rows = rng.choice(world.n, inserts)
    noise = rng.normal(0, 0.3, (inserts, world.dim)).astype(np.float32)
    for vector in world.base[rows] + noise:
        index.insert(vector)
    return index


def _assert_same_answers(batch, results):
    for i, result in enumerate(results):
        keep = batch.ids[i] >= 0
        assert np.array_equal(batch.ids[i][keep], result.ids)
        assert np.array_equal(batch.dists[i][keep], result.dists)
        assert batch.ndc[i] == result.ndc
        assert batch.hops[i] == result.hops
        assert bool(batch.degraded[i]) == result.degraded


class TestDeltaOnKernel:
    """The delta walks through the shared best-first routine: the C
    kernel natively, the NumPy frontier without it."""

    def test_grown_delta_search_matches_batch(self, world):
        index = _grown_delta_index(world)
        delta = index._delta
        graph = delta._graph
        assert len(delta._vectors) == 128 and delta.n == 70
        # some rows filled up and moved to the end of the pool
        assert (graph.room[: delta.n] > graph.row_room).any()
        assert graph.used > int(graph.room[: delta.n].sum())
        for tombstones in ((), (5, world.n + 3, world.n + 40)):
            for vertex in tombstones:
                index.delete(vertex)
            results = [index.search(q, k=10, ef=60) for q in world.queries]
            assert any((r.ids >= world.n).any() for r in results)
            assert not any(np.isin(r.ids, tombstones).any() for r in results)
            batch = index.search_batch(world.queries, k=10, ef=60, workers=2)
            _assert_same_answers(batch, results)

    @pytest.mark.parametrize("limit", ["ndc", "hops", "deadline"])
    def test_budgets_degrade_across_both_tiers(self, world, limit):
        index = _grown_delta_index(world)
        query = world.queries[0]
        delta = index._delta
        index._delta = None
        base_only = index.search(query, k=10, ef=60)
        index._delta = delta
        full = index.search(query, k=10, ef=60)
        assert full.ndc > base_only.ndc and not full.degraded
        budget = {
            # the base walk fits, the delta walk is cut by the remainder
            "ndc": QueryBudget(max_ndc=base_only.ndc + 7),
            "hops": QueryBudget(max_hops=2),
            # expired before either walk makes its first hop
            "deadline": QueryBudget(deadline_s=1e-9),
        }[limit]
        results = [index.search(q, k=10, ef=60, budget=budget)
                   for q in world.queries]
        for result in results:
            assert result.degraded and result.budget.limit == limit
            assert len(result.ids)
        first = results[0]
        if limit == "ndc":
            assert first.ndc == base_only.ndc + 7
        elif limit == "hops":
            assert first.hops == 4      # two per tier
        batch = index.search_batch(world.queries, k=10, ef=60, workers=2,
                                   budget=budget)
        assert batch.num_errors == 0
        _assert_same_answers(batch, results)

    def test_v5_roundtrip_answers_bit_for_bit(self, world, tmp_path):
        from repro.io import load_index, save_index

        index = _grown_delta_index(world)
        index.delete(world.n + 9)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        for left, right in zip(index._delta.export_state()[:4],
                               loaded._delta.export_state()[:4]):
            assert np.array_equal(left, right)
        extra = world.base[11] + 0.05
        for live in (index, loaded):
            live.insert(extra)   # moves packed rows of the loaded pool
        for query in list(world.queries) + [extra]:
            a = index.search(query, k=10, ef=60)
            b = loaded.search(query, k=10, ef=60)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)
            assert (a.ndc, a.hops, a.visited) == (b.ndc, b.hops, b.visited)

    def test_tombstone_bookkeeping(self, world):
        index = _grown_delta_index(world, inserts=20)
        delta = index._delta
        for vertex in (world.n + 2, world.n + 7, world.n + 2, 4):
            index.delete(vertex)
        assert delta.num_deleted == 2 and index.num_deleted == 3
        expected = np.zeros(20, dtype=bool)
        expected[[2, 7]] = True
        vectors, flags, count = delta.snapshot()
        assert count == 20 and np.array_equal(flags, expected)
        assert np.array_equal(vectors, delta.vectors)
        assert np.array_equal(delta.deleted_flags(8), expected[:8])
        tail_vecs, tail_flags = delta.tail_after(5)
        assert np.array_equal(tail_vecs, delta.vectors[5:])
        assert np.array_equal(tail_flags, expected[5:])
        assert np.array_equal(delta.export_state()[3], expected)
        restored = DeltaTier.from_state(*delta.export_state())
        assert restored.num_deleted == 2
        assert np.array_equal(restored.deleted_flags(20), expected)
        edges = int(delta.export_state()[1][-1])
        assert delta.size_bytes() == 20 * world.dim * 4 + 4 * edges + 20

    def test_consistency_issues_on_the_pool(self, world):
        index = _grown_delta_index(world, inserts=20)
        graph = index._delta._graph
        assert index._delta.consistency_issues(world.dim, world.n) == []
        first = int(graph.indptr[3])
        kept, graph.indices[first] = graph.indices[first], 3
        assert index._delta.consistency_issues(world.dim, world.n) == [
            "delta self-loop at vertex 3"]
        graph.indices[first] = kept
        graph.indptr[5] = graph.used - 1
        issues = index._delta.consistency_issues(world.dim, world.n)
        assert len(issues) == 1 and "delta row 5 spans" in issues[0]

    def test_concurrent_writes_and_searches(self, world):
        """One writer inserts and deletes while search() and
        search_batch() run against the same index."""
        index = _grown_delta_index(world, inserts=10)
        rng = np.random.default_rng(23)
        vectors = (world.base[rng.choice(world.n, 150)]
                   + rng.normal(0, 0.3, (150, world.dim)).astype(np.float32))
        # every fifth insert is followed by a delete: mostly of a delta
        # point that already exists, every third one of a base point
        victims = [k + 1 if k % 3 == 2 else world.n + 5 * k
                   for k in range(30)]
        deleted: list[int] = []     # appended once a delete has returned
        done = threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                for j, vector in enumerate(vectors):
                    index.insert(vector)
                    if j % 5 == 0:
                        victim = victims[j // 5]
                        index.delete(victim)
                        deleted.append(victim)
            except Exception as exc:
                errors.append(exc)
            finally:
                done.set()

        def check(ids, before):
            ids = ids[ids >= 0]
            assert (ids < world.n + index.delta_points).all()
            assert not np.isin(ids, before).any()

        def searcher():
            try:
                i = 0
                while not done.is_set() or i < 3:
                    before = list(deleted)
                    query = world.queries[i % len(world.queries)]
                    check(index.search(query, k=10, ef=60).ids, before)
                    i += 1
            except Exception as exc:
                errors.append(exc)

        def batcher():
            try:
                i = 0
                while not done.is_set() or i < 3:
                    before = list(deleted)
                    batch = index.search_batch(world.queries, k=10, ef=60)
                    assert batch.num_errors == 0
                    check(batch.ids, before)
                    i += 1
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fn)
                       for fn in (writer, searcher, batcher)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)

        replay = DeltaTier(world.dim, world.n, max_m=index.delta_max_m,
                           ef_construction=index.delta_ef_construction)
        for vector in index._delta.vectors[:10]:
            replay.insert(vector)
        for j, vector in enumerate(vectors):
            replay.insert(vector)
            if j % 5 == 0 and victims[j // 5] >= world.n:
                replay.delete(victims[j // 5])
        for left, right in zip(index._delta.export_state()[:4],
                               replay.export_state()[:4]):
            assert np.array_equal(left, right)
