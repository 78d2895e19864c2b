"""Sharded scatter–gather: parity, determinism, fault isolation,
manifest persistence, hedging.

The contracts under test are the robustness acceptance criteria:
fault-free S=1 sharded search is bit-identical (ids *and* NDC) to the
unsharded path; killing 1 of 4 shards mid-query degrades the result
instead of raising; a corrupt shard member is quarantined in repair
mode and named in an ``IndexFormatError`` otherwise; an interrupted
save never clobbers the previous loadable index; hedged replicas
return bit-identical ids whether or not the hedge fires.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import create
from repro import faults
from repro import observability as obs
from repro.batch import search_batch
from repro.io import load_sharded, save_sharded
from repro.metrics.recall import recall_at_k
from repro.resilience import IndexFormatError, InvalidQueryError, QueryBudget
from repro.sharding import ShardedIndex, kmeans_partition, slice_budget

ALGO = "nsg"
SEED = 3


@pytest.fixture(scope="module")
def flat_index(easy_dataset):
    index = create(ALGO, seed=SEED)
    index.build(easy_dataset.base)
    return index


@pytest.fixture(scope="module")
def sharded1(easy_dataset):
    return ShardedIndex.build(
        easy_dataset.base, num_shards=1, algorithm=ALGO, seed=SEED
    )


@pytest.fixture(scope="module")
def sharded4(easy_dataset):
    return ShardedIndex.build(
        easy_dataset.base, num_shards=4, algorithm=ALGO, seed=SEED
    )


# -- partitioning --------------------------------------------------------


def test_kmeans_partition_covers_every_point(easy_dataset):
    assign, centroids = kmeans_partition(easy_dataset.base, 4, seed=0)
    assert assign.shape == (len(easy_dataset.base),)
    assert centroids.shape == (4, easy_dataset.base.shape[1])
    counts = np.bincount(assign, minlength=4)
    assert counts.sum() == len(easy_dataset.base)
    assert counts.min() >= 2
    # deterministic: same seed, same cut
    again, _ = kmeans_partition(easy_dataset.base, 4, seed=0)
    assert np.array_equal(assign, again)


def test_kmeans_partition_rejects_impossible_cuts():
    data = np.random.default_rng(0).random((5, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        kmeans_partition(data, 3)
    with pytest.raises(ValueError):
        kmeans_partition(data, 0)


def test_slice_budget_divides_ndc_only():
    budget = QueryBudget(max_ndc=100, max_hops=7)
    sliced = slice_budget(budget, 4)
    assert sliced.max_ndc == 25
    assert sliced.max_hops == 7
    assert slice_budget(None, 4) is None
    assert slice_budget(budget, 1) is budget


# -- S=1 parity (acceptance criterion) -----------------------------------


def test_single_shard_search_is_bit_identical(easy_dataset, flat_index, sharded1):
    for query in easy_dataset.queries:
        a = flat_index.search(query, k=10)
        b = sharded1.search(query, k=10)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.dists, b.dists)
        assert a.ndc == b.ndc
        assert b.degraded is False or b.degraded == a.degraded


def test_single_shard_batch_is_bit_identical(easy_dataset, flat_index, sharded1):
    a = search_batch(flat_index, easy_dataset.queries, k=10)
    b = sharded1.search_batch(easy_dataset.queries, k=10)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.dists, b.dists)
    assert np.array_equal(a.ndc, b.ndc)
    assert b.shard_report.routing_ndc == 0


# -- merge determinism ---------------------------------------------------


def test_merge_deterministic_across_runs(easy_dataset, sharded4):
    query = easy_dataset.queries[0]
    first = sharded4.search(query, k=10)
    for _ in range(4):
        again = sharded4.search(query, k=10)
        assert np.array_equal(first.ids, again.ids)
        assert np.array_equal(first.dists, again.dists)
        assert first.ndc == again.ndc


def test_merge_deterministic_at_any_worker_count(easy_dataset, sharded4):
    one = sharded4.search_batch(easy_dataset.queries, k=10, workers=1)
    four = sharded4.search_batch(easy_dataset.queries, k=10, workers=4)
    assert np.array_equal(one.ids, four.ids)
    assert np.array_equal(one.dists, four.dists)
    assert np.array_equal(one.ndc, four.ndc)


def test_full_fanout_recall_is_strong(easy_dataset, sharded4):
    result = sharded4.search_batch(easy_dataset.queries, k=10)
    recalls = [
        recall_at_k(result.ids[i][result.ids[i] >= 0],
                    easy_dataset.ground_truth[i], 10)
        for i in range(len(easy_dataset.queries))
    ]
    assert float(np.mean(recalls)) >= 0.8
    assert result.shard_report.quarantined == ()
    assert not result.degraded.any()


def test_global_ids_are_valid(easy_dataset, sharded4):
    result = sharded4.search(easy_dataset.queries[0], k=10, fanout=2)
    assert len(result.ids) == 10
    assert result.ids.min() >= 0
    assert result.ids.max() < len(easy_dataset.base)
    assert len(np.unique(result.ids)) == 10
    # merged distances are sorted ascending
    assert np.all(np.diff(result.dists) >= 0)


# -- fault isolation (acceptance criterion) ------------------------------


@pytest.mark.faults
def test_kill_one_shard_degrades_single_query(easy_dataset, sharded4):
    with faults.inject(faults.FaultPlan().fail_shard(1)):
        result = sharded4.search(easy_dataset.queries[0], k=10, fanout=4)
    assert result.degraded is True
    report = result.shard_report
    assert [s for s, _ in report.quarantined] == [1]
    assert "injected fault" in report.quarantined[0][1]
    assert set(report.survivors) == {0, 2, 3}
    assert len(result.ids) == 10
    # nothing from the dead shard can appear in the merge
    assert not np.isin(result.ids, sharded4.shard_ids[1]).any()


@pytest.mark.faults
def test_kill_one_shard_degrades_batch(easy_dataset, sharded4):
    with faults.inject(faults.FaultPlan().fail_shard(2)):
        result = sharded4.search_batch(easy_dataset.queries, k=10, fanout=4)
    assert result.degraded.all()
    assert [s for s, _ in result.shard_report.quarantined] == [2]
    assert (result.ids >= 0).all()
    assert not np.isin(result.ids, sharded4.shard_ids[2]).any()


@pytest.mark.faults
def test_slow_shard_times_out_and_is_quarantined(easy_dataset, sharded4):
    with faults.inject(faults.FaultPlan().slow_shard(0, 1.0)):
        result = sharded4.search(
            easy_dataset.queries[0], k=10, fanout=4, shard_timeout_s=0.1
        )
    assert result.degraded is True
    quarantined = dict(result.shard_report.quarantined)
    assert 0 in quarantined and "timeout" in quarantined[0]
    assert set(result.shard_report.survivors) == {1, 2, 3}


@pytest.fixture(scope="module")
def dead_and_slow_batch(easy_dataset, sharded4):
    """One batch with shard 1 killed and shard 2 slowed past its
    timeout, run with metrics on; returns the result and the scrape."""
    was = (obs.enabled(), obs.tracing())
    obs.reset()
    obs.enable(metrics=True, trace=was[1])
    try:
        plan = faults.FaultPlan().fail_shard(1).slow_shard(2, 1.0)
        with faults.inject(plan):
            result = sharded4.search_batch(
                easy_dataset.queries[:12], k=10, fanout=4,
                shard_timeout_s=0.3,
            )
        scrape = obs.prometheus_text()
    finally:
        obs.reset()
        if any(was):
            obs.enable(metrics=was[0], trace=was[1])
        else:
            obs.disable()
    return result, scrape


@pytest.mark.faults
def test_dead_and_slow_shards_quarantined_in_one_batch(sharded4,
                                                       dead_and_slow_batch):
    result, _ = dead_and_slow_batch
    quarantined = dict(result.shard_report.quarantined)
    assert set(quarantined) == {1, 2}
    assert "injected fault" in quarantined[1]
    assert "timeout" in quarantined[2]
    assert result.degraded.all()
    assert (result.ids >= 0).all()          # partial results fill top-k
    assert not np.isin(result.ids, sharded4.shard_ids[1]).any()


@pytest.mark.faults
def test_batch_shard_timeout_is_one_window(easy_dataset, sharded4):
    # shard 2 sleeps less than the two waits before it would add up to;
    # it must still time out, since every shard shares one window
    plan = faults.FaultPlan().slow_shard(0, 1.0).slow_shard(2, 0.5)
    with faults.inject(plan):
        result = sharded4.search_batch(
            easy_dataset.queries[:12], k=10, fanout=4, shard_timeout_s=0.3,
        )
    quarantined = dict(result.shard_report.quarantined)
    assert set(quarantined) == {0, 2}
    assert "timeout" in quarantined[0]
    assert "timeout" in quarantined[2]


@pytest.mark.faults
def test_shard_faults_advance_prometheus_counters(dead_and_slow_batch):
    _, scrape = dead_and_slow_batch
    for metric in ("repro_shard_quarantines_total",
                   "repro_sharded_degraded_total",
                   "repro_sharded_queries_total"):
        values = [float(line.rsplit(" ", 1)[1])
                  for line in scrape.splitlines()
                  if line.startswith(metric)]
        assert values, f"{metric} missing from the scrape"
        assert sum(values) > 0, f"{metric} never advanced"


@pytest.mark.faults
def test_all_shards_dead_returns_empty_degraded(easy_dataset, sharded4):
    plan = faults.FaultPlan()
    for s in range(4):
        plan.fail_shard(s)
    with faults.inject(plan):
        result = sharded4.search(easy_dataset.queries[0], k=10)
    assert result.degraded is True
    assert len(result.ids) == 0
    assert len(result.shard_report.quarantined) == 4


def test_per_shard_budgets_reported(easy_dataset, sharded4):
    budget = QueryBudget(max_ndc=40)
    result = sharded4.search(easy_dataset.queries[0], k=10, fanout=4,
                             budget=budget)
    assert result.degraded is True
    assert result.shard_report.budgets  # at least one shard hit its slice
    for report in result.shard_report.budgets.values():
        assert report.limit == "ndc"
    # the combined spend respects the global cap up to per-shard overshoot
    assert result.ndc <= 2 * budget.max_ndc + len(sharded4.shards)


def test_invalid_query_still_raises(sharded4):
    with pytest.raises(InvalidQueryError):
        sharded4.search(np.array([1.0, 2.0]), k=5)
    with pytest.raises(InvalidQueryError):
        sharded4.search(np.full(sharded4.dim, np.nan, dtype=np.float32), k=5)


def test_empty_batch(sharded4):
    result = sharded4.search_batch(
        np.empty((0, sharded4.dim), dtype=np.float32), k=5
    )
    assert result.ids.shape == (0, 5)
    assert result.shard_report.quarantined == ()


# -- hedged replicas -----------------------------------------------------


@pytest.mark.faults
def test_hedging_is_bit_identical(easy_dataset, sharded4):
    sharded4.replicate(2)
    try:
        query = easy_dataset.queries[1]
        baseline = sharded4.search(query, k=10, fanout=4, hedge=False)

        # hedge armed but never firing (generous trigger)
        idle = sharded4.search(query, k=10, fanout=4, hedge=True,
                               hedge_after_s=30.0)
        assert idle.shard_report.hedges_fired == 0
        assert np.array_equal(baseline.ids, idle.ids)
        assert baseline.ndc == idle.ndc

        # slow primary of shard 0 -> hedge fires, replica answers
        with faults.inject(faults.FaultPlan().slow_shard(0, 0.4, replica=0)):
            fired = sharded4.search(query, k=10, fanout=4, hedge=True,
                                    hedge_after_s=0.02)
        assert fired.shard_report.hedges_fired >= 1
        assert fired.shard_report.hedge_wins >= 1
        assert np.array_equal(baseline.ids, fired.ids)
        assert np.array_equal(baseline.dists, fired.dists)
        assert baseline.ndc == fired.ndc
        assert fired.degraded is False
    finally:
        sharded4.replicate(1)


@pytest.mark.faults
def test_hedge_survives_primary_death(easy_dataset, sharded4):
    sharded4.replicate(2)
    try:
        query = easy_dataset.queries[2]
        baseline = sharded4.search(query, k=10, fanout=4, hedge=False)
        # primary replica of shard 1 is slow AND its failure injected;
        # the hedge replica (replica 1) answers for it
        plan = faults.FaultPlan().slow_shard(1, 0.4, replica=0)
        plan.fail_shard(1, replica=0)
        with faults.inject(plan):
            result = sharded4.search(query, k=10, fanout=4, hedge=True,
                                     hedge_after_s=0.02)
        assert result.degraded is False
        assert np.array_equal(baseline.ids, result.ids)
        assert result.shard_report.hedge_wins >= 1
    finally:
        sharded4.replicate(1)


# -- single-query scatter in the caller's thread -------------------------


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("unhedged search() must not start a thread pool")


def test_unhedged_search_starts_no_pool(easy_dataset, sharded4, monkeypatch):
    baseline = sharded4.search(easy_dataset.queries[0], k=10, fanout=4)
    monkeypatch.setattr("repro.sharding.ThreadPoolExecutor", _NoPool)
    result = sharded4.search(easy_dataset.queries[0], k=10, fanout=4)
    assert np.array_equal(baseline.ids, result.ids)
    assert baseline.ndc == result.ndc
    budgeted = sharded4.search(
        easy_dataset.queries[0], k=10, fanout=4, shard_timeout_s=30.0,
        budget=QueryBudget(deadline_s=30.0),
    )
    assert np.array_equal(baseline.ids, budgeted.ids)
    assert budgeted.degraded is False


def test_hedged_search_still_uses_a_pool(easy_dataset, sharded4, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr("repro.sharding.ThreadPoolExecutor", counting)
    sharded4.replicate(2)
    try:
        sharded4.search(easy_dataset.queries[0], k=10, fanout=4,
                        hedge=True, hedge_after_s=30.0)
    finally:
        sharded4.replicate(1)
    assert built


@pytest.mark.faults
def test_query_deadline_is_one_window_for_all_shards(easy_dataset, sharded4):
    # every distance evaluation sleeps, so one shard alone outlasts the
    # deadline: the later shards must find no time left, not get their
    # own window each
    deadline = 0.05
    with faults.inject(faults.FaultPlan(distance_delay_s=0.01)):
        started = time.perf_counter()
        result = sharded4.search(easy_dataset.queries[0], k=10, fanout=4,
                                 budget=QueryBudget(deadline_s=deadline))
        elapsed = time.perf_counter() - started
    assert elapsed < 3 * deadline
    assert result.degraded is True
    report = result.shard_report
    assert len(report.survivors) >= 1
    dropped = dict(report.quarantined)
    assert dropped and all("deadline" in r for r in dropped.values())
    for budget_report in report.budgets.values():
        assert budget_report.limit == "deadline"


@pytest.mark.faults
def test_shard_timeout_cuts_a_slow_walk(easy_dataset, sharded4):
    # unbounded, each shard's walk takes well over a second here
    timeout = 0.05
    with faults.inject(faults.FaultPlan(distance_delay_s=0.02)):
        started = time.perf_counter()
        result = sharded4.search(easy_dataset.queries[0], k=10, fanout=2,
                                 shard_timeout_s=timeout)
        elapsed = time.perf_counter() - started
    assert elapsed < 0.5
    assert result.degraded is True
    quarantined = dict(result.shard_report.quarantined)
    assert set(quarantined) == set(result.shard_report.shards_queried)
    assert all("timeout" in r for r in quarantined.values())
    assert result.shard_report.survivors == ()


@pytest.mark.faults
def test_shard_timeout_counts_from_each_shard_start(easy_dataset, sharded4):
    # two slow shards in turn outlast the timeout together, not alone
    plan = faults.FaultPlan().slow_shard(0, 0.2).slow_shard(1, 0.2)
    with faults.inject(plan):
        result = sharded4.search(easy_dataset.queries[0], k=10, fanout=4,
                                 shard_timeout_s=0.3)
    assert result.shard_report.quarantined == ()
    assert set(result.shard_report.survivors) == {0, 1, 2, 3}
    assert result.degraded is False


# -- manifest persistence ------------------------------------------------


def test_manifest_roundtrip(easy_dataset, sharded4, tmp_path):
    path = tmp_path / "index.manifest.json"
    spec = save_sharded(sharded4, path)
    assert spec["num_shards"] == 4
    assert spec["num_points"] == len(easy_dataset.base)
    loaded = load_sharded(path)
    assert loaded.num_shards == 4
    assert loaded.algorithm == ALGO
    query = easy_dataset.queries[0]
    a = sharded4.search(query, k=10)
    b = loaded.search(query, k=10)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.dists, b.dists)


def test_resave_bumps_generation_and_cleans_old_members(sharded4, tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    first = {entry["file"] for entry in json.loads(path.read_text())["shards"]}
    spec = save_sharded(sharded4, path)
    assert spec["generation"] == 2
    for name in first:
        assert not (tmp_path / name).exists()  # old generation retired
    assert load_sharded(path).num_shards == 4


@pytest.mark.faults
def test_corrupt_shard_member_raises_naming_the_member(sharded4, tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    member = faults.corrupt_shard_file(path, shard=2, seed=1)
    with pytest.raises(IndexFormatError) as err:
        load_sharded(path)
    assert member.name in str(err.value)
    assert "checksum" in str(err.value)


@pytest.mark.faults
def test_corrupt_shard_quarantined_in_repair_mode(easy_dataset, sharded4,
                                                  tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    faults.corrupt_shard_file(path, shard=2, seed=1)
    loaded = load_sharded(path, repair=True)
    assert list(loaded.quarantined) == [2]
    assert loaded.alive_shards == [0, 1, 3]
    result = loaded.search(easy_dataset.queries[0], k=10)
    # incomplete coverage must be visible to the caller
    assert result.degraded is True
    assert dict(result.shard_report.quarantined).keys() == {2}
    assert len(result.ids) == 10


def test_missing_member_raises_naming_the_member(sharded4, tmp_path):
    path = tmp_path / "index.json"
    spec = save_sharded(sharded4, path)
    victim = tmp_path / spec["shards"][1]["file"]
    victim.unlink()
    with pytest.raises(IndexFormatError) as err:
        load_sharded(path)
    assert victim.name in str(err.value)
    assert "missing" in str(err.value)


@pytest.mark.faults
def test_truncated_member_raises_naming_the_member(sharded4, tmp_path):
    path = tmp_path / "index.json"
    spec = save_sharded(sharded4, path)
    victim = tmp_path / spec["shards"][0]["file"]
    faults.truncate_file(victim, keep_fraction=0.5)
    with pytest.raises(IndexFormatError) as err:
        load_sharded(path)
    assert victim.name in str(err.value)


def test_not_a_manifest_raises(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{\"hello\": 1}")
    with pytest.raises(IndexFormatError):
        load_sharded(bogus)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(IndexFormatError):
        load_sharded(broken)


# -- crash-safe saves (acceptance criterion) -----------------------------


@pytest.mark.faults
def test_interrupted_manifest_commit_preserves_previous(easy_dataset,
                                                        sharded4, tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    before = load_sharded(path).search(easy_dataset.queries[0], k=10)

    # crash right before the manifest rename, leaving behind a temp
    # manifest additionally mangled by a torn write
    plan = faults.FaultPlan().fail_save_stage("manifest_commit")
    plan.save_stage_hook = (
        lambda stage, tmp: faults.truncate_file(tmp, 0.3)
        if stage == "manifest_commit" else None
    )
    with faults.inject(plan):
        with pytest.raises(faults.InjectedFault):
            save_sharded(sharded4, path)

    after_index = load_sharded(path)  # previous generation still live
    after = after_index.search(easy_dataset.queries[0], k=10)
    assert np.array_equal(before.ids, after.ids)
    assert json.loads(path.read_text())["generation"] == 1


@pytest.mark.faults
def test_interrupted_shard_commit_preserves_previous(easy_dataset,
                                                     sharded4, tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    before = load_sharded(path).search(easy_dataset.queries[3], k=10)
    with faults.inject(faults.FaultPlan().fail_save_stage("shard_commit:1")):
        with pytest.raises(faults.InjectedFault):
            save_sharded(sharded4, path)
    after = load_sharded(path).search(easy_dataset.queries[3], k=10)
    assert np.array_equal(before.ids, after.ids)


@pytest.mark.faults
def test_interrupted_meta_commit_preserves_previous(easy_dataset,
                                                    sharded4, tmp_path):
    path = tmp_path / "index.json"
    save_sharded(sharded4, path)
    before = load_sharded(path).search(easy_dataset.queries[4], k=10)
    with faults.inject(faults.FaultPlan().fail_save_stage("meta_commit")):
        with pytest.raises(faults.InjectedFault):
            save_sharded(sharded4, path)
    after = load_sharded(path).search(easy_dataset.queries[4], k=10)
    assert np.array_equal(before.ids, after.ids)


# -- shard fault hooks (FaultPlan surface) -------------------------------


@pytest.mark.faults
def test_fault_plan_shard_hooks_compose():
    plan = faults.FaultPlan().fail_shard(1).slow_shard(2, 0.0)
    plan.before_shard(0)  # untargeted shard: no-op
    plan.before_shard(2)  # slow with zero delay: no-op
    with pytest.raises(faults.InjectedFault):
        plan.before_shard(1)
    # replica-targeted kill leaves the other replica alone
    plan = faults.FaultPlan().fail_shard(3, replica=0)
    with pytest.raises(faults.InjectedFault):
        plan.before_shard(3, replica=0)
    plan.before_shard(3, replica=1)


@pytest.mark.faults
def test_fault_plan_save_stage_hook():
    seen = []
    plan = faults.FaultPlan().fail_save_stage("meta_commit")
    plan.save_stage_hook = lambda stage, tmp: seen.append(stage)
    plan.before_save_commit("shard_commit:0", None)
    with pytest.raises(faults.InjectedFault):
        plan.before_save_commit("meta_commit", None)
    assert seen == ["shard_commit:0", "meta_commit"]


# -- online mutability ---------------------------------------------------


@pytest.mark.slow
def test_sharded_insert_routes_and_is_findable(easy_dataset):
    index = ShardedIndex.build(
        easy_dataset.base, num_shards=4, algorithm=ALGO, seed=SEED
    )
    n = len(easy_dataset.base)
    vec = easy_dataset.base[17] + 0.001
    gid = index.insert(vec)
    assert gid == n  # global ids continue past the build set
    assert index.delta_points == 1
    result = index.search(vec, k=3, ef=60)
    assert gid in result.ids
    # the new point lives in exactly one shard, aligned with shard_ids
    owners = [
        s for s in range(index.num_shards)
        if gid in index.shard_ids[s]
    ]
    assert len(owners) == 1
    s = owners[0]
    assert len(index.shard_ids[s]) == index.shards[s].num_points


@pytest.mark.slow
def test_sharded_delete_routes_to_owning_shard(easy_dataset):
    index = ShardedIndex.build(
        easy_dataset.base, num_shards=4, algorithm=ALGO, seed=SEED
    )
    query = easy_dataset.queries[0]
    target = int(index.search(query, k=1, ef=60).ids[0])
    index.delete(target)
    owner = next(
        s for s in range(index.num_shards)
        if target in index.shard_ids[s]
    )
    assert index.shards[owner].num_deleted == 1
    assert sum(sh.num_deleted for sh in index.shards) == 1
    assert target not in index.search(query, k=10, ef=80).ids
    with pytest.raises(IndexError, match="not found"):
        index.delete(10**9)


@pytest.mark.slow
def test_sharded_insert_visible_to_hedged_replicas(easy_dataset):
    index = ShardedIndex.build(
        easy_dataset.base, num_shards=2, algorithm=ALGO, seed=SEED
    )
    index.replicate(2)
    vec = easy_dataset.base[5] + 0.002
    gid = index.insert(vec)
    result = index.search_batch(vec[None], k=3, ef=60)
    assert gid in result.ids[0]
    # insert re-cloned the owning shard's replicas, so a hedge that
    # lands on replica 1 sees the same delta as the primary
    owner = next(
        s for s in range(index.num_shards) if gid in index.shard_ids[s]
    )
    local = int(np.flatnonzero(index.shard_ids[owner] == gid)[0])
    for replica in index.replicas[owner]:
        assert replica.delta_points == 1
        assert local in replica.search(vec, k=3, ef=60).ids


@pytest.mark.slow
def test_sharded_consolidate_folds_all_deltas(easy_dataset):
    index = ShardedIndex.build(
        easy_dataset.base, num_shards=3, algorithm=ALGO, seed=SEED
    )
    vecs = [easy_dataset.base[j] + 0.001 for j in (3, 44, 101)]
    gids = [index.insert(v) for v in vecs]
    assert index.delta_points == 3
    report = index.consolidate()
    assert index.delta_points == 0
    assert sum(r.n_delta for r in report.values()) == 3
    for gid, vec in zip(gids, vecs):
        assert gid in index.search(vec, k=3, ef=60).ids


@pytest.mark.slow
def test_sharded_unconsolidated_delta_roundtrip(easy_dataset, tmp_path):
    index = ShardedIndex.build(
        easy_dataset.base, num_shards=2, algorithm=ALGO, seed=SEED
    )
    vec = easy_dataset.base[9] + 0.003
    gid = index.insert(vec)
    path = tmp_path / "sharded"
    save_sharded(index, path)
    loaded = load_sharded(path)
    assert loaded.delta_points == 1
    assert gid in loaded.search(vec, k=3, ef=60).ids
