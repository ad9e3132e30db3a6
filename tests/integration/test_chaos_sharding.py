"""Chaos for the sharded Master plane: crashes, promotion, shard LKG.

Extends the flat-plane chaos contracts (``test_chaos.py``) one tier up:

* a crashed shard *primary* is invisible — a replica is promoted and
  answers **fresh**, because it re-queries the still-alive site
  collectors;
* with every replica of a shard down, the shard's sites are served
  STALE from the shard-level last-known-good cache, with a truthful,
  monotonically growing ``data_age_s`` — never FAILED while any other
  shard still answers;
* the whole circus is deterministic: same seeds, same fault script,
  same answers.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.common.status import QueryStatus
from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan

N_SITES = 12
PLAN = faults.FaultPlan(
    fragment_timeout_s=8.0, fragment_retries=1, quarantine_s=30.0
)


def _stack(replicas: int = 1, seed: int = 19):
    world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=ShardingConfig(n_shards=4, replicas=replicas),
    )
    faults.install(dep, PLAN)
    return world, dep


def _request(world, dep):
    """A query spanning every shard, so one shard's fate is visible
    against healthy neighbours."""
    names = sorted(world.sites)
    ips = [str(world.sites[n].hosts[0].interfaces[0].ip) for n in names]
    return names, TopologyRequest.of(ips)


def _victim_shard(dep):
    """The shard with the most sites (always non-empty)."""
    return max(dep.master.shards, key=lambda s: len(s.sites))


class TestReplicaPromotion:
    def test_primary_crash_is_invisible(self):
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        with obs.scoped_registry() as reg:
            assert dep.master.topology(req).status == QueryStatus.OK

            faults.crash_shard(dep.master, victim.index, 60.0,
                               include_replicas=False)
            resp = dep.master.topology(req)

            # the replica re-queried the live site collectors: the
            # answer is fresh and complete, not a stale LKG serve
            assert resp.status == QueryStatus.OK
            assert all(
                resp.site_status[s].status == QueryStatus.OK for s in names
            )
            assert reg.counter("collectors.sharded.replica_promotions").value >= 1
            assert reg.counter("collectors.sharded.lkg_served").value == 0

    def test_primary_recovers_after_downtime(self):
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        victim = _victim_shard(dep)
        faults.crash_shard(dep.master, victim.index, 60.0,
                           include_replicas=False)
        assert dep.master.topology(req).status == QueryStatus.OK
        world.net.engine.run_until(world.net.now + 120.0)
        assert victim.masters[0].crashed_until is None
        with obs.scoped_registry() as reg:
            assert dep.master.topology(req).status == QueryStatus.OK
            assert reg.counter("collectors.sharded.replica_promotions").value == 0


class TestShardLkgFailover:
    def test_whole_shard_down_serves_stale_with_growing_age(self):
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        assert dep.master.topology(req).status == QueryStatus.OK  # fills LKG

        faults.crash_shard(dep.master, victim.index, 600.0)
        ages = []
        with obs.scoped_registry() as reg:
            for _ in range(3):
                world.net.engine.run_until(world.net.now + 20.0)
                resp = dep.master.topology(req)
                # degraded, never FAILED: the other shards still answer
                assert resp.status == QueryStatus.STALE
                for site in names:
                    st = resp.site_status[site]
                    if site in victim.sites:
                        assert st.status == QueryStatus.STALE
                        assert st.detail == "shard last-known-good"
                        assert st.data_age_s > 0.0
                    else:
                        assert st.status == QueryStatus.OK
                ages.append(
                    max(resp.site_status[s].data_age_s for s in victim.sites)
                )
            assert reg.counter("collectors.sharded.lkg_served").value == 3
            # once quarantined, later queries skip the dead replica chain
            assert reg.counter("collectors.master.quarantine_skips").value >= 1
        assert ages == sorted(ages) and ages[0] < ages[-1]

    def test_shard_recovers_fresh_after_restart(self):
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        victim = _victim_shard(dep)
        dep.master.topology(req)
        faults.crash_shard(dep.master, victim.index, 60.0)
        world.net.engine.run_until(world.net.now + 10.0)
        assert dep.master.topology(req).status == QueryStatus.STALE
        # outlive both the crash and the quarantine window
        world.net.engine.run_until(world.net.now + 120.0)
        resp = dep.master.topology(req)
        assert resp.status == QueryStatus.OK
        assert all(
            s.detail != "shard last-known-good" for s in resp.site_status.values()
        )

    def test_no_lkg_means_partial_not_failed(self):
        world, dep = _stack(replicas=0)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        # cold crash: no prior query, so no LKG to fall back on
        faults.crash_shard(dep.master, victim.index, 600.0)
        resp = dep.master.topology(req)
        assert resp.status == QueryStatus.PARTIAL
        for site in names:
            if site in victim.sites:
                assert site not in resp.site_status or (
                    resp.site_status[site].status == QueryStatus.FAILED
                )
            else:
                assert resp.site_status[site].status == QueryStatus.OK
        # the healthy sites' fragments are all present in the answer
        healthy_switches = {f"{s}-sw" for s in names if s not in victim.sites}
        node_ids = {n.id for n in resp.graph.nodes()}
        assert healthy_switches <= node_ids


class TestDeterministicReplay:
    @staticmethod
    def _scenario():
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        trace = []
        with obs.scoped_registry() as reg:
            for step in range(4):
                if step == 1:
                    faults.crash_shard(dep.master, victim.index, 45.0,
                                       include_replicas=False)
                if step == 2:
                    faults.crash_shard(dep.master, victim.index, 90.0)
                resp = dep.master.topology(req)
                trace.append(
                    (
                        round(world.net.now, 9),
                        resp.status.name,
                        tuple(
                            (s, st.status.name, round(st.data_age_s, 9), st.attempts)
                            for s, st in sorted(resp.site_status.items())
                        ),
                        len(resp.graph.nodes()),
                        len(resp.graph.edges()),
                    )
                )
                world.net.engine.run_until(world.net.now + 15.0)
            injected = reg.counter("faults.injected", kind="shard_crash").value
        return trace, injected

    def test_same_seed_same_fault_script_same_answers(self):
        first = self._scenario()
        second = self._scenario()
        assert first == second
        assert first[1] == 2.0  # both scripted crashes fired, exactly once


@pytest.mark.parametrize("depth", [1, 2])
def test_hierarchy_depth_survives_primary_crash(depth):
    """Promotion works under a master-of-masters tier too."""
    world = build_random_wan(N_SITES, seed=23, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=ShardingConfig(
            n_shards=4, replicas=1, depth=depth, group_fanout=2
        ),
    )
    faults.install(dep, PLAN)
    names, req = _request(world, dep)
    assert dep.master.topology(req).status == QueryStatus.OK
    # crash one leaf shard's primary, wherever the hierarchy put it
    leaf = next(
        m for m in dep.master.iter_masters()
        if not hasattr(m, "shards") and m.name.endswith("-s0")
    )
    leaf.crashed_until = world.net.engine.now + 60.0
    resp = dep.master.topology(req)
    assert resp.status == QueryStatus.OK
    assert all(st.status == QueryStatus.OK for st in resp.site_status.values())


# -- one survival state per concern, visible from the root ----------------


def _crashed_shard_scenario():
    """A warm query, then the largest shard down for good and three
    queries 20 s apart: the shard is quarantined and served STALE."""
    world, dep = _stack(replicas=1)
    _, req = _request(world, dep)
    victim = _victim_shard(dep)
    dep.master.topology(req)
    faults.crash_shard(dep.master, victim.index, 600.0)
    with obs.scoped_registry() as reg:
        for _ in range(3):
            world.net.engine.run_until(world.net.now + 20.0)
            dep.master.topology(req)
        counters = obs.export.snapshot(reg)["counters"]
    return dep, victim, counters


def test_sharded_health_reports_its_own_survival_state():
    dep, victim, _ = _crashed_shard_scenario()
    health = dep.master.health()
    assert health["quarantined"] == 1
    # one last-known-good fragment per shard, from the warm query
    assert health["lkg_fragments"] == 4
    assert "shard_lkg_fragments" not in health
    assert [s["index"] for s in health["shards"] if s["quarantined_until"]] == [
        victim.index
    ]


def test_trace_tally_counts_sharded_lkg_serves():
    _, _, counters = _crashed_shard_scenario()
    counts = obs.traceview.retry_timeout_counts(counters)
    assert counts["collectors.sharded.lkg_served"] == 3


def _lkg_fragments(master) -> int:
    return master.health()["lkg_fragments"]


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
def test_invalidate_sites_drops_only_the_named_sites_state(sharded):
    world = build_random_wan(N_SITES, seed=19, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=ShardingConfig(n_shards=4, replicas=1) if sharded else None,
    )
    faults.install(dep, PLAN)
    names, req = _request(world, dep)
    master = dep.master
    master.topology(req)  # fills every last-known-good store
    if sharded:
        victim = _victim_shard(dep)
        site = victim.sites[0]
        bystander = next(s for s in names if s not in victim.sites)
        primaries = [shard.masters[0] for shard in master.shards]
        before = [_lkg_fragments(m) for m in primaries]
        assert _lkg_fragments(master) == 4
    else:
        site, bystander = names[0], names[1]
        assert _lkg_fragments(master) == N_SITES

    master.invalidate_sites([site])
    assert _lkg_fragments(master) == (3 if sharded else N_SITES - 1)
    if sharded:
        # below the root, only the victim shard's primary drops a fragment
        after = [_lkg_fragments(m) for m in primaries]
        assert after == [
            n - (shard is victim) for n, shard in zip(before, master.shards)
        ]

    # quarantine marks are scoped the same way
    if sharded:
        faults.crash_shard(master, victim.index, 600.0)
    else:
        faults.crash_collector(dep.snmp_collectors[site], 600.0)
    master.topology(req)
    assert master.health()["quarantined"] == 1
    master.invalidate_sites([bystander])
    assert master.health()["quarantined"] == 1
    master.invalidate_sites([site])
    assert master.health()["quarantined"] == 0
