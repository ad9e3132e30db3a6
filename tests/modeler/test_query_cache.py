"""Modeler query-result caching (the staleness-window memoisation).

With ``query_cache_ttl_s > 0`` a repeated query inside the window is
answered from the memoised Master response: same answers, a fraction of
the simulated cost, and no Master RPC.  Past the window (or after
``invalidate_cache``) the Master is consulted again.
"""

import dataclasses

import pytest

from repro import obs
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.deploy import deploy_lan, deploy_wan


@pytest.fixture
def lan_dep():
    lan = build_switched_lan(8, fanout=4)
    dep = deploy_lan(lan)
    # warm discovery so per-query costs are stable
    dep.session().flow_info(lan.hosts[0], lan.hosts[7])
    return lan, dep


def _hit_miss(snap):
    c = snap["counters"]
    return (
        c.get("modeler.query_cache{result=hit}", 0),
        c.get("modeler.query_cache{result=miss}", 0),
    )


class TestDisabledByDefault:
    def test_no_cache_metrics_without_ttl(self, lan_dep):
        lan, dep = lan_dep
        assert dep.modeler.query_cache_ttl_s == 0.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 0)


class TestCachedAnswers:
    def test_cached_equals_uncached(self, lan_dep):
        lan, dep = lan_dep
        uncached = dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.modeler.query_cache_ttl_s = 30.0
        first = dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss
        second = dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # hit

        # data_age_s is measured against the sim clock, which advances a
        # few RPC latencies between separate fetches; every measurement
        # field must match exactly, and a cache hit must replay its
        # filling miss verbatim (age included).
        def split(ans):
            d = dataclasses.asdict(ans)
            return d.pop("data_age_s"), d

        age_u, d_u = split(uncached)
        age_1, d_1 = split(first)
        age_2, d_2 = split(second)
        assert d_1 == d_u
        assert d_2 == d_u
        assert age_1 == pytest.approx(age_u, abs=0.1)
        assert age_2 == age_1

    def test_hit_skips_master_and_is_cheaper(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            t0 = lan.net.now
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            miss_cost = lan.net.now - t0
            t1 = lan.net.now
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            hit_cost = lan.net.now - t1
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (1, 1)
        assert hit_cost < miss_cost
        # a cache hit costs exactly the Modeler's local processing —
        # no Master RPC, no collector work
        assert hit_cost == pytest.approx(dep.modeler.rpc.local_s)

    def test_own_flow_credit_does_not_corrupt_cache(self, lan_dep):
        """flow_queries mutates the fetched graph in place to credit the
        caller's own traffic; the memoised graph must be unaffected."""
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        pairs = [(lan.hosts[0], lan.hosts[7])]
        own = [(lan.hosts[0], lan.hosts[7], 5e6)]
        plain = dep.session().flow_info_many(pairs)[0]  # miss: fills the cache
        credited = dep.session().flow_info_many(pairs, own_flows=own)[0]  # hit
        replay = dep.session().flow_info_many(pairs)[0]  # hit, no credit
        assert credited.available_bps >= plain.available_bps
        assert replay.available_bps == pytest.approx(plain.available_bps)


class TestStaleness:
    def test_expiry_refetches(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 2.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # hit
            lan.net.engine.advance(5.0)  # step past the window
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss again
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (1, 2)

    def test_invalidate_forces_refetch(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.modeler.invalidate_cache()
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)

    def test_distinct_queries_do_not_share_entries(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.session().flow_info(lan.hosts[0], lan.hosts[3])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)


class TestSiteScopedInvalidation:
    """``invalidate_cache(sites=...)`` evicts only entries whose
    provenance intersects the named sites; other memoized answers keep
    serving hits."""

    @pytest.fixture
    def wan_dep(self):
        w = build_multisite_wan(
            [
                SiteSpec(f"s{i:02d}", access_bps=10 * MBPS, n_hosts=2)
                for i in range(4)
            ]
        )
        dep = deploy_wan(w)
        dep.modeler.query_cache_ttl_s = 600.0
        pair_a = (w.host("s00", 0).ip, w.host("s01", 0).ip)
        pair_b = (w.host("s02", 0).ip, w.host("s03", 0).ip)
        # fill both entries (discovery + memoisation)
        dep.session().flow_info_many([pair_a])
        dep.session().flow_info_many([pair_b])
        return dep, pair_a, pair_b

    def test_scoped_eviction_spares_other_sites(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache(sites=["s02"])
            dep.session().flow_info_many([pair_a])  # untouched: hit
            dep.session().flow_info_many([pair_b])  # evicted: refetch
            snap = obs.export.snapshot(reg)
        c = snap["counters"]
        assert c["modeler.query_cache{result=evicted}"] == 1
        assert c["modeler.query_cache{result=survived}"] == 1
        assert _hit_miss(snap) == (1, 1)

    def test_unknown_site_evicts_nothing(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache(sites=["nowhere"])
            dep.session().flow_info_many([pair_a])
            dep.session().flow_info_many([pair_b])
            snap = obs.export.snapshot(reg)
        c = snap["counters"]
        assert c["modeler.query_cache{result=evicted}"] == 0
        assert c["modeler.query_cache{result=survived}"] == 2
        assert _hit_miss(snap) == (2, 0)

    def test_none_still_flushes_everything(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache()
            dep.session().flow_info_many([pair_a])
            dep.session().flow_info_many([pair_b])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)
