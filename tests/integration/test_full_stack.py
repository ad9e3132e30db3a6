"""Full-stack integration: Remos answers vs. fluid ground truth.

The deepest invariant of the reproduction: when measurements are fresh,
what the Modeler *predicts* a flow will get must equal what the fluid
substrate *actually gives* a flow started right after the query —
discovery, counters, max-min math, and WAN stitching all have to agree
for that to hold.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MBPS
from repro.deploy import deploy_lan, deploy_wan
from repro.netsim.builders import (
    SiteSpec,
    build_hub_lan,
    build_multisite_wan,
    build_switched_lan,
)


class TestPredictionMatchesReality:
    def test_lan_idle(self):
        lan = build_switched_lan(12, fanout=4)
        dep = deploy_lan(lan)
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[11])
        actual = lan.net.flows.start_flow(lan.hosts[0], lan.hosts[11])
        assert ans.available_bps == pytest.approx(actual.rate_bps, rel=0.02)

    def test_lan_with_background_load(self):
        lan = build_switched_lan(12, fanout=4)
        dep = deploy_lan(lan)
        lan.net.flows.start_flow(lan.hosts[1], lan.hosts[11], demand_bps=40 * MBPS)
        lan.net.engine.run_until(10.0)
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[11])
        actual = lan.net.flows.start_flow(lan.hosts[0], lan.hosts[11])
        # measured residual vs max-min reality: the new greedy flow
        # actually pushes the 40 Mbps flow's share down on the shared
        # host link, so prediction (residual) <= actual but close on
        # the bottleneck structure
        assert ans.available_bps == pytest.approx(60 * MBPS, rel=0.05)
        assert actual.rate_bps >= ans.available_bps * 0.99

    def test_hub_lan_shared_medium(self):
        hl = build_hub_lan(n_hub_hosts=3, n_switch_hosts=1)
        dep = deploy_lan(hl)
        ans = dep.session().flow_info(hl.hosts[0], hl.hosts[-1])
        actual = hl.net.flows.start_flow(hl.hosts[0], hl.hosts[-1])
        assert ans.available_bps == pytest.approx(actual.rate_bps, rel=0.02)

    def test_wan_cross_site(self):
        w = build_multisite_wan(
            [
                SiteSpec("a", access_bps=7 * MBPS, n_hosts=3),
                SiteSpec("b", access_bps=40 * MBPS, n_hosts=3),
            ]
        )
        dep = deploy_wan(w)
        ans = dep.session().flow_info(w.host("a", 0), w.host("b", 0))
        actual = w.net.flows.start_flow(w.host("a", 0), w.host("b", 0))
        assert ans.available_bps == pytest.approx(actual.rate_bps, rel=0.05)

    @given(
        st.integers(2, 30),
        st.integers(0, 11),
        st.integers(0, 11),
    )
    @settings(max_examples=25, deadline=None)
    def test_lan_any_pair_property(self, demand_mbps, i, j):
        """For any background demand and any host pair, prediction is
        within 5% of reality on a freshly deployed LAN."""
        if i == j:
            return
        lan = build_switched_lan(12, fanout=4)
        dep = deploy_lan(lan)
        other = (j + 1) % 12
        if other != i and other != j:
            lan.net.flows.start_flow(
                lan.hosts[j], lan.hosts[other], demand_bps=demand_mbps * MBPS
            )
        lan.net.engine.run_until(8.0)
        ans = dep.session().flow_info(lan.hosts[i], lan.hosts[j])
        actual = lan.net.flows.start_flow(lan.hosts[i], lan.hosts[j])
        assert actual.rate_bps >= ans.available_bps * 0.95


class TestTopologyFidelity:
    def test_raw_topology_matches_ground_truth_structure(self):
        """Every device on the true path appears in the unsimplified
        discovered topology, in order."""
        from repro.netsim.paths import compute_path

        lan = build_switched_lan(16, fanout=4)
        dep = deploy_lan(lan)
        h0, h15 = lan.hosts[0], lan.hosts[15]
        g = dep.session().topology([h0, h15], detail="raw").graph
        discovered = g.path(str(h0.ip), str(h15.ip))
        true_channels = compute_path(lan.net, h0, h15)
        true_devices = [str(h0.ip)] + [
            c.dst.device.name for c in true_channels[:-1]
        ] + [str(h15.ip)]
        assert discovered == true_devices

    def test_capacities_match_ifspeed(self):
        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan)
        g = dep.session().topology([lan.hosts[0], lan.hosts[7]], detail="raw").graph
        for e in g.edges():
            if math.isfinite(e.capacity_bps):
                assert e.capacity_bps in (100 * MBPS, 1000 * MBPS, 155 * MBPS)

    def test_monitoring_keeps_answers_current(self):
        """Start load *after* discovery; periodic polling must fold it
        into later answers without rediscovery."""
        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan)
        dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.start_monitoring()
        lan.net.flows.start_flow(lan.hosts[0], lan.hosts[7], demand_bps=25 * MBPS)
        lan.net.engine.run_until(lan.net.now + 30.0)
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        assert ans.available_bps == pytest.approx(75 * MBPS, rel=0.05)


class TestDeploymentShapes:
    def test_deploy_lan_handles_hub_lan(self):
        hl = build_hub_lan()
        dep = deploy_lan(hl)
        assert "lan" in dep.bridge_collectors
        ans = dep.session().flow_info(hl.hosts[0], hl.hosts[1])
        assert ans.available_bps > 0

    def test_wan_deployment_full_mesh_benchmarks(self):
        w = build_multisite_wan(
            [SiteSpec(s, access_bps=10 * MBPS, n_hosts=2) for s in ("a", "b", "c")]
        )
        dep = deploy_wan(w)
        for site, bench in dep.benchmarks.items():
            assert set(bench.peers) == {"a", "b", "c"} - {site}

    def test_stop_cancels_all_timers(self):
        w = build_multisite_wan(
            [SiteSpec(s, access_bps=10 * MBPS, n_hosts=2) for s in ("a", "b")]
        )
        dep = deploy_wan(w)
        dep.start_monitoring()
        dep.start_benchmarks()
        w.net.engine.run_until(w.net.now + 120.0)
        dep.stop()
        pending_before = w.net.engine.pending()
        w.net.engine.run_until(w.net.now + 600.0)
        # no periodic activity left: probes and polls stopped
        assert all(b._timer is None for b in dep.benchmarks.values())
        assert all(c._poll_timer is None for c in dep.snmp_collectors.values())
