"""Tests for the Modeler (the Remos API)."""

import pytest

from repro.common.errors import QueryError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.deploy import deploy_lan, deploy_wan
from repro.modeler.graph import HOST, VSWITCH


@pytest.fixture(scope="module")
def lan_dep():
    lan = build_switched_lan(16, fanout=4)
    return lan, deploy_lan(lan)


@pytest.fixture
def wan_dep():
    w = build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
        ]
    )
    return w, deploy_wan(w)


class TestTopologyQuery:
    def test_simplified_by_default(self, lan_dep):
        lan, dep = lan_dep
        g = dep.session().topology([lan.hosts[0], lan.hosts[15]]).graph
        # simplification leaves hosts + one vswitch chain
        kinds = [n.kind for n in g.nodes()]
        assert kinds.count(HOST) == 2
        assert VSWITCH in kinds

    def test_raw_topology_has_switches(self, lan_dep):
        lan, dep = lan_dep
        g = dep.session().topology([lan.hosts[0], lan.hosts[15]], detail="raw").graph
        assert any(n.kind == "switch" for n in g.nodes())

    def test_accepts_hosts_ips_strings(self, lan_dep):
        lan, dep = lan_dep
        g1 = dep.session().topology([lan.hosts[0], lan.hosts[1]]).graph
        g2 = dep.session().topology([str(lan.hosts[0].ip), str(lan.hosts[1].ip)]).graph
        assert sorted(n.id for n in g1.nodes()) == sorted(n.id for n in g2.nodes())

    def test_unknown_host_fails_unresolved(self, lan_dep):
        lan, dep = lan_dep
        ans = dep.session().topology(["172.16.0.9"])
        assert ans.status == QueryStatus.FAILED
        assert ans.unresolved == ("172.16.0.9",)


class TestFlowQuery:
    def test_lan_flow_full_capacity(self, lan_dep):
        lan, dep = lan_dep
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[15])
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)
        assert ans.path[0] == str(lan.hosts[0].ip)
        assert ans.path[-1] == str(lan.hosts[15].ip)

    def test_wan_flow_bottlenecked_by_benchmark(self, wan_dep):
        w, dep = wan_dep
        ans = dep.session().flow_info(w.host("cmu", 0), w.host("eth", 0))
        assert ans.available_bps == pytest.approx(10 * MBPS, rel=0.05)
        assert ans.latency_s > 0

    def test_joint_flow_queries_share(self, wan_dep):
        w, dep = wan_dep
        answers = dep.session().flow_info_many(
            [
                (w.host("cmu", 0), w.host("eth", 0)),
                (w.host("cmu", 1), w.host("eth", 1)),
            ]
        )
        # both flows cross the same 10 Mbps logical WAN edge
        assert answers[0].available_bps == pytest.approx(5 * MBPS, rel=0.05)
        assert answers[1].available_bps == pytest.approx(5 * MBPS, rel=0.05)

    def test_flow_query_sees_background_traffic(self, wan_dep):
        w, dep = wan_dep
        # saturate half the cmu access link with cross traffic
        f = w.net.flows.start_flow(w.host("cmu", 1), w.host("eth", 1),
                                   demand_bps=5 * MBPS)
        w.net.engine.run_until(w.net.now + 10.0)
        ans = dep.session().flow_info(w.host("cmu", 0), w.host("eth", 0))
        # benchmark probe shares the access link with the 5 Mbps flow:
        # max-min gives the probe 5 Mbps
        assert ans.available_bps == pytest.approx(5 * MBPS, rel=0.1)

    def test_prediction_requires_service(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.prediction_service = None
        with pytest.raises(QueryError):
            dep.session().flow_info(lan.hosts[0], lan.hosts[1], predict=True)
