"""Tests for declarative topology specifications."""

import pytest

from repro.common.units import MBPS
from repro.netsim.builders import (
    build_campus,
    build_dumbbell,
    build_hub_lan,
    build_switched_lan,
    build_wireless_lan,
)
from repro.netsim.paths import compute_path
from repro.netsim.spec import (
    SpecError,
    network_from_json,
    network_from_spec,
    network_to_json,
    spec_from_network,
)

MINIMAL = {
    "nodes": [
        {"name": "h1", "kind": "host"},
        {"name": "h2", "kind": "host"},
        {"name": "sw", "kind": "switch"},
        {"name": "gw", "kind": "router"},
    ],
    "links": [
        {"a": "h1", "b": "sw", "capacity_mbps": 100,
         "a_ip": "10.5.0.10", "subnet": "10.5.0.0/24"},
        {"a": "h2", "b": "sw", "capacity_mbps": 100,
         "a_ip": "10.5.0.11", "subnet": "10.5.0.0/24"},
        {"a": "gw", "b": "sw", "capacity_mbps": 1000,
         "a_ip": "10.5.0.1", "subnet": "10.5.0.0/24"},
    ],
    "management": [
        {"node": "sw", "ip": "10.5.0.2", "subnet": "10.5.0.0/24"}
    ],
}


class TestLoad:
    def test_minimal_network(self):
        net = network_from_spec(MINIMAL)
        assert net.frozen
        h1, h2 = net.host("h1"), net.host("h2")
        assert len(compute_path(net, h1, h2)) == 2
        sw = net.node("sw")
        assert str(sw.management_ip) == "10.5.0.2"

    def test_deployable(self):
        from repro.deploy import SiteConfig, deploy_remos

        net = network_from_spec(MINIMAL)
        dep = deploy_remos(
            net,
            [SiteConfig(
                name="s", domains=["10.5.0.0/24"],
                gateways=[("10.5.0.0/24", "10.5.0.1")],
                border_ip="10.5.0.1",
                collector_host=net.host("h1"),
                switch_ips={"sw": net.node("sw").management_ip},
            )],
        )
        ans = dep.session().flow_info(net.host("h1"), net.host("h2"))
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)

    def test_basestation_node(self):
        spec = {
            "nodes": [
                {"name": "h", "kind": "host"},
                {"name": "sw", "kind": "switch"},
                {"name": "ap", "kind": "basestation", "air_rate_mbps": 54},
            ],
            "links": [
                {"a": "ap", "b": "sw", "capacity_mbps": 54},
                {"a": "h", "b": "ap", "capacity_mbps": 54,
                 "a_ip": "10.6.0.10", "subnet": "10.6.0.0/24"},
            ],
        }
        net = network_from_spec(spec)
        from repro.netsim.wireless import Basestation

        ap = net.node("ap")
        assert isinstance(ap, Basestation)
        assert ap.air_rate_bps == 54 * MBPS

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {"nodes": [{"name": "x", "kind": "blender"}]},
            {"nodes": [{"kind": "host"}]},
            {"nodes": [{"name": "h", "kind": "host"}],
             "links": [{"a": "h", "b": "nope", "capacity_mbps": 1}]},
            {"nodes": [{"name": "h", "kind": "host"},
                       {"name": "g", "kind": "host"}],
             "links": [{"a": "h", "b": "g", "capacity_mbps": 1,
                        "a_ip": "10.0.0.1"}]},  # ip without subnet
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(SpecError):
            network_from_spec(bad if isinstance(bad, dict) else bad)  # type: ignore[arg-type]

    def test_bad_json(self):
        with pytest.raises(SpecError):
            network_from_json("{oops")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_dumbbell().net,
            lambda: build_switched_lan(12, fanout=4).net,
            lambda: build_hub_lan().net,
            lambda: build_campus(2, 3).net,
            lambda: build_wireless_lan().net,
        ],
        ids=["dumbbell", "lan", "hub", "campus", "wireless"],
    )
    def test_builder_roundtrip(self, builder):
        """Export any built topology and rebuild it: same nodes, same
        paths between every pair of sample hosts."""
        net = builder()
        text = network_to_json(net)
        net2 = network_from_json(text)
        assert sorted(net2.nodes) == sorted(net.nodes)
        hosts = [h.name for h in net.hosts()][:4]
        for i in range(len(hosts)):
            for j in range(i + 1, len(hosts)):
                p1 = compute_path(net, hosts[i], hosts[j])
                p2 = compute_path(net2, hosts[i], hosts[j])
                assert [c.src.device.name for c in p1] == [
                    c.src.device.name for c in p2
                ]

    def test_management_preserved(self):
        lan = build_switched_lan(8, fanout=4)
        net2 = network_from_json(network_to_json(lan.net))
        for sw in lan.switches:
            sw2 = net2.node(sw.name)
            assert sw2.management_ip == sw.management_ip
