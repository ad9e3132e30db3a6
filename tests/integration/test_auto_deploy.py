"""Tests for auto_deploy and spec-file-driven deployments."""

import json

import pytest

from repro.common.units import MBPS
from repro.deploy import auto_deploy
from repro.netsim.builders import build_campus, build_switched_lan
from repro.netsim.spec import network_from_json, network_to_json
from repro.netsim.topology import Network


class TestAutoDeploy:
    def test_lan_auto(self):
        lan = build_switched_lan(8, fanout=8)
        dep = auto_deploy(lan.net)
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)
        # the switched subnet got a bridge collector
        assert dep.bridge_collectors

    def test_campus_auto(self):
        c = build_campus(2, 3)
        dep = auto_deploy(c.net)
        ans = dep.session().flow_info(c.host(0, 0), c.host(1, 1))
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)
        coll = next(iter(dep.snmp_collectors.values()))
        assert len(coll.bridges) == 2  # one bridge collector per subnet

    def test_spec_roundtrip_deployable(self):
        lan = build_switched_lan(6, fanout=8)
        rebuilt = network_from_json(network_to_json(lan.net))
        dep = auto_deploy(rebuilt)
        h = sorted(h.name for h in rebuilt.hosts())
        ans = dep.session().flow_info(
            rebuilt.host(h[0]), rebuilt.host(h[-1])
        )
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)

    def test_requires_router(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        ln = net.link(a, b, 1 * MBPS)
        net.assign_ip(ln.a, "10.0.0.1", "10.0.0.0/24")
        net.assign_ip(ln.b, "10.0.0.2", "10.0.0.0/24")
        net.freeze()
        with pytest.raises(ValueError):
            auto_deploy(net)


class TestCliSpecFile:
    def test_flow_from_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        lan = build_switched_lan(4, fanout=4)
        spec_file = tmp_path / "topo.json"
        spec_file.write_text(network_to_json(lan.net))
        assert main(["flow", str(spec_file), "h0", "h3"]) == 0
        out = capsys.readouterr().out
        assert "available : 100.00 Mbps" in out
