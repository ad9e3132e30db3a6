"""Tests for node (compute) queries and the campus deployment."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.common.units import MBPS
from repro.deploy import deploy_campus, deploy_lan
from repro.netsim.agents import attach_trace
from repro.netsim.builders import build_campus, build_switched_lan
from repro.rps.hostload import host_load_trace


class TestNodeQueries:
    def test_current_load(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        h = lan.hosts[0]
        attach_trace(h, host_load_trace(2000, seed=1), dt=1.0)
        lan.net.engine.run_until(50.0)
        [ans] = dep.session().node_info([h])
        assert ans.ip == str(h.ip)
        assert ans.load == pytest.approx(h.load(lan.net.now))
        assert ans.predicted_load is None

    def test_predictive_node_query_needs_sensor(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        h = lan.hosts[0]
        attach_trace(h, host_load_trace(2000, seed=2), dt=1.0)
        [plain] = dep.session().node_info([h], predict=True)
        assert plain.predicted_load is None  # no sensor attached
        dep.attach_host_sensor(h, "AR(8)", rate_hz=1.0)
        lan.net.engine.run_until(lan.net.now + 120.0)
        [ans] = dep.session().node_info([h], predict=True, horizon_steps=5)
        assert ans.predicted_load is not None
        assert ans.predicted_var is not None and ans.predicted_var >= 0
        # the forecast is in the trace's ballpark
        assert ans.predicted_load == pytest.approx(h.load(lan.net.now), abs=2.0)

    def test_unknown_host_reports_none(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        [ans] = dep.session().node_info(["10.1.0.99"])
        assert ans.load is None

    def test_no_provider_raises(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        dep.modeler.node_info_provider = None
        with pytest.raises(QueryError):
            dep.session().node_info([lan.hosts[0]])

    def test_multiple_hosts(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        for i, h in enumerate(lan.hosts):
            attach_trace(h, host_load_trace(500, mean=float(i + 1), seed=i), dt=1.0)
        lan.net.engine.run_until(20.0)
        answers = dep.session().node_info(lan.hosts)
        assert len(answers) == 4
        loads = [a.load for a in answers]
        assert all(l is not None for l in loads)


class TestCampus:
    def test_builder_shape(self):
        c = build_campus(3, 4)
        assert len(c.subnets) == 3
        assert len(c.routers) == 3
        assert all(len(s.hosts) == 4 for s in c.subnets)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_campus(0)

    def test_cross_subnet_discovery_has_switch_detail(self):
        c = build_campus(2, 3)
        dep = deploy_campus(c)
        g = dep.session().topology([c.host(0, 0), c.host(1, 2)], detail="raw").graph
        path = g.path(str(c.host(0, 0).ip), str(c.host(1, 2).ip))
        # host - csw0 - r0 - bb - r1 - csw1 - host: switch detail at
        # both ends, routed backbone in the middle
        assert "csw0" in path and "csw1" in path
        assert "bb" in path

    def test_one_collector_covers_whole_domain(self):
        c = build_campus(3, 2)
        dep = deploy_campus(c)
        assert len(dep.snmp_collectors) == 1
        coll = dep.snmp_collectors["campus"]
        for s in c.subnets:
            assert coll.covers(s.hosts[0].ip)
        # three bridge collectors feed it
        assert len(coll.bridges) == 3

    def test_intra_and_inter_subnet_flows(self):
        c = build_campus(2, 3)
        dep = deploy_campus(c)
        intra = dep.session().flow_info(c.host(0, 0), c.host(0, 1))
        inter = dep.session().flow_info(c.host(0, 0), c.host(1, 0))
        assert intra.available_bps == pytest.approx(100 * MBPS, rel=0.02)
        assert inter.available_bps == pytest.approx(100 * MBPS, rel=0.02)

    def test_backbone_contention_visible(self):
        c = build_campus(2, 3)
        dep = deploy_campus(c)
        # saturate a host pair crossing the backbone, then ask
        c.net.flows.start_flow(c.host(0, 1), c.host(1, 1), demand_bps=60 * MBPS)
        c.net.engine.run_until(10.0)
        ans = dep.session().flow_info(c.host(0, 1), c.host(1, 2))
        # shared 100 Mbps host link of the source limits to 40
        assert ans.available_bps == pytest.approx(40 * MBPS, rel=0.05)
