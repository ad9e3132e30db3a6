"""Property test: Remos answers match fluid reality on random WANs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MBPS
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan


@st.composite
def _wan_spec(draw):
    n_sites = draw(st.integers(2, 5))
    caps = [
        draw(st.floats(0.2, 50.0)) * MBPS  # access capacities, Mbps
        for _ in range(n_sites)
    ]
    src = draw(st.integers(0, n_sites - 1))
    dst = draw(st.integers(0, n_sites - 1).filter(lambda d: d != src))
    bg_demand = draw(st.floats(0.0, 10.0)) * MBPS
    return caps, src, dst, bg_demand


class TestRandomWan:
    @given(_wan_spec())
    @settings(max_examples=25, deadline=None)
    def test_flow_answer_matches_reality(self, spec):
        caps, src_i, dst_i, bg_demand = spec
        sites = [
            SiteSpec(f"s{i}", access_bps=cap, n_hosts=3)
            for i, cap in enumerate(caps)
        ]
        w = build_multisite_wan(sites)
        dep = deploy_wan(
            w,
            bench_config=BenchmarkConfig(probe_bytes=50_000, max_probe_s=10.0),
        )
        src, dst = f"s{src_i}", f"s{dst_i}"
        # background traffic in the opposite direction: must not affect
        # the measured forward bandwidth (full duplex links)
        if bg_demand > 0:
            w.net.flows.start_flow(
                w.host(dst, 1), w.host(src, 1), demand_bps=bg_demand
            )
            w.net.engine.run_until(w.net.now + 5.0)
        ans = dep.session().flow_info(w.host(src, 0), w.host(dst, 0))
        actual = w.net.flows.start_flow(w.host(src, 0), w.host(dst, 0))
        # prediction within 10% of ground truth, and never an
        # over-promise beyond measurement noise
        assert ans.available_bps == pytest.approx(actual.rate_bps, rel=0.1)
        assert ans.available_bps <= actual.rate_bps * 1.1
        # the answer is bottlenecked by the slower access link
        expected = min(caps[src_i], caps[dst_i])
        assert actual.rate_bps == pytest.approx(expected, rel=0.01)
