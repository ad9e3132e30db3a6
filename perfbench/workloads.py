"""The three Remos benchmark workloads: worlds, request streams, checks.

Each workload builds a deployed Remos world (netsim + SNMP agents +
collectors + Master + Modeler + ``RemosService``), generates a seeded
request stream, and knows the ground truth its answers are checked
against.  The harness (``harness.py``) drives the stream over HTTP;
nothing here touches a socket.

See ``WORKLOADS.md`` for why each workload exists and which layers it
loads.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import faults
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.common.units import MBPS
from repro.deploy import RemosDeployment, deploy_lan, deploy_wan
from repro.netsim.agents import attach_trace
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.netsim.paths import compute_path, path_capacity
from repro.rps.hostload import host_load_trace
from repro.rps.service import RpsPredictionService
from repro.service import RemosService, ServiceConfig

#: the shipped ServiceConfig with one change: the per-tenant rate limit
#: is lifted far above any offered load, so a 429 never stands in for
#: the latency being measured.  Everything else is as shipped.
RATE_UNLIMITED = 1e9


def service_config() -> ServiceConfig:
    return ServiceConfig(rate=RATE_UNLIMITED, burst=RATE_UNLIMITED)


@dataclass
class Request:
    """One generated request, plus the harness action that precedes it."""

    endpoint: str
    body: dict[str, Any]
    #: (action name, argument) run on the sim world before sending, or None
    before: tuple[str, Any] | None = None


@dataclass
class World:
    """One deployed, warmed world and the ground truth to check against."""

    dep: RemosDeployment
    service: RemosService
    #: wall seconds per setup stage (build, deploy, warm-up)
    stages: dict[str, float]
    #: host ip -> host name (netsim), for ground-truth path lookups
    host_names: dict[str, str]
    #: site name -> host ips
    site_hosts: dict[str, list[str]]
    #: harness actions by name: callable(argument)
    actions: dict[str, Callable[[Any], None]] = field(default_factory=dict)
    #: hosts running an RPS load sensor (node_info targets)
    sensor_hosts: list[str] = field(default_factory=list)
    #: wall seconds spent inside the netsim flow API by background churn
    flow_api_s: float = 0.0
    _capacity: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def net(self):
        return self.dep.net

    def bottleneck_capacity(self, src_ip: str, dst_ip: str) -> float:
        """Raw bottleneck capacity of the simulator's own src->dst path."""
        key = (src_ip, dst_ip)
        cap = self._capacity.get(key)
        if cap is None:
            net = self.dep.net
            path = compute_path(net, self.host_names[src_ip], self.host_names[dst_ip])
            cap = self._capacity[key] = path_capacity(path)
        return cap

    def apply(self, before: tuple[str, Any] | None) -> None:
        if before is not None:
            name, arg = before
            self.actions[name](arg)


def _sub_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


def _timed(stages: dict[str, float], name: str, fn: Callable[[], Any]) -> Any:
    t0 = time.perf_counter()
    out = fn()
    stages[name] = time.perf_counter() - t0
    return out


def _host_maps(hosts) -> dict[str, str]:
    return {str(h.ip): h.name for h in hosts}


# -- lan-topology ------------------------------------------------------


class LanTopology:
    """Fig. 3: topology queries on one switched LAN, warm and part-warm."""

    name = "lan-topology"
    connections = 1
    #: sim seconds the harness advances between requests
    think_s = 0.5
    #: sim-clock metrics and the answer digest cover this request prefix
    prefix = 200
    n_hosts = 256
    #: requests per stratified block; one request per block, at a
    #: seeded position, follows a flush: part-warm
    #: (flush_caches(keep_fraction=0.5)) and warm-bridge
    #: (flush_dynamics()) blocks alternate.  Frequent flushes keep the
    #: share of queries that re-bootstrap link monitors (1 sim-s each)
    #: steady from seed to seed; rare ones make it swing.
    block = 10

    def build(self, seed: int) -> World:
        stages: dict[str, float] = {}
        lan = _timed(stages, "build", lambda: build_switched_lan(self.n_hosts))
        dep = _timed(stages, "deploy", lambda: deploy_lan(lan))

        def warm() -> None:
            dep.start_monitoring()
            lan.net.engine.run_until(lan.net.now + 30.0)

        _timed(stages, "warmup", warm)
        hosts = [str(h.ip) for h in lan.hosts]
        coll = dep.snmp_collectors["lan"]
        world = World(
            dep,
            RemosService.from_deployment(dep, service_config()),
            stages,
            _host_maps(lan.hosts),
            {"lan": hosts},
        )
        world.actions = {
            "flush_caches": lambda keep: coll.flush_caches(keep_fraction=keep),
            "flush_dynamics": lambda _arg: coll.flush_dynamics(),
        }
        return world

    def warming(self, world: World) -> list[Request]:
        return [Request("topology", {"hosts": world.site_hosts["lan"]})]

    def stream(self, world: World, seed: int):
        rng = _sub_rng(seed, 1)
        hosts = world.site_hosts["lan"]
        n = len(hosts)
        lo, hi = math.log(2), math.log(n)
        for index in itertools.count():
            # stratified: each block spans the log-size range evenly, in
            # seeded order, and holds one flush at a seeded position, so
            # seeds differ in which hosts and where, not in how much work
            strata = (rng.permutation(self.block) + rng.random(self.block)) / self.block
            flush_at = int(rng.integers(self.block))
            flush = ("flush_caches", 0.5) if index % 2 == 0 else ("flush_dynamics", None)
            for k in range(self.block):
                size = int(round(math.exp(lo + (hi - lo) * strata[k])))
                pick = np.sort(rng.choice(n, size=size, replace=False))
                yield Request(
                    "topology",
                    {"hosts": [hosts[i] for i in pick]},
                    flush if k == flush_at else None,
                )


# -- shared WAN world ---------------------------------------------------


N_SITES = 16
HOSTS_PER_SITE = 4
#: sim seconds of monitoring and probing before serving: enough to fill
#: every link monitor's 720-sample history at the 5 s polling interval,
#: so per-query history cost does not drift during the measured phase
WAN_WARMUP_S = 3700.0


def _wan_specs() -> list[SiteSpec]:
    return [
        SiteSpec(f"s{i:02d}", access_bps=(10 + 5 * i) * MBPS, n_hosts=HOSTS_PER_SITE)
        for i in range(N_SITES)
    ]


def _build_wan(stages, bench_config: BenchmarkConfig, sharding=None):
    w = _timed(stages, "build", lambda: build_multisite_wan(_wan_specs()))
    dep = _timed(
        stages,
        "deploy",
        lambda: deploy_wan(w, bench_config=bench_config, sharding=sharding),
    )
    site_hosts = {
        name: [str(h.ip) for h in site.hosts] for name, site in sorted(w.sites.items())
    }
    hosts = [h for site in w.sites.values() for h in site.hosts]
    return w, dep, site_hosts, _host_maps(hosts)


def _prime(dep: RemosDeployment, site_hosts: dict[str, list[str]]) -> None:
    """One in-process query over every host, so every link is monitored
    (and its history filling) from the start of warm-up."""
    dep.session().topology([ip for ips in site_hosts.values() for ip in ips])


def _zipf_ranks(rng: np.random.Generator, n: int, s: float, size: int) -> np.ndarray:
    """``size`` draws of ranks 0..n-1 with P(rank k) ~ 1/(k+1)^s."""
    weights = 1.0 / np.arange(1, n + 1) ** s
    return rng.choice(n, size=size, p=weights / weights.sum())


# -- wan-flow ----------------------------------------------------------


class WanFlow:
    """§5.3 read path: the repository's applications' queries on a warm
    16-site WAN."""

    name = "wan-flow"
    connections = 2
    think_s = 0.05
    #: sim metrics are taken over all requests (two connections make the
    #: order, and so the sim clock, vary from run to run)
    prefix = 0
    #: request kinds in the proportions the repository's applications
    #: issue them: one run each of the mirror, video and node-selection
    #: examples makes 39 flow_info, 1 flow_info_many, 1 node_info and 1
    #: summary topology call (``perfbench/derive_mix.py`` counts them).
    #: The stream is made of blocks with exactly these counts, in seeded
    #: order, so seeds differ in order and targets, not in the mix
    mix = {"flow_info": 39, "flow_info_many": 1, "node_info": 1, "topology": 1}
    #: flow_info requests per block that ask for an RPS forecast (5.1%).
    #: No application issues predict=True; this share is an assumption,
    #: kept small so the rps layer is exercised without weighing on the mix
    predictive_per_block = 2
    #: pair popularity: Zipf over a seeded ranking of cross-site pairs.
    #: An assumption, not a measurement: the exponent makes a small hot
    #: set (top 50 pairs ~60% of draws) and a long tail
    zipf_s = 1.1
    #: the node selector's candidates: every host of this many sites,
    #: each with an RPS load sensor, as in the node-selection example
    #: (4 hosts in each of 3 sites); its summary topology covers 10 of
    #: them and its verifying flow_info_many the 6 pairs of 4 chosen
    scheduler_sites = 3
    summary_hosts = 10
    chosen_nodes = 4
    #: mean sim seconds between background flow arrivals, and lifetime
    flow_gap_s = 4.0
    flow_life_s = 40.0
    #: background flows start this many sim seconds before warm-up ends
    #: (long enough for arrivals and departures to balance)
    flow_warmup_s = 400.0

    def build(self, seed: int) -> World:
        stages: dict[str, float] = {}
        # small probes; by the end of warm-up every site pair has the 8+
        # measurements a predictive query needs for an RPS forecast, and
        # measurements stay fresh between rounds, so queries never probe
        w, dep, site_hosts, host_names = _build_wan(
            stages, BenchmarkConfig(period_s=300.0, probe_bytes=250_000.0, max_age_s=600.0)
        )
        world = World(
            dep,
            RemosService.from_deployment(dep, service_config()),
            stages,
            host_names,
            site_hosts,
        )

        def warm() -> None:
            dep.modeler.prediction_service = RpsPredictionService("AR(16)")
            trace_rng = _sub_rng(seed, 2)
            for name in sorted(w.sites)[: self.scheduler_sites]:
                for host in w.sites[name].hosts:
                    trace = host_load_trace(2000, seed=int(trace_rng.integers(1 << 30)))
                    attach_trace(host, trace, dt=1.0)
                    dep.attach_host_sensor(host, "AR(16)")
                    world.sensor_hosts.append(str(host.ip))
            _prime(dep, site_hosts)
            dep.start_monitoring()
            dep.start_benchmarks()
            w.net.engine.run_until(w.net.now + WAN_WARMUP_S - self.flow_warmup_s)
            self._start_background(world, seed)
            w.net.engine.run_until(w.net.now + self.flow_warmup_s)

        _timed(stages, "warmup", warm)
        return world

    def _start_background(self, world: World, seed: int) -> None:
        """Seeded Poisson arrivals of CBR flows between random hosts.

        They run as engine callbacks, so flows start and stop inside the
        harness's between-request ``run_until``; the wall time spent in
        the flow API is summed into ``world.flow_api_s``.
        """
        net = world.net
        rng = _sub_rng(seed, 3)
        names = sorted(world.host_names.values())

        def call(fn):
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                world.flow_api_s += time.perf_counter() - t0

        def arrive() -> None:
            a, b = rng.choice(len(names), size=2, replace=False)
            rate = float(rng.uniform(1.0, 20.0)) * MBPS
            flow = call(lambda: net.flows.start_flow(names[a], names[b], demand_bps=rate))
            life = float(rng.exponential(self.flow_life_s))
            net.engine.after(life, lambda: call(lambda: net.flows.stop_flow(flow)))
            net.engine.after(float(rng.exponential(self.flow_gap_s)), arrive)

        net.engine.after(float(rng.exponential(self.flow_gap_s)), arrive)

    def warming(self, world: World) -> list[Request]:
        sites = sorted(world.site_hosts)
        return [
            Request(
                "flow_info_many",
                {
                    "pairs": [
                        [world.site_hosts[a][0], world.site_hosts[b][1]]
                        for a, b in zip(sites, sites[1:] + sites[:1])
                    ]
                },
            )
        ]

    def stream(self, world: World, seed: int):
        rng = _sub_rng(seed, 1)
        hosts = [(site, ip) for site in sorted(world.site_hosts) for ip in world.site_hosts[site]]
        universe = [
            [a_ip, b_ip]
            for a_site, a_ip in hosts
            for b_site, b_ip in hosts
            if a_site != b_site
        ]
        order = rng.permutation(len(universe))
        pairs = [universe[k] for k in order]
        candidates = world.sensor_hosts
        block = [kind for kind, count in self.mix.items() for _ in range(count)]
        flows = self.mix["flow_info"]
        while True:
            ranks = _zipf_ranks(rng, len(pairs), self.zipf_s, flows)
            predictive = rng.permutation(flows) < self.predictive_per_block
            f = 0
            for k in rng.permutation(len(block)):
                kind = block[k]
                if kind == "flow_info":
                    pair = pairs[int(ranks[f])]
                    body = {"src": pair[0], "dst": pair[1]}
                    if predictive[f]:
                        body["predict"] = True
                    f += 1
                    yield Request("flow_info", body)
                elif kind == "node_info":
                    yield Request("node_info", {"hosts": list(candidates)})
                else:
                    pick = np.sort(rng.choice(len(candidates), size=self.summary_hosts,
                                              replace=False))
                    eligible = [candidates[j] for j in pick]
                    if kind == "topology":
                        yield Request("topology", {"hosts": eligible, "detail": "summary"})
                    else:
                        chosen = [eligible[j] for j in np.sort(
                            rng.choice(len(eligible), size=self.chosen_nodes, replace=False))]
                        yield Request("flow_info_many",
                                      {"pairs": [list(p) for p in itertools.combinations(chosen, 2)]})


# -- wan-churn ---------------------------------------------------------


class WanChurn:
    """Writes and survival: invalidations and faults on a sharded Master."""

    name = "wan-churn"
    connections = 1
    think_s = 1.0
    prefix = 1000
    #: every k-th request is POST /v1/invalidate
    invalidate_every = 8
    #: one shard-primary crash per this many requests, before a seeded
    #: one of them
    crash_every = 200
    #: sim seconds a crashed shard primary stays down
    crash_down_s = 10.0
    n_shards = 4
    #: standby masters per shard: a crashed primary is promoted past, so
    #: answers stay fresh.  A crashed site collector, or a shard with
    #: every replica down, leaves each flow pair FAILED whose exact host
    #: set has no last-known-good fragment, and the workload must not
    #: fail operations
    replicas = 1

    def build(self, seed: int) -> World:
        stages: dict[str, float] = {}
        w, dep, site_hosts, host_names = _build_wan(
            stages,
            # probes keep every pair's measurement fresh, so the stitch
            # probes inline only after failed periodic probes
            BenchmarkConfig(period_s=100.0, probe_bytes=250_000.0, max_age_s=300.0),
            sharding=ShardingConfig(n_shards=self.n_shards, replicas=self.replicas),
        )

        def warm() -> None:
            # SNMP drops and probe failures act on the sim clock only;
            # service_delay is left at zero because it sleeps in wall time
            faults.install(
                dep,
                faults.FaultPlan(
                    seed=int(_sub_rng(seed, 4).integers(1 << 31)),
                    snmp_drop_prob=0.01,
                    probe_fail_prob=0.02,
                    # a failed probe blocks its collector's whole probe
                    # round; at the 5 s default, failures alone would
                    # push the sim clock past most polling ticks
                    probe_timeout_s=1.0,
                ),
            )
            _prime(dep, site_hosts)
            dep.start_monitoring()
            dep.start_benchmarks()
            w.net.engine.run_until(w.net.now + WAN_WARMUP_S)

        _timed(stages, "warmup", warm)
        world = World(
            dep,
            RemosService.from_deployment(dep, service_config()),
            stages,
            host_names,
            site_hosts,
        )
        world.actions = {
            "crash_primary": lambda idx: faults.crash_shard(
                dep.master, idx, self.crash_down_s, include_replicas=False
            ),
        }
        return world

    def warming(self, world: World) -> list[Request]:
        return [
            Request(
                "topology",
                {"hosts": [ips[0] for _, ips in sorted(world.site_hosts.items())]},
            )
        ]

    def stream(self, world: World, seed: int):
        rng = _sub_rng(seed, 1)
        sites = sorted(world.site_hosts)
        # every (site count, kind) combination once per round, in
        # seeded order, so seeds differ in which sites, not how many
        combos = [(m, kind) for m in range(4, len(sites) + 1)
                  for kind in ("topology", "flow_info_many")]
        pending: list[tuple[int, str]] = []
        i = 0
        while True:
            offset = i % self.crash_every
            if offset == 0:
                crash_at = int(rng.integers(self.crash_every))
            before = None
            if offset == crash_at:
                before = ("crash_primary", int(rng.integers(self.n_shards)))
            i += 1
            if i % self.invalidate_every == 0:
                site = sites[int(rng.integers(len(sites)))]
                yield Request("invalidate", {"sites": [site]}, before)
                continue
            if not pending:
                pending = [combos[k] for k in rng.permutation(len(combos))]
            m, kind = pending.pop()
            chosen = [sites[j] for j in np.sort(rng.choice(len(sites), size=m, replace=False))]
            if kind == "topology":
                hosts = []
                for site in chosen:
                    k = int(rng.integers(1, HOSTS_PER_SITE + 1))
                    pick = np.sort(rng.choice(HOSTS_PER_SITE, size=k, replace=False))
                    hosts.extend(world.site_hosts[site][j] for j in pick)
                yield Request("topology", {"hosts": hosts}, before)
            else:
                pairs = []
                for _ in range(int(rng.integers(max(2, m // 2), m + 1))):
                    a, b = rng.choice(len(chosen), size=2, replace=False)
                    pairs.append(
                        [
                            world.site_hosts[chosen[a]][int(rng.integers(HOSTS_PER_SITE))],
                            world.site_hosts[chosen[b]][int(rng.integers(HOSTS_PER_SITE))],
                        ]
                    )
                yield Request("flow_info_many", {"pairs": pairs}, before)


WORKLOADS = {w.name: w for w in (LanTopology(), WanFlow(), WanChurn())}
