"""Master Collector: query partitioning, delegation, and merging.

The Modeler submits one query; the Master identifies which networks —
and therefore which collectors — are involved, splits the query,
gathers the fragments, and returns a single merged topology "without
revealing that the response was obtained from multiple collectors"
(paper §2.1, §3.1.4).

* Every queried address is mapped to a registration in the
  :class:`~repro.collectors.directory.CollectorDirectory` (the SLP-like
  database).
* A site's fragment is requested from its topology collector with the
  site's border router as *anchor*, so the fragment reaches the site
  edge.
* Cross-site connectivity comes from Benchmark Collector measurements:
  each involved site pair contributes one logical edge between the two
  border routers whose capacity is the measured end-to-end throughput.
* Masters are themselves collectors, so they stack: a remote "Master"
  registered here answers for its whole site mesh (the paper's
  master-of-masters arrangement).
* A delegation target is a replica chain (:class:`Target`): a site is a
  chain of one collector, a shard its primary Master plus replicas.
  :meth:`MasterCollector._delegate` runs deadlines, retries, fall-through,
  quarantine and the last-known-good (LKG) store for both tiers.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple, TypeVar

from repro import obs
from repro.common.errors import (
    CollectorTimeoutError,
    QueryError,
    RemosError,
    UnknownHostError,
)
from repro.common.status import QueryStatus, SiteStatus, combine
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network
from repro.collectors.base import (
    Collector,
    HistoryRequest,
    HistoryResponse,
    PairMeasurement,
    RpcCostModel,
    TopologyRequest,
    TopologyResponse,
)
from repro.collectors.directory import CollectorDirectory, Registration
from repro.modeler.graph import TopoEdge, TopologyGraph

log = obs.get_logger(__name__)

#: (values, variances) series pair from a streaming predictor
ForecastSeries = tuple[Any, Any]
_T = TypeVar("_T")


@dataclass(frozen=True)
class Tier:
    """The names and wording of one tier of the Master plane.

    Partition, delegation, survival and merge are one code path for the
    flat and the sharded Master; everything that differs between the
    two tiers is a field here.
    """

    #: obs namespace of the tier's spans and metrics
    ns: str
    #: what a target is ("site", "shard"): the delegate-span label and
    #: the ``<ns>.<label>_failures`` counter of chains that failed
    label: str
    #: SiteStatus details: skipped while quarantined; deadline overrun
    #: (a ``{name}`` / ``{deadline}`` template); prefix for an error
    #: that is not a RemosError
    quarantined: str
    timeout: str
    error: str
    #: detail of a stale LKG serve; None keeps the failure's detail
    lkg_detail: str | None
    #: relay the chain's own per-site statuses (a shard of Masters)
    #: instead of one status for the target's site (a site collector)
    relay_status: bool


SITE_TIER = Tier(
    ns="collectors.master",
    label="site",
    quarantined="quarantined",
    timeout="fragment for site {name} exceeded {deadline}s deadline",
    error="collector error",
    lkg_detail=None,
    relay_status=False,
)


@dataclass(frozen=True)
class Target:
    """One delegation target: a replica chain answering for some sites."""

    #: quarantine and LKG key (unique among one master's targets)
    key: int
    #: the site, or the shard index, in span labels and details
    name: str
    tier: Tier
    #: tried in order each retry round; the first answer wins
    chain: tuple[Collector, ...]
    #: the sites this query asks of the target
    sites: tuple[str, ...]
    #: the sites the target serves; invalidating any lifts its quarantine
    scope: tuple[str, ...]
    request: TopologyRequest
    #: the RPC hop, charged before the call (a site collector) or on
    #: the reply path (a shard, so its masters measure at the instants
    #: the flat plane would)
    hop_before_s: float
    hop_after_s: float


class LkgEntry(NamedTuple):
    """A target's last-known-good fragment for one address set."""

    graph: TopologyGraph
    fetched_at: float
    anchors: dict[str, str]
    unresolved: tuple[str, ...]
    sites: tuple[str, ...]


#: the outcome of one delegation: fragment (None if lost) and statuses
Delegation = tuple[TopologyResponse | None, dict[str, SiteStatus]]


def _statuses(sites: Iterable[str], status: QueryStatus, **fields: Any) -> dict[str, SiteStatus]:
    return {site: SiteStatus(site, status, **fields) for site in sites}


class MasterCollector(Collector):
    """See module docstring."""

    TIER = SITE_TIER

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        #: site border anchors: site -> border router address
        borders: dict[str, IPv4Address] | None = None,
        rpc_cost: RpcCostModel | None = None,
    ) -> None:
        super().__init__(name, net)
        self.directory = directory
        self.borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
        self.rpc = rpc_cost or RpcCostModel()
        #: anchor node id -> site, learned from past stitched queries,
        #: so history requests can recognise logical WAN edges
        self._anchor_sites: dict[str, str] = {}
        #: target key -> (sim time until which it is skipped, its
        #: scope): delegation failed recently, re-probe after
        self._quarantine: dict[int, tuple[float, tuple[str, ...]]] = {}
        #: (target key, sorted requested addresses) -> last-known-good
        #: fragment, served STALE when the target stops answering
        self._lkg: dict[tuple[int, tuple[str, ...]], LkgEntry] = {}

    def covers(self, ip: IPv4Address) -> bool:
        try:
            self.directory.lookup(ip)
            return True
        except UnknownHostError:
            return False

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        """Answer a query (partition / delegate / merge, as a span)."""
        self.check_alive()
        with obs.span(f"{self.TIER.ns}.topology", collector=self.name):
            return self._topology(request)

    def iter_masters(self) -> Iterator[MasterCollector]:
        """This master plus any subordinate masters (sharded planes)."""
        yield self

    def invalidate_sites(self, sites: Iterable[str] | None = None) -> None:
        """Drop survival state (LKG fragments, quarantine marks) for the
        named sites — e.g. after a known topology change — or all state
        when ``sites`` is None, here and in every master below.  The
        next query re-probes live."""
        wanted = None if sites is None else set(sites)

        def doomed(sites: tuple[str, ...]) -> bool:
            return wanted is None or not wanted.isdisjoint(sites)

        for master in self.iter_masters():
            dropped = [k for k, entry in master._lkg.items() if doomed(entry.sites)]
            for key in dropped:
                del master._lkg[key]
            for key in [k for k, (_, scope) in master._quarantine.items() if doomed(scope)]:
                del master._quarantine[key]
            if dropped:
                obs.counter("collectors.master.lkg_invalidated").inc(len(dropped))

    def health(self) -> dict[str, object]:
        """Backend-health snapshot for the service plane (``/v1/health``).

        Reports how much of the directory is currently answering: sites
        registered, delegation targets under quarantine right now, and
        last-known-good fragments held for targets that stopped
        answering.  The sharded plane extends this with per-shard
        detail.
        """
        now = float(self.net.engine.now)
        return {
            "kind": "master",
            "name": self.name,
            "sites": len({reg.site for reg in self.directory.registrations()}),
            "quarantined": sum(1 for until, _ in self._quarantine.values() if until > now),
            "lkg_fragments": len(self._lkg),
        }

    # -- what a tier decides --------------------------------------------

    def _target_key(self, reg: Registration) -> int:
        """The delegation target answering for ``reg``'s addresses."""
        return id(reg)

    def _targets(
        self,
        groups: dict[int, list[str]],
        regs: dict[int, dict[str, Registration]],
        multi_site: bool,
        request: TopologyRequest,
    ) -> list[Target]:
        """Targets for the partitioned query, in delegation order.

        Flat: one chain of one collector per registration, in site
        order, asked for its fragment anchored at the site border when
        the query spans sites.
        """
        targets: list[Target] = []
        for key, ips in groups.items():
            (reg,) = regs[key].values()
            border = self.borders.get(reg.site) if multi_site else None
            targets.append(
                Target(
                    key, reg.site, SITE_TIER, (reg.collector,), (reg.site,), (reg.site,),
                    TopologyRequest(
                        tuple(ips),
                        include_dynamics=request.include_dynamics,
                        anchor_ip=None if border is None else str(border),
                    ),
                    hop_before_s=self._hop_s(reg),
                    hop_after_s=0.0,
                )
            )
        return sorted(targets, key=lambda t: t.name)

    def _fanout_width(self) -> int:
        """Concurrent delegations in flight (0 = unbounded)."""
        return self.rpc.max_parallel

    # -- partition / delegate / merge / stitch -------------------------

    def _topology(self, request: TopologyRequest) -> TopologyResponse:
        self.queries_served += 1
        tier = self.TIER
        # 1. Partition addresses by delegation target.
        groups: dict[int, list[str]] = defaultdict(list)
        regs: dict[int, dict[str, Registration]] = defaultdict(dict)
        unresolved: list[str] = []
        for ip_s in request.node_ips:
            try:
                reg = self.directory.lookup(ip_s)
            except UnknownHostError:
                unresolved.append(ip_s)
                continue
            key = self._target_key(reg)
            groups[key].append(ip_s)
            regs[key].setdefault(reg.site, reg)
        site_key = {site: key for key, by_site in regs.items() for site in by_site}

        obs.histogram(f"{tier.ns}.fanout").observe(len(groups))
        if unresolved:
            obs.counter("collectors.master.unresolved_ips").inc(len(unresolved))
        log.debug(
            "%s: partitioned %d addresses into %d targets (%d sites, %d unresolved)",
            self.name, len(request.node_ips), len(groups), len(site_key), len(unresolved),
        )
        multi_site = len(groups) > 1 or len(site_key) > 1 or request.anchor_sites
        targets = self._targets(groups, regs, multi_site, request)

        # 2. Delegate to every target.  Fragments go out concurrently:
        # the master pays a small serial dispatch cost per fragment,
        # then the makespan of the sub-queries rather than their sum.
        # Each delegation survives its target (see _delegate) and
        # yields None instead of an escaped exception (partial-merge
        # semantics).
        #
        # NB: the per-fragment dispatch cost is charged *after* the
        # fan-out (on the reply path), not before.  Charging it first
        # would shift every sub-collector's measurement instant by
        # ``dispatch_s * len(targets)`` — a query-width-dependent skew
        # that makes counter windows (and thus utilization floats)
        # differ between delegation topologies serving the same query.
        # Totals are identical either way; measurement times are not.
        results: list[Delegation] = []
        with self.net.engine.overlap(self._fanout_width()) as ov:
            for target in targets:
                with ov.task():
                    # one span per delegation, labelled with its target
                    # so trace attribution can answer "which site
                    # consumed the budget"; parentage survives the
                    # overlap rewind because it is captured by span id,
                    # not reconstructed from timestamps
                    with obs.span(f"{tier.ns}.delegate", **{tier.label: target.name}):
                        results.append(self._delegate(target))
        self.net.engine.advance(self.rpc.dispatch_s * len(targets))
        obs.histogram(f"{tier.ns}.overlap_saved_s").observe(ov.saved_s)

        # 3. Merge the fragments (anchored, still unstitched).
        merged = TopologyGraph()
        anchors: dict[str, str] = {}
        site_status: dict[str, SiteStatus] = {}
        pdu_cost = 0
        merge_wall_s = 0.0
        data_age_s = 0.0
        for target, (sub, statuses) in zip(targets, results):
            site_status.update(statuses)
            if sub is None:
                # delegation failed outright: the target's addresses
                # drop out of the answer, the rest of the query proceeds
                unresolved.extend(target.request.node_ips)
                continue
            t0 = obs.wall_now()
            merged.merge(sub.graph)
            merge_wall_s += obs.wall_now() - t0
            unresolved.extend(sub.unresolved)
            pdu_cost += sub.pdu_cost
            anchors.update(sub.anchors)
            data_age_s = max(data_age_s, sub.data_age_s)

        # 4. Stitch sites together with benchmark measurements (unless
        # a delegating master above claimed the stitching for itself).
        if multi_site:
            site_anchor_node: dict[str, str] = {}
            for site in sorted(site_key):
                border = self.borders.get(site)
                node = anchors.get(str(border)) if border is not None else None
                if node is not None:
                    site_anchor_node[site] = node
                    self._anchor_sites[node] = site
            if request.stitch:
                self._stitch(merged, site_anchor_node, site_key)

        obs.histogram("collectors.master.merge_wall_s").observe(merge_wall_s)
        obs.histogram("collectors.master.query_pdus").observe(pdu_cost)
        unresolved_t = tuple(dict.fromkeys(unresolved))
        status = combine(s.status for s in site_status.values())
        missed = set(unresolved_t) & set(request.node_ips)
        if missed:
            if len(missed) == len(request.node_ips):
                status = QueryStatus.FAILED
            else:
                status = combine([status, QueryStatus.PARTIAL])
        return TopologyResponse(
            graph=merged,
            unresolved=unresolved_t,
            pdu_cost=pdu_cost,
            anchors=anchors,
            status=status,
            site_status=site_status,
            data_age_s=data_age_s,
        )

    def _stitch(
        self, graph: TopologyGraph, site_anchor_node: dict[str, str], site_key: dict[str, int]
    ) -> None:
        """One measured WAN edge per site pair: serially, in sorted site
        order, on a monotonic clock (benchmark probes inject traffic).
        Pairs whose sites came from different targets are counted."""
        sites = sorted(site_anchor_node)
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        cross = sum(1 for a, b in pairs if site_key[a] != site_key[b])
        if cross:
            obs.counter(f"{self.TIER.ns}.cross_edges").inc(cross)
        with obs.span(f"{self.TIER.ns}.stitch", collector=self.name):
            for a, b in pairs:
                self._add_wan_edge(graph, a, site_anchor_node[a], b, site_anchor_node[b])

    # -- delegation survival -------------------------------------------

    def _survival_on(self) -> bool:
        """Is any survival machinery armed?  When not (the default),
        delegation must behave — and cost — exactly as it always has."""
        return (
            self.rpc.fragment_timeout_s > 0
            or self.rpc.fragment_retries > 0
            or self.rpc.quarantine_s > 0
            or getattr(self.net, "faults", None) is not None
        )

    def _delegate(self, target: Target) -> Delegation:
        """One delegation through the target's replica chain.

        Deadline per attempt, bounded retry rounds with backoff, chain
        fall-through (a later member answering is a replica promotion),
        quarantine of a chain that failed throughout, and the target's
        last-known-good fragment as the last resort.  The response is
        None when nothing answered and no LKG fragment exists — the
        caller merges what it got instead of aborting the whole query.
        """
        engine = self.net.engine
        tier = target.tier
        survival = self._survival_on()
        until, _ = self._quarantine.get(target.key, (0.0, ()))
        if survival and engine.now < until:
            # known-dead target: fail fast without an RPC, re-probe
            # only once the quarantine lapses
            obs.counter("collectors.master.quarantine_skips").inc()
            return self._serve_lkg(target, tier.quarantined, 0)

        deadline = self.rpc.fragment_timeout_s
        rounds = 1 + (self.rpc.fragment_retries if survival else 0)
        last_err: Exception | None = None
        for rnd in range(rounds):
            if rnd > 0:
                obs.counter("collectors.master.fragment_retries").inc()
                engine.advance(self.rpc.fragment_backoff_s)
            for k, member in enumerate(target.chain):
                t0 = engine.now
                engine.advance(target.hop_before_s)
                try:
                    sub = member.topology(target.request)
                except Exception as exc:  # a member bug is contained too
                    engine.advance(target.hop_after_s)
                    last_err = exc
                    if not isinstance(exc, RemosError):
                        log.warning("%s: %s raised %r", self.name, member, exc)
                    elif deadline > 0:
                        # the master stopped waiting at the deadline
                        # even if the member burned longer before failing
                        engine.cap_since(t0, deadline)
                    continue
                engine.advance(target.hop_after_s)
                if deadline > 0 and engine.cap_since(t0, deadline):
                    # answer arrived after the master gave up: discard it
                    obs.counter("master.fragment_timeouts").inc()
                    last_err = CollectorTimeoutError(
                        tier.timeout.format(name=target.name, deadline=deadline)
                    )
                    continue
                if k > 0:
                    # a replica answered after the primary failed — the
                    # answer is *fresh* (the replica re-queried the site
                    # collectors), not a stale LKG serve
                    obs.counter("collectors.sharded.replica_promotions").inc()
                if survival:
                    self._lkg[(target.key, tuple(sorted(target.request.node_ips)))] = LkgEntry(
                        sub.graph.copy(),
                        engine.now,
                        dict(sub.anchors),
                        tuple(sub.unresolved),
                        target.sites,
                    )
                self._quarantine.pop(target.key, None)
                if tier.relay_status:
                    return sub, dict(sub.site_status)
                return sub, _statuses(
                    target.sites, sub.status,
                    data_age_s=sub.data_age_s, attempts=rnd * len(target.chain) + k + 1,
                )

        obs.counter(f"{tier.ns}.{tier.label}_failures").inc()
        attempts = rounds * len(target.chain)
        if survival and self.rpc.quarantine_s > 0:
            self._quarantine[target.key] = (
                engine.now + self.rpc.quarantine_s, target.scope
            )
        if isinstance(last_err, RemosError):
            detail = str(last_err)
        else:
            detail = f"{tier.error}: {last_err!r}"
        log.debug("%s: %s %s failed after %d attempts: %s",
                  self.name, tier.label, target.name, attempts, detail)
        return self._serve_lkg(target, detail, attempts)

    def _serve_lkg(self, target: Target, detail: str, attempts: int) -> Delegation:
        """Fall back to the target's last-known-good fragment, if any.

        The stored graph is copied on the way out so callers mutating
        the merged answer (own-flow crediting) cannot corrupt the
        cache; its sites become STALE with the fragment's true age.
        """
        entry = self._lkg.get((target.key, tuple(sorted(target.request.node_ips))))
        if entry is None:
            return None, _statuses(
                target.sites, QueryStatus.FAILED, detail=detail, attempts=attempts
            )
        obs.counter(f"{target.tier.ns}.lkg_served").inc()
        age = self.net.now - entry.fetched_at
        return (
            TopologyResponse(
                graph=entry.graph.copy(),
                unresolved=entry.unresolved,
                pdu_cost=0,
                anchors=dict(entry.anchors),
                status=QueryStatus.STALE,
                data_age_s=age,
            ),
            _statuses(
                entry.sites, QueryStatus.STALE, detail=target.tier.lkg_detail or detail,
                data_age_s=age, attempts=attempts,
            ),
        )

    def _measure_direction(self, src_site: str, dst_site: str) -> PairMeasurement | None:
        """Benchmark measurement src -> dst, if a collector provides it."""
        bench = self.directory.benchmark_for(src_site)
        if bench is None or dst_site not in bench.peers:
            return None
        self.net.engine.advance(self.rpc.local_s)
        try:
            return bench.measurement(dst_site)
        except QueryError:
            return None

    def _add_wan_edge(
        self,
        graph: TopologyGraph,
        a_site: str,
        a_node: str,
        b_site: str,
        b_node: str,
    ) -> None:
        """One logical edge carrying the measured site-to-site bandwidth.

        Bandwidth is direction-specific (access links are loaded
        asymmetrically), so both directions are measured and encoded as
        directional utilization on the logical edge: the residual seen
        from each end equals that direction's measured throughput.
        """
        if not graph.has_node(a_node) or not graph.has_node(b_node):
            # Either anchor failed to materialise in the merged graph,
            # so no edge could be attached: skip the measurements (and
            # their RPC cost) outright instead of probing first.
            log.debug("anchor missing for %s--%s, skipping probe", a_site, b_site)
            return
        m_ab = self._measure_direction(a_site, b_site)
        m_ba = self._measure_direction(b_site, a_site)
        if m_ab is None and m_ba is None:
            log.debug("no benchmark data between %s and %s", a_site, b_site)
            return  # no measurement available: sites stay unstitched
        obs.counter("collectors.master.wan_edges").inc()
        ab = m_ab.throughput_bps if m_ab else m_ba.throughput_bps
        ba = m_ba.throughput_bps if m_ba else m_ab.throughput_bps
        rtts = [m.rtt_s for m in (m_ab, m_ba) if m is not None and m.rtt_s > 0]
        latency = max(rtts) / 2.0 if rtts else 0.05
        cap = max(ab, ba)
        graph.add_edge(
            TopoEdge(
                a_node,
                b_node,
                capacity_bps=cap,
                util_ab_bps=cap - ab,
                util_ba_bps=cap - ba,
                latency_s=latency,
            )
        )

    def history(self, request: HistoryRequest) -> HistoryResponse | None:
        """Measurement history for an edge: delegate to whichever
        collector monitors it, or serve benchmark history for logical
        WAN edges between site anchors."""
        with obs.span("collectors.master.history", collector=self.name):
            return self._history(request)

    def _history(self, request: HistoryRequest) -> HistoryResponse | None:
        # logical WAN edge between two known site anchors?
        a_site = self._anchor_sites.get(request.edge_a)
        b_site = self._anchor_sites.get(request.edge_b)
        if a_site and b_site and a_site != b_site:
            bench = self.directory.benchmark_for(a_site)
            if bench is not None and b_site in bench.peers:
                self.net.engine.advance(self.rpc.local_s)
                hist = bench.history.get(b_site)
                if hist:
                    n = min(request.max_samples, len(hist))
                    recent = list(hist)[-n:]
                    return HistoryResponse(
                        "available",
                        tuple(m.measured_at for m in recent),
                        tuple(m.throughput_bps for m in recent),
                    )
            return None
        return self._first_answer(
            (reg, partial(reg.collector.history, request))
            for reg in self.directory.registrations()
        )

    @staticmethod
    def _forecasting(reg: Registration) -> bool:
        """Can ``reg``'s collector serve a streaming forecast right now?
        Costs no simulated time — known from registration state."""
        if getattr(reg.collector, "forecast_edge", None) is None:
            return False
        probe = getattr(reg.collector, "supports_forecast", None)
        return probe is None or bool(probe())

    def supports_forecast(self) -> bool:
        """Cheap capability probe: can any downstream collector serve a
        streaming forecast right now?"""
        return any(self._forecasting(reg) for reg in self.directory.registrations())

    def forecast_edge(
        self, request: HistoryRequest, horizon: int
    ) -> ForecastSeries | None:
        """Streaming forecast from whichever collector predicts the
        edge (the §2.3 shared-prediction path); None when no streaming
        predictor covers it.  A registration without one is not asked,
        so it costs no RPC."""
        out: ForecastSeries | None = self._first_answer(
            (reg, partial(getattr(reg.collector, "forecast_edge"), request, horizon))
            for reg in self.directory.registrations()
            if self._forecasting(reg)
        )
        return out

    def _first_answer(
        self, calls: Iterable[tuple[Registration, Callable[[], _T | None]]]
    ) -> _T | None:
        """The first non-None answer of ``calls``, asked in turn.  The
        calls are independent, so the overlapped cost of the collectors
        asked is charged, not their sum."""
        found: _T | None = None
        with self.net.engine.overlap(self.rpc.max_parallel) as ov:
            for reg, call in calls:
                with ov.task():
                    self.net.engine.advance(self._hop_s(reg))
                    try:
                        found = call()
                    except RemosError:
                        found = None  # collector down: ask the others
                if found is not None:
                    break
        return found

    def _hop_s(self, reg: Registration) -> float:
        """One RPC to ``reg``'s collector: a WAN or a local round trip."""
        return self.rpc.remote_s if reg.remote else self.rpc.local_s
