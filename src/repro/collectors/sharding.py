"""Sharded Master plane: a consistent-hash hierarchy of Masters.

The paper's Master is one aggregation point over per-site collectors
(§2.1); ``BENCH_master_scalability.json`` shows where that stops
scaling.  This module breaks the Master plane apart while keeping the
paper's *interface* intact — a :class:`ShardedMaster` is itself a
:class:`~repro.collectors.master.MasterCollector`, so the Modeler (and
any master-of-masters above it) cannot tell it is talking to a
hierarchy, exactly the "without revealing that the response was
obtained from multiple collectors" contract.

Structure:

* A deterministic :class:`ConsistentHashRing` assigns every site to one
  of ``n_shards`` shards (virtual nodes keep the split even and
  minimise movement when the shard count changes).
* Each shard gets its own sub-:class:`CollectorDirectory` (same
  collector and benchmark objects, re-registered) and one or more
  ``MasterCollector`` replicas over it.  Replicas are full masters:
  promotion after a primary crash keeps answers **fresh**, not stale,
  because the replica re-queries the still-alive site collectors.
* The ShardedMaster delegates each query's shard groups concurrently
  (``Engine.overlap`` makespan charging, same as flat fan-out), merges
  the shard fragments, and stitches the site pairs itself.  Shard
  masters see ``TopologyRequest.anchor_sites`` (anchor fragments even
  for single-site sub-queries) and ``stitch=False`` (return fragments
  unstitched): benchmark probes inject real traffic, so exactly one
  tier runs them, serially and on a monotonic clock, keeping probe
  byte-accounting — and therefore every later counter window —
  identical to the flat plane's.
* A shard is a replica chain delegated by the flat Master's routine:
  deadlines and retries, replica promotion, shard quarantine, and the
  shard's last-known-good fragment served STALE with its true age when
  every replica is down.
* ``depth > 1`` inserts master-of-masters tiers: shards are grouped
  under intermediate ``ShardedMaster`` s; fragments pass through the
  tiers unstitched and the root stitches once.

Answers are byte-identical to the flat Master on fault-free runs (the
differential suite in ``tests/collectors/test_sharding_equivalence.py``
enforces this); under faults they are equal or better, because the
shard tier adds failover paths the flat Master does not have.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network
from repro.collectors.base import RpcCostModel, TopologyRequest
from repro.collectors.directory import CollectorDirectory, Registration
from repro.collectors.master import MasterCollector, Target, Tier


def _hash64(key: str) -> int:
    """Deterministic 64-bit hash (stable across processes, unlike
    ``hash()``; no RNG involved)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Consistent hashing of site names onto shard indices.

    ``vnodes`` virtual points per shard keep the partition balanced;
    adding or removing one shard moves only ~1/n of the sites, the
    property that lets a grown directory rebalance without a full
    re-registration storm.
    """

    def __init__(self, shard_ids: Sequence[int], vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        points: list[tuple[int, int]] = []
        for sid in shard_ids:
            for v in range(vnodes):
                points.append((_hash64(f"shard-{sid}#{v}"), sid))
        points.sort()
        self._points = points
        self._keys = [p[0] for p in points]

    def assign(self, site: str) -> int:
        """The shard index owning ``site`` (clockwise successor)."""
        i = bisect_right(self._keys, _hash64(site)) % len(self._points)
        return self._points[i][1]


@dataclass(frozen=True)
class ShardingConfig:
    """Shape of the sharded Master plane."""

    n_shards: int = 4
    #: extra replica masters per shard beyond the primary
    replicas: int = 0
    #: virtual ring points per shard
    vnodes: int = 64
    #: hierarchy depth: 1 = shards under one root; >1 inserts
    #: master-of-masters tiers grouping ``group_fanout`` children each
    depth: int = 1
    group_fanout: int = 8
    #: overlap width for shard fan-out and cross-shard stitching
    #: (0 = unbounded — shards are independent servers)
    shard_parallel: int = 0


@dataclass(frozen=True)
class Shard:
    """One child of a ShardedMaster tier."""

    index: int
    sites: tuple[str, ...]
    #: replica chain, primary first; tried in order on failure
    masters: tuple[MasterCollector, ...]


SHARD_TIER = Tier(
    ns="collectors.sharded",
    label="shard",
    quarantined="shard quarantined",
    timeout="shard {name} fragment exceeded {deadline}s deadline",
    error="shard master error",
    lkg_detail="shard last-known-good",
    relay_status=True,
)


class ShardedMaster(MasterCollector):
    """A Master whose delegation targets are shards of Masters.

    Inherits everything from :class:`MasterCollector` — the topology
    path, survival, history and forecasts — and overrides only
    partitioning (site → shard index) and target construction: a shard
    is a replica chain, primary first, asked for anchored and
    unstitched fragments of its sites.
    """

    TIER = SHARD_TIER

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        borders: dict[str, IPv4Address] | None,
        rpc_cost: RpcCostModel | None,
        shards: Sequence[Shard],
        ring: ConsistentHashRing,
        shard_parallel: int = 0,
    ) -> None:
        super().__init__(name, net, directory, borders, rpc_cost)
        if not shards:
            raise ValueError("sharded master needs at least one shard")
        if [s.index for s in shards] != list(range(len(shards))):
            raise ValueError("shard indices must be 0..n-1 in order")
        self.shards = tuple(shards)
        self.ring = ring
        self.shard_parallel = shard_parallel
        self._site_shard: dict[str, int] = {
            site: shard.index for shard in shards for site in shard.sites
        }

    # -- plumbing ------------------------------------------------------

    def iter_masters(self) -> Iterator[MasterCollector]:
        yield self
        for shard in self.shards:
            for m in shard.masters:
                yield from m.iter_masters()

    def health(self) -> dict[str, object]:
        """Per-shard backend health (``/v1/health`` through the service)."""
        base = super().health()
        now = float(self.net.engine.now)
        base["kind"] = "sharded-master"
        base["shards"] = [
            {
                "index": shard.index,
                "sites": len(shard.sites),
                "masters": len(shard.masters),
                "down": sum(
                    1
                    for m in shard.masters
                    if m.crashed_until is not None and float(m.net.now) < m.crashed_until
                ),
                "quarantined_until": self._quarantine.get(shard.index, (0.0, ()))[0] > now,
            }
            for shard in self.shards
        ]
        return base

    # -- what a tier decides --------------------------------------------

    def _target_key(self, reg: Registration) -> int:
        """The shard owning ``reg``'s site (ring fallback for unknowns)."""
        idx = self._site_shard.get(reg.site)
        return self.ring.assign(reg.site) % len(self.shards) if idx is None else idx

    def _targets(
        self,
        groups: dict[int, list[str]],
        regs: dict[int, dict[str, Registration]],
        multi_site: bool,
        request: TopologyRequest,
    ) -> list[Target]:
        """One replica chain per shard, in shard order.  Shard masters
        see ``anchor_sites`` (anchor fragments even for single-site
        sub-queries) and ``stitch=False``: this tier stitches."""
        return [
            Target(
                idx, str(idx), SHARD_TIER, self.shards[idx].masters,
                tuple(sorted(regs[idx])), self.shards[idx].sites,
                TopologyRequest(
                    tuple(groups[idx]),
                    include_dynamics=request.include_dynamics,
                    anchor_sites=multi_site,
                    stitch=False,
                ),
                hop_before_s=0.0,
                hop_after_s=self.rpc.local_s,
            )
            for idx in sorted(groups)
        ]

    def _fanout_width(self) -> int:
        return self.shard_parallel


def build_sharded_master(
    name: str,
    net: Network,
    directory: CollectorDirectory,
    borders: dict[str, IPv4Address] | None = None,
    rpc_cost: RpcCostModel | None = None,
    config: ShardingConfig | None = None,
) -> ShardedMaster:
    """Construct a sharded Master plane over an existing directory.

    Every site currently registered is hashed onto a shard; each shard
    gets a sub-directory re-registering the same collector and
    benchmark objects, and ``1 + config.replicas`` MasterCollector
    replicas over it.  All masters share one :class:`RpcCostModel`
    instance, so a survival policy armed by :func:`repro.faults.install`
    applies to every tier at once.  ``config.depth > 1`` groups shards
    under intermediate ShardedMasters (master-of-masters).
    """
    cfg = config or ShardingConfig()
    if cfg.n_shards < 1:
        raise ValueError("need at least one shard")
    if cfg.replicas < 0:
        raise ValueError("replicas must be >= 0")
    if cfg.depth < 1:
        raise ValueError("depth must be >= 1")
    if cfg.group_fanout < 2:
        raise ValueError("group_fanout must be >= 2")
    rpc = rpc_cost or RpcCostModel()
    all_borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
    ring = ConsistentHashRing(list(range(cfg.n_shards)), cfg.vnodes)
    assignment: dict[int, list[str]] = {i: [] for i in range(cfg.n_shards)}
    for site in directory.sites():
        assignment[ring.assign(site)].append(site)

    regs_by_site: dict[str, list[Registration]] = defaultdict(list)
    for reg in directory.registrations():
        regs_by_site[reg.site].append(reg)

    def subdirectory(site_list: Sequence[str]) -> CollectorDirectory:
        sub = CollectorDirectory()
        for site in site_list:
            for reg in regs_by_site.get(site, []):
                sub.register(reg.collector, list(reg.prefixes), site, reg.remote)
            bench = directory.benchmark_for(site)
            if bench is not None:
                sub.register_benchmark(bench)
        return sub

    shards: list[Shard] = []
    for idx in range(cfg.n_shards):
        site_list = assignment[idx]
        sub = subdirectory(site_list)
        masters = tuple(
            MasterCollector(
                f"{name}-s{idx}" + (f"-r{k}" if k else ""),
                net, sub, all_borders, rpc,
            )
            for k in range(1 + cfg.replicas)
        )
        shards.append(Shard(idx, tuple(site_list), masters))

    # master-of-masters tiers: group children, one intermediate
    # ShardedMaster per group, repeat until one tier fits the root
    tier: list[Shard] = shards
    for level in range(cfg.depth - 1):
        if len(tier) <= cfg.group_fanout:
            break
        grouped: list[Shard] = []
        for g, start in enumerate(range(0, len(tier), cfg.group_fanout)):
            group = tier[start:start + cfg.group_fanout]
            re_indexed = [
                Shard(j, sh.sites, sh.masters) for j, sh in enumerate(group)
            ]
            g_sites = [s for sh in group for s in sh.sites]
            mid = ShardedMaster(
                f"{name}-t{level}g{g}",
                net,
                subdirectory(g_sites),
                all_borders,
                rpc,
                re_indexed,
                ring,
                cfg.shard_parallel,
            )
            grouped.append(Shard(g, tuple(g_sites), (mid,)))
        tier = grouped

    return ShardedMaster(
        name, net, directory, all_borders, rpc, tier, ring, cfg.shard_parallel
    )
