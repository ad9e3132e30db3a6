"""Closed-loop HTTP load, measurement phases and metric assembly.

One process, one event loop: the ``repro.service`` HTTP server and the
benchmark's keep-alive clients share the loop, so every request crosses
the loopback interface.  Each connection is a closed loop: send, wait
for the parsed answer, check it, advance the sim clock by the
workload's think time with ``Engine.run_until`` (collector polling,
benchmark probes and background flows run there), send the next one.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.special import betainc

from repro.service.client import DirectClient, HttpServiceClient
from repro.service.http import start_server
from repro.service.wire import WireError, parse_result

from checks import DEGRADED, FAILED, OK, Checker, answer_outcome
from tracing import Probes, Record, TracedLinkMonitor, Tracer, patch_link_monitor

#: worlds built per run; setup_s is their median
SETUPS = 3
#: a --trace 1 run alternates untraced and traced slices of this count
TRACE_SLICES = 8
#: bound on the 99th percentile, over traced requests, of |sum of the
#: request's per-layer wall self times - its client-observed total| as
#: a share of that total.  A percentile, not the maximum: the process
#: can be preempted between two clock reads of the same request
CONSERVATION_BOUND = 0.02


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile (``p`` in 0..100).

    A Beta-weighted mean of all order statistics instead of one of
    them: a percentile that sits between two plateaus of a discrete
    distribution (the sim clock's cost model makes many) moves smoothly
    instead of jumping.  Failed requests enter as ``inf``: they rank
    above every answered one, so the percentile is ``inf`` once its
    rank reaches them; below that they weigh in at the slowest answered
    request's latency.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    q = p / 100.0
    if not np.isfinite(x[max(0, math.ceil(q * n) - 1)]):
        return math.inf
    finite = np.isfinite(x)
    x[~finite] = x[finite].max()
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def beyond(n: int, p: float) -> int:
    """Samples beyond the ``p``-th percentile's rank among ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@dataclass
class Counters:
    """Cumulative program counters, read before and after a slice."""

    pdus: int = 0
    timeouts: int = 0
    retries: int = 0
    probes: int = 0
    polls: int = 0
    events: int = 0
    flow_api_s: float = 0.0
    svc_requests: int = 0
    svc_shed: int = 0
    svc_retries: int = 0

    @classmethod
    def read(cls, world) -> "Counters":
        dep = world.dep
        clients = [c.client for c in dep.snmp_collectors.values()]
        clients += [b.client for b in dep.bridge_collectors.values()]
        stats = world.service.stats
        return cls(
            pdus=sum(c.pdu_count for c in clients),
            timeouts=sum(c.timeout_count for c in clients),
            retries=sum(c.retry_count for c in clients),
            probes=sum(b.probes_run for b in dep.benchmarks.values()),
            polls=sum(c.polls_done for c in dep.snmp_collectors.values()),
            events=world.net.engine.dispatched,
            flow_api_s=world.flow_api_s,
            svc_requests=stats["requests"],
            svc_shed=stats["shed_lkg"],
            svc_retries=stats["retries"],
        )

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(vars(self).values(), vars(other).values())))

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(*(a + b for a, b in zip(vars(self).values(), vars(other).values())))


@dataclass
class Setup:
    world: Any
    server: Any
    clients: list[HttpServiceClient]
    seconds: float


async def build_setup(workload, seed: int) -> Setup:
    """Build, deploy, warm, serve, and make the warming requests."""
    t0 = time.perf_counter()
    world = workload.build(seed)
    server = await start_server(world.service, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    clients = [
        HttpServiceClient("127.0.0.1", port, tenant=f"conn{i}")
        for i in range(workload.connections)
    ]
    for client in clients:
        await client.connect()
    for req in workload.warming(world):
        parse_result(await clients[0].call(req.endpoint, req.body))
    return Setup(world, server, clients, time.perf_counter() - t0)


async def close_setup(setup: Setup) -> None:
    # clients first: from Python 3.12.1 wait_closed() waits for every
    # connection, and the handlers only end when their client hangs up
    for client in setup.clients:
        await client.close()
    setup.server.close()
    await setup.server.wait_closed()


class Runner:
    """Runs a workload's request stream against one world."""

    def __init__(self, workload, setup_world, seed: int) -> None:
        self.workload = workload
        self.world = setup_world
        self.net = setup_world.net
        self.stream = workload.stream(setup_world, seed)
        self.probes = Probes(setup_world)
        self.checker = Checker(setup_world)
        self.records: list[Record] = []
        #: harness-only wall time (output checks), excluded from phases
        self.excluded_s = 0.0
        self.think_wall_s = 0.0
        self.think_sim_s = 0.0
        self.start_counters = Counters.read(setup_world)
        #: counters right after the prefix's last request and think step
        self.prefix_counters: Counters | None = None
        self.transport_errors = 0
        #: measured wall seconds of all slices run so far
        self.phase_s = 0.0

    async def one(self, client, traced: bool) -> Record:
        req = next(self.stream)
        rec = Record(len(self.records), req.endpoint, traced)
        self.records.append(rec)
        lock = self.world.service.backend.lock
        if req.before is not None:
            async with lock:
                self.world.apply(req.before)
        tenant = client.tenant
        self.probes.inflight[tenant] = rec
        t0 = time.perf_counter()
        try:
            envelope = await client.call(req.endpoint, req.body)
            t1 = time.perf_counter()
            result = parse_result(envelope)
            t2 = time.perf_counter()
        except WireError as err:
            t1 = t2 = time.perf_counter()
            rec.outcome, rec.digest = FAILED, f"error:{err.code}"
        except (OSError, EOFError, asyncio.TimeoutError, json.JSONDecodeError) as exc:
            t1 = t2 = time.perf_counter()
            rec.outcome, rec.digest = FAILED, f"transport:{type(exc).__name__}"
            self.transport_errors += 1
            await client.close()
        finally:
            self.probes.inflight.pop(tenant, None)
        rec.latency_s = t2 - t0
        rec.round_trip_s = t1 - t0
        rec.decode_s = t2 - t1
        if not rec.outcome:
            c0 = time.perf_counter()
            rec.outcome = answer_outcome(result)
            rec.digest = self.checker.check(rec.index, req.body, envelope, result)
            self.excluded_s += time.perf_counter() - c0
        async with lock:
            a0 = time.perf_counter()
            s0 = self.net.now
            self.net.engine.run_until(self.net.now + self.workload.think_s)
            self.think_wall_s += time.perf_counter() - a0
            self.think_sim_s += self.net.now - s0
        if rec.index + 1 == self.workload.prefix:
            self.prefix_counters = Counters.read(self.world)
        return rec

    async def run_slice(self, clients, seconds: float, traced: bool, min_requests: int = 0):
        """Closed loop on every client for ``seconds`` of measured wall.

        Returns the measured wall seconds: elapsed minus the time spent
        in output checks.  With ``min_requests`` the slice also runs on
        until that many requests exist in total.
        """
        start = time.perf_counter()
        excluded0 = self.excluded_s

        def measured() -> float:
            return time.perf_counter() - start - (self.excluded_s - excluded0)

        async def loop(client) -> None:
            while measured() < seconds or len(self.records) < min_requests:
                rec = await self.one(client, traced)
                rec.done_s = self.phase_s + measured()

        await asyncio.gather(*(loop(c) for c in clients))
        spent = measured()
        self.phase_s += spent
        return spent


def sequence_digest(records: list[Record], n: int) -> str:
    """Digest of the first ``n`` requests: answers and sim latencies."""
    h = hashlib.sha256()
    for rec in records[:n]:
        h.update(f"{rec.index}|{rec.endpoint}|{rec.outcome}|{rec.digest}|{rec.sim_s!r}\n".encode())
    return h.hexdigest()


async def replay_prefix(workload, setup: Setup, seed: int) -> tuple[Runner, str]:
    """Serve the stream's prefix in process, for the determinism check."""
    runner = Runner(workload, setup.world, seed)
    client = DirectClient(setup.world.service, tenant="replay")
    while len(runner.records) < workload.prefix:
        await runner.one(client, traced=False)
    return runner, sequence_digest(runner.records, workload.prefix)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str] = field(default_factory=list)
    #: raw spans of the traced slices (empty for an untraced run)
    spans: list[tuple] = field(default_factory=list)


async def run_workload(workload, seed: int, seconds: float, trace: bool, loop_errors: list):
    """Set up ``SETUPS`` worlds, replay, measure one; returns an Outcome."""
    undo_monitor = patch_link_monitor() if trace else None
    try:
        return await _run(workload, seed, seconds, trace, loop_errors)
    finally:
        if undo_monitor is not None:
            undo_monitor()


async def _run(workload, seed, seconds, trace, loop_errors) -> Outcome:
    setup_times: list[float] = []
    stages: list[dict[str, float]] = []
    replay_digest = None
    replay_records: list[Record] = []
    for i in range(SETUPS - 1):
        gc.collect()
        setup = await build_setup(workload, seed)
        setup_times.append(setup.seconds)
        stages.append(setup.world.stages)
        if i == 0 and workload.prefix:
            # own task, so the request context the replay sets stays there
            replay, replay_digest = await asyncio.create_task(
                replay_prefix(workload, setup, seed)
            )
            replay_records = replay.records
        await close_setup(setup)
        del setup
    gc.collect()
    setup = await build_setup(workload, seed)
    setup_times.append(setup.seconds)
    stages.append(setup.world.stages)
    world = setup.world
    runner = Runner(workload, world, seed)
    tracer = None
    if trace:
        tracer = Tracer(world)
        runner.probes.tracer = tracer
        TracedLinkMonitor.tracer = tracer

    traced_counters = Counters()
    traced_think = [0.0, 0.0]
    if not trace:
        wall = await runner.run_slice(setup.clients, seconds, False, workload.prefix)
    else:
        wall = 0.0
        for k in range(TRACE_SLICES):
            traced = k % 2 == 1
            last = k == TRACE_SLICES - 1
            before = Counters.read(world)
            think0 = (runner.think_wall_s, runner.think_sim_s)
            if traced:
                tracer.install()
            try:
                spent = await runner.run_slice(
                    setup.clients, seconds / TRACE_SLICES, traced,
                    workload.prefix if last else 0,
                )
            finally:
                if traced:
                    tracer.uninstall()
            wall += spent
            if traced:
                traced_counters = traced_counters + (Counters.read(world) - before)
                traced_think[0] += runner.think_wall_s - think0[0]
                traced_think[1] += runner.think_sim_s - think0[1]
    end_counters = Counters.read(world)

    # -- checks --------------------------------------------------------
    records = runner.records
    checker = runner.checker
    problems = list(checker.errors)
    if checker.failures > len(checker.errors):
        problems.append(f"... and {checker.failures - len(checker.errors)} more answer problems")
    report = [
        f"workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"connections={workload.connections} think_s={workload.think_s:g} "
        f"requests={len(records)} measured_wall_s={wall:.3f}"
    ]
    if workload.prefix:
        digest = sequence_digest(records, workload.prefix)
        report.append(f"digest[first {workload.prefix}]={digest}")
        if digest != replay_digest:
            diverged = next(
                (a.index for a, b in zip(records, replay_records)
                 if (a.outcome, a.digest, a.sim_s) != (b.outcome, b.digest, b.sim_s)),
                None,
            )
            problems.append(
                f"same-seed replay diverged from the measured run (first at request {diverged})"
            )
        else:
            report.append("determinism: measured run matches a same-seed in-process replay")

    attempted = len(records)
    failed = sum(r.outcome == FAILED for r in records)
    degraded = sum(r.outcome == DEGRADED for r in records)
    ok = sum(r.outcome == OK for r in records)
    report.append(
        f"outcomes: ok={ok} degraded={degraded} failed={failed} "
        f"(failed_ratio={failed / attempted:.4f} degraded_ratio={degraded / attempted:.4f}, "
        f"transport_errors={runner.transport_errors})"
    )
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics.update(
            _end_to_end(workload, runner, records, wall, setup_times, end_counters, report)
        )
    else:
        layer, conservation, conservation_report = _per_layer(
            runner, tracer, records, traced_counters, traced_think, stages, loop_errors
        )
        metrics.update(layer)
        report.append(conservation_report)
        if conservation > CONSERVATION_BOUND:
            problems.append(f"per-layer wall self times do not conserve: error {conservation:.4f}")
        report.append(
            "span calls: " + ", ".join(f"{k}={v}" for k, v in sorted(tracer.calls.items()))
        )
        report.append(
            f"spans kept {len(tracer.spans)}, dropped past the dump cap {tracer.spans_dropped}"
        )
    report.append(f"checks: {checker.checked} answers checked, {len(problems)} problems")
    report.extend(f"CHECK FAILED: {p}" for p in problems)

    # close the server with the keep-alive handlers still live, and do
    # not wait for them (they would never end); the loop shutdown that
    # follows is where the HTTP edge's CancelledError shows
    setup.server.close()
    return Outcome(
        not problems, attempted, failed, metrics, report, tracer.spans if tracer else []
    )


def _end_to_end(workload, runner, records, wall, setup_times, end, report):
    attempted = len(records)
    lat = [r.latency_s * 1e3 if r.outcome != FAILED else math.inf for r in records]
    scope = records[: workload.prefix] if workload.prefix else records
    sims = [r.sim_s for r in scope if r.sim_s is not None]
    if workload.prefix:
        counted = runner.prefix_counters - runner.start_counters
        per = workload.prefix
    else:
        counted = end - runner.start_counters
        per = attempted
    answered = sum(r.outcome != FAILED for r in records)
    ok = sum(r.outcome == OK for r in records)
    report.append(
        f"latency samples n={attempted}: {beyond(attempted, 95)} beyond p95, "
        f"{beyond(attempted, 99)} beyond p99 (p99={percentile(lat, 99):.3f} ms)"
    )
    report.append(
        f"sim latency samples n={len(sims)} over "
        f"{'the first %d requests' % workload.prefix if workload.prefix else 'all requests'}: "
        f"{beyond(len(sims), 95)} beyond p95"
    )
    report.append(f"sim latency p50 {percentile(sims, 50):.6g} s")
    return {
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p95_ms": (percentile(lat, 95), "ms"),
        "throughput_rps": (answered / wall, "1/s"),
        "sim_latency_mean_s": (sum(sims) / len(sims), "s"),
        "sim_latency_p95_s": (percentile(sims, 95), "s"),
        "ok_ratio": (ok / attempted, "ratio"),
        "answered_ratio": (answered / attempted, "ratio"),
        "snmp_pdus_per_req": (counted.pdus / per, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _per_layer(runner, tracer, records, counters, think, stages, loop_errors):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)
    wall, self_wall, sim, calls, counts = (
        tracer.wall, tracer.self_wall, tracer.sim, tracer.calls, tracer.counts,
    )
    ms = 1e3
    session_layers = [f"session.{k}" for k in ("flow_info", "flow_info_many", "topology", "node_info")]
    session_calls = sum(calls[s] for s in session_layers)

    def per_kind(endpoint: str) -> float:
        return _mean(r.session_s * ms for r in traced if r.endpoint == endpoint and r.sim_s is not None)

    # conservation, per request: the HTTP edge (round trip - dispatch -
    # encode) and the app policy (dispatch - session call) are
    # remainders of independent timers; every other layer's self time
    # comes from the tracer's spans, so the check compares those spans
    # with the session hook's and the encode wrapper's own timers
    def conservation_error(r: Record) -> float:
        attributed = (
            (r.round_trip_s - r.dispatch_s - r.encode_s) + (r.dispatch_s - r.session_s)
            + r.decode_s + r.span_self_s
        )
        return abs(attributed - r.latency_s) / r.latency_s

    errors = np.array([conservation_error(r) for r in traced])
    conservation = float(np.quantile(errors, 0.99))
    conservation_report = (
        f"conservation: wall self times vs client total per request, p99 error "
        f"{conservation:.5f} (bound {CONSERVATION_BOUND}), max {errors.max():.5f}, "
        f"{int((errors > CONSERVATION_BOUND).sum())} of {errors.size} requests above the bound"
    )
    p50_t = percentile([r.latency_s for r in traced], 50)
    p50_u = percentile([r.latency_s for r in untraced], 50)
    hosts = counts["collectors.snmp_collector.hosts"]
    out = {
        "service.http.hop_ms": (_mean((r.round_trip_s - r.dispatch_s) * ms for r in traced), "ms"),
        "service.http.resp_kb": (_mean(r.resp_bytes / 1024.0 for r in traced), "KB"),
        "service.http.loop_errors": (float(len(loop_errors)), "count"),
        "service.wire.encode_ms": (_mean(r.encode_s * ms for r in traced), "ms"),
        "service.wire.decode_ms": (_mean(r.decode_s * ms for r in traced), "ms"),
        "service.app.policy_ms": (_mean((r.dispatch_s - r.session_s) * ms for r in traced), "ms"),
        "service.app.shed_ratio": (counters.svc_shed / max(1, counters.svc_requests), "ratio"),
        "service.app.retries": (counters.svc_retries / n, "count"),
        "session.flow_info.ms": (per_kind("flow_info"), "ms"),
        "session.flow_info_many.ms": (per_kind("flow_info_many"), "ms"),
        "session.topology.ms": (per_kind("topology"), "ms"),
        "session.node_info.ms": (per_kind("node_info"), "ms"),
        "modeler.self_ms": (sum(self_wall[s] for s in session_layers) * ms / n, "ms"),
        "modeler.master_fetch_ratio": (
            calls["collectors.master"] / session_calls if session_calls else 0.0, "ratio"
        ),
        "rps.predict_ms": (wall["rps"] * ms / n, "ms"),
        "collectors.master.ms": (wall["collectors.master"] * ms / n, "ms"),
        "collectors.master.self_ms": (self_wall["collectors.master"] * ms / n, "ms"),
        "collectors.master.sim_s": (sim["collectors.master"] / n, "s"),
        "collectors.master.max_fragment_sim_s": (sim["collectors.master.max_fragment"] / n, "s"),
        "collectors.master.overlap_saved_sim_s": (sim["collectors.master.overlap_saved"] / n, "s"),
        "collectors.snmp_collector.ms": (wall["collectors.snmp_collector"] * ms / n, "ms"),
        "collectors.snmp_collector.ms_per_host": (
            wall["collectors.snmp_collector"] * ms / hosts if hosts else 0.0, "ms"
        ),
        "collectors.snmp_collector.sim_s": (sim["collectors.snmp_collector"] / n, "s"),
        "collectors.snmp_collector.pdus": (counts["collectors.snmp_collector.pdus"] / n, "count"),
        "collectors.bridge_collector.path_calls": (
            counts["collectors.bridge_collector.path_calls"] / n, "count"
        ),
        "collectors.bridge_collector.ms": (wall["collectors.bridge_collector"] * ms / n, "ms"),
        "collectors.benchmark_collector.probes": (counters.probes / n, "count"),
        "collectors.benchmark_collector.probe_sim_s": (
            sim["collectors.benchmark_collector"] / n, "s"
        ),
        "collectors.benchmark_collector.probe_failures": (
            counts["collectors.benchmark_collector.errors"] / n, "count"
        ),
        "collectors.monitor.history_ms": (self_wall["collectors.monitor"] * ms / n, "ms"),
        "collectors.monitor.polls": (counters.polls / n, "count"),
        "snmp.client.pdus": (counters.pdus / n, "count"),
        "snmp.client.timeouts": (counters.timeouts / n, "count"),
        "snmp.client.retries": (counters.retries / n, "count"),
        "netsim.engine.events": (counters.events / n, "count"),
        "netsim.engine.advance_ms_per_sim_s": (
            think[0] * ms / think[1] if think[1] else 0.0, "ms"
        ),
        "netsim.flows.ms": (counters.flow_api_s * ms / n, "ms"),
        "setup.build_s": (statistics.median(s["build"] for s in stages), "s"),
        "setup.deploy_s": (statistics.median(s["deploy"] for s in stages), "s"),
        "setup.warmup_s": (statistics.median(s["warmup"] for s in stages), "s"),
        "trace_overhead_ratio": (p50_t / p50_u, "ratio"),
        "trace.conservation_error": (conservation, "ratio"),
    }
    return out, conservation, conservation_report
