"""Request records, always-on probes, and the per-layer tracer.

Nothing here edits the program: every hook is an instance attribute or
a module attribute set from this file and removed again afterwards.

``Probes`` is installed on every world.  It wraps
``RemosService.dispatch`` and the four ``RemosSession`` query methods
to tie server-side work to the client request that caused it (through
the ``X-Remos-Tenant`` header each connection sends) and to read the
sim clock around the backend session call.  That costs two clock reads
per request.

``Tracer`` is installed only for the traced slices of a ``--trace 1``
run.  It wraps the public entry points of each layer below the session,
keeps a span stack for the synchronous part of a request, and adds up
inclusive and self time per layer in both clocks as spans close, so no
span ring can truncate the totals.
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import repro.collectors.snmp_collector as snmp_collector_mod
import repro.service.http as http_mod
from repro.collectors.monitor import LinkMonitor
from repro.common.errors import QueryError

#: the request whose server-side work is running in this task
CURRENT: contextvars.ContextVar["Record | None"] = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: raw spans kept for the dump file; totals never depend on this cap
MAX_SPANS = 200_000

QUERY_METHODS = ("flow_info", "flow_info_many", "topology", "node_info")


@dataclass
class Record:
    """Everything measured about one request."""

    index: int
    endpoint: str
    traced: bool = False
    #: client-observed wall seconds, send -> parsed Answer
    latency_s: float = 0.0
    #: client round trip, send -> envelope (before parse_result)
    round_trip_s: float = 0.0
    decode_s: float = 0.0
    dispatch_s: float = 0.0
    #: envelope encoding, timed by the encode wrapper itself
    encode_s: float = 0.0
    resp_bytes: int = 0
    #: wall seconds of the backend session call(s), timed by the session
    #: hook itself, not by the tracer's spans
    session_s: float = 0.0
    #: sim seconds charged by the backend session call(s) (None: no call)
    sim_s: float | None = None
    #: self wall of every traced span credited to this request
    span_self_s: float = 0.0
    outcome: str = ""
    digest: str = ""
    #: measured-phase wall clock (checks excluded) when the answer arrived
    done_s: float = 0.0


class Probes:
    """Dispatch and session hooks that tie server work to requests."""

    def __init__(self, world) -> None:
        self.world = world
        self.tracer: Tracer | None = None
        #: tenant -> the request that tenant has in flight
        self.inflight: dict[str, Record] = {}
        service = world.service
        net = world.net
        dispatch = service.dispatch

        async def traced_dispatch(endpoint, body, tenant="anonymous"):
            rec = self.inflight.get(tenant)
            CURRENT.set(rec)
            if rec is None:
                return await dispatch(endpoint, body, tenant=tenant)
            t0 = time.perf_counter()
            try:
                return await dispatch(endpoint, body, tenant=tenant)
            finally:
                rec.dispatch_s = time.perf_counter() - t0

        service.dispatch = traced_dispatch
        session = service.backend.session
        for name in QUERY_METHODS:
            setattr(session, name, self._session_hook(net, name, getattr(session, name)))

    def _session_hook(self, net, name: str, fn: Callable) -> Callable:
        layer = f"session.{name}"

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            rec = CURRENT.get()
            tracer = self.tracer
            frame = tracer.enter(layer) if tracer is not None else None
            sim0 = net.now
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if rec is not None:
                    rec.session_s += time.perf_counter() - t0
                    rec.sim_s = (rec.sim_s or 0.0) + (net.now - sim0)
                if frame is not None:
                    tracer.exit(frame)

        return hook


class Frame:
    __slots__ = ("layer", "t0", "sim0", "child_s", "rec", "parent", "max_child_sim")

    def __init__(self, layer, t0, sim0, rec, parent):
        self.layer = layer
        self.t0 = t0
        self.sim0 = sim0
        self.child_s = 0.0
        self.rec = rec
        self.parent = parent
        self.max_child_sim = 0.0


class Tracer:
    """Span stack and streaming per-layer totals for traced slices."""

    def __init__(self, world) -> None:
        self.world = world
        self.net = world.net
        self.active = False
        self.stack: list[Frame] = []
        self.wall: dict[str, float] = defaultdict(float)
        self.self_wall: dict[str, float] = defaultdict(float)
        self.sim: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._undo: list[Callable[[], None]] = []

    # -- span stack ------------------------------------------------------

    def enter(self, layer: str) -> Frame | None:
        if not self.active:
            return None
        parent = self.stack[-1] if self.stack else None
        rec = parent.rec if parent is not None else CURRENT.get()
        frame = Frame(layer, 0.0, self.net.now, rec, parent)
        self.stack.append(frame)
        # the clock read comes last, so a garbage collection triggered by
        # allocating the frame is not inside the span
        frame.t0 = time.perf_counter()
        return frame

    def exit(self, frame: Frame | None) -> tuple[float, float]:
        """Close ``frame``; returns its (wall, sim) duration."""
        if frame is None:
            return 0.0, 0.0
        t1 = time.perf_counter()
        dur = t1 - frame.t0
        sim = self.net.now - frame.sim0
        popped = self.stack.pop()
        if popped is not frame:  # pragma: no cover - a wrapper bug, not data
            raise RuntimeError(f"span stack out of order: {popped.layer} vs {frame.layer}")
        layer = frame.layer
        own = dur - frame.child_s
        self.wall[layer] += dur
        self.self_wall[layer] += own
        self.sim[layer] += sim
        self.calls[layer] += 1
        rec = frame.rec
        if rec is not None:
            rec.span_self_s += own
        if frame.parent is not None:
            frame.parent.child_s += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (layer, frame.t0, t1, sim, rec.index if rec is not None else None,
                 frame.parent.layer if frame.parent is not None else None)
            )
        else:
            self.spans_dropped += 1
        return dur, sim

    def enclosing(self, layer: str) -> Frame | None:
        for frame in reversed(self.stack):
            if frame.layer == layer:
                return frame
        return None

    # -- hooks -----------------------------------------------------------

    def _set(self, obj: Any, attr: str, value: Any, module: bool = False) -> None:
        if module:
            original = getattr(obj, attr)
            setattr(obj, attr, value)
            self._undo.append(lambda: setattr(obj, attr, original))
        else:
            setattr(obj, attr, value)
            self._undo.append(lambda: delattr(obj, attr))

    def _span(self, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(frame)
                if isinstance(exc, QueryError):
                    self.counts[f"{layer}.errors"] += 1
                raise
            _, sim = self.exit(frame)
            if after is not None:
                after(args, out, frame, sim)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap each layer's entry points on this world's instances."""
        dep = self.world.dep
        engine = self.net.engine
        self._set(dep.master, "topology", self._span("collectors.master", dep.master.topology,
                                                      self._after_master))
        for coll in dep.snmp_collectors.values():
            self._set(coll, "topology", self._span("collectors.snmp_collector", coll.topology,
                                                    self._after_snmp))
        for bridge in dep.bridge_collectors.values():
            self._set(bridge, "path", self._span("collectors.bridge_collector", bridge.path,
                                                  self._after_bridge_path))
            self._set(bridge, "locate", self._span("collectors.bridge_collector", bridge.locate))
        for bench in dep.benchmarks.values():
            self._set(bench, "probe", self._span("collectors.benchmark_collector", bench.probe))
        rps = dep.modeler.prediction_service
        if rps is not None:
            self._set(rps, "predict_series", self._span("rps", rps.predict_series))
        overlap = engine.overlap

        @functools.wraps(overlap)
        def counted_overlap(*args, **kwargs):
            return _Overlap(self, overlap(*args, **kwargs))

        self._set(engine, "overlap", counted_overlap)
        response = http_mod._response

        @functools.wraps(response)
        def encode(status, body, keep_alive):
            rec = CURRENT.get()
            frame = self.enter("service.wire.encode")
            t0 = time.perf_counter()
            out = response(status, body, keep_alive)
            dur = time.perf_counter() - t0
            self.exit(frame)
            if rec is not None and frame is not None:
                rec.encode_s += dur
                rec.resp_bytes += len(out)
            return out

        self._set(http_mod, "_response", encode, module=True)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            self._undo.pop()()

    def _after_master(self, args, out, frame: Frame, sim: float) -> None:
        self.sim["collectors.master.max_fragment"] += frame.max_child_sim

    def _after_bridge_path(self, args, out, frame: Frame, sim: float) -> None:
        self.counts["collectors.bridge_collector.path_calls"] += 1

    def _after_snmp(self, args, out, frame: Frame, sim: float) -> None:
        self.counts["collectors.snmp_collector.hosts"] += len(args[0].node_ips)
        self.counts["collectors.snmp_collector.pdus"] += out.pdu_cost
        master = self.enclosing("collectors.master")
        if master is not None:
            master.max_child_sim = max(master.max_child_sim, sim)


class _Overlap:
    """Context manager around ``Engine.overlap`` that sums ``saved_s``."""

    def __init__(self, tracer: Tracer, cm) -> None:
        self.tracer = tracer
        self.cm = cm

    def __enter__(self):
        self.scope = self.cm.__enter__()
        return self.scope

    def __exit__(self, *exc):
        out = self.cm.__exit__(*exc)
        tracer = self.tracer
        if tracer.active and tracer.enclosing("collectors.master") is not None:
            tracer.sim["collectors.master.overlap_saved"] += self.scope.saved_s
        return out


class TracedLinkMonitor(LinkMonitor):
    """LinkMonitor whose history reads open ``collectors.monitor`` spans.

    Installed as ``repro.collectors.snmp_collector.LinkMonitor`` before
    the world is built, so every monitor the collectors create is one;
    spans open only while a tracer is active.
    """

    tracer: Tracer | None = None

    def rate_history(self, direction: str = "out"):
        tracer = TracedLinkMonitor.tracer
        frame = tracer.enter("collectors.monitor") if tracer is not None else None
        try:
            return super().rate_history(direction)
        finally:
            if frame is not None:
                tracer.exit(frame)

    def jitter_estimate(self, capacity_bps: float, base_latency_s: float) -> float:
        tracer = TracedLinkMonitor.tracer
        frame = tracer.enter("collectors.monitor") if tracer is not None else None
        try:
            return super().jitter_estimate(capacity_bps, base_latency_s)
        finally:
            if frame is not None:
                tracer.exit(frame)


def patch_link_monitor() -> Callable[[], None]:
    """Make collectors create traced monitors; returns the undo."""
    original = snmp_collector_mod.LinkMonitor
    snmp_collector_mod.LinkMonitor = TracedLinkMonitor

    def undo() -> None:
        snmp_collector_mod.LinkMonitor = original
        TracedLinkMonitor.tracer = None

    return undo
