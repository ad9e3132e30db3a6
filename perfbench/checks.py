"""Output checks for every benchmark response.

A response passes when it parses through the wire schema and its
answers agree with the simulator's ground truth:

* every response envelope parses with ``repro.service.wire.parse_result``
  and every answer re-serializes to the bytes it arrived as;
* an OK ``FlowAnswer`` has ``0 < available_bps`` and ``available_bps``
  at most the raw bottleneck capacity of the simulator's own path;
* a ``TopologyAnswer`` contains each requested host or lists it in
  ``unresolved``, and an OK one lists nothing there.

``Checker`` also keeps a per-request digest (answer bytes plus the
request's sim-clock latency) so two runs can be compared exactly.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.status import QueryStatus
from repro.modeler.api import Answer, FlowAnswer, NodeAnswer, TopologyAnswer
from repro.service.wire import canonical_json

#: float slack for the capacity bound (rates are computed in floats)
CAPACITY_SLACK = 1e-6

#: problems kept verbatim for the report; the rest are only counted
MAX_ERRORS = 20

#: request outcome, worst first
FAILED, DEGRADED, OK = "failed", "degraded", "ok"


def answer_outcome(result: Any) -> str:
    """OK, DEGRADED (STALE/PARTIAL) or FAILED for one parsed result."""
    answers = result if isinstance(result, list) else [result]
    statuses = [a.status for a in answers if isinstance(a, Answer)]
    if any(s == QueryStatus.FAILED for s in statuses):
        return FAILED
    if any(s != QueryStatus.OK for s in statuses):
        return DEGRADED
    return OK


class Checker:
    """Validates responses against a world's ground truth."""

    def __init__(self, world) -> None:
        self.world = world
        #: the first MAX_ERRORS problems, for the report
        self.errors: list[str] = []
        self.failures = 0
        self.checked = 0

    def _fail(self, index: int, message: str) -> None:
        self.failures += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"request {index}: {message}")

    def check(self, index: int, body: dict[str, Any], envelope: dict, result: Any) -> str:
        """Check one successful response; returns its digest."""
        self.checked += 1
        payload = envelope.get("result")
        wire = canonical_json(payload)
        answers = result if isinstance(result, list) else [result]
        rendered = [a.to_dict() if isinstance(a, Answer) else a for a in answers]
        if canonical_json(rendered if isinstance(result, list) else rendered[0]) != wire:
            self._fail(index, "answer does not re-serialize to its wire bytes")
        for ans in answers:
            if isinstance(ans, FlowAnswer):
                self._check_flow(index, ans)
            elif isinstance(ans, TopologyAnswer):
                self._check_topology(index, body, ans)
            elif isinstance(ans, NodeAnswer):
                if ans.ok and ans.load is None:
                    self._fail(index, f"OK node answer for {ans.ip} has no load")
        return hashlib.sha256(wire.encode("utf-8")).hexdigest()

    def _check_flow(self, index: int, ans: FlowAnswer) -> None:
        if not ans.ok:
            return
        cap = self.world.bottleneck_capacity(ans.src, ans.dst)
        if not 0.0 < ans.available_bps <= cap * (1 + CAPACITY_SLACK):
            self._fail(
                index,
                f"flow {ans.src}->{ans.dst}: available {ans.available_bps:.6g} bps "
                f"outside (0, bottleneck capacity {cap:.6g}]",
            )

    def _check_topology(self, index: int, body: dict, ans: TopologyAnswer) -> None:
        present = {ip for node in ans.graph.nodes() for ip in node.ips}
        unresolved = set(ans.unresolved)
        missing = [h for h in body["hosts"] if h not in present and h not in unresolved]
        if missing:
            self._fail(index, f"{len(missing)} requested hosts neither present nor unresolved")
        if ans.ok and unresolved:
            self._fail(index, f"OK topology answer lists {len(unresolved)} unresolved hosts")
