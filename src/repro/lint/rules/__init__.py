"""Rule registry: every shipped remoslint rule, by code."""

from __future__ import annotations

from repro.lint.core import Rule
from repro.lint.project import ProjectRule
from repro.lint.rules.rml001_sim_clock import SimClockPurityRule
from repro.lint.rules.rml002_rng import SeededRngRule
from repro.lint.rules.rml004_status import StatusDisciplineRule
from repro.lint.rules.rml005_excepts import BlindExceptRule
from repro.lint.rules.rml006_oid_literals import OidLiteralRule
from repro.lint.rules.rml007_metric_names import MetricNameRule
from repro.lint.rules.rml008_span_names import SpanNameRule
from repro.lint.rules.rml101_layers import ImportLayeringRule
from repro.lint.rules.rml102_async_safety import AsyncSafetyRule
from repro.lint.rules.rml103_transitive_clock import TransitiveClockRule
from repro.lint.rules.rml104_status_flow import StatusFlowRule
from repro.lint.rules.rml105_dead_exports import DeadExportRule

ALL_RULES: tuple[type[Rule], ...] = (
    SimClockPurityRule,
    SeededRngRule,
    StatusDisciplineRule,
    BlindExceptRule,
    OidLiteralRule,
    MetricNameRule,
    SpanNameRule,
)

#: whole-program rules, run only under ``repro lint --project``
PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    ImportLayeringRule,
    AsyncSafetyRule,
    TransitiveClockRule,
    StatusFlowRule,
    DeadExportRule,
)


def make_project_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[ProjectRule]:
    """Instantiate the configured subset of project rules, in code order."""
    rules = [cls() for cls in PROJECT_RULES]
    if select:
        wanted = {c.upper() for c in select}
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        dropped = {c.upper() for c in ignore}
        rules = [r for r in rules if r.code not in dropped]
    return rules


def make_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Rule]:
    """Instantiate the configured subset of rules, in code order."""
    rules = [cls() for cls in ALL_RULES]
    if select:
        wanted = {c.upper() for c in select}
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        dropped = {c.upper() for c in ignore}
        rules = [r for r in rules if r.code not in dropped]
    return rules


def rule_catalogue() -> "dict[str, Rule | ProjectRule]":
    """Every shipped rule by code, per-file and project families both."""
    out: dict[str, Rule | ProjectRule] = {cls.code: cls() for cls in ALL_RULES}
    out.update({cls.code: cls() for cls in PROJECT_RULES})
    return out
