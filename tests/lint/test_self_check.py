"""Self-check: the committed tree must satisfy its own lint gate.

These tests pin the repo-level invariants the CI ``lint-invariants``
job enforces, so a violation shows up locally at ``pytest`` time and
not only in CI:

* ``repro lint --check-baseline`` over ``src/`` is clean;
* RML001/RML002/RML005 run at a **zero** baseline — degradation of the
  sim-clock, RNG, or blind-except invariants can never be
  grandfathered in;
* the only baselined codes are the annotated RML004 app-layer entries,
  and every entry carries a review note.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.cli import main
from repro.lint.config import load_config
from repro.lint.engine import lint_paths
from repro.lint.rules import make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

ZERO_BASELINE_CODES = {"RML001", "RML002", "RML005"}


def test_src_is_lint_clean_with_committed_baseline():
    config = load_config(REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    report = lint_paths(
        [REPO_ROOT / p for p in config.paths],
        make_rules(),
        config,
        baseline=baseline,
    )
    assert report.errors == {}
    assert report.violations == [], "\n".join(v.render() for v in report.violations)
    assert report.stale_entries == [], [e.path for e in report.stale_entries]
    assert report.files_checked > 50  # whole src tree, not a subset


def test_cli_check_baseline_exits_zero(capsys):
    assert main(["--root", str(REPO_ROOT), "--check-baseline"]) == 0
    assert "0 new violation(s)" in capsys.readouterr().out


def test_project_analysis_is_clean(capsys):
    """The whole-program RML1xx gate: layer contract, async safety,
    transitive clock purity, status dataflow, and dead exports all hold
    on the committed tree (nothing grandfathered)."""
    assert main(["--root", str(REPO_ROOT), "--project", "--check-baseline"]) == 0
    assert "0 new violation(s)" in capsys.readouterr().out


def test_zero_baseline_for_hard_invariants():
    config = load_config(REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    offending = [e for e in baseline.entries if e.code in ZERO_BASELINE_CODES]
    assert offending == [], (
        "RML001/002/003/005 must never be grandfathered: "
        + ", ".join(f"{e.code} {e.path}" for e in offending)
    )


def test_every_baseline_entry_is_annotated():
    config = load_config(REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    unannotated = [e for e in baseline.entries if not e.note.strip()]
    assert unannotated == [], (
        "baseline entries need a review note: "
        + ", ".join(f"{e.code} {e.path}" for e in unannotated)
    )
