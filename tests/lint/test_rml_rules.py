"""Per-rule unit tests: one true positive, one pragma suppression, and
one sanctioned (negative) case per rule, on inline fixture snippets.

``lint_source`` takes a fake repo-relative path so each rule's scoping
is exercised exactly as in a real run.
"""

from __future__ import annotations

import textwrap

from repro.lint.engine import lint_source
from repro.lint.rules import make_rules
from repro.lint.rules.rml006_oid_literals import looks_like_oid
from repro.lint.rules.rml007_metric_names import MetricNameRule
from repro.lint.rules.rml008_span_names import SpanNameRule


def run(source: str, path: str, codes: str | None = None):
    rules = make_rules(select=codes.split(",") if codes else None)
    return lint_source(textwrap.dedent(source), rules, path=path)


IN_SCOPE = "src/repro/collectors/somefile.py"


class TestRML001SimClock:
    def test_wall_clock_call_flagged(self):
        vs = run(
            """
            import time

            def poll():
                return time.time()
            """,
            IN_SCOPE,
        )
        assert [v.code for v in vs] == ["RML001"]
        assert "time.time" in vs[0].message

    def test_aliased_and_from_imports_flagged(self):
        vs = run(
            """
            import time as t
            from time import sleep

            def nap():
                t.monotonic()
                sleep(1)
            """,
            IN_SCOPE,
        )
        assert [v.code for v in vs] == ["RML001", "RML001"]

    def test_datetime_now_flagged(self):
        vs = run(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            IN_SCOPE,
        )
        assert [v.code for v in vs] == ["RML001"]

    def test_pragma_suppresses(self):
        vs = run(
            """
            import time

            def poll():
                return time.time()  # remoslint: disable=RML001
            """,
            IN_SCOPE,
        )
        assert vs == []

    def test_engine_clock_and_timebase_sanctioned(self):
        vs = run(
            """
            from repro import obs

            def poll(net):
                t0 = obs.wall_now()
                return net.engine.now, obs.wall_now() - t0
            """,
            IN_SCOPE,
        )
        assert vs == []

    def test_out_of_scope_layer_ignored(self):
        vs = run(
            "import time\nt = time.time()\n",
            "src/repro/cli.py",  # CLI may read the wall clock
            codes="RML001",
        )
        assert vs == []


class TestRML002Rng:
    def test_module_level_random_flagged(self):
        vs = run(
            """
            import random

            def jitter():
                return random.random()
            """,
            "src/repro/netsim/traffic2.py",
        )
        assert [v.code for v in vs] == ["RML002"]

    def test_unseeded_constructors_flagged(self):
        vs = run(
            """
            import random
            import numpy as np

            r1 = random.Random()
            r2 = np.random.default_rng()
            """,
            "src/repro/netsim/traffic2.py",
        )
        assert [v.code for v in vs] == ["RML002", "RML002"]

    def test_seeded_constructors_sanctioned(self):
        vs = run(
            """
            import random
            import numpy as np

            r1 = random.Random(42)
            r2 = np.random.default_rng(7)

            def gen(rng: np.random.Generator) -> float:
                return rng.random()
            """,
            "src/repro/netsim/traffic2.py",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            import random
            x = random.random()  # remoslint: disable=RML002
            """,
            "src/repro/netsim/traffic2.py",
        )
        assert vs == []

    def test_rng_module_exempt(self):
        vs = run(
            "import numpy as np\nr = np.random.default_rng()\n",
            "src/repro/common/rng.py",
        )
        assert vs == []

    def test_local_variable_named_random_not_flagged(self):
        vs = run(
            """
            from repro.common.rng import make_rng

            random = make_rng(0)
            x = random.random()
            """,
            "src/repro/netsim/traffic2.py",
        )
        assert vs == []


class TestRML003DeprecatedApi:
    """RML003 policed the strict Modeler query shims, which are deleted,
    so the rule is retired.  The session API it steered callers to must
    stay clean under every remaining rule."""

    def test_unified_invalidation_sanctioned(self):
        vs = run(
            """
            def refresh(session, sites):
                session.invalidate_cache(sites=sites)
            """,
            "src/repro/apps/thing.py",
        )
        assert vs == []

    def test_session_api_sanctioned(self):
        vs = run(
            """
            def probe(session, a, b):
                ans = session.flow_info(a, b)
                return ans if ans.ok else None
            """,
            "src/repro/apps/thing.py",
        )
        assert vs == []


class TestRML004Status:
    def test_status_drop_flagged(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)
                print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
        )
        assert [v.code for v in vs] == ["RML004"]

    def test_for_loop_answers_flagged(self):
        vs = run(
            """
            def plan(session, pairs):
                for ans in session.flow_info_many(pairs):
                    print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
        )
        assert [v.code for v in vs] == ["RML004"]

    def test_status_checked_sanctioned(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)
                if ans.ok:
                    print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
        )
        assert vs == []

    def test_escaping_answer_sanctioned(self):
        # returning/passing the answer moves the obligation to the caller
        vs = run(
            """
            def fetch(session, a, b):
                ans = session.flow_info(a, b)
                return ans

            def relay(session, a, b, sink):
                ans = session.flow_info(a, b)
                sink(ans)
            """,
            "src/repro/apps/thing.py",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)  # remoslint: disable=RML004
                print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
        )
        assert vs == []


class TestRML005BlindExcept:
    def test_bare_except_flagged_with_autofix(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except:
                    return None
            """,
            IN_SCOPE,
        )
        assert [v.code for v in vs] == ["RML005"]
        assert vs[0].fix is not None
        assert vs[0].fix.new == "except Exception:"

    def test_blind_except_exception_flagged(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except Exception:
                    pass
            """,
            IN_SCOPE,
        )
        assert [v.code for v in vs] == ["RML005"]

    def test_containment_with_logging_sanctioned(self):
        vs = run(
            """
            def poll(agent, log):
                try:
                    return agent.get()
                except Exception as exc:
                    log.warning("agent failed: %r", exc)
                    return None
            """,
            IN_SCOPE,
        )
        assert vs == []

    def test_narrow_except_sanctioned(self):
        vs = run(
            """
            from repro.common.errors import SnmpError

            def poll(agent):
                try:
                    return agent.get()
                except SnmpError:
                    return None
            """,
            IN_SCOPE,
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except Exception:  # remoslint: disable=RML005
                    pass
            """,
            IN_SCOPE,
        )
        assert vs == []

    def test_out_of_scope_layer_ignored(self):
        vs = run(
            "try:\n    pass\nexcept Exception:\n    pass\n",
            "src/repro/rps/fit.py",
            codes="RML005",
        )
        assert vs == []


class TestRML006OidLiterals:
    def test_raw_oid_flagged(self):
        vs = run(
            'TARGET = "1.3.6.1.2.1.2.2.1.10"\n',
            "src/repro/collectors/snmp_collector.py",
        )
        assert [v.code for v in vs] == ["RML006"]

    def test_oid_module_exempt(self):
        vs = run('MIB2 = "1.3.6.1.2.1"\n', "src/repro/snmp/oid.py")
        assert vs == []

    def test_ip_and_version_strings_sanctioned(self):
        vs = run(
            'ip = "10.0.0.1"\nversion = "1.2.3"\nnet = "192.168.1.0"\n',
            "src/repro/collectors/snmp_collector.py",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            'T = "1.3.6.1.99"  # remoslint: disable=RML006\n',
            "src/repro/collectors/snmp_collector.py",
        )
        assert vs == []

    def test_classifier(self):
        assert looks_like_oid("1.3.6.1.99")
        assert looks_like_oid("1.3.6.1.2.1.2.2.1.10.3")
        assert looks_like_oid(".1.3.6.4")
        assert not looks_like_oid("10.0.0.1")  # IPv4: 4 parts, not 1.3.6.
        assert not looks_like_oid("1.2.3")
        assert not looks_like_oid("hello")


class TestRML007MetricNames:
    def test_unregistered_name_flagged(self):
        vs = run(
            """
            from repro import obs

            obs.counter("snmp.client.tyop_pdus").inc()
            """,
            "src/repro/snmp/client2.py",
        )
        assert [v.code for v in vs] == ["RML007"]
        assert "catalogue" in vs[0].message

    def test_registered_name_sanctioned(self):
        vs = run(
            """
            from repro import obs

            obs.counter("snmp.client.pdus", op="get").inc()
            obs.histogram("rps.fit.wall_s", spec="AR(16)").observe(0.1)
            obs.gauge("netsim.engine.sim_time_s").set(1.0)
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            from repro import obs

            obs.counter("made.up.name").inc()  # remoslint: disable=RML007
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_obs_layer_exempt(self):
        vs = run(
            'from repro import obs\nobs.counter("internal.name").inc()\n',
            "src/repro/obs/registry.py",
        )
        assert vs == []

    def test_dynamic_names_skipped(self):
        vs = run(
            """
            from repro import obs

            def bump(name):
                obs.counter(name).inc()
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_injected_catalogue(self):
        rule = MetricNameRule(catalogue=frozenset({"known.metric"}))
        vs = lint_source(
            'from repro import obs\nobs.counter("other.metric").inc()\n',
            [rule],
            path="src/repro/snmp/client2.py",
        )
        assert [v.code for v in vs] == ["RML007"]


class TestRML008SpanNames:
    def test_unregistered_span_name_flagged(self):
        vs = run(
            """
            from repro import obs

            with obs.span("session.flow_infoo"):
                pass
            """,
            "src/repro/snmp/client2.py",
        )
        assert [v.code for v in vs] == ["RML008"]
        assert "SPAN_NAMES" in vs[0].message

    def test_registered_span_names_sanctioned(self):
        vs = run(
            """
            from repro import obs

            with obs.span("session.flow_info"):
                with obs.span("collectors.master.delegate", site="cmu"):
                    pass
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_registry_handle_form_flagged(self):
        vs = run(
            """
            from repro.obs import MetricsRegistry

            reg = MetricsRegistry()
            with reg.span("totally.unknown"):
                pass
            """,
            "src/repro/snmp/client2.py",
        )
        assert [v.code for v in vs] == ["RML008"]

    def test_pragma_suppresses(self):
        vs = run(
            """
            from repro import obs

            with obs.span("made.up.span"):  # remoslint: disable=RML008
                pass
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_obs_layer_exempt(self):
        vs = run(
            'from repro import obs\nobs.span("internal.span")\n',
            "src/repro/obs/registry2.py",
        )
        assert vs == []

    def test_dynamic_names_and_unrelated_span_methods_skipped(self):
        vs = run(
            """
            from repro import obs

            def trace(name, tree):
                with obs.span(name):
                    tree.span("not.an.obs.span")
            """,
            "src/repro/snmp/client2.py",
        )
        assert vs == []

    def test_injected_catalogue(self):
        rule = SpanNameRule(catalogue=frozenset({"known.span"}))
        vs = lint_source(
            'from repro import obs\nobs.span("other.span")\n',
            [rule],
            path="src/repro/snmp/client2.py",
        )
        assert [v.code for v in vs] == ["RML008"]


class TestEveryRuleHasFixtureCoverage:
    def test_all_seven_rules_exist(self):
        codes = {r.code for r in make_rules()}
        # RML003 policed the deleted Modeler query shims; its code stays retired
        assert codes == {f"RML00{i}" for i in range(1, 9)} - {"RML003"}
