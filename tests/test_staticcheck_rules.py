"""Unit tests for the invariant linter's rule pack (REP001, REP003,
REP006–REP011).

Each rule gets a bad snippet that must flag, a good snippet that must
pass, and a noqa-suppression path. The on-disk corpus under
``tests/staticcheck_corpus/`` exercises the same rules through the CLI
(see ``test_staticcheck_cli.py``); these tests pin the per-rule
semantics at the ``lint_source`` level.
"""

import json
import textwrap

import pytest

from repro.staticcheck import lint_source
from repro.staticcheck.driver import PARSE_RULE_ID, parse_suppressions
from repro.staticcheck.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    JSON_REPORT_VERSION,
    exit_code_for,
    render_json,
    render_text,
)


def lint(source, module="repro.measurement.example", **kwargs):
    return lint_source(textwrap.dedent(source), module=module, **kwargs)


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


class TestRep001Determinism:
    def test_wall_clock_read_is_flagged(self):
        result = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids_of(result) == ["REP001"]
        assert "wall clock" in result.findings[0].message

    def test_unseeded_random_is_flagged_seeded_is_not(self):
        bad = lint("import random\nrng = random.Random()\n")
        good = lint("import random\nrng = random.Random(1234)\n")
        assert rule_ids_of(bad) == ["REP001"]
        assert good.clean

    def test_module_level_rng_and_entropy(self):
        result = lint(
            """
            import os
            import random
            import uuid

            def roll():
                return random.random(), os.urandom(4), uuid.uuid4()
            """
        )
        assert rule_ids_of(result) == ["REP001", "REP001", "REP001"]

    def test_forbidden_from_import_is_flagged_even_unused(self):
        result = lint("from random import choice\n")
        assert rule_ids_of(result) == ["REP001"]
        assert "import of random.choice" in result.findings[0].message

    def test_allowlisted_module_is_exempt(self):
        result = lint(
            "import time\n\ndef now():\n    return time.monotonic()\n",
            module="repro.dnssim.clock",
        )
        assert result.clean

    def test_import_alias_is_resolved(self):
        result = lint(
            """
            import time as clk

            def stamp():
                return clk.perf_counter()
            """
        )
        assert rule_ids_of(result) == ["REP001"]

    def test_noqa_suppresses_with_reason(self):
        result = lint(
            "import time\n"
            "t = time.time()  # repro: noqa[REP001] -- operator-facing only\n"
        )
        assert result.clean
        assert len(result.suppressions) == 1
        assert result.suppressions[0].reason == "operator-facing only"

    def test_seeded_random_in_faults_package_is_flagged(self):
        # Inside repro.faults even a *seeded* Random bypasses the keyed
        # PRNG contract: draws would depend on call order, not keys.
        result = lint(
            "import random\nrng = random.Random(42)\n",
            module="repro.faults.injector",
        )
        assert rule_ids_of(result) == ["REP001"]
        assert "repro.faults.prng" in result.findings[0].message

    def test_unseeded_random_in_faults_package_is_flagged_once(self):
        result = lint(
            "import random\nrng = random.Random()\n",
            module="repro.faults.injector",
        )
        assert rule_ids_of(result) == ["REP001"]

    def test_faults_prng_module_may_construct_seeded_random(self):
        result = lint(
            "import random\n\ndef stream(seed):\n"
            "    return random.Random(seed)\n",
            module="repro.faults.prng",
        )
        assert result.clean

    def test_seeded_random_outside_faults_package_still_fine(self):
        result = lint(
            "import random\nrng = random.Random(7)\n",
            module="repro.worldgen.generate",
        )
        assert result.clean


class TestRep002SortedIteration:
    """Set-iteration inputs once owned by a syntactic rule, now held to
    REP008 (the class keeps its name so the test ids stay stable)."""

    def test_for_loop_over_set_is_flagged(self):
        result = lint(
            """
            names = {"a", "b"}
            for name in names:
                print(name)
            """
        )
        assert rule_ids_of(result) == ["REP008"]
        assert result.findings[0].fix  # the sorted(...) wrap

    def test_sorted_wrap_passes(self):
        result = lint(
            """
            names = {"a", "b"}
            for name in sorted(names):
                print(name)
            """
        )
        assert result.clean

    def test_join_and_list_of_set_are_flagged(self):
        result = lint(
            """
            def render(tags: set) -> str:
                return ",".join(tags) + str(list(tags))
            """
        )
        # One finding per iteration site: the join, then list(...).
        assert rule_ids_of(result) == ["REP008", "REP008"]

    def test_order_insensitive_consumers_pass(self):
        result = lint(
            """
            def stats(tags: set):
                return len(tags), max(tags), any(t for t in tags)
            """
        )
        assert result.clean

    def test_set_algebra_result_is_tracked(self):
        result = lint(
            """
            def diff(seen: set, all_items: set):
                return [item for item in all_items - seen]
            """
        )
        assert rule_ids_of(result) == ["REP008"]

    def test_self_attribute_sets_are_tracked_across_methods(self):
        result = lint(
            """
            class Collector:
                def __init__(self):
                    self.seen = set()

                def dump(self):
                    return list(self.seen)
            """
        )
        assert rule_ids_of(result) == ["REP008"]

    def test_bare_noqa_suppresses_any_rule(self):
        result = lint(
            'names = {"a"}\n'
            "rows = list(names)  # repro: noqa -- order never serialized\n"
        )
        assert result.clean and len(result.suppressions) == 1

    def test_noqa_for_other_rule_does_not_suppress(self):
        result = lint(
            'names = {"a"}\n'
            "rows = list(names)  # repro: noqa[REP001] -- wrong rule id\n"
        )
        assert rule_ids_of(result) == ["REP008"]


class TestRep003Layering:
    def test_upward_import_is_flagged(self):
        result = lint(
            "from repro.engine.plan import plan_campaign\n",
            module="repro.dnssim.resolver",
        )
        assert rule_ids_of(result) == ["REP003"]
        assert "strictly downward" in result.findings[0].message

    def test_peer_simulator_import_is_flagged(self):
        result = lint("import repro.tlssim\n", module="repro.dnssim.resolver")
        assert rule_ids_of(result) == ["REP003"]
        assert "peers" in result.findings[0].message

    def test_downward_import_passes(self):
        result = lint(
            "from repro.names import psl\nfrom repro.dnssim.zones import Zone\n",
            module="repro.worldgen.builder",
        )
        assert result.clean

    def test_relative_import_is_resolved(self):
        # ``from ..engine import plan`` inside repro.analysis climbs to
        # repro.engine — a legal downward import for analysis (layer 7).
        down = lint(
            "from ..engine import plan\n", module="repro.analysis.tables"
        )
        assert down.clean
        # The same relative import from a simulator is upward.
        up = lint(
            "from ..engine import plan\n", module="repro.dnssim.resolver"
        )
        assert rule_ids_of(up) == ["REP003"]

    def test_lazy_function_body_import_is_still_checked(self):
        result = lint(
            """
            def render():
                from repro.cli import main
                return main
            """,
            module="repro.analysis.tables",
        )
        assert rule_ids_of(result) == ["REP003"]

    def test_top_level_package_import_counts_as_cli(self):
        result = lint(
            "from repro import run_campaign\n", module="repro.names.psl"
        )
        assert rule_ids_of(result) == ["REP003"]


class TestRep004WorkerSafety:
    """Callable-shape and entry-``global`` inputs once owned by a
    separate rule, now held to REP009 (the class keeps its name so the
    test ids stay stable)."""

    def test_lambda_submission_is_flagged(self):
        result = lint("list(pool.map(lambda x: x, items))\n")
        assert rule_ids_of(result) == ["REP009"]
        assert "pickle" in result.findings[0].message

    def test_nested_function_submission_is_flagged(self):
        result = lint(
            """
            def run(pool, items):
                def work(item):
                    return item
                return pool.map(work, items)
            """
        )
        assert rule_ids_of(result) == ["REP009"]

    def test_bound_method_submission_is_flagged(self):
        result = lint(
            """
            def run(pool, worker, items):
                return pool.imap_unordered(worker.measure, items)
            """
        )
        assert rule_ids_of(result) == ["REP009"]

    def test_module_level_function_passes(self):
        result = lint(
            """
            def work(item):
                return item

            def run(pool, items):
                return pool.map(work, items)
            """
        )
        assert result.clean

    def test_task_rebinding_module_state_is_flagged(self):
        result = lint(
            """
            _CACHE = {}

            def work(item):
                global _CACHE
                _CACHE = {}
                return item

            def run(pool, items):
                return pool.map(work, items)
            """
        )
        assert rule_ids_of(result) == ["REP009"]
        assert "initializer" in result.findings[0].message

    def test_initializer_may_rebind_module_state(self):
        result = lint(
            """
            _CONFIG = None

            def setup(config):
                global _CONFIG
                _CONFIG = config

            def run(pool_factory, config):
                return pool_factory(initializer=setup, initargs=(config,))
            """
        )
        assert result.clean


class TestRep006TelemetryBoundary:
    def test_core_importing_telemetry_is_flagged(self):
        result = lint(
            "from repro.telemetry import Telemetry\n",
            module="repro.core.classification",
        )
        assert rule_ids_of(result) == ["REP006"]
        assert "observability-free" in result.findings[0].message

    def test_core_lazy_import_is_flagged_too(self):
        result = lint(
            """
            def classify():
                from repro.telemetry.metrics import MetricsRegistry
                return MetricsRegistry
            """,
            module="repro.core.graph",
        )
        assert rule_ids_of(result) == ["REP006"]

    def test_other_layers_may_import_telemetry(self):
        result = lint(
            "from repro.telemetry import Telemetry\n",
            module="repro.measurement.runner",
        )
        assert result.clean

    def test_store_importing_the_runner_is_flagged(self):
        # A dotted forbidden target names one module: the layer DAG
        # allows store -> measurement, but not the live-campaign runner.
        result = lint(
            "from repro.measurement.runner import MeasurementCampaign\n",
            module="repro.store.compile",
        )
        assert rule_ids_of(result) == ["REP006"]
        assert "never a live campaign" in result.findings[0].message

    def test_store_lazy_runner_import_is_one_finding(self):
        result = lint(
            """
            def freeze():
                import repro.measurement.runner as runner
                return runner
            """,
            module="repro.store.compile",
        )
        assert rule_ids_of(result) == ["REP006"]

    def test_store_may_import_the_frozen_dataset_side(self):
        result = lint(
            "from repro.measurement.io import dataset_from_json\n"
            "from repro.measurement.records import Dataset\n",
            module="repro.store.compile",
        )
        assert result.clean

    def test_core_importing_the_store_is_doubly_forbidden(self):
        # Both the DAG (core is below store) and the explicit edge fire.
        result = lint(
            "from repro.store import StoreReader\n",
            module="repro.core.pipeline",
        )
        assert sorted(set(rule_ids_of(result))) == ["REP003", "REP006"]

    def test_query_importing_the_store_is_clean(self):
        result = lint(
            "from repro.store.reader import StoreReader\n",
            module="repro.query.engine",
        )
        assert result.clean

    def test_store_importing_query_violates_the_dag(self):
        result = lint(
            "from repro.query import QueryEngine\n",
            module="repro.store.compile",
        )
        assert rule_ids_of(result) == ["REP003"]
        assert "strictly downward" in result.findings[0].message

    def test_wallclock_call_in_serialized_module_is_flagged(self):
        result = lint(
            """
            import time

            def stamp():
                return time.monotonic()
            """,
            module="repro.telemetry.spans",
        )
        # REP001 (ambient wall clock) and REP006 (serialization path)
        # both fire: the serialized side of telemetry has no exemption.
        assert sorted(set(rule_ids_of(result))) == ["REP001", "REP006"]
        assert any(
            "simulated clock" in f.message
            for f in result.findings
            if f.rule_id == "REP006"
        )

    def test_importing_the_wallclock_module_is_flagged(self):
        result = lint(
            "from repro.telemetry.profile import PhaseTimer\n",
            module="repro.telemetry.export",
        )
        assert rule_ids_of(result) == ["REP006"]
        assert "serialization path" in result.findings[0].message

    def test_relative_import_of_the_wallclock_module_is_flagged(self):
        result = lint(
            "from .profile import PhaseTimer\n",
            module="repro.telemetry.metrics",
        )
        assert rule_ids_of(result) == ["REP006"]

    def test_profile_module_itself_may_read_real_time(self):
        result = lint(
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
            module="repro.telemetry.profile",
        )
        assert result.clean

    def test_nonserialized_telemetry_module_is_not_policed(self):
        result = lint(
            "from repro.telemetry.profile import PhaseTimer\n",
            module="repro.telemetry.context_helpers",
        )
        assert result.clean


class TestDriverMechanics:
    def test_syntax_error_becomes_parse_finding(self):
        result = lint("def broken(:\n")
        assert rule_ids_of(result) == [PARSE_RULE_ID]

    def test_parse_suppressions_reads_rules_and_reason(self):
        directives = parse_suppressions(
            "x = 1\n"
            "y = 2  # repro: noqa[REP001,REP008] -- because\n"
            "z = 3  # repro: noqa\n"
        )
        assert directives[2] == (frozenset({"REP001", "REP008"}), "because")
        assert directives[3] == (None, "")
        assert 1 not in directives

    def test_rule_selection_via_config(self):
        from repro.staticcheck import LintConfig

        source = 'names = {"a"}\nrows = list(names)\n'
        only_rep001 = lint_source(
            source, module="m", config=LintConfig(rules=frozenset({"REP001"}))
        )
        assert only_rep001.clean  # the REP008 finding is not even computed


class TestReporters:
    def _result(self):
        return lint(
            "import time\n"
            "a = time.time()\n"
            "b = time.time()  # repro: noqa[REP001] -- waived\n"
        )

    def test_text_report_has_findings_and_summary(self):
        text = render_text(self._result())
        assert "REP001" in text
        assert "checked 1 file(s): 1 finding(s), 1 suppressed" in text

    def test_json_report_schema(self):
        result = self._result()
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["files_checked"] == 1
        assert payload["exit_code"] == EXIT_FINDINGS
        from repro.staticcheck.rules import rule_ids

        assert set(payload["counts"]) == set(rule_ids())
        assert payload["counts"]["REP001"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "REP001" and finding["line"] == 2
        (suppressed,) = payload["suppressed"]
        assert suppressed["reason"] == "waived"

    def test_exit_codes(self):
        assert exit_code_for(lint("x = 1\n")) == EXIT_CLEAN
        assert exit_code_for(self._result()) == EXIT_FINDINGS


def only(rule_id, **overrides):
    from repro.staticcheck import LintConfig

    return LintConfig(rules=frozenset({rule_id}), **overrides)


class TestRep007TaintTracking:
    def test_laundered_wallclock_into_serializer(self):
        result = lint(
            """
            import json
            import time


            def snapshot() -> str:
                started = time.time()
                payload = {"started": started}
                return json.dumps(payload)
            """,
            config=only("REP007"),
        )
        (finding,) = result.findings
        assert finding.rule_id == "REP007"
        assert "time.time()" in finding.message
        assert "sink line" in finding.message
        assert " -> " in finding.message  # the witness path

    def test_sink_return_of_to_dict(self):
        result = lint(
            """
            import time


            class Timer:
                def to_dict(self) -> dict:
                    elapsed = time.time()
                    payload = {"elapsed": elapsed}
                    return payload
            """,
            config=only("REP007"),
        )
        assert rule_ids_of(result) == ["REP007"]

    def test_wallclock_into_a_record_constructor(self):
        result = lint(
            """
            import time

            from repro.measurement.records import SoaIdentity


            def stamp() -> SoaIdentity:
                started = time.time()
                return SoaIdentity(mname=str(started), rname="r.example")
            """,
            config=only("REP007"),
        )
        (finding,) = result.findings
        assert "record constructor SoaIdentity(...)" in finding.message

    def test_entropy_into_digest(self):
        result = lint(
            """
            import hashlib
            import os


            def token() -> str:
                raw = os.urandom(16)
                return hashlib.sha256(raw).hexdigest()
            """,
            config=only("REP007"),
        )
        (finding,) = result.findings
        assert "os.urandom()" in finding.message

    @pytest.mark.parametrize(
        "source,label",
        [
            ("time.time()", "time.time()"),
            ("os.urandom(8).hex()", "os.urandom()"),
        ],
        ids=["wallclock", "entropy"],
    )
    @pytest.mark.parametrize(
        "store",
        ['payload["started"] = {source}', "payload.update(started={source})"],
        ids=["subscript", "update"],
    )
    def test_value_stored_into_a_container(self, store, source, label):
        result = lint(
            f"""
            import json
            import os
            import time


            def snapshot() -> str:
                payload = {{}}
                {store.format(source=source)}
                return json.dumps(payload)
            """,
            config=only("REP007"),
        )
        (finding,) = result.findings
        assert f"line 9 ({label})" in finding.message
        assert "sink line 10" in finding.message

    def test_set_order_into_serializer(self):
        result = lint(
            """
            import json


            def dump(names: set) -> str:
                rows = list(names)
                return json.dumps(rows)
            """,
            config=only("REP007"),
        )
        assert rule_ids_of(result) == ["REP007"]

    def test_set_order_into_the_json_writer(self):
        result = lint(
            """
            from repro.measurement.jsonwriter import write_json


            def dump(names: set) -> str:
                rows = list(names)
                return write_json(rows, sort_keys=True)
            """,
            config=only("REP007"),
        )
        assert rule_ids_of(result) == ["REP007"]

    def test_sorted_flow_is_clean(self):
        result = lint(
            """
            import json


            def dump(names: set) -> str:
                rows = sorted(names)
                return json.dumps(rows)
            """,
            config=only("REP007"),
        )
        assert result.clean

    @pytest.mark.parametrize("call", ["pickle.dumps(dict(k=s))", "json.dumps(g(s))"])
    def test_set_through_a_plain_call_into_serializer(self, call):
        """An unknown plain call hands back what it is given: a set."""
        result = lint(
            "import json\nimport pickle\n\n\n"
            f"def dump(s: set) -> bytes:\n    return {call}\n",
            config=only("REP007"),
        )
        assert rule_ids_of(result) == ["REP007"]

    def test_untainted_serialization_is_clean(self):
        result = lint(
            """
            import json


            def dump(rows: list) -> str:
                return json.dumps(rows)
            """,
            config=only("REP007"),
        )
        assert result.clean


class TestRep008FlowIteration:
    def test_set_iteration_order_reaching_append(self):
        result = lint(
            """
            def collect(names: set) -> list:
                out = []
                for name in names:
                    out.append(name)
                return out
            """,
            config=only("REP008"),
        )
        (finding,) = result.findings
        assert "sorted" in finding.message
        assert "iterated here" in finding.message

    def test_xor_fold_is_clean_without_a_waiver(self):
        """The false-positive class of a syntactic check: commutative folds."""
        result = lint(
            """
            def checksum(names: set) -> int:
                total = 0
                for name in names:
                    total ^= len(name)
                return total
            """,
            config=only("REP008"),
        )
        assert result.clean

    def test_every_site_reaching_one_sink_is_reported(self):
        result = lint(
            """
            def merge(a: set, b: set) -> list:
                return list(a) + list(b)
            """,
            config=only("REP008"),
        )
        assert [(f.line, f.col) for f in result.findings] == [(3, 16), (3, 26)]

    def test_waiving_one_site_does_not_hide_another(self):
        result = lint(
            """
            def merge(a: set, b: set) -> list:
                x = list(a)  # repro: noqa[REP008] -- test waiver
                y = list(b)
                return x + y
            """,
            config=only("REP008"),
        )
        assert [(f.line, f.col) for f in result.findings] == [(4, 13)]
        assert len(result.suppressions) == 1

    def test_dict_fromkeys_laundering_into_join(self):
        result = lint(
            """
            def header(columns: set) -> str:
                ordered = dict.fromkeys(columns)
                return "|".join(ordered)
            """,
            config=only("REP008"),
        )
        assert rule_ids_of(result) == ["REP008"]

    def test_sorted_iteration_is_clean(self):
        result = lint(
            """
            def collect(names: set) -> list:
                out = []
                for name in sorted(names):
                    out.append(name)
                return out
            """,
            config=only("REP008"),
        )
        assert result.clean

    def test_appending_a_whole_set_object_is_clean(self):
        """Appending the set itself does not leak its iteration order."""
        result = lint(
            """
            def group(names: set) -> list:
                out = []
                out.append(names)
                return out
            """,
            config=only("REP008"),
        )
        assert result.clean


#: (shape, leaking source, its sorted(...) twin). Every leak is one
#: REP008 finding at the iteration site, carrying the sorted() fix.
_ORDER_LEAKS = [
    ("return-list", "def f(s: set):\n    return list(s)\n",
     "def f(s: set):\n    return list(sorted(s))\n"),
    ("return-tuple", "def f(s: set):\n    return tuple(s)\n",
     "def f(s: set):\n    return tuple(sorted(s))\n"),
    ("return-unpack", "def f(s: set):\n    return [*s]\n",
     "def f(s: set):\n    return [*sorted(s)]\n"),
    ("return-fromkeys", "def f(s: set):\n    return dict.fromkeys(s)\n",
     "def f(s: set):\n    return dict.fromkeys(sorted(s))\n"),
    ("yield-from", "def f(s: set):\n    yield from s\n",
     "def f(s: set):\n    yield from sorted(s)\n"),
    ("yield-in-loop", "def f(s: set):\n    for x in s:\n        yield x\n",
     "def f(s: set):\n    for x in sorted(s):\n        yield x\n"),
    ("enumerate", "def f(s: set):\n    return list(enumerate(s))\n",
     "def f(s: set):\n    return list(enumerate(sorted(s)))\n"),
    ("set-algebra-comp",
     "def f(a: set, b: set):\n    return [x for x in a - b]\n",
     "def f(a: set, b: set):\n    return [x for x in sorted(a - b)]\n"),
    ("dict-comp", "def f(s: set):\n    return {x: 1 for x in s}\n",
     "def f(s: set):\n    return {x: 1 for x in sorted(s)}\n"),
    ("dict-fill",
     "def f(s: set):\n    d = {}\n    for x in s:\n        d[x] = len(x)\n"
     "    return d\n",
     "def f(s: set):\n    d = {}\n    for x in sorted(s):\n"
     "        d[x] = len(x)\n    return d\n"),
    ("self-attribute",
     "class C:\n    def __init__(self):\n        self.seen = set()\n\n"
     "    def dump(self):\n        return list(self.seen)\n",
     "class C:\n    def __init__(self):\n        self.seen = set()\n\n"
     "    def dump(self):\n        return list(sorted(self.seen))\n"),
    ("extend",
     "def f(s: set):\n    out = []\n    out.extend(s)\n    return out\n",
     "def f(s: set):\n    out = []\n    out.extend(sorted(s))\n"
     "    return out\n"),
    ("aug-concat",
     "def f(s: set):\n    acc = ''\n    for x in s:\n        acc += x\n"
     "    return acc\n",
     "def f(s: set):\n    acc = ''\n    for x in sorted(s):\n"
     "        acc += x\n    return acc\n"),
    ("concat",
     "def f(s: set):\n    acc = ''\n    for x in s:\n        acc = acc + x\n"
     "    return acc\n",
     "def f(s: set):\n    acc = ''\n    for x in sorted(s):\n"
     "        acc = acc + x\n    return acc\n"),
    ("aug-extend-by-set",
     "def f(s: set):\n    acc = []\n    acc += s\n    return acc\n",
     "def f(s: set):\n    acc = []\n    acc += sorted(s)\n    return acc\n"),
    ("aug-list",
     "def f(s: set):\n    acc = []\n    for x in s:\n        acc += [x]\n"
     "    return acc\n",
     "def f(s: set):\n    acc = []\n    for x in sorted(s):\n"
     "        acc += [x]\n    return acc\n"),
    ("join-map-str", "def f(s: set):\n    return ','.join(map(str, s))\n",
     "def f(s: set):\n    return ','.join(map(str, sorted(s)))\n"),
    ("write-str", "def f(fh, s: set):\n    fh.write(str(s))\n",
     "def f(fh, s: set):\n    fh.write(str(sorted(s)))\n"),
    ("attribute-across-methods",
     "class C:\n    def __init__(self, s: set):\n        self.seen = s\n\n"
     "    def load(self):\n        self.rows = list(self.seen)\n\n"
     "    def get(self):\n        return self.rows\n",
     "class C:\n    def __init__(self, s: set):\n        self.seen = s\n\n"
     "    def load(self):\n        self.rows = list(sorted(self.seen))\n\n"
     "    def get(self):\n        return self.rows\n"),
    ("module-binding", "SEEN = {'a', 'b'}\nNAMES = list(SEEN)\n",
     "SEEN = {'a', 'b'}\nNAMES = list(sorted(SEEN))\n"),
    ("module-tuple", "NAMES = tuple({'a', 'b'})\n",
     "NAMES = tuple(sorted({'a', 'b'}))\n"),
    ("module-dict-fill",
     "SEEN = {'a'}\nINDEX = {}\nfor x in SEEN:\n    INDEX[x] = 1\n",
     "SEEN = {'a'}\nINDEX = {}\nfor x in sorted(SEEN):\n    INDEX[x] = 1\n"),
    ("call-argument", "def f(writer, s: set):\n    writer.writerow(list(s))\n",
     "def f(writer, s: set):\n    writer.writerow(list(sorted(s)))\n"),
]

#: Order-insensitive consumers of a raw set: no finding, no waiver.
_COMMUTATIVE = [
    ("xor-fold",
     "def f(s: set):\n    t = 0\n    for x in s:\n        t ^= len(x)\n"
     "    return t\n"),
    ("or-fold",
     "def f(s: set):\n    t = 0\n    for x in s:\n        t |= len(x)\n"
     "    return t\n"),
    ("and-fold",
     "def f(s: set):\n    t = -1\n    for x in s:\n        t &= len(x)\n"
     "    return t\n"),
    ("reductions",
     "def f(s: set):\n"
     "    return len(s), sum(s), min(s), max(s), any(s), all(s)\n"),
    ("append-whole-set",
     "def f(s: set):\n    out = []\n    out.append(s)\n    return out\n"),
    ("xor-fold-into-attribute",
     "class C:\n    def f(self, s: set):\n        for x in s:\n"
     "            self.t ^= len(x)\n"),
    ("module-sorted", "SEEN = {'a'}\nNAMES = sorted(SEEN)\nN = len(list(SEEN))\n"),
]


class TestRep008OrderShapes:
    @pytest.mark.parametrize(
        "source", [leak for _, leak, _ in _ORDER_LEAKS],
        ids=[shape for shape, _, _ in _ORDER_LEAKS],
    )
    def test_leak_is_flagged_at_its_iteration_site(self, source):
        from repro.staticcheck.fixes import apply_fixes

        result = lint(source, config=only("REP008"))
        (finding,) = result.findings
        assert finding.rule_id == "REP008"
        fixed, count = apply_fixes(textwrap.dedent(source), result.findings)
        assert count == 1
        assert lint(fixed, config=only("REP008")).clean

    @pytest.mark.parametrize(
        "source", [twin for _, _, twin in _ORDER_LEAKS],
        ids=[shape for shape, _, _ in _ORDER_LEAKS],
    )
    def test_sorted_twin_is_clean(self, source):
        assert lint(source, config=only("REP008")).clean

    @pytest.mark.parametrize(
        "source", [source for _, source in _COMMUTATIVE],
        ids=[shape for shape, _ in _COMMUTATIVE],
    )
    def test_commutative_consumer_is_clean(self, source):
        assert lint(source, config=only("REP008")).clean


class TestRep009WorkerReachability:
    def test_mutation_through_helper_is_flagged(self):
        result = lint(
            """
            _CACHE: dict = {}


            def _remember(key, value):
                _CACHE[key] = value


            def run_shard(shard):
                value = len(shard)
                _remember(shard, value)
                return value


            def launch(pool, shards):
                return list(pool.imap(run_shard, shards))
            """,
            module="repro.engine.tasks",
            config=only("REP009"),
        )
        (finding,) = result.findings
        assert "_CACHE" in finding.message
        assert "_remember" in finding.message

    def test_initializer_may_rebind(self):
        result = lint(
            """
            _WORLD = None


            def _init_worker(world):
                global _WORLD
                _WORLD = world


            def run_shard(shard):
                return len(shard)


            def launch(pool_cls, world, shards):
                with pool_cls(initializer=_init_worker) as pool:
                    return list(pool.imap(run_shard, shards))
            """,
            module="repro.engine.tasks",
            config=only("REP009"),
        )
        assert result.clean

    def test_read_only_module_state_is_clean(self):
        result = lint(
            """
            _WORLD = None


            def run_shard(shard):
                return 0 if _WORLD is None else len(shard)


            def launch(pool, shards):
                return list(pool.imap(run_shard, shards))
            """,
            module="repro.engine.tasks",
            config=only("REP009"),
        )
        assert result.clean

    def test_configured_entry_points_without_local_submission(self):
        result = lint(
            """
            _STATS: dict = {}


            def entry(shard):
                _STATS[shard] = 1
            """,
            module="repro.engine.tasks",
            config=only(
                "REP009",
                rep009_entry_points=frozenset({"repro.engine.tasks:entry"}),
            ),
        )
        (finding,) = result.findings
        assert "_STATS" in finding.message

    def test_local_mutation_is_clean(self):
        result = lint(
            """
            def run_shard(shard):
                local: dict = {}
                local[shard] = 1
                return local


            def launch(pool, shards):
                return list(pool.imap(run_shard, shards))
            """,
            module="repro.engine.tasks",
            config=only("REP009"),
        )
        assert result.clean


class TestRep010PerfSmells:
    def test_pop_front_on_list_is_flagged_with_fix(self):
        result = lint(
            """
            def drainq() -> int:
                queue = [3, 1, 2]
                total = 0
                while queue:
                    total += queue.pop(0)
                return total
            """,
            config=only("REP010"),
        )
        (finding,) = result.findings
        assert "pop(0)" in finding.message
        assert finding.fix  # construction is local and unique: fixable
        replacements = [edit.replacement for edit in finding.fix]
        assert ".popleft()" in replacements
        assert "from collections import deque\n" in replacements

    def test_pop_front_on_unknown_receiver_is_clean(self):
        result = lint(
            """
            def drainq(queue) -> int:
                total = 0
                while queue:
                    total += queue.pop(0)
                return total
            """,
            config=only("REP010"),
        )
        assert result.clean  # may already be a deque

    def test_membership_in_loop(self):
        result = lint(
            """
            def hits(queries, known: list) -> int:
                count = 0
                for query in queries:
                    if query in known:
                        count += 1
                return count
            """,
            config=only("REP010"),
        )
        (finding,) = result.findings
        assert "membership" in finding.message

    def test_membership_against_mutating_list_is_clean(self):
        result = lint(
            """
            def dedupe(items) -> list:
                seen = []
                for item in items:
                    if item in seen:
                        continue
                    seen.append(item)
                return seen
            """,
            config=only("REP010"),
        )
        assert result.clean  # hoisting would change behavior

    def test_shrinking_min_max(self):
        result = lint(
            """
            def schedule(jobs: list) -> list:
                done = []
                while jobs:
                    job = min(jobs)
                    jobs.remove(job)
                    done.append(job)
                return done
            """,
            config=only("REP010"),
        )
        (finding,) = result.findings
        assert "min()" in finding.message

    def test_nested_same_iterable(self):
        result = lint(
            """
            def pairs(nodes: list) -> list:
                out = []
                for a in nodes:
                    for b in nodes:
                        out.append((a, b))
                return out
            """,
            config=only("REP010"),
        )
        (finding,) = result.findings
        assert "nested loops" in finding.message

    def test_nested_different_iterables_are_clean(self):
        result = lint(
            """
            def cross(lefts: list, rights: list) -> list:
                out = []
                for a in lefts:
                    for b in rights:
                        out.append((a, b))
                return out
            """,
            config=only("REP010"),
        )
        assert result.clean


class TestRep011TrustedPaths:
    CALLS = """
        from repro.dnssim.records import ResourceRecord

        def answer(zone, server, cache, name, rrtype, rdata):
            rr = ResourceRecord._make(name, 300, rdata, 1)
            zone._add_rr(rr)
            cached = cache._peek((name, rrtype))
            return server._zone_for(name)._lookup(name, rrtype, None), cached
    """

    def test_each_trusted_path_outside_dnssim_is_flagged(self):
        result = lint(self.CALLS, config=only("REP011"))
        assert sorted(
            finding.message.split()[0] for finding in result.findings
        ) == ["_add_rr", "_lookup", "_make", "_peek", "_zone_for"]
        assert "repro.dnssim, repro.worldgen.materialize" in (
            result.findings[0].message
        )

    def test_a_laundering_reference_is_flagged(self):
        result = lint(
            """
            from repro.dnssim.records import ARecord

            make_a = ARecord._make
            """,
            module="repro.worldgen.generate",
            config=only("REP011"),
        )
        (finding,) = result.findings
        assert finding.line == 4

    @pytest.mark.parametrize(
        "module", ["repro.dnssim.resolver", "repro.worldgen.materialize"]
    )
    def test_trusted_modules_are_clean(self, module):
        assert lint(self.CALLS, module=module, config=only("REP011")).clean

    def test_a_sibling_of_the_materializer_is_not_trusted(self):
        result = lint(
            self.CALLS, module="repro.worldgen.materialize_extra",
            config=only("REP011"),
        )
        assert len(result.findings) == 5

    def test_noqa_suppresses_with_reason(self):
        result = lint(
            "rr = ResourceRecord._make(name, 300, rdata, 1)"
            "  # repro: noqa[REP011] -- name is canonical\n",
            config=only("REP011"),
        )
        assert result.clean
        assert len(result.suppressions) == 1
