"""End-to-end tests for ``repro lint`` against the on-disk corpus.

``tests/staticcheck_corpus/bad`` is a miniature ``repro`` package tree
with at least one violation per rule; ``.../good`` mirrors it with the
compliant version of each pattern (plus justified suppressions).
"""

import json
from pathlib import Path

from repro.cli import main
from repro.staticcheck.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    JSON_REPORT_VERSION,
    SARIF_VERSION,
)
from repro.staticcheck.rules import rule_ids

CORPUS = Path(__file__).parent / "staticcheck_corpus"
BAD = str(CORPUS / "bad")
GOOD = str(CORPUS / "good")

ALL_IDS = tuple(rule_ids())


class TestCorpus:
    def test_bad_corpus_fails_with_accurate_locations(self, capsys):
        assert main(["lint", BAD]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        # Every rule in the pack must fire at least once.
        for rule_id in ALL_IDS:
            assert rule_id in out, rule_id
        # Findings carry path:line:col anchors into the corpus.
        assert "bad/repro/dnssim/wallclock.py:11:" in out
        assert "bad/repro/engine/workers.py:" in out

    def test_good_corpus_is_clean_with_suppressions(self, capsys):
        assert main(["lint", GOOD]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 finding(s), 1 suppressed" in out

    def test_json_report_over_bad_corpus(self, capsys):
        assert main(["lint", "--format", "json", BAD]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["exit_code"] == EXIT_FINDINGS
        for rule_id in ALL_IDS:
            assert payload["counts"][rule_id] >= 1, rule_id
        assert payload["files_checked"] == len(
            list((CORPUS / "bad").rglob("*.py"))
        )
        for finding in payload["findings"]:
            assert Path(finding["path"]).exists()
            assert finding["line"] >= 1

    def test_rule_selection_narrows_the_run(self, capsys):
        assert main(
            ["lint", "--rules", "REP003", "--format", "json", BAD]
        ) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["REP003"] >= 1
        assert all(f["rule"] == "REP003" for f in payload["findings"])

    def test_single_file_paths_work(self, capsys):
        bad_file = str(CORPUS / "bad" / "repro" / "measurement" / "emit.py")
        assert main(["lint", bad_file]) == EXIT_FINDINGS
        assert "REP008" in capsys.readouterr().out

    def test_taint_flow_only_rep007_catches_laundered_wallclock(self, capsys):
        """The acceptance case: ``repro.telemetry.profile`` may read the
        wall clock (REP001/REP006 allow it), but laundering the value
        through locals into ``to_dict`` is caught — by REP007 alone,
        with a full source-to-sink witness path."""
        profile = str(CORPUS / "bad" / "repro" / "telemetry" / "profile.py")
        assert main(["lint", "--format", "json", profile]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"REP007"}
        message = payload["findings"][0]["message"]
        assert "time.time()" in message
        assert "sink line" in message
        assert " -> " in message


class TestSarif:
    def test_sarif_format_is_valid_2_1_0(self, capsys):
        assert main(["lint", "--format", "sarif", BAD]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == SARIF_VERSION
        assert "sarif-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-staticcheck"
        assert [r["id"] for r in driver["rules"]] == list(ALL_IDS)
        assert run["results"], "bad corpus must produce SARIF results"
        for result in run["results"]:
            assert result["level"] == "error"
            (loc,) = result["locations"]
            region = loc["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_carries_suppressions(self, capsys):
        assert main(["lint", "--format", "sarif", GOOD]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        suppressed = [r for r in run["results"] if "suppressions" in r]
        assert len(suppressed) == 1
        for result in suppressed:
            (sup,) = result["suppressions"]
            assert sup["kind"] == "inSource"
            assert sup["justification"]

    def test_text_json_sarif_agree_on_findings(self, capsys):
        """The three renderers are views of one result: same finding
        count, same rule ids, same locations."""
        assert main(["lint", "--format", "json", BAD]) == EXIT_FINDINGS
        json_payload = json.loads(capsys.readouterr().out)
        assert main(["lint", "--format", "sarif", BAD]) == EXIT_FINDINGS
        sarif_payload = json.loads(capsys.readouterr().out)
        assert main(["lint", BAD]) == EXIT_FINDINGS
        text = capsys.readouterr().out

        json_keys = sorted(
            (f["path"], f["line"], f["rule"]) for f in json_payload["findings"]
        )
        sarif_results = sarif_payload["runs"][0]["results"]
        sarif_keys = sorted(
            (
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
                r["locations"][0]["physicalLocation"]["region"]["startLine"],
                r["ruleId"],
            )
            for r in sarif_results
            if "suppressions" not in r
        )
        assert json_keys == sarif_keys
        assert f"{len(json_keys)} finding(s)" in text
        for path, line, rule in json_keys:
            assert f"{path}:{line}:" in text

    def test_sarif_side_file(self, capsys, tmp_path):
        out_path = tmp_path / "lint.sarif"
        assert main(["lint", "--sarif", str(out_path), GOOD]) == EXIT_CLEAN
        payload = json.loads(out_path.read_text())
        assert payload["version"] == SARIF_VERSION
        # stdout still got the text report
        assert "0 finding(s)" in capsys.readouterr().out


class TestIncrementalCache:
    def test_warm_cache_reparses_zero_files(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        assert main(
            ["lint", "--cache", cache, "--format", "json", GOOD]
        ) == EXIT_CLEAN
        cold = json.loads(capsys.readouterr().out)
        assert cold["reparsed_files"] == cold["files_checked"]
        assert cold["cached_files"] == 0

        assert main(
            ["lint", "--cache", cache, "--format", "json", GOOD]
        ) == EXIT_CLEAN
        warm = json.loads(capsys.readouterr().out)
        assert warm["reparsed_files"] == 0
        assert warm["cached_files"] == warm["files_checked"]
        # Identical verdict either way.
        assert warm["counts"] == cold["counts"]
        assert warm["suppressed"] == cold["suppressed"]

    def test_cache_invalidated_by_content_change(self, capsys, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        target = tree / "mod.py"
        target.write_text('"""Fixture."""\n\nX = 1\n')
        cache = str(tmp_path / "cache.json")
        assert main(["lint", "--cache", cache, str(tree)]) == EXIT_CLEAN
        capsys.readouterr()

        target.write_text('"""Fixture."""\n\nimport time\nX = time.time()\n')
        assert main(["lint", "--cache", cache, str(tree)]) == EXIT_FINDINGS
        assert "REP001" in capsys.readouterr().out

    def test_cache_invalidated_by_config_change(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        assert main(["lint", "--cache", cache, GOOD]) == EXIT_CLEAN
        capsys.readouterr()
        # A different rule selection is a different config fingerprint:
        # the cached all-rules verdicts must not answer this run.
        assert main(
            ["lint", "--cache", cache, "--rules", "REP001", "--format",
             "json", GOOD]
        ) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["reparsed_files"] == payload["files_checked"]


    def test_cache_invalidated_by_a_rule_edit(self, capsys, tmp_path, monkeypatch):
        """The ruleset key is a digest of the linter's source: one byte
        more in a rule module is a new key, and a cache written under
        the old key answers nothing."""
        import shutil

        from repro.staticcheck import cache as lint_cache
        from repro.staticcheck.rules import ruleset_digest

        copy = tmp_path / "staticcheck"
        shutil.copytree(
            Path(lint_cache.__file__).parent, copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        assert ruleset_digest(copy) == ruleset_digest()
        rule = copy / "rules" / "rep008_flow_iteration.py"
        rule.write_bytes(rule.read_bytes() + b"#")
        edited = ruleset_digest(copy)
        assert edited != ruleset_digest()

        cache = str(tmp_path / "cache.json")
        args = ["lint", "--cache", cache, "--format", "json", GOOD]
        assert main(args) == EXIT_CLEAN
        capsys.readouterr()
        monkeypatch.setattr(lint_cache, "ruleset_digest", lambda: edited)
        assert main(args) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached_files"] == 0
        assert payload["reparsed_files"] == payload["files_checked"]


class TestParallel:
    def test_jobs_output_is_byte_identical(self, capsys):
        assert main(["lint", "--jobs", "1", BAD]) == EXIT_FINDINGS
        serial = capsys.readouterr().out
        assert main(["lint", "--jobs", "4", BAD]) == EXIT_FINDINGS
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_jobs_json_identical_over_good(self, capsys):
        assert main(["lint", "--jobs", "1", "--format", "json", GOOD]) == EXIT_CLEAN
        serial = capsys.readouterr().out
        assert main(["lint", "--jobs", "3", "--format", "json", GOOD]) == EXIT_CLEAN
        assert capsys.readouterr().out == serial


class TestFix:
    def test_fix_rewrites_set_iteration_and_pop_front(self, capsys, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        target = tree / "mod.py"
        target.write_text(
            '"""Fixture."""\n'
            "\n"
            "\n"
            "def order(items: set) -> list:\n"
            "    out = []\n"
            "    for item in items:\n"
            "        out.append(item)\n"
            "    return out\n"
            "\n"
            "\n"
            "def drainq() -> int:\n"
            "    queue = [3, 1, 2]\n"
            "    total = 0\n"
            "    while queue:\n"
            "        total += queue.pop(0)\n"
            "    return total\n"
        )
        assert main(["lint", "--fix", str(tree)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "fixed" in out
        fixed = target.read_text()
        assert "for item in sorted(items):" in fixed
        assert "from collections import deque" in fixed
        assert "queue = deque([3, 1, 2])" in fixed
        assert "queue.popleft()" in fixed
        assert ".pop(0)" not in fixed
        # The fixed file must actually run and behave identically.
        namespace: dict = {}
        exec(compile(fixed, "mod.py", "exec"), namespace)
        assert namespace["order"]({"b", "a"}) == ["a", "b"]
        assert namespace["drainq"]() == 6

    def test_fix_is_a_noop_on_clean_trees(self, capsys, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        source = '"""Fixture."""\n\nX = 1\n'
        target = tree / "mod.py"
        target.write_text(source)
        assert main(["lint", "--fix", str(tree)]) == EXIT_CLEAN
        assert "fixed 0 finding(s)" in capsys.readouterr().out
        assert target.read_text() == source


class TestUsageErrors:
    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        assert main(["lint", "--rules", "REP999", BAD]) == EXIT_USAGE
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["lint", "does/not/exist"]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_bad_jobs_is_a_usage_error(self, capsys):
        assert main(["lint", "--jobs", "0", BAD]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_IDS:
            assert rule_id in out
