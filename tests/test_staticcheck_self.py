"""The linter applied to this repository itself.

This is the teeth of the whole exercise: ``src/repro`` must be clean
under every rule, and any suppression must carry a written
justification. The optional mypy check mirrors the CI ``staticcheck``
job (skipped when mypy is not installed — it is not a runtime
dependency).
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.staticcheck import DEFAULT_CONFIG, lint_paths

SRC = Path(repro.__file__).parent


class TestSelfCheck:
    @pytest.fixture(scope="class")
    def result(self):
        return lint_paths([SRC], DEFAULT_CONFIG)

    def test_src_has_zero_findings(self, result):
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"lint findings in src/:\n{rendered}"

    def test_whole_package_was_scanned(self, result):
        assert result.files_checked == len(list(SRC.rglob("*.py")))

    def test_every_suppression_is_justified(self, result):
        unjustified = [
            s.finding.render()
            for s in result.suppressions
            if not s.reason.strip()
        ]
        assert unjustified == [], (
            "reason-less noqa in src/ (add '-- why' to the directive): "
            f"{unjustified}"
        )

    def test_suppressions_are_rare(self, result):
        # A ratchet, not a style preference: every waiver weakens the
        # determinism contract. Raising this number needs a PR argument.
        assert len(result.suppressions) <= 2

    def test_no_bare_noqa_directives_in_src(self):
        """Every waiver must name the exact rules it silences. A bare
        ``# repro: noqa`` also swallows findings from rules added later
        — which is precisely how waivers go stale."""
        from repro.staticcheck.driver import parse_suppressions

        bare: list[str] = []
        for path in sorted(SRC.rglob("*.py")):
            directives = parse_suppressions(path.read_text(encoding="utf-8"))
            for lineno, (rules, _reason) in sorted(directives.items()):
                if rules is None:
                    bare.append(f"{path}:{lineno}")
        assert bare == [], (
            f"bare 'repro: noqa' in src/ (name the rule ids): {bare}"
        )

    def test_serve_layer_sits_between_query_and_cli(self):
        """The daemon is layer 12: above query (it wraps engines), below
        the CLI, and REP006 pins it away from the measurement and
        simulation side — serve answers questions, it never measures."""
        layers = DEFAULT_CONFIG.rep003_layers
        assert layers["query"] < layers["serve"] < layers["cli"]
        for edge in (
            ("serve", "measurement.runner"),
            ("serve", "engine"),
            ("serve", "worldgen"),
        ):
            assert edge in DEFAULT_CONFIG.rep006_forbidden_edges

    def test_benchmark_and_script_trees_lint_clean(self):
        """The CI staticcheck job lints scripts/ and benchmarks/ too;
        keep the gate mirrored here so a regression fails fast."""
        repo_root = SRC.parent.parent
        trees = [repo_root / "scripts", repo_root / "benchmarks"]
        present = [t for t in trees if t.is_dir()]
        assert present, "scripts/ and benchmarks/ trees went missing"
        aux = lint_paths(present, DEFAULT_CONFIG)
        rendered = "\n".join(f.render() for f in aux.findings)
        assert aux.findings == [], f"lint findings:\n{rendered}"
        unjustified = [
            s.finding.render()
            for s in aux.suppressions
            if not s.reason.strip()
        ]
        assert unjustified == []


class TestTypeChecking:
    def test_engine_and_io_pass_strict_mypy(self):
        pytest.importorskip("mypy")
        repo_root = SRC.parent.parent
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--config-file",
                str(repo_root / "pyproject.toml"),
                str(SRC / "engine"),
                str(SRC / "measurement" / "io.py"),
                str(SRC / "store"),
                str(SRC / "query"),
                str(SRC / "serve"),
            ],
            capture_output=True,
            text=True,
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
