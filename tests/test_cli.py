"""Tests for the command-line interface (small worlds, captured output)."""

import json

import pytest

from repro.cli import build_parser, main


ARGS = ["--n", "300", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_is_documented(self):
        """The module docstring's usage block must list every registered
        subparser — it is the CLI's front page and must not rot."""
        import argparse

        import repro.cli as cli_module

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        registered = set(subparsers.choices)
        assert registered  # the probe itself must keep working
        for command in sorted(registered):
            assert f"python -m repro {command}" in cli_module.__doc__, (
                f"subcommand {command!r} is missing from the repro.cli "
                f"module docstring usage block"
            )

    def test_every_subcommand_is_dispatchable(self):
        import argparse

        from repro.cli import _COMMANDS

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == set(_COMMANDS)

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "12"])

    def test_year_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "--year", "2019"])


class TestCommands:
    def test_summary(self, capsys):
        assert main(["summary", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "DNS:" in out and "Top-3 impact" in out

    def test_table_single_snapshot(self, capsys):
        assert main(["table", "1", *ARGS]) == 0
        assert "table1" in capsys.readouterr().out

    def test_table_11_is_static(self, capsys):
        assert main(["table", "11"]) == 0
        assert "smart-home" in capsys.readouterr().out

    def test_figure(self, capsys):
        assert main(["figure", "2", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "stats:" in out

    def test_audit_known_domain(self, capsys):
        assert main(["audit", "academia.edu", *ARGS]) == 0
        assert "single points of failure" in capsys.readouterr().out

    def test_audit_unknown_domain(self, capsys):
        assert main(["audit", "not-in-world.example", *ARGS]) == 1
        assert "not in this world" in capsys.readouterr().err

    def test_outage(self, capsys):
        assert main(["outage", "cloudflare", *ARGS]) == 0
        assert "Outage of cloudflare" in capsys.readouterr().out

    def test_outage_unknown_provider(self, capsys):
        assert main(["outage", "nonexistent-dns", *ARGS]) == 1
        assert "unknown provider" in capsys.readouterr().err

    def test_outage_json(self, capsys):
        assert main(["outage", "dyn", *ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provider"] == "dyn"
        assert payload["service"] == "dns"
        assert payload["total_probed"] == (
            len(payload["unreachable"])
            + len(payload["degraded"])
            + len(payload["unaffected"])
        )
        assert "prediction" not in payload

    def test_outage_json_with_predict(self, capsys):
        assert main(["outage", "dyn", *ARGS, "--predict", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        prediction = payload["prediction"]
        assert set(prediction) == {
            "predicted", "predicted_only", "observed_only"
        }
        assert prediction["predicted"] == sorted(prediction["predicted"])


class TestCascadeCli:
    def test_report_and_validate(self, capsys):
        assert main(["cascade", "dyn", *ARGS, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Static equivalence EXACT" in out
        assert "Cascade:" in out and "Blast radius" in out

    def test_json_report_carries_the_config_digest(self, capsys):
        assert main(["cascade", "dyn", *ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["config_digest"]) == 64
        assert payload["failed_sites"] >= 1
        assert payload["blast_radii"]

    def test_trajectory_out_round_trips(self, capsys, tmp_path):
        from repro.cascade import trajectory_from_json

        path = tmp_path / "traj.json"
        assert main(["cascade", "dyn", *ARGS, "--out", str(path)]) == 0
        capsys.readouterr()
        trajectory = trajectory_from_json(path.read_text(encoding="utf-8"))
        assert trajectory.quiesced_at is not None
        assert trajectory.failed_sites()

    def test_config_file_scenario(self, capsys, tmp_path):
        from repro.cascade import dns_outage_config
        from repro import WorldConfig, build_world

        world = build_world(WorldConfig(n_websites=300, seed=3))
        config = dns_outage_config(world, "dyn")
        path = tmp_path / "cascade.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert main(["cascade", *ARGS, "--config", str(path)]) == 0
        assert "Cascade:" in capsys.readouterr().out

    def test_config_file_excludes_model_flags(self, capsys, tmp_path):
        path = tmp_path / "cascade.json"
        path.write_text("{}", encoding="utf-8")
        assert main(
            ["cascade", "dyn", *ARGS, "--config", str(path)]
        ) == 1
        assert "whole scenario" in capsys.readouterr().err

    def test_provider_or_config_required(self, capsys):
        assert main(["cascade", *ARGS]) == 1
        assert "provider key" in capsys.readouterr().err

    def test_unknown_provider(self, capsys):
        assert main(["cascade", "nonexistent-dns", *ARGS]) == 1
        assert "unknown DNS provider" in capsys.readouterr().err

    def test_why_flag(self, capsys):
        assert main(["cascade", "dyn", *ARGS, "--json"]) == 0
        site = json.loads(capsys.readouterr().out)["remediation"][0]
        assert main(["cascade", "dyn", *ARGS, "--top", "3"]) == 0
        top = capsys.readouterr().out
        assert top.startswith("1. ")
        assert site["provider"] in top

    def test_tick_flag(self, capsys):
        assert main(["cascade", "dyn", *ARGS, "--tick", "0"]) == 0
        out = capsys.readouterr().out
        assert "healthy -> failed" in out
        assert main(["cascade", "dyn", *ARGS, "--tick", "999"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_interactive_loop(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("top 1\nquit\n"))
        assert main(["cascade", "dyn", *ARGS, "--interactive"]) == 0
        out = capsys.readouterr().out
        assert "cascade>" in out and "1. " in out

    def test_validate_requires_dns_service(self, capsys):
        assert main(
            ["cascade", "akamai", *ARGS, "--service", "cdn", "--validate"]
        ) == 1
        assert "dns provider key" in capsys.readouterr().err

    def test_validate_refuses_recovery_configs(self, capsys):
        assert main(
            ["cascade", "dyn", *ARGS, "--cooldown", "3", "--validate"]
        ) == 1
        assert "static equivalence" in capsys.readouterr().err


class TestMeasureAnalyze:
    def test_measure_to_stdout_is_dataset_json(self, capsys):
        assert main(["measure", *ARGS, "--quiet", "--limit", "50"]) == 0
        out = capsys.readouterr().out
        from repro.measurement.io import dataset_from_json

        dataset = dataset_from_json(out)
        assert len(dataset.websites) == 50

    def test_measure_then_analyze_workflow(self, capsys, tmp_path):
        path = tmp_path / "dataset.json"
        assert main(
            ["measure", *ARGS, "--quiet", "--shards", "4", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2020 snapshot, 300 websites" in out
        assert "Top-3 impact" in out

    def test_analyze_renders_single_snapshot_table(self, capsys, tmp_path):
        path = tmp_path / "dataset.json"
        assert main(
            ["measure", *ARGS, "--quiet", "--limit", "120", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--table", "1"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_analyze_missing_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_analyze_rejects_wrong_version(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "year": 2020}')
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        from repro.measurement.io import FORMAT_VERSION

        assert "99" in err and f"supports version {FORMAT_VERSION}" in err

    @pytest.mark.parametrize("text", ["[]", '{"format_version": 3}'])
    def test_analyze_rejects_malformed_dataset(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load {path}: ")
        assert "Traceback" not in err

    def test_measure_checkpoint_resume_flags(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        args = [
            "measure", *ARGS, "--quiet", "--limit", "40", "--shards", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestFaultsCli:
    PLAN = """{
 "seed": 7,
 "rules": [
  {"name": "dyn-outage", "layer": "dns", "kind": "drop",
   "server": "dynect.net", "probability": 0.5},
  {"name": "brownout", "layer": "web", "kind": "http_error",
   "status": 502, "rank_window": [1, 5]}
 ]
}"""

    def _write_plan(self, tmp_path, text=None):
        path = tmp_path / "plan.json"
        path.write_text(text if text is not None else self.PLAN)
        return str(path)

    def test_faults_validate_summarizes_the_plan(self, capsys, tmp_path):
        assert main(["faults", "validate", self._write_plan(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault plan OK: 2 rule(s), seed=7" in out
        assert "dyn-outage" in out and "brownout" in out

    def test_faults_validate_rejects_bad_plan(self, capsys, tmp_path):
        bad = self._write_plan(
            tmp_path, '{"rules": [{"name": "x", "layer": "dns", "kind": "nope"}]}'
        )
        assert main(["faults", "validate", bad]) == 1
        assert "unknown dns fault kind" in capsys.readouterr().err

    def test_faults_validate_missing_file(self, capsys, tmp_path):
        assert main(["faults", "validate", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err

    def test_measure_with_fault_plan_produces_degraded_records(
        self, capsys, tmp_path
    ):
        plan = self._write_plan(
            tmp_path,
            '{"seed": 1, "rules": [{"name": "brownout", "layer": "web",'
            ' "kind": "http_error", "status": 502, "rank_window": [1, 5]}]}',
        )
        assert main(
            ["measure", *ARGS, "--quiet", "--limit", "20", "--fault-plan", plan]
        ) == 0
        from repro.measurement.io import dataset_from_json

        dataset = dataset_from_json(capsys.readouterr().out)
        degraded = {w.rank for w in dataset.websites if w.tls.degraded}
        assert degraded == {1, 2, 3, 4, 5}

    def test_measure_fault_seed_override_changes_output(self, capsys, tmp_path):
        plan = self._write_plan(tmp_path)
        base = ["measure", *ARGS, "--quiet", "--limit", "20", "--fault-plan", plan]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main([*base, "--fault-seed", "7"]) == 0
        same_seed = capsys.readouterr().out
        assert same_seed == first  # explicit seed equal to the plan's
        assert main([*base, "--fault-seed", "8"]) == 0
        reseeded = capsys.readouterr().out
        assert reseeded != first

    def test_measure_rejects_bad_fault_plan(self, capsys, tmp_path):
        bad = self._write_plan(tmp_path, "not json")
        assert main(
            ["measure", *ARGS, "--quiet", "--fault-plan", bad]
        ) == 1
        assert "cannot load fault plan" in capsys.readouterr().err


class TestTelemetryCommands:
    def test_trace_writes_chrome_trace_to_stdout(self, capsys):
        assert main(["trace", "google.com", *ARGS, "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases[:2] == ["M", "M"]
        assert phases.count("B") == phases.count("E") > 0

    def test_trace_is_deterministic(self, capsys):
        assert main(["trace", "google.com", *ARGS, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "google.com", *ARGS, "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_trace_prints_diagnostics_on_stderr(self, capsys):
        assert main(["trace", "google.com", *ARGS]) == 0
        err = capsys.readouterr().err
        assert "diagnostics for google.com" in err
        assert "dns.queries" in err

    def test_trace_unknown_domain_warns_but_traces(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(
            ["trace", "no-such-site.example", *ARGS,
             "--out", str(out), "--quiet"]
        ) == 0
        assert "not in this world" in capsys.readouterr().err
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert any(
            e.get("name") == "site.measure" for e in payload["traceEvents"]
        )

    def test_measure_metrics_out_then_stats_json(self, capsys, tmp_path):
        metrics_path = tmp_path / "m.json"
        dataset_path = tmp_path / "d.json"
        assert main(
            ["measure", *ARGS, "--limit", "12", "--quiet",
             "--out", str(dataset_path), "--metrics-out", str(metrics_path)]
        ) == 0
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-metrics/1"
        assert payload["counters"]["sites"] == 12
        # ``stats`` over the frozen dataset recomputes the same
        # shard-stable site counters offline.
        assert main(["stats", str(dataset_path), "--json"]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        assert recomputed["counters"]["sites"] == 12
        assert (
            recomputed["counters"]["sites.https"]
            == payload["counters"]["sites.https"]
        )

    def test_stats_summary_over_checkpoint_dir(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert main(
            ["measure", *ARGS, "--limit", "10", "--shards", "2", "--quiet",
             "--checkpoint-dir", str(ckpt), "--out", str(tmp_path / "d.json"),
             "--metrics-out", str(tmp_path / "m.json")]
        ) == 0
        assert main(["stats", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint metrics (2 shard(s))" in out
        assert "sites" in out

    def test_stats_refuses_metrics_less_checkpoints(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert main(
            ["measure", *ARGS, "--limit", "10", "--shards", "2", "--quiet",
             "--checkpoint-dir", str(ckpt), "--out", str(tmp_path / "d.json")]
        ) == 0
        assert main(["stats", str(ckpt)]) == 1
        assert "without" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        ["garbage\n", '{"shard_format_version": 4, "websites": [{"domain": 5}]}'],
        ids=["not-json", "malformed"],
    )
    def test_stats_refuses_a_damaged_shard_in_one_line(
        self, capsys, tmp_path, damage
    ):
        ckpt = tmp_path / "ckpt"
        assert main(
            ["measure", *ARGS, "--limit", "10", "--shards", "2", "--quiet",
             "--checkpoint-dir", str(ckpt), "--out", str(tmp_path / "d.json"),
             "--metrics-out", str(tmp_path / "m.json")]
        ) == 0
        shard = ckpt / "shard-0001.json"
        shard.write_text(damage, encoding="utf-8")
        assert main(["stats", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stats: checkpoint shard 1 at {shard}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "manifest", ["[]", '{"manifest_format_version": 1, "fingerprint": 5}']
    )
    def test_resume_refuses_a_misshapen_manifest_in_one_line(
        self, capsys, tmp_path, manifest
    ):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text(manifest, encoding="utf-8")
        assert main(
            ["measure", *ARGS, "--limit", "10", "--shards", "2", "--quiet",
             "--checkpoint-dir", str(ckpt), "--resume"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"measure: malformed checkpoint manifest at {ckpt / 'manifest.json'}: "
        )
        assert err.count("\n") == 1

    def test_stats_unreadable_path(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_measure_trace_sites_requires_serial_workers(self, capsys):
        assert main(
            ["measure", *ARGS, "--quiet", "--workers", "2",
             "--trace-sites", "google.com", "--trace-out", "t.json"]
        ) == 1
        assert "--workers 1" in capsys.readouterr().err

    def test_measure_trace_sites_requires_trace_out(self, capsys):
        assert main(
            ["measure", *ARGS, "--quiet", "--trace-sites", "google.com"]
        ) == 1
        assert "--trace-out" in capsys.readouterr().err

    def test_measure_trace_out_requires_trace_sites(self, capsys):
        assert main(
            ["measure", *ARGS, "--quiet", "--trace-out", "t.json"]
        ) == 1
        assert "--trace-sites" in capsys.readouterr().err

    def test_measure_traces_exactly_the_requested_sites(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(
            ["measure", *ARGS, "--limit", "5", "--quiet",
             "--out", str(tmp_path / "d.json"),
             "--trace-sites", "google.com,youtube.com",
             "--trace-out", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        traced = {
            e["args"]["domain"]
            for e in payload["traceEvents"]
            if e.get("name") == "site.measure" and e["ph"] == "B"
        }
        assert traced == {"google.com", "youtube.com"}


class TestStoreCli:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        path = tmp_path / "d.json"
        assert main(
            ["measure", *ARGS, "--limit", "15", "--quiet",
             "--out", str(path)]
        ) == 0
        return path

    def test_compile_then_query_top(self, capsys, dataset_path, tmp_path):
        store = tmp_path / "d.rstore"
        assert main(
            ["compile", str(dataset_path), "--out", str(store)]
        ) == 0
        err = capsys.readouterr().err
        assert str(store) in err and "byte(s)" in err
        assert main(
            ["query", str(store), "--top", "3", "--service", "dns"]
        ) == 0
        out = capsys.readouterr().out
        assert "dns" in out

    def test_compile_default_out_is_dataset_rstore(self, capsys, dataset_path):
        assert main(["compile", str(dataset_path), "--quiet"]) == 0
        store = str(dataset_path) + ".rstore"
        assert main(["query", store, "--top", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["kind"] == "top"
        assert payload["store"]["schema"] == "repro-store/1"

    def test_query_site_and_whatif_json(self, capsys, dataset_path, tmp_path):
        store = tmp_path / "d.rstore"
        assert main(["compile", str(dataset_path), "--out", str(store),
                     "--quiet"]) == 0
        assert main(
            ["query", str(store), "--site", "google.com", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["site"]["domain"] == "google.com"
        provider = payload["site"]["dependencies"][0]["provider"]
        assert main(
            ["query", str(store), "--whatif", provider, "--json"]
        ) == 0
        whatif = json.loads(capsys.readouterr().out)
        assert whatif["counts"]["down"] == len(whatif["down"])

    def test_query_unknown_subject_fails(self, capsys, dataset_path, tmp_path):
        store = tmp_path / "d.rstore"
        assert main(["compile", str(dataset_path), "--out", str(store),
                     "--quiet"]) == 0
        assert main(["query", str(store), "--site", "nope.example"]) == 1
        assert "nope.example" in capsys.readouterr().err

    def test_query_requires_a_question(self, capsys, dataset_path, tmp_path):
        store = tmp_path / "d.rstore"
        assert main(["compile", str(dataset_path), "--out", str(store),
                     "--quiet"]) == 0
        assert main(["query", str(store)]) == 1
        assert "name a query" in capsys.readouterr().err

    def test_query_rejects_corrupt_store(self, capsys, tmp_path):
        bad = tmp_path / "bad.rstore"
        bad.write_bytes(b"not a store at all")
        assert main(["query", str(bad), "--top", "1"]) == 1
        assert "bad.rstore" in capsys.readouterr().err

    def test_compile_missing_dataset_fails(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["compile", str(missing)]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_query_interactive_loop(self, capsys, dataset_path, tmp_path,
                                    monkeypatch):
        import io as _io

        store = tmp_path / "d.rstore"
        assert main(["compile", str(dataset_path), "--out", str(store),
                     "--quiet"]) == 0
        monkeypatch.setattr(
            "sys.stdin", _io.StringIO("top 3\nsite google.com\nstats\nquit\n")
        )
        assert main(["query", str(store), "--interactive"]) == 0
        out = capsys.readouterr().out
        assert "google.com" in out


class TestStatsDataset:
    def test_stats_reads_the_dataset_on_disk(self, capsys, tmp_path):
        """Each ``stats`` run reports the file as it is now: rewriting
        the dataset changes the next report."""
        dataset_path = tmp_path / "d.json"
        for limit in (10, 12):
            assert main(
                ["measure", *ARGS, "--limit", str(limit), "--quiet",
                 "--out", str(dataset_path)]
            ) == 0
            assert main(["stats", str(dataset_path), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["counters"]["sites"] == limit


class TestServeClientCli:
    """The `serve`/`client` subcommands and the query `--stats` flag."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("servecli")
        dataset = base / "d.json"
        assert main(
            ["measure", *ARGS, "--limit", "15", "--quiet",
             "--out", str(dataset)]
        ) == 0
        store = base / "d.rstore"
        assert main(
            ["compile", str(dataset), "--out", str(store), "--quiet"]
        ) == 0
        return store

    @pytest.fixture(scope="class")
    def daemon(self, store_path):
        import threading

        from repro.serve.http import ReproServeDaemon
        from repro.serve.registry import StoreRegistry
        from repro.serve.service import ServeService

        service = ServeService(StoreRegistry({"d": str(store_path)}))
        server = ReproServeDaemon(service)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            yield server.address
        finally:
            server.request_drain()
            thread.join(10)
            server.server_close()

    def _client(self, daemon, *flags: str) -> int:
        host, port = daemon
        return main(
            ["client", "--host", host, "--port", str(port), *flags]
        )

    def test_client_one_shot_equals_query_json(
        self, capsys, daemon, store_path
    ):
        assert main(
            ["query", str(store_path), "--top", "3", "--json"]
        ) == 0
        reference = capsys.readouterr().out
        assert self._client(daemon, "--store", "d", "--top", "3") == 0
        assert capsys.readouterr().out == reference

    def test_client_default_store_and_text_mode(self, capsys, daemon):
        assert self._client(daemon, "--top", "2", "--text") == 0
        out = capsys.readouterr().out
        assert "Top-2" in out

    def test_client_health(self, capsys, daemon):
        assert self._client(daemon, "--health") == 0
        assert json.loads(capsys.readouterr().out)["stores"] == ["d"]

    def test_client_statz(self, capsys, daemon):
        assert self._client(daemon, "--statz") == 0
        assert json.loads(capsys.readouterr().out)["registry"]["stores"] == 1

    def test_client_batch_file(self, capsys, daemon, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"store": "d", "query": {"kind": "top", "k": 1}},
            {"store": "d", "query": {"kind": "top", "k": 2,
                                     "service": "cdn"}},
        ]), encoding="utf-8")
        assert self._client(daemon, "--batch", str(batch)) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in envelope["results"]] == [200, 200]

    def test_client_error_payload_goes_to_stderr(self, capsys, daemon):
        assert self._client(daemon, "--site", "nope.example") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "unknown-name"

    def test_client_requires_exactly_one_mode(self, capsys, daemon):
        assert self._client(daemon) == 1
        assert "pick one of" in capsys.readouterr().err
        assert self._client(
            daemon, "--top", "3", "--site", "google.com"
        ) == 1
        assert "exactly one query" in capsys.readouterr().err

    def test_client_unreachable_daemon_fails_cleanly(self, capsys):
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here now
        assert main(
            ["client", "--port", str(port), "--top", "1"]
        ) == 1
        assert "client:" in capsys.readouterr().err

    def test_serve_rejects_missing_store_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.rstore"
        assert main(["serve", str(missing)]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_serve_rejects_duplicate_names(self, capsys, store_path):
        assert main(
            ["serve", f"d={store_path}", f"d={store_path}"]
        ) == 1
        assert "duplicate store name" in capsys.readouterr().err

    def test_query_stats_flag_reports_lru_counters(
        self, capsys, store_path
    ):
        assert main(
            ["query", str(store_path), "--top", "2", "--json", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout bytes stay pure JSON
        assert "cache 1/128 entries" in captured.err
        assert "1 miss(es)" in captured.err

    def test_repl_unknown_names_are_one_line_errors(
        self, capsys, store_path, monkeypatch
    ):
        import io as _io

        monkeypatch.setattr(
            "sys.stdin",
            _io.StringIO(
                "site no-such-site.example\nwhatif dns:nope\nquit\n"
            ),
        )
        assert main(["query", str(store_path), "--interactive"]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "error: unknown site 'no-such-site.example'" in out
        assert "error: unknown provider 'dns:nope'" in out
        assert "Traceback" not in out + captured.err
