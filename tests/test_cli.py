"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListDatasets:
    def test_prints_all_rows(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "2cubes_sphere" in out
        assert out.count("\n") >= 26  # header + 25 rows


class TestSolve:
    def test_dataset_solve_succeeds(self, capsys):
        assert main(["solve", "--dataset", "Wa"]) == 0
        out = capsys.readouterr().out
        assert "solver sequence" in out
        assert "converged" in out

    def test_poisson_solve(self, capsys):
        assert main(["solve", "--poisson", "12"]) == 0
        out = capsys.readouterr().out
        assert "poisson_2d_12x12" in out

    def test_fixed_solver_bypass(self, capsys):
        assert main(["solve", "--poisson", "10", "--solver", "cg"]) == 0
        out = capsys.readouterr().out
        assert "fixed solver 'cg'" in out

    def test_fixed_solver_failure_exit_code(self, capsys):
        # Jacobi on the 2C class diverges: nonzero exit.
        assert main(["solve", "--dataset", "2C", "--solver", "jacobi"]) == 1

    def test_config_flags_forwarded(self, capsys):
        assert main([
            "solve", "--poisson", "10",
            "--sampling-rate", "4", "--r-opt", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 sets" in out

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_config_file(self, tmp_path, capsys):
        import json

        from repro import AcamarConfig

        path = tmp_path / "config.json"
        path.write_text(json.dumps(AcamarConfig(r_opt=0).to_dict()))
        assert main([
            "solve", "--poisson", "10", "--config", str(path),
            "--r-opt", "0",
        ]) == 0
        assert "sets" in capsys.readouterr().out


class TestExport:
    def test_export_command(self, tmp_path, capsys):
        target = tmp_path / "exports"
        assert main(["export", str(target), "--keys", "2C,Wi"]) == 0
        out = capsys.readouterr().out
        assert "wrote 34 files" in out
        assert (target / "table2.csv").exists()


class TestExperiments:
    def test_single_experiment_with_subset(self, capsys):
        assert main(["experiment", "fig2", "--keys", "2C,Wi"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "2C" in out and "Wi" in out

    def test_chart_flag(self, capsys):
        assert main([
            "experiment", "fig2", "--keys", "2C,Wi", "--chart", "URB=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- URB=64 --" in out
        assert "|#" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestCampaign:
    def test_campaign_with_keys(self, capsys):
        assert main(["campaign", "Wa", "Li"]) == 0
        out = capsys.readouterr().out
        assert "systems solved        : 2" in out
        assert "convergence rate      : 100%" in out

    def test_campaign_all_flag(self, capsys):
        assert main(["campaign", "--all", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "systems solved        : 25" in out

    def test_campaign_without_sources_errors(self, capsys):
        assert main(["campaign"]) == 2
        assert "no sources" in capsys.readouterr().err

    def test_campaign_unknown_source_errors(self, capsys):
        assert main(["campaign", "bogus-key"]) == 2
        assert "bogus-key" in capsys.readouterr().err

    def test_campaign_writes_csv_and_telemetry(self, tmp_path, capsys):
        import json

        csv_path = tmp_path / "campaign.csv"
        telemetry_path = tmp_path / "telemetry.json"
        assert main([
            "campaign", "Wa", "--csv", str(csv_path),
            "--telemetry", str(telemetry_path),
        ]) == 0
        assert csv_path.exists()
        document = json.loads(telemetry_path.read_text())
        assert document["schema_version"] == 1
        assert document["campaign"]["problems"] == 1
        assert "stages" in document


class TestWorkersRule:
    """``--workers`` below 1 is a usage error for every fan-out command."""

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_campaign(self, capsys, workers):
        assert main(["campaign", "--all", "--workers", workers]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"campaign: workers must be >= 1, got {workers}"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_dse(self, capsys, workers):
        assert main(["dse", "--seed", "0", "--workers", workers]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"dse: workers must be >= 1, got {workers}"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_lint(self, capsys, workers):
        assert main(["lint", "--no-cache", "--workers", workers]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lint: workers must be >= 1, got {workers}"]


class TestSolveExitContract:
    """Pins the documented exit codes: 0 converged, 1 not, 2 unresolvable."""

    def test_acamar_path_nonconvergence_is_one(self, capsys):
        assert main([
            "solve", "--dataset", "2C", "--max-iterations", "3",
        ]) == 1
        assert "max_iterations" in capsys.readouterr().out

    def test_unknown_dataset_is_two(self, capsys):
        assert main(["solve", "--dataset", "bogus-key"]) == 2
        err = capsys.readouterr().err
        assert "bogus-key" in err
        assert "solve:" in err

    def test_convergence_is_zero(self):
        assert main(["solve", "--dataset", "Wa"]) == 0


class TestServe:
    def test_loadtest_summary_and_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "requests generated" in printed
        assert "cache hit rate" in printed
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["unaccounted"] == 0

    def test_loadtest_reports_are_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "loadtest", "--seed", "0", "--duration", "0.5",
                "--rate", "40", "--out", str(path),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_serve_replays_saved_request_log(self, tmp_path):
        req = tmp_path / "req.jsonl"
        live = tmp_path / "live.jsonl"
        replay = tmp_path / "replay.jsonl"
        assert main([
            "serve", "--seed", "2", "--duration", "0.5", "--rate", "40",
            "--save-requests", str(req), "--responses", str(live),
        ]) == 0
        assert main([
            "serve", "--requests", str(req), "--responses", str(replay),
        ]) == 0
        assert live.read_bytes() == replay.read_bytes()

    def test_no_cache_flag_disables_cache(self, tmp_path, capsys):
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--no-cache",
        ]) == 0
        assert "cache hit rate        : 0.0%" in capsys.readouterr().out

    def test_telemetry_export_carries_spans_and_counters(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "telemetry.json"
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--telemetry", str(path),
        ]) == 0
        document = json.loads(path.read_text())
        assert set(document) == {"schema_version", "spans", "counters"}
        assert document["schema_version"] == 1
        assert document["counters"]["serve.requests"] > 0


class TestServingExitContract:
    """Malformed serving input exits 2 with one ``<command>:`` line."""

    @pytest.mark.parametrize("command", ["serve", "loadtest"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--duration", "0"],
            ["--max-batch", "0"],
            ["--queue-capacity", "0"],
            ["--workers", "0"],
            ["--devices", "0"],
            ["--cache-capacity", "0"],
            ["--deadline-ms", "-5"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    def test_bad_flag_exits_two(self, capsys, command, flags):
        assert main([
            command, "--seed", "0", "--duration", "0.5", "--rate", "40",
            *flags,
        ]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{command}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "log",
        [
            '{"request_id": 0, "source": "Wa", "arrival_s": 0.1}\n'
            '{"request_id": 0, "source": "Li", "arrival_s": 0.1}\n',
            '{"request_id": 0, "arrival_s": 0.1}\n',
            "not json\n",
            '{"request_id": 0, "source": "Wa", "arrival_s": 0.1, '
            '"deadline_s": NaN}\n',
            '{"request_id": true, "source": "Wa", "arrival_s": 0.1}\n',
            '{"request_id": 1.5, "source": "Wa", "arrival_s": 0.1}\n',
        ],
        ids=[
            "duplicate-id", "missing-source", "non-json", "nan-deadline",
            "bool-id", "float-id",
        ],
    )
    def test_malformed_request_log_exits_two(self, tmp_path, capsys, log):
        path = tmp_path / "req.jsonl"
        path.write_text(log)
        assert main(["serve", "--requests", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"serve: {path}:")
        assert "invariant" not in err


class TestClusterLoadtest:
    def test_cluster_summary_and_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "cluster.json"
        assert main([
            "loadtest", "--cluster", "--seed", "0", "--duration", "2",
            "--rate", "100", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "loadtest --cluster" in printed
        assert "fleets peak / final" in printed
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["unaccounted"] == 0
        assert document["cluster"]["affinity_routing"] is True

    def test_cluster_reports_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "loadtest", "--cluster", "--seed", "0", "--duration", "2",
                "--rate", "100", "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_report(self, tmp_path, capsys):
        one = tmp_path / "w1.json"
        four = tmp_path / "w4.json"
        for path, workers in ((one, "1"), (four, "4")):
            assert main([
                "loadtest", "--cluster", "--seed", "0", "--duration", "2",
                "--rate", "100", "--workers", workers, "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_cluster_flags_forwarded(self, tmp_path, capsys):
        import json

        out = tmp_path / "cluster.json"
        assert main([
            "loadtest", "--cluster", "--seed", "0", "--duration", "2",
            "--rate", "100", "--fleets", "3", "--max-fleets", "5",
            "--no-autoscale", "--no-affinity", "--vnodes", "16",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        cluster = document["cluster"]
        assert cluster["initial_fleets"] == 3
        assert cluster["max_fleets"] == 5
        assert cluster["autoscale"] is False
        assert cluster["affinity_routing"] is False
        assert cluster["vnodes"] == 16
        assert document["fleets"]["peak"] == 3

    def test_invalid_cluster_config_exits_two(self, capsys):
        assert main([
            "loadtest", "--cluster", "--duration", "2", "--rate", "100",
            "--fleets", "9", "--max-fleets", "4",
        ]) == 2
        assert "loadtest:" in capsys.readouterr().err
