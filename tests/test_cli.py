"""Tests for the command-line runner (``python -m repro.runner``)."""

import json

import pytest

from repro.harness.protocols import make_binding
from repro.harness.scenarios import ScenarioSpec, scenario_cli_kwargs
from repro.runner.cli import build_parser, build_pase_config, main


def _scenario(args):
    return ScenarioSpec(args.scenario, scenario_cli_kwargs(
        args.scenario, args.hosts, args.fanin)).build()


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    """Keep the CLI's default result cache out of the user's home."""
    monkeypatch.setenv("PASE_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_required_arguments(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_minimal_invocation(self):
        args = build_parser().parse_args(
            ["--protocols", "pase", "--scenario", "intra-rack",
             "--loads", "0.5"])
        assert args.protocols == ["pase"]
        assert args.loads == [0.5]
        assert (args.jobs, args.flows) == (1, 200)  # serial, 200 flows

    def test_load_accepts_comma_separated_sweep(self):
        args = build_parser().parse_args(
            ["--protocols", "pase", "--scenario", "intra-rack",
             "--loads", "0.1,0.5,0.9", "--jobs", "2"])
        assert args.loads == [0.1, 0.5, 0.9]
        assert args.jobs == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--protocols", "quic", "--scenario", "intra-rack",
                 "--loads", "0.5"])


class TestScenarioBuilding:
    def _args(self, scenario, hosts=None):
        argv = ["--protocols", "pase", "--scenario", scenario,
                "--loads", "0.5"]
        if hosts:
            argv += ["--hosts", str(hosts)]
        return build_parser().parse_args(argv)

    def test_each_scenario_constructs(self):
        for name in ("intra-rack", "intra-rack-deadlines", "all-to-all",
                     "left-right", "testbed"):
            scenario = _scenario(self._args(name, hosts=4))
            assert scenario.name

    def test_deadline_scenario_criterion(self):
        scenario = _scenario(self._args("intra-rack-deadlines", hosts=4))
        assert scenario.criterion == "deadline"
        assert scenario.deadline_dist is not None


class TestPaseOverrides:
    def _args(self, scenario, *extra):
        return build_parser().parse_args(
            ["--protocols", "pase", "--scenario", scenario,
             "--loads", "0.5", *extra])

    def test_no_overrides_returns_none(self):
        args = self._args("intra-rack")
        assert build_pase_config(args) is None

    def test_criterion_override(self):
        args = self._args("intra-rack", "--criterion", "las")
        cfg = build_pase_config(args)
        assert cfg.criterion == "las"

    def test_early_termination_flag(self):
        args = self._args("intra-rack-deadlines", "--early-termination")
        cfg = build_pase_config(args)
        assert cfg.early_termination
        binding = make_binding("pase", _scenario(args), cfg)
        assert binding.config.criterion == "deadline"  # the scenario's

    def test_explicit_size_criterion_survives_deadline_scenario(self):
        args = self._args("intra-rack-deadlines", "--criterion", "size")
        binding = make_binding("pase", _scenario(args), build_pase_config(args))
        assert binding.config.criterion == "size"

    def test_num_queues_override(self):
        args = self._args("intra-rack", "--num-queues", "4")
        cfg = build_pase_config(args)
        assert cfg.num_queues == 4


def _ledger(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEndToEnd:
    def test_main_runs_and_prints(self, capsys):
        rc = main(["--protocols", "dctcp", "--scenario", "intra-rack",
                   "--loads", "0.4", "--flows", "20", "--hosts", "5",
                   "--seeds", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AFCT" in out
        assert "completed 100.0%" in out

    def test_main_with_buckets_and_pase(self, capsys):
        rc = main(["--protocols", "pase", "--scenario", "all-to-all",
                   "--loads", "0.4", "--flows", "20", "--hosts", "5",
                   "--fanin", "3", "--buckets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "control:" in out
        assert "size bucket" in out

    def test_multi_load_sweep_prints_each_summary(self, capsys):
        rc = main(["--protocols", "dctcp", "--scenario", "intra-rack",
                   "--loads", "0.2,0.4", "--flows", "12", "--hosts", "5",
                   "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("AFCT") == 2
        assert "2 runs" in out

    def test_profile_dumps_stats_and_ledger_names_it(self, tmp_path, capsys):
        profile = tmp_path / "run.prof.txt"
        ledger = tmp_path / "run.jsonl"
        argv = ["--protocols", "pase", "--scenario", "intra-rack",
                "--loads", "0.4", "--flows", "10", "--hosts", "4",
                "--seeds", "2"]
        assert main(argv) == 0  # warm the cache: --profile must bypass it
        rc = main(argv + ["--profile", str(profile), "--output", str(ledger)])
        assert rc == 0
        text = profile.read_text()
        assert "cumulative" in text       # sorted by cumulative time
        assert "run_experiment" in text   # the wrapped call shows up
        rows = _ledger(ledger)
        run_rows = [r for r in rows if r["type"] == "run"]
        prof_rows = [r for r in rows if r["type"] == "profile"]
        assert len(run_rows) == 1 and run_rows[0]["status"] == "ok"
        assert not run_rows[0]["cached"]
        assert len(prof_rows) == 1
        assert prof_rows[0]["path"] == str(profile)
        assert prof_rows[0]["run"] == run_rows[0]["hash"]

    def test_profile_sweep_forces_serial(self, tmp_path, capsys):
        profile = tmp_path / "sweep.prof.txt"
        ledger = tmp_path / "sweep.jsonl"
        rc = main(["--protocols", "dctcp", "--scenario", "intra-rack",
                   "--loads", "0.3,0.5", "--flows", "10", "--hosts", "4",
                   "--jobs", "4", "--profile", str(profile),
                   "--output", str(ledger)])
        assert rc == 0
        assert "forces --jobs 1" in capsys.readouterr().err
        assert "run_experiment" in profile.read_text()
        rows = _ledger(ledger)
        types = [r["type"] for r in rows]
        assert types.count("run") == 2
        assert [r["run"] for r in rows if r["type"] == "profile"] == [None]
