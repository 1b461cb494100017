"""Tests for repro.runner: specs, cache, executor isolation, parity.

The executor tests inject module-level work functions (sleepers, crashers,
flaky workers) instead of real simulations, so timeout/retry/crash paths
run in well under a second each.  The cache and parity tests use real—but
tiny—experiments.
"""

import json
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.core import PaseConfig
from repro.harness import ExperimentSpec, run_experiment, sweep_loads
from repro.harness.experiment import ExperimentResult
from repro.harness.replication import replicate
from repro.runner import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultCache,
    RunnerConfig,
    ScenarioSpec,
    SweepFailure,
    SweepSpec,
    execute_spec,
    run_sweep,
)
from tests.test_regression_golden import _fingerprint

TINY = ScenarioSpec("intra-rack", {"num_hosts": 5})


def tiny_spec(load=0.3, seed=1, num_flows=12, **kwargs):
    return ExperimentSpec("dctcp", TINY, load, seed=seed,
                          num_flows=num_flows, **kwargs)


# -- injected work functions (module-level so fork children see them) ------

def _echo_work(spec):
    return ("ran", spec.load, spec.seed)


def _slow_work(spec):
    time.sleep(30.0)
    return "never"


def _always_raises(spec):
    raise ValueError(f"boom at load {spec.load}")


def _raise_on_half(spec):
    if spec.load == 0.5:
        raise ValueError("boom at 0.5")
    return spec.load


def _counted_echo(spec):
    with open(os.environ["PASE_TEST_CALLS"], "a") as fh:
        fh.write(f"{spec.load}\n")
    return ("ran", spec.load, spec.seed)


def _hard_crash(spec):
    os._exit(17)  # simulates a segfault: no exception, no report


def _real_unless_half(spec):
    if spec.load == 0.5:
        raise ValueError("boom at 0.5")
    return execute_spec(spec)


def _failed_sweep_records(specs, config, work_fn):
    """The records of a sweep that must raise ``SweepFailure``."""
    with pytest.raises(SweepFailure) as caught:
        run_sweep(specs, config, work_fn=work_fn)
    return caught.value.outcome.records


def _ledger(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSpec:
    def test_expand_is_protocol_major_grid(self):
        spec = SweepSpec(protocols=("a", "b"), scenario=TINY,
                         loads=(0.1, 0.9), seeds=(1, 2))
        labels = [(d.protocol, d.load, d.seed) for d in spec.expand()]
        assert labels == [("a", 0.1, 1), ("a", 0.1, 2), ("a", 0.9, 1),
                          ("a", 0.9, 2), ("b", 0.1, 1), ("b", 0.1, 2),
                          ("b", 0.9, 1), ("b", 0.9, 2)]

    def test_content_hash_stable_and_sensitive(self):
        d = tiny_spec()
        assert d.content_hash() == tiny_spec().content_hash()
        assert d.content_hash() != tiny_spec(load=0.4).content_hash()
        assert d.content_hash() != tiny_spec(seed=2).content_hash()
        assert (d.content_hash() !=
                tiny_spec(num_flows=13).content_hash())

    def test_content_hash_is_pinned(self):
        # Ledger rows and cache entries are addressed by this hash; a
        # refactor of the spec must not move it.
        assert tiny_spec().content_hash() == (
            "b6d9fe367b3112b259563dc9d01c69372d1dd86f91aea9506b8f7120af8751ac")

    def test_spec_scenario_builds(self):
        scenario = TINY.build()
        assert scenario.name == "intra_rack[5]"

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSpec("no-such-scenario")


class TestExecutorIsolation:
    def test_parallel_echo_preserves_order(self):
        records = run_sweep([tiny_spec(load=l) for l in (0.1, 0.3, 0.5, 0.7)],
                            RunnerConfig(jobs=2), work_fn=_echo_work).records
        assert [r.status for r in records] == [STATUS_OK] * 4
        assert [r.result[1] for r in records] == [0.1, 0.3, 0.5, 0.7]
        assert all(r.peak_rss_kb and r.peak_rss_kb > 0 for r in records)

    def test_timeout_fires_and_sweep_completes(self):
        records = _failed_sweep_records([tiny_spec(load=0.1)],
                                        RunnerConfig(jobs=2, timeout=0.5),
                                        _slow_work)
        assert records[0].status == STATUS_TIMEOUT
        assert "budget" in records[0].error

    def test_raising_worker_is_retried_then_failed_without_aborting(self):
        records = _failed_sweep_records(
            [tiny_spec(load=l) for l in (0.1, 0.5, 0.9)],
            RunnerConfig(jobs=2, retries=1), _raise_on_half)
        by_load = {r.spec.load: r for r in records}
        assert by_load[0.5].status == STATUS_FAILED
        assert by_load[0.5].attempts == 2  # original + one retry
        assert "boom at 0.5" in by_load[0.5].error
        # The sick point did not take down its neighbors.
        assert by_load[0.1].status == STATUS_OK
        assert by_load[0.9].status == STATUS_OK

    def test_hard_crash_is_isolated(self):
        records = _failed_sweep_records(
            [tiny_spec(load=0.1), tiny_spec(load=0.3)],
            RunnerConfig(jobs=2), _hard_crash)
        assert all(r.status == STATUS_CRASHED for r in records)
        assert "exit code 17" in records[0].error

    def test_serial_mode_retries_and_records(self):
        records = _failed_sweep_records([tiny_spec()],
                                        RunnerConfig(jobs=1, retries=2),
                                        _always_raises)
        assert records[0].status == STATUS_FAILED
        assert records[0].attempts == 3


class TestRepeatedPoints:
    """Each distinct content hash runs once per ``run_sweep`` call."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cached", [False, True])
    def test_repeated_point_runs_once(self, jobs, cached, tmp_path,
                                      monkeypatch):
        calls = tmp_path / "calls"
        monkeypatch.setenv("PASE_TEST_CALLS", str(calls))
        # A dctcp run ignores its PaseConfig: the third spec repeats the first.
        specs = [tiny_spec(load=0.3), tiny_spec(load=0.5),
                 tiny_spec(load=0.3, pase_config=PaseConfig(num_queues=4))]
        settled = []
        outcome = run_sweep(specs, RunnerConfig(
            jobs=jobs, cache_dir=tmp_path / "cache" if cached else None),
            work_fn=_counted_echo, on_record=settled.append)
        assert sorted(calls.read_text().split()) == ["0.3", "0.5"]
        assert [r.spec for r in outcome.records] == specs
        assert [r.cached for r in outcome.records] == [False, False, True]
        assert outcome.records[2].result == outcome.records[0].result
        assert (outcome.stats.computed, outcome.stats.cached) == (2, 1)
        assert len(settled) == 3

    def test_repeat_of_a_failed_point_fails(self):
        records = _failed_sweep_records(
            [tiny_spec(load=0.5), tiny_spec(load=0.3), tiny_spec(load=0.5)],
            RunnerConfig(jobs=1), _raise_on_half)
        assert [r.status for r in records] == [
            STATUS_FAILED, STATUS_OK, STATUS_FAILED]
        assert records[2].spec.load == 0.5


class TestRunnerConfig:
    def test_rejects_no_workers(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            RunnerConfig(jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            RunnerConfig(jobs=2, retries=-3)

    def test_rejects_serial_timeout(self):
        with pytest.raises(ValueError, match="timeout needs jobs > 1"):
            RunnerConfig(jobs=1, timeout=1e-9)
        assert RunnerConfig(jobs=2, timeout=1e-9).timeout == 1e-9


class TestCache:
    def test_hit_after_store_and_invalidation_on_config_change(self, tmp_path):
        config = RunnerConfig(jobs=1, cache_dir=tmp_path)
        d = [tiny_spec(load=0.3)]
        first = run_sweep(d, config)
        assert first.stats.computed == 1 and first.stats.cached == 0
        again = run_sweep(d, config)
        assert again.stats.cached == 1 and again.stats.computed == 0
        assert (pickle.dumps(again.records[0].result.stats) ==
                pickle.dumps(first.records[0].result.stats))
        # Any config change (here: flow count) must miss.
        changed = run_sweep([tiny_spec(load=0.3, num_flows=13)], config)
        assert changed.stats.cached == 0

    def test_code_version_salt_invalidates(self, tmp_path):
        d = [tiny_spec(load=0.3)]
        run_sweep(d, RunnerConfig(cache_dir=tmp_path, cache_salt="v1"))
        stale = run_sweep(d, RunnerConfig(cache_dir=tmp_path, cache_salt="v2"))
        assert stale.stats.cached == 0
        warm = run_sweep(d, RunnerConfig(cache_dir=tmp_path, cache_salt="v1"))
        assert warm.stats.cached == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        h = tiny_spec().content_hash()
        path = cache.path_for(h)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(h) is None
        assert not path.exists()

    def test_no_cache_mode_always_computes(self, tmp_path, monkeypatch):
        # cache_dir=None must neither read nor write the default root.
        monkeypatch.setenv("PASE_CACHE_DIR", str(tmp_path))
        config = RunnerConfig(cache_dir=None)
        run_sweep([tiny_spec()], config)
        out = run_sweep([tiny_spec()], config)
        assert out.stats.cached == 0 and out.stats.computed == 1
        assert list(tmp_path.iterdir()) == []


class TestParity:
    """A run is bit-identical whether it executes directly, in-process
    (``jobs=1``), on a worker (``jobs=2``) or comes from the cache."""

    def test_serial_runner_matches_direct_run(self):
        outcome = run_sweep([tiny_spec(load=0.4)], RunnerConfig(jobs=1))
        direct = run_experiment(ExperimentSpec("dctcp", TINY, 0.4,
                                num_flows=12, seed=1))
        got = outcome.records[0].result
        # wallclock is machine timing, never deterministic; everything else
        # must be byte-identical.
        assert (pickle.dumps(replace(got, wallclock=0.0)) ==
                pickle.dumps(replace(direct.detach(), wallclock=0.0)))

    def test_parallel_results_equal_serial(self, tmp_path):
        specs = SweepSpec(protocols=("dctcp",), scenario=TINY,
                          loads=(0.2, 0.4), seeds=(3,),
                          num_flows=12).expand()

        def sweep(config):
            outcome = run_sweep(specs, config)
            return ([r.cached for r in outcome.records],
                    [(r.result.events, _fingerprint(r.result))
                     for r in outcome.records])

        serial = sweep(RunnerConfig(jobs=1, cache_dir=tmp_path))
        parallel = sweep(RunnerConfig(jobs=2))
        cached = sweep(RunnerConfig(jobs=1, cache_dir=tmp_path))
        assert serial[0] == parallel[0] == [False, False]
        assert cached[0] == [True, True]
        assert serial[1] == parallel[1] == cached[1]

    def test_sweep_loads_raises_on_worker_failure(self):
        for jobs in (1, 2):
            with pytest.raises(SweepFailure):
                sweep_loads("no-such-protocol", TINY, (0.3,), num_flows=12,
                            jobs=jobs)

    def test_replicate_parallel_matches_serial(self):
        serial = replicate("dctcp", TINY, 0.4, seeds=(1, 2), num_flows=12)
        parallel = replicate("dctcp", TINY, 0.4, seeds=(1, 2), num_flows=12,
                             jobs=2)
        assert serial.values == parallel.values


class TestDetach:
    def test_detach_strips_foreign_flow_attributes(self):
        result = run_experiment(ExperimentSpec("dctcp", TINY, 0.3,
                                num_flows=12, seed=1))
        # Simulate a transport stashing a simulator back-reference.
        result.flows[0].agent = object()
        detached = result.detach()
        assert not hasattr(detached.flows[0], "agent")
        pickle.dumps(detached)  # must not drag the stash along
        assert detached.flows[0].fct == result.flows[0].fct

    def test_experiment_result_round_trips_pickle(self):
        result = run_experiment(ExperimentSpec("pase", TINY, 0.3,
                                num_flows=12, seed=1))
        clone = pickle.loads(pickle.dumps(result.detach()))
        assert isinstance(clone, ExperimentResult)
        assert clone.afct == result.afct
        assert clone.control_plane.messages == result.control_plane.messages


class TestJsonlOutput:
    def test_records_and_summary_lines(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        config = RunnerConfig(jobs=1, jsonl_path=out)
        run_sweep([tiny_spec(load=0.3)], config)
        lines = _ledger(out)
        assert [l["type"] for l in lines] == ["run", "sweep_summary"]
        run_line, summary = lines
        assert run_line["status"] == "ok"
        assert run_line["wallclock_s"] > 0
        assert run_line["peak_rss_kb"] > 0
        assert run_line["metrics"]["afct_s"] > 0
        assert run_line["metrics"]["application_throughput"] is None  # NaN
        assert summary["total"] == 1 and summary["failed"] == 0
        assert summary["computed"] == 1 and summary["cached"] == 0

    def test_failed_point_lands_in_ledger_then_raises(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepFailure) as caught:
            run_sweep([tiny_spec(load=0.1), tiny_spec(load=0.5)],
                      RunnerConfig(jobs=2, jsonl_path=out),
                      work_fn=_raise_on_half)
        assert caught.value.outcome.stats.failed == 1
        assert [r.spec.load for r in caught.value.failed] == [0.5]
        rows = _ledger(out)
        statuses = {r["load"]: r["status"] for r in rows if r["type"] == "run"}
        assert statuses == {0.1: "ok", 0.5: "failed"}
        assert rows[-1]["type"] == "sweep_summary"

    def test_summary_tallies_match_run_rows(self, tmp_path):
        cache_dir, out = tmp_path / "cache", tmp_path / "sweep.jsonl"
        run_sweep([tiny_spec(load=0.3)], RunnerConfig(cache_dir=cache_dir))
        _failed_sweep_records(
            [tiny_spec(load=l) for l in (0.3, 0.4, 0.5)],
            RunnerConfig(cache_dir=cache_dir, jsonl_path=out),
            _real_unless_half)
        rows = _ledger(out)
        runs = [r for r in rows if r["type"] == "run"]
        summary = rows[-1]
        assert summary["type"] == "sweep_summary"
        assert summary["total"] == len(runs) == 3
        assert summary["cached"] == sum(r["cached"] for r in runs) == 1
        assert summary["failed"] == sum(
            r["status"] != "ok" for r in runs) == 1
        assert summary["computed"] == sum(
            r["status"] == "ok" and not r["cached"] for r in runs) == 1


class TestRunnerCli:
    def test_end_to_end_sweep(self, tmp_path, capsys):
        from repro.runner.cli import main

        out = tmp_path / "out.jsonl"
        rc = main(["--protocols", "dctcp", "--scenario", "intra-rack",
                   "--hosts", "5", "--loads", "0.2,0.4", "--flows", "12",
                   "--jobs", "2", "--no-cache", "--output", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "2 runs" in printed and "0 failed" in printed
        assert "afct" in printed
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert sum(1 for r in rows if r["type"] == "run") == 2

    def test_cache_round_trip_via_cli(self, tmp_path, capsys):
        from repro.runner.cli import main

        argv = ["--protocols", "dctcp", "--scenario", "intra-rack",
                "--hosts", "5", "--loads", "0.3", "--flows", "12",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_unknown_protocol_is_an_error(self, capsys):
        from repro.runner.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--protocols", "quic", "--scenario", "intra-rack",
                  "--loads", "0.3"])
        assert exc.value.code == 2

    def test_serial_timeout_is_a_usage_error(self, capsys):
        from repro.runner.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--protocols", "dctcp", "--scenario", "intra-rack",
                  "--loads", "0.3", "--timeout", "1", "--no-cache"])
        assert exc.value.code == 2
        assert "timeout needs jobs > 1" in capsys.readouterr().err

    def test_failed_points_exit_nonzero_with_ledger(self, tmp_path, capsys):
        from repro.runner.cli import main

        out = tmp_path / "out.jsonl"
        rc = main(["--protocols", "dctcp", "--scenario", "intra-rack",
                   "--hosts", "5", "--loads", "0.2,0.4", "--flows", "100",
                   "--jobs", "2", "--timeout", "0.01", "--no-cache",
                   "--output", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "2 failed" in captured.out
        assert captured.err.count("failed: ") == 2
        rows = _ledger(out)
        assert [r["status"] for r in rows if r["type"] == "run"] == [
            "timeout", "timeout"]
        assert rows[-1]["type"] == "sweep_summary" and rows[-1]["failed"] == 2
