"""``python -m repro.runner`` — run experiments from the shell.

One point or a full figure grid, serial or parallel, cached::

    # One point, with per-size-bucket FCT statistics:
    python -m repro.runner --protocols pfabric --scenario all-to-all \
        --loads 0.9 --hosts 20 --fanin 16 --buckets

    # Fig. 9a's PASE series, five paper loads, four workers, cached:
    python -m repro.runner --protocols pase --scenario left-right \
        --loads 0.1,0.3,0.5,0.7,0.9 --flows 250 --jobs 4

    # Full three-protocol figure, resumable (re-runs serve from cache):
    python -m repro.runner --protocols pase,l2dct,dctcp \
        --scenario left-right --loads 0.1,0.3,0.5,0.7,0.9 \
        --jobs 4 --timeout 1800 --output fig09a.jsonl

Scenario names come from ``repro.harness.scenarios.SCENARIO_BUILDERS``;
``--hosts``/``--fanin`` map onto each scenario's size parameters.  Each
settled point prints a summary (AFCT, tail, loss, deadlines, control-plane
and fault counters); the sweep ends with a series table and a one-line
summary.

``--profile stats.txt`` wraps the sweep in cProfile, forcing ``--jobs 1``
and bypassing the cache so every point runs in this process, dumps
cumulative-sorted stats to the named file, and records its path in the
``--output`` ledger (with the run's hash when the grid is one point).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import PaseConfig
from repro.harness.experiment import ExperimentResult
from repro.harness.protocols import PROTOCOL_NAMES
from repro.harness.report import format_series_table, series_from_results
from repro.harness.scenarios import (SCENARIO_BUILDERS, ScenarioSpec,
                                     scenario_cli_kwargs)
from repro.metrics.slowdown import bucket_stats
from repro.runner.api import RunnerConfig, SweepFailure, run_sweep
from repro.runner.cache import default_cache_dir
from repro.runner.sink import PROFILE_SORT, JsonlSink, results_by_protocol_load
from repro.runner.spec import SweepSpec
from repro.utils.units import KB


def _csv(cast):
    def parse(text: str):
        try:
            return [cast(part) for part in text.split(",") if part != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _protocol(name: str) -> str:
    if name not in PROTOCOL_NAMES:
        raise ValueError(f"unknown protocol {name!r}")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.runner",
        description="Run a (protocol x load x seed) sweep, serially or in "
                    "parallel, with content-addressed result caching.",
    )
    parser.add_argument("--protocols", required=True, type=_csv(_protocol),
                        metavar="P1,P2,...",
                        help=f"protocols from: {', '.join(PROTOCOL_NAMES)}")
    parser.add_argument("--scenario", required=True,
                        choices=sorted(SCENARIO_BUILDERS))
    parser.add_argument("--loads", required=True, type=_csv(float),
                        metavar="L1,L2,...",
                        help="offered loads as fractions, e.g. 0.1,0.5,0.9")
    parser.add_argument("--seeds", type=_csv(int), default=[1],
                        metavar="S1,S2,...")
    parser.add_argument("--flows", type=int, default=200,
                        help="foreground flows per point (default 200)")
    parser.add_argument("--hosts", type=int, default=None,
                        help="hosts (star scenarios) / hosts per rack (left-right)")
    parser.add_argument("--fanin", type=int, default=8,
                        help="incast fan-in for all-to-all (default 8)")
    parser.add_argument("--horizon", type=float, default=None,
                        help="extra simulated seconds past the last arrival")
    parser.add_argument("--criterion", default=None,
                        choices=("size", "deadline", "las", "task"),
                        help="override PASE's arbitration criterion")
    parser.add_argument("--early-termination", action="store_true",
                        help="terminate deadline-infeasible flows (PASE)")
    parser.add_argument("--num-queues", type=int, default=None,
                        help="switch priority queues for PASE (default 8)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers (1 = serial in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock budget in seconds "
                             "(needs --jobs > 1)")
    parser.add_argument("--cache-dir", default=None,
                        help=f"result cache root (default {default_cache_dir()})")
    parser.add_argument("--no-cache", action="store_true",
                        help="compute every point; neither read nor write cache")
    parser.add_argument("--output", default=None, metavar="PATH.jsonl",
                        help="append per-run JSONL records here")
    parser.add_argument("--metric", default="afct",
                        choices=("afct", "p99_fct", "application_throughput",
                                 "loss_rate"),
                        help="metric for the printed series table")
    parser.add_argument("--buckets", action="store_true",
                        help="print per-size-bucket FCT statistics")
    parser.add_argument("--profile", type=Path, default=None, metavar="PATH",
                        help="wrap the sweep in cProfile and dump "
                             "cumulative-sorted stats to PATH (forces "
                             "--jobs 1 and bypasses the cache; the "
                             "--output ledger records the profile's "
                             "location)")
    return parser


def build_pase_config(args: argparse.Namespace) -> Optional[PaseConfig]:
    """The PASE config the ``--criterion``/``--early-termination``/
    ``--num-queues`` flags ask for, or None when none is given.  Without
    ``--criterion`` the run keeps the scenario's criterion."""
    overrides = {}
    if args.criterion:
        overrides["criterion"] = args.criterion
    if args.early_termination:
        overrides["early_termination"] = True
    if args.num_queues:
        overrides["num_queues"] = args.num_queues
    if not overrides:
        return None
    return PaseConfig(**overrides)


def print_summary(result: ExperimentResult, show_buckets: bool) -> None:
    stats = result.stats
    print(f"protocol:   {result.protocol}")
    print(f"scenario:   {result.scenario}")
    print(f"load:       {result.load:.0%}")
    print(f"flows:      {stats.num_flows} "
          f"(completed {stats.completion_fraction:.1%})")
    print(f"AFCT:       {stats.afct * 1e3:.3f} ms")
    print(f"median FCT: {stats.median_fct * 1e3:.3f} ms")
    print(f"99th FCT:   {stats.p99_fct * 1e3:.3f} ms")
    print(f"loss rate:  {result.loss_rate:.2%}")
    if stats.num_deadline_flows:
        print(f"deadlines:  {stats.application_throughput:.1%} met "
              f"({stats.num_deadlines_met}/{stats.num_deadline_flows})")
    if result.control_plane is not None:
        cp = result.control_plane
        print(f"control:    {cp.messages} messages "
              f"({cp.messages_per_sec:.0f}/s), {cp.prunes} prunes")
    if result.faults is not None:
        fc = result.faults
        injected = ", ".join(f"{k} x{v}" for k, v in sorted(fc.injected.items()))
        print(f"faults:     {injected or 'none'}")
        if fc.fallback_episodes:
            recovery = (f", mean recovery {fc.mean_recovery_latency * 1e3:.1f} ms"
                        if fc.recovery_latencies else "")
            print(f"fallback:   {fc.fallback_episodes} episode(s) across "
                  f"{fc.flows_in_fallback} flow(s), "
                  f"{fc.fallback_time * 1e3:.1f} ms total{recovery}")
    print(f"simulated:  {result.sim_duration * 1e3:.1f} ms "
          f"({result.events} events in {result.wallclock:.1f} s wall)")
    if show_buckets:
        print()
        print(f"{'size bucket':<20}{'flows':<8}{'mean FCT':<12}{'p99 FCT':<12}")
        edges = [10 * KB, 50 * KB, 100 * KB, 200 * KB]
        for b in bucket_stats(result.flows, edges, 1e9, 300e-6):
            if b.count == 0:
                continue
            print(f"{b.label:<20}{b.count:<8}"
                  f"{b.mean_fct * 1e3:<12.3f}{b.p99_fct * 1e3:<12.3f}")


def _dump_profile(profiler, path: Path) -> None:
    """Write cumulative-sorted cProfile stats as text."""
    import pstats

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats(PROFILE_SORT).print_stats()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile is not None and args.jobs != 1:
        print("--profile forces --jobs 1 (cProfile needs the runs "
              "in-process)", file=sys.stderr)
        args.jobs = 1

    scenario = ScenarioSpec(args.scenario,
                            scenario_cli_kwargs(args.scenario, args.hosts,
                                                args.fanin))
    specs = SweepSpec(
        protocols=args.protocols,
        scenario=scenario,
        loads=args.loads,
        seeds=args.seeds,
        num_flows=args.flows,
        pase_config=build_pase_config(args),
        horizon=args.horizon,
    ).expand()
    cache_dir = None
    if not args.no_cache and args.profile is None:
        cache_dir = args.cache_dir or default_cache_dir()
    try:
        config = RunnerConfig(jobs=args.jobs, timeout=args.timeout,
                              cache_dir=cache_dir, jsonl_path=args.output)
    except ValueError as exc:
        parser.error(str(exc))

    def progress(record) -> None:
        mark = "cached" if record.cached else record.status
        extra = "" if record.ok else " !"
        print(f"  [{mark}]{extra} {record.spec.label} "
              f"({record.wallclock:.1f} s)")
        if record.ok:
            print_summary(record.result, args.buckets)
            print()

    def sweep():
        try:
            return run_sweep(specs, config, on_record=progress)
        except SweepFailure as exc:
            return exc.outcome

    print(f"sweep: {len(specs)} points "
          f"({len(args.protocols)} protocol(s) x {len(args.loads)} load(s) "
          f"x {len(args.seeds)} seed(s)), jobs={args.jobs}")
    if args.profile is None:
        outcome = sweep()
    else:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        outcome = sweep()
        profiler.disable()
        _dump_profile(profiler, args.profile)
        print(f"profile:    {args.profile} (sorted by cumulative time)")
        if args.output is not None:
            run_hash = specs[0].content_hash() if len(specs) == 1 else None
            with JsonlSink(args.output) as sink:
                sink.write_profile(args.profile, run_hash=run_hash)

    results = results_by_protocol_load(outcome.records)
    if results:
        scale = 1e3 if args.metric in ("afct", "p99_fct") else 1.0
        unit = "ms" if scale == 1e3 else ""
        series = series_from_results(results, args.metric, scale=scale)
        print()
        print(format_series_table(
            f"{args.metric} — {args.scenario}", args.loads, series, unit=unit))
    print()
    print(outcome.summary_line())
    for line in outcome.stats.failures:
        print(f"  failed: {line}", file=sys.stderr)
    return 1 if outcome.stats.failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
