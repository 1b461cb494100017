"""Run the full perf suite and write ``BENCH_sim.json`` at the repo root.

Usage::

    PYTHONPATH=src python -m benchmarks.perf               # full scale
    PYTHONPATH=src python -m benchmarks.perf --scale smoke # CI-sized
    PYTHONPATH=src python -m benchmarks.perf --output /tmp/bench.json

The report embeds the pre-optimization baseline so every BENCH_sim.json
carries its own point of comparison (see EXPERIMENTS.md for the schema).
Exit status is non-zero when a measured rate fails the checked-in floor
(``benchmarks/perf/floor.json``) by more than the allowed regression — CI
uses this as its pass/fail signal.  End-to-end figure-sweep timing lives
in ``sweepbench/``, not here.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from benchmarks.perf import (BASELINE_ARBITRATIONS_PER_SEC,
                             BASELINE_EVENTS_PER_SEC, BestOf,
                             bench_arbitration, bench_engine, bench_link,
                             bench_switch, bench_transport)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FLOOR_PATH = Path(__file__).resolve().parent / "floor.json"
#: CI fails when measured engine throughput drops below floor * (1 - this).
ALLOWED_REGRESSION = 0.30


def build_report(scale: str) -> dict:
    engine = bench_engine.run(scale=scale)
    arbitration = bench_arbitration.run(scale=scale)
    switch = bench_switch.run(scale=scale)
    link = bench_link.run(scale=scale)
    transport = bench_transport.run(scale=scale)
    speedup = {
        "spin": engine["spin_post_events_per_sec"]
                / BASELINE_EVENTS_PER_SEC["spin"],
        "churn": engine["churn_post_events_per_sec"]
                 / BASELINE_EVENTS_PER_SEC["churn"],
    }
    arb_speedup = {
        key: arbitration[f"{key}_arbitrations_per_sec"] / base
        if f"{key}_arbitrations_per_sec" in arbitration
        else arbitration[f"{key}_calls_per_sec"] / base
        for key, base in BASELINE_ARBITRATIONS_PER_SEC.items()
    }
    results = {"engine": engine, "arbitration": arbitration, "switch": switch,
               "link": link, "transport": transport}
    return {
        "schema": "bench_sim/v4",
        "suite": "benchmarks/perf",
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline": {
            "engine_events_per_sec": dict(BASELINE_EVENTS_PER_SEC),
            "arbitrations_per_sec": dict(BASELINE_ARBITRATIONS_PER_SEC),
            "note": "engine: pre-optimization engine at the seed commit; "
                    "arbitration: O(F log F) sort-per-decide arbitrator at "
                    "the PR 4 commit, same workloads",
        },
        "results": results,
        # Every repeat of each best-of leg, so a reader can see the noise
        # the gated value was picked from.
        "spread": {
            section: {metric: value.spread() for metric, value in block.items()
                      if isinstance(value, BestOf)}
            for section, block in results.items()
        },
        "speedup_vs_baseline": speedup,
        "arbitration_speedup_vs_baseline": arb_speedup,
    }


def check_floor(report: dict) -> list:
    """Compare measured rates against the checked-in floors; return a list
    of human-readable violations (empty = pass).  Every top-level section
    of floor.json maps onto the same-named results block."""
    floor = json.loads(FLOOR_PATH.read_text())
    failures = []
    for section, metrics in floor.items():
        if not isinstance(metrics, dict):
            continue  # prose keys ("note")
        results = report["results"].get(section, {})
        for metric, floor_value in metrics.items():
            measured = results.get(metric)
            threshold = floor_value * (1.0 - ALLOWED_REGRESSION)
            if measured is None:
                failures.append(f"{section}.{metric}: missing from report")
            elif measured < threshold:
                failures.append(
                    f"{section}.{metric}: {measured:,.0f}/sec is below "
                    f"{threshold:,.0f} (floor {floor_value:,.0f} - "
                    f"{ALLOWED_REGRESSION:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_sim.json")
    parser.add_argument("--no-floor-check", action="store_true",
                        help="write the report but skip the regression gate")
    args = parser.parse_args(argv)

    report = build_report(args.scale)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    engine = report["results"]["engine"]
    print(f"engine  spin(post):      {engine['spin_post_events_per_sec']:>12,.0f} events/sec "
          f"({report['speedup_vs_baseline']['spin']:.2f}x baseline)")
    print(f"engine  churn(post):     {engine['churn_post_events_per_sec']:>12,.0f} events/sec "
          f"({report['speedup_vs_baseline']['churn']:.2f}x baseline)")
    print(f"engine  rearm(repost):   {engine['rearm_post_events_per_sec']:>12,.0f} events/sec")
    arb = report["results"]["arbitration"]
    arb_speed = report["arbitration_speedup_vs_baseline"]
    for n in (100, 1_000, 10_000):
        print(f"arb     churn F={n:<6}   "
              f"{arb[f'churn_{n}_arbitrations_per_sec']:>12,.0f} arbitrations/sec "
              f"({arb_speed[f'churn_{n}']:.1f}x baseline)")
    switch = report["results"]["switch"]
    print(f"switch  incast:          {switch['incast_packets_per_sec']:>12,.0f} packets/sec")
    link = report["results"]["link"]
    print(f"link    switch chain:    {link['chain_packets_per_sec']:>12,.0f} packets/sec")
    transport = report["results"]["transport"]
    print(f"transport dctcp pair:    {transport['dctcp_pair_packets_per_sec']:>12,.0f} packets/sec")
    print(f"transport pase incast:   {transport['pase_incast_events_per_sec']:>12,.0f} events/sec")
    print(f"report: {args.output}")

    if args.no_floor_check:
        return 0
    failures = check_floor(report)
    for failure in failures:
        print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
