"""Extension — PDQ-style Early Termination applied to PASE's EDF mode.

The paper adopts PDQ's arbitration but not its Early Termination; §3.1.1
notes the criterion is pluggable.  This benchmark measures what terminating
deadline-infeasible flows buys on the deadline workload: at high load many
flows provably cannot make their deadlines, and every packet they send
steals capacity from flows that still can.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.core import PaseConfig
from repro.harness import ScenarioSpec, format_series_table

LOADS = (0.5, 0.7, 0.9)


def run_figure():
    results = {
        label: sweep(
            ("pase",), ScenarioSpec("intra-rack-deadlines", {"num_hosts": 20}),
            loads=LOADS, num_flows=200,
            pase_config=PaseConfig(criterion="deadline",
                                   early_termination=et))["pase"]
        for label, et in (("pase", False), ("pase+ET", True))
    }
    series = {name: {l: r.application_throughput for l, r in by_load.items()}
              for name, by_load in results.items()}
    text = format_series_table(
        "Extension: deadline throughput with/without Early Termination",
        LOADS, series, precision=3)
    terminated = {l: sum(1 for f in results["pase+ET"][l].flows if f.terminated)
                  for l in LOADS}
    text += "\nterminated flows (pase+ET): " + "  ".join(
        f"{l*100:.0f}%:{n}" for l, n in terminated.items())
    emit("ext_early_termination", text)
    return series, terminated


def test_ext_early_termination(benchmark):
    series, terminated = run_once(benchmark, run_figure)
    # ET only fires when flows are actually infeasible (high load).
    assert terminated[0.9] > 0
    # And never meaningfully hurts the fraction of deadlines met.
    for load in LOADS:
        assert series["pase+ET"][load] >= series["pase"][load] - 0.05
