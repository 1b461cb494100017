"""Extension — Table 2: PASE on each commodity ToR switch profile.

The paper's deployability argument in one table: run the same intra-rack
workload with each of Table 2's switch capabilities (queue count, ECN) and
confirm PASE degrades gracefully — including on the ECN-less Juniper
EX3300, where intermediate-queue flows lose their self-adjusting signal
and fall back to loss-based control.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table
from repro.sim.switch_models import TABLE2, pase_config_for

LOADS = (0.5, 0.8)


def run_figure():
    results = {}
    for name, model in sorted(TABLE2.items()):
        label = f"{name}({model.num_queues}q{'' if model.ecn else ',noECN'})"
        results[label] = sweep(
            ("pase",), ScenarioSpec("intra-rack", {"num_hosts": 20}), loads=LOADS, num_flows=200,
            pase_config=pase_config_for(model))["pase"]
    series = {label: {l: r.afct * 1e3 for l, r in by_load.items()}
              for label, by_load in results.items()}
    emit("ext_table2_switches", format_series_table(
        "Extension (Table 2): PASE AFCT (ms) per commodity switch profile",
        LOADS, series, unit="ms", precision=2))
    return results


def test_ext_table2_switches(benchmark):
    results = run_once(benchmark, run_figure)
    afcts = {label: by_load[0.8].afct for label, by_load in results.items()}
    best, worst = min(afcts.values()), max(afcts.values())
    # PASE works on every profile (everything completes)...
    for by_load in results.values():
        for r in by_load.values():
            assert r.stats.completion_fraction == 1.0
    # ...and even the weakest profile stays within 2x of the best.
    assert worst < 2.0 * best
