"""Figure 12b — PASE with a varying number of switch priority queues.

Paper: 4 queues already capture most of the benefit; going beyond yields
marginal AFCT improvement — the evidence that PASE works on commodity
switches (Table 2: 3-10 queues per port).
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.core import PaseConfig
from repro.harness import ScenarioSpec, format_series_table

LOADS = (0.5, 0.7, 0.9)
QUEUE_COUNTS = (3, 4, 6, 8)


def run_figure():
    results = {
        f"{num_queues}q": sweep(
            ("pase",), ScenarioSpec("left-right"), loads=LOADS, num_flows=250,
            pase_config=PaseConfig(num_queues=num_queues))["pase"]
        for num_queues in QUEUE_COUNTS
    }
    series = {name: {load: r.afct * 1e3 for load, r in by_load.items()}
              for name, by_load in results.items()}
    emit("fig12b_num_queues", format_series_table(
        "Figure 12b: AFCT (ms) vs number of priority queues — left-right",
        LOADS, series, unit="ms"))
    return series


def test_fig12b_num_queues(benchmark):
    series = run_once(benchmark, run_figure)
    for load in LOADS:
        # Monotone: more priority classes never hurt.
        assert series["8q"][load] <= 1.1 * series["6q"][load]
        assert series["6q"][load] <= 1.1 * series["4q"][load]
        assert series["4q"][load] <= 1.1 * series["3q"][load]
        # 4 queues already capture most of the 3q -> 8q improvement
        # (the paper's deployability argument).
        gain_3_to_8 = series["3q"][load] - series["8q"][load]
        gain_3_to_4 = series["3q"][load] - series["4q"][load]
        if gain_3_to_8 > 0.2:  # meaningful gap only
            assert gain_3_to_4 >= 0.5 * gain_3_to_8
    # Beyond 6 queues the gain is marginal.
    assert series["8q"][0.9] > 0.85 * series["6q"][0.9]
