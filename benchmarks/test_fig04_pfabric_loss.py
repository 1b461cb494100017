"""Figure 4 — pFabric's loss rate vs load under all-to-all incast.

Paper: the worker/aggregator interaction of a search application inside one
rack (flows U[2 KB, 198 KB]); pFabric's line-rate starts into shallow
priority-drop buffers push the loss rate up steeply with load (>40% at 80%
in the paper's 40-host rack; the shape — steep monotone growth — is the
claim under test at our fan-in).
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results

LOADS = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)


def run_figure():
    results = sweep(
        ("pfabric", "pase"),
        ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 4}),
        loads=LOADS,
        num_flows=300,
    )
    series = series_from_results(results, "loss_rate", scale=100.0)
    emit("fig04_pfabric_loss", format_series_table(
        "Figure 4: data-packet loss rate (%) — all-to-all incast intra-rack",
        LOADS, series, unit="%", precision=2))
    return series


def test_fig04_pfabric_loss(benchmark):
    series = run_once(benchmark, run_figure)
    pf = series["pfabric"]
    # Loss grows with load and is substantial at high load.
    assert pf[0.9] > pf[0.5] > pf[0.1]
    assert pf[0.9] > 1.5 * pf[0.1]  # steep growth
    assert pf[0.9] > 5.0
    # PASE's arbitration keeps losses near zero throughout.
    assert all(v < 1.0 for v in series["pase"].values())
