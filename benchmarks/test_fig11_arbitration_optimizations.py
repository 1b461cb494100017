"""Figure 11 — effect of the control-plane optimizations (early pruning +
delegation) on AFCT (a) and on arbitration overhead (b).

Paper: with both optimizations enabled, control messages drop by up to 50%
at high load (delegation keeps inter-rack arbitration at the ToRs, pruning
stops low-priority flows from climbing) while AFCT *improves* slightly
(4-10%) because delegation removes arbitration latency.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results
from repro.metrics import overhead_reduction

LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run_figure():
    results = sweep(
        ("pase", "pase-noopt"),
        ScenarioSpec("left-right"),
        loads=LOADS,
        num_flows=250,
    )
    afct = series_from_results(results, "afct", scale=1e3)
    lines = [format_series_table(
        "Figure 11a: AFCT (ms) — optimizations on (pase) vs off (pase-noopt)",
        LOADS, afct, unit="ms")]
    reductions = {}
    for load in LOADS:
        on = results["pase"][load].control_plane.messages_per_sec
        off = results["pase-noopt"][load].control_plane.messages_per_sec
        reductions[load] = overhead_reduction(off, on)
    lines.append("")
    lines.append("Figure 11b: control-message overhead")
    lines.append(f"{'load(%)':<10}{'msgs/s (on)':<16}{'msgs/s (off)':<16}{'reduction %':<12}")
    for load in LOADS:
        on = results["pase"][load].control_plane.messages_per_sec
        off = results["pase-noopt"][load].control_plane.messages_per_sec
        lines.append(f"{load*100:<10.0f}{on:<16.0f}{off:<16.0f}{reductions[load]:<12.1f}")
    lines.append("")
    lines.append("Processing load per arbitrator level (decisions, 90% load):")
    for name in ("pase", "pase-noopt"):
        by_level = results[name][0.9].control_plane.processed_by_level
        lines.append(f"  {name:<12} host={by_level[0]:<8} tor={by_level[1]:<8} "
                     f"agg={by_level[2]:<8}")
    emit("fig11_arbitration_optimizations", "\n".join(lines))
    return results, reductions


def test_fig11_arbitration_optimizations(benchmark):
    results, reductions = run_once(benchmark, run_figure)
    # Optimizations reduce control messages at every load, substantially at
    # high load (paper: up to ~50%).
    assert all(r > 0 for r in reductions.values())
    assert reductions[0.9] > 20.0
    # And they do not hurt completion times (paper: 4-10% improvement).
    for load in LOADS:
        assert results["pase"][load].afct <= 1.15 * results["pase-noopt"][load].afct
    # Delegation moves all aggregation-level processing down to the ToRs.
    assert results["pase"][0.9].control_plane.processed_by_level[2] == 0
    assert results["pase-noopt"][0.9].control_plane.processed_by_level[2] > 0
