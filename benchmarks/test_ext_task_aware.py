"""Extension — task-aware scheduling (§3.1.1: "FlowSize can be replaced by
... task-id for task-aware scheduling", per Baraat).

On the partition-aggregate workload a query is only as fast as its slowest
response, so the metric that matters is *task* completion time (TCT), not
per-flow FCT.  Flow-level SRPT gladly preempts the last flow of an old
query to serve a fresh short flow — lowering FCT but stretching the old
query.  Task-aware FIFO-LM finishes whole queries in arrival order.
"""

from collections import defaultdict

from benchmarks.bench_common import emit, run_once, sweep
from repro.core import PaseConfig
from repro.harness import ScenarioSpec, format_series_table

LOADS = (0.5, 0.7, 0.9)


def task_completion_times(result):
    """Mean and p99 task completion time (query arrival to last response)."""
    tasks = defaultdict(list)
    for flow in result.flows:
        if flow.background or flow.task_id is None:
            continue
        tasks[flow.task_id].append(flow)
    tcts = []
    for members in tasks.values():
        if not all(f.completed for f in members):
            continue
        start = min(f.start_time for f in members)
        end = max(f.completion_time for f in members)
        tcts.append(end - start)
    tcts.sort()
    mean = sum(tcts) / len(tcts) if tcts else float("nan")
    return mean, tcts


def run_figure():
    results = {
        label: sweep(("pase",), ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 8}),
                     LOADS, num_flows=320,
                     pase_config=PaseConfig(criterion=criterion))["pase"]
        for label, criterion in (("srpt", "size"), ("task-aware", "task"))
    }
    mean_tct = {}
    for label, by_load in results.items():
        mean_tct[label] = {}
        for load, r in by_load.items():
            mean, _ = task_completion_times(r)
            mean_tct[label][load] = mean * 1e3
    afct = {label: {l: r.afct * 1e3 for l, r in by_load.items()}
            for label, by_load in results.items()}
    text = format_series_table(
        "Extension: mean task (query) completion time (ms)", LOADS, mean_tct,
        unit="ms")
    text += "\n\n" + format_series_table(
        "For reference: per-flow AFCT (ms)", LOADS, afct, unit="ms")
    emit("ext_task_aware", text)
    return mean_tct, afct


def test_ext_task_aware(benchmark):
    mean_tct, afct = run_once(benchmark, run_figure)
    for load in LOADS:
        # Task-aware scheduling must not lose on its own metric...
        assert mean_tct["task-aware"][load] <= 1.1 * mean_tct["srpt"][load]
    # ...and at high load it wins task completion time outright.
    assert mean_tct["task-aware"][0.9] < mean_tct["srpt"][0.9]
