"""Control-plane throughput: arbitrations/second on one link arbitrator.

PR 3 made the event engine fast enough that PASE's own control plane became
the hot spot, so this benchmark isolates it.  Three single-link workloads
over table sizes spanning 10²–10⁴ flows, plus one full-stack
control-plane-heavy sweep point:

* ``churn`` — the steady-state pattern: every ``arbitrate()`` call shrinks
  one flow's criterion (remaining size) round-robin, so each call re-keys
  the table and recomputes that flow's (PrioQue, Rref).  This is the
  workload the pre-PR baseline numbers were measured on.
* ``parked`` — re-registration with *unchanged* criterion/demand (a flow
  refreshing its soft state between sends): no table mutation, pure decide.
* ``aggregate`` — ``aggregate_demand(top_queues=1)`` on a static table,
  the delegation rebalancer's per-child demand read.
* ``cp_heavy`` — a full ``left-right`` PASE run at high load: every layer,
  but sized so arbitration dominates (many flows, inter-rack paths through
  the virtual arbitrators).

The flow population is deterministic (no RNG): sizes walk a fixed stride
pattern and demands derive from them, so runs are comparable across
machines and commits.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.arbitration import LinkArbitrator

from benchmarks.perf import best_of

GBPS = 1e9
#: Table sizes for the 10²–10⁴ flows-per-link scan.
TABLE_SIZES = (100, 1_000, 10_000)


def _make_arbitrator() -> LinkArbitrator:
    # A 10 Gbps fabric link with 8 data queues and a 40 Mbps base rate —
    # the same shape PaseControlPlane builds for a left-right core link.
    return LinkArbitrator("bench", 10 * GBPS, 8, 40e6)


def _population(n_flows: int) -> Tuple[List[float], List[float]]:
    """Deterministic (criterion, demand) pairs: sizes stride over
    10 KB–1 MB, demand is the size over one arbitration interval capped at
    NIC rate."""
    criteria = [float(10_000 + (i * 7919) % 990_000) for i in range(n_flows)]
    demands = [min(1 * GBPS, c * 8 / 300e-6) for c in criteria]
    return criteria, demands


def churn_arbitrations_per_sec(n_flows: int, ops: int) -> float:
    arb = _make_arbitrator()
    criteria, demands = _population(n_flows)
    for i in range(n_flows):
        arb.arbitrate(i, criteria[i], demands[i], 0.0)
    t0 = time.perf_counter()
    for n in range(ops):
        i = n % n_flows
        criteria[i] *= 0.97
        arb.arbitrate(i, criteria[i], demands[i], n * 1e-6)
    return ops / (time.perf_counter() - t0)


def parked_arbitrations_per_sec(n_flows: int, ops: int) -> float:
    arb = _make_arbitrator()
    criteria, demands = _population(n_flows)
    for i in range(n_flows):
        arb.arbitrate(i, criteria[i], demands[i], 0.0)
    t0 = time.perf_counter()
    for n in range(ops):
        i = n % n_flows
        arb.arbitrate(i, criteria[i], demands[i], n * 1e-6)
    return ops / (time.perf_counter() - t0)


def aggregate_calls_per_sec(n_flows: int, calls: int) -> float:
    arb = _make_arbitrator()
    criteria, demands = _population(n_flows)
    for i in range(n_flows):
        arb.arbitrate(i, criteria[i], demands[i], 0.0)
    t0 = time.perf_counter()
    for _ in range(calls):
        arb.aggregate_demand(top_queues=1)
    return calls / (time.perf_counter() - t0)


def cp_heavy_point(num_flows: int, hosts_per_rack: int,
                   seed: int = 5) -> Dict[str, float]:
    """A control-plane-heavy full-stack point: high-load left-right PASE,
    where every inter-rack flow consults host, ToR, and (delegated) core
    arbitrators each interval."""
    from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment

    spec = ExperimentSpec(
        "pase", ScenarioSpec("left-right", {"hosts_per_rack": hosts_per_rack}),
        0.8, num_flows=num_flows, seed=seed)
    t0 = time.perf_counter()
    result = run_experiment(spec)
    wallclock = time.perf_counter() - t0
    return {
        "cp_heavy_wallclock_sec": wallclock,
        "cp_heavy_sim_events_per_sec": result.events / wallclock,
        "cp_heavy_control_messages": float(result.control_plane.messages),
    }


def run(scale: str = "full", repeats: int = 3) -> Dict[str, float]:
    """All arbitration measurements as a flat ``{metric: rate}`` dict."""
    if scale == "full":
        churn_ops = {100: 200_000, 1_000: 200_000, 10_000: 100_000}
        parked_ops, agg_calls = 200_000, 20_000
        cp_flows, cp_hosts = 150, 4
    else:
        churn_ops = {100: 40_000, 1_000: 40_000, 10_000: 20_000}
        parked_ops, agg_calls = 40_000, 4_000
        cp_flows, cp_hosts = 40, 3
    report: Dict[str, float] = {}
    for n in TABLE_SIZES:
        report[f"churn_{n}_arbitrations_per_sec"] = best_of(
            lambda n=n: churn_arbitrations_per_sec(n, churn_ops[n]), repeats)
    report["parked_1000_arbitrations_per_sec"] = best_of(
        lambda: parked_arbitrations_per_sec(1_000, parked_ops), repeats)
    report["aggregate_top1_1000_calls_per_sec"] = best_of(
        lambda: aggregate_calls_per_sec(1_000, agg_calls), repeats)
    report.update(cp_heavy_point(cp_flows, cp_hosts))
    return report
