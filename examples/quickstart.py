#!/usr/bin/env python3
"""Quickstart: run PASE on a handful of flows, two ways.

Part 1 wires the pieces by hand — simulator, topology, control plane,
per-flow agents — which is what you would do to embed the library in your
own experiment.  Part 2 does the same thing with the one-call harness used
by the paper-reproduction benchmarks.

Run:  python examples/quickstart.py
"""

from repro.core import (
    PaseConfig,
    PaseControlPlane,
    PaseReceiver,
    PaseSender,
    pase_queue_factory,
)
from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.sim import Simulator, StarTopology
from repro.transports import Flow
from repro.utils.units import GBPS, KB, USEC


def part1_manual() -> None:
    print("=" * 64)
    print("Part 1: three flows, one shared destination, wired by hand")
    print("=" * 64)

    config = PaseConfig()
    sim = Simulator()
    # A rack of six 1 Gbps hosts; every port gets PASE's 8-class
    # strict-priority queue bank.
    topology = StarTopology(sim, num_hosts=6, link_bps=1 * GBPS,
                            rtt=100 * USEC,
                            queue_factory=pase_queue_factory(config))
    control_plane = PaseControlPlane(sim, topology, config)

    # Three flows of very different sizes, all into host 5, all at t=0.
    # Arbitration should schedule them shortest-first.
    flows = []
    for i, size in enumerate([30 * KB, 150 * KB, 600 * KB]):
        flow = Flow(flow_id=i + 1,
                    src=topology.hosts[i].node_id,
                    dst=topology.hosts[5].node_id,
                    size_bytes=size, start_time=0.0)
        PaseReceiver(sim, topology.hosts[5], flow)
        PaseSender(sim, topology.hosts[i], flow, control_plane).start()
        flows.append(flow)

    sim.run(until=0.1)

    print(f"{'flow':<6}{'size':<10}{'FCT':<12}{'retransmits':<12}")
    for flow in flows:
        print(f"{flow.flow_id:<6}{flow.size_bytes // 1000:>3} KB    "
              f"{flow.fct * 1e3:>7.3f} ms  {flow.retransmissions:<12}")
    ordered = sorted(flows, key=lambda f: f.size_bytes)
    assert ordered[0].fct < ordered[1].fct < ordered[2].fct, \
        "shortest-flow-first ordering should hold"
    print("-> shortest-flow-first confirmed: smaller flows finished first\n")


def part2_harness() -> None:
    print("=" * 64)
    print("Part 2: the same idea with the experiment harness")
    print("=" * 64)

    scenario = ScenarioSpec("intra-rack", {"num_hosts": 10})
    for protocol in ("pase", "dctcp"):
        result = run_experiment(ExperimentSpec(protocol, scenario, load=0.6,
                                num_flows=100, seed=7))
        print(f"{protocol:>6}: AFCT = {result.afct * 1e3:6.2f} ms   "
              f"99th = {result.p99_fct * 1e3:6.2f} ms   "
              f"completed = {result.stats.completion_fraction:.0%}")
    print("-> PASE's arbitration + priority queues beat plain DCTCP")


if __name__ == "__main__":
    part1_manual()
    part2_harness()
