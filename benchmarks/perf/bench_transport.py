"""End-host transport throughput, two points.

* ``dctcp_pair`` — ACK-clocked packets/second.  One DCTCP sender streams
  one long flow to one receiver through a single switch (a two-host star
  with the paper's marking FIFO).  Every data packet pays the full
  per-arrival path at both hosts: the receiver's ``Host.receive`` →
  ``ReceiverAgent.on_packet`` → ACK → ``Host.send``, and the sender's
  ``Host.receive`` → ``SenderAgent.on_packet`` → RTT/RTO → window hook →
  ``send_window`` → ``Host.send``.  No control plane and no cross
  traffic, so this isolates the transport chassis in
  :mod:`repro.transports.base` that every protocol runs on.
* ``pase_incast`` — engine events per second of a full-stack PASE
  all-to-all incast on one rack (20 hosts, fan-in 8, load 0.8), the
  shape of Fig. 10c.  Every PASE mechanism runs per packet: Algorithm
  2's rate control on each ACK, Algorithm 1's arbitrator on each
  request, and the switch priority queues on each hop.  The run's event
  count is fixed by its spec, so the rate compares commits directly.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.packet import DEFAULT_MTU
from repro.sim.topology import StarTopology
from repro.transports import DctcpSender, Flow, ReceiverAgent
from repro.utils.units import GBPS, USEC

from benchmarks.perf import best_of


def transport_packets_per_sec(num_packets: int = 20_000) -> float:
    """Stream ``num_packets`` MTU packets over a 10 Gbps, 40 µs-RTT star
    and return delivered data packets per wall-clock second."""
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2, link_bps=10 * GBPS, rtt=40 * USEC)
    src, dst = topo.hosts
    flow = Flow(flow_id=1, src=src.node_id, dst=dst.node_id,
                size_bytes=num_packets * DEFAULT_MTU, start_time=0.0)
    ReceiverAgent(sim, dst, flow)
    DctcpSender(sim, src, flow).start()

    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert flow.completed
    return flow.total_pkts / elapsed


def pase_incast_events_per_sec(num_flows: int = 200) -> float:
    """Run ``num_flows`` flows of a PASE all-to-all incast and return
    engine events per wall-clock second of its event loop."""
    from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment

    result = run_experiment(ExperimentSpec(
        "pase", ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 8}),
        0.8, num_flows=num_flows, seed=1000))
    assert result.stats.completion_fraction == 1.0
    return result.events / result.wallclock


def run(scale: str = "full", repeats: int = 3) -> Dict[str, float]:
    n = 20_000 if scale == "full" else 5_000
    flows = 200 if scale == "full" else 60
    return {
        "dctcp_pair_packets_per_sec": best_of(
            lambda: transport_packets_per_sec(n), repeats),
        "pase_incast_events_per_sec": best_of(
            lambda: pase_incast_events_per_sec(flows), repeats),
    }
