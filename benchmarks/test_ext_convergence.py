"""Extension — convergence time: how fast does a flow reach line rate?

§2.2's "arbitration helping self-adjusting endpoints": instead of blindly
probing (slow start), a PASE flow bootstraps from the arbitrator's
reference rate.  We start one lone flow per protocol on an idle path and
measure, from 50 µs-windowed link utilization, how long it takes the
bottleneck to exceed 90% — the convergence time the paper credits
arbitration/explicit-rate protocols with minimizing.
"""

from benchmarks.bench_common import emit, run_once
from repro.harness.protocols import make_binding
from repro.harness.scenarios import intra_rack
from repro.metrics import TimeSeriesProbe
from repro.sim import Simulator
from repro.transports import Flow, ReceiverAgent
from repro.utils.units import KB

PROTOCOLS = ("pase", "pfabric", "pdq", "d3", "dctcp", "l2dct", "tcp")


def convergence_time(protocol: str) -> float:
    scn = intra_rack(num_hosts=4, num_background_flows=0)
    binding = make_binding(protocol, scn)
    sim = Simulator()
    topo = scn.build_topology(sim, binding.queue_factory())
    binding.setup_network(sim, topo)
    flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=2_000 * KB,
                start_time=0.0)
    downlink = topo.host_downlink(topo.hosts[1])
    probe = TimeSeriesProbe(sim, period=50e-6)
    busy = probe.watch_busy(downlink)
    probe.start()
    ReceiverAgent(sim, topo.hosts[1], flow)
    binding.make_sender(sim, topo.hosts[0], flow).start()
    sim.run(until=0.05)
    # First time a 10-sample (500 us) sliding window is >= 90% busy.
    window = 10
    vals = busy.values
    for i in range(len(vals) - window):
        if sum(vals[i:i + window]) >= 0.9 * window:
            return busy.times[i + window]
    return float("inf")


def run_figure():
    times = {p: convergence_time(p) for p in PROTOCOLS}
    lines = ["Extension: time for a lone 2 MB flow to reach 90% line rate",
             "-" * 60,
             f"{'protocol':<12}{'convergence (us)':<20}"]
    for p, t in sorted(times.items(), key=lambda kv: kv[1]):
        label = f"{t * 1e6:.0f}" if t != float("inf") else "never"
        lines.append(f"{p:<12}{label:<20}")
    emit("ext_convergence", "\n".join(lines))
    return times


def test_ext_convergence(benchmark):
    times = run_once(benchmark, run_figure)
    # Everyone eventually converges on an idle path.
    assert all(t != float("inf") for t in times.values())
    # Reference-rate/explicit-rate protocols converge well before classic
    # slow-start TCP...
    assert times["pase"] < times["tcp"]
    assert times["pfabric"] < times["tcp"]
    # ...and PASE is in the fast group (within ~3 RTTs of pFabric's
    # line-rate start).
    assert times["pase"] <= times["pfabric"] + 1e-3
