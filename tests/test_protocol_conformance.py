"""Protocol conformance matrix: every transport must satisfy the same
basic contract across edge-case flow sizes and conditions.

These are deliberately uniform: a new protocol added to the registry gets
this safety net for free.
"""

import pytest

from repro.harness.protocols import PROTOCOL_NAMES, make_binding
from repro.harness.scenarios import intra_rack
from repro.sim import Simulator
from repro.transports import Flow, ReceiverAgent
from repro.utils.units import KB, MB

#: Protocols exercised by the matrix (the ablation variants share code
#: paths with "pase" and are covered elsewhere).
MATRIX = ("tcp", "dctcp", "d2tcp", "l2dct", "pdq", "d3", "pfabric",
          "pase", "pase-dctcp")

EDGE_SIZES = (1, 100, 1500, 1501, 10 * KB, 1 * MB)


def run_one_flow(protocol, size_bytes, deadline=None, until=30.0):
    scn = intra_rack(num_hosts=4, num_background_flows=0)
    binding = make_binding(protocol, scn)
    sim = Simulator()
    topo = scn.build_topology(sim, binding.queue_factory())
    binding.setup_network(sim, topo)
    flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=size_bytes,
                start_time=0.0, deadline=deadline)
    ReceiverAgent(sim, topo.hosts[1], flow)
    binding.make_sender(sim, topo.hosts[0], flow).start()
    sim.run(until=until)
    return flow


@pytest.mark.parametrize("protocol", MATRIX)
@pytest.mark.parametrize("size", EDGE_SIZES)
def test_every_protocol_delivers_every_size(protocol, size):
    flow = run_one_flow(protocol, size)
    assert flow.completed, f"{protocol} failed to deliver {size} bytes"
    assert flow.fct > 0


@pytest.mark.parametrize("protocol", MATRIX)
def test_fct_monotone_in_size(protocol):
    small = run_one_flow(protocol, 10 * KB)
    large = run_one_flow(protocol, 1 * MB)
    assert large.fct > small.fct


@pytest.mark.parametrize("protocol", MATRIX)
def test_no_spurious_retransmissions_on_idle_path(protocol):
    flow = run_one_flow(protocol, 100 * KB)
    assert flow.retransmissions == 0
    assert flow.timeouts == 0


@pytest.mark.parametrize("protocol", ("pase", "pdq", "d3", "d2tcp"))
def test_deadline_flows_work_everywhere(protocol):
    flow = run_one_flow(protocol, 100 * KB, deadline=0.05)
    assert flow.completed
    assert flow.met_deadline
