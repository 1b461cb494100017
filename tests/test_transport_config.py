"""The transport configuration surface and the shared probe path.

A sender takes four settable values; every other Table 3 parameter is a
constant beside the code that reads it.  Probes from PASE, pFabric and PDQ
all leave through ``SenderAgent._send_probe`` and so carry the same
headers as that sender's data.
"""

import dataclasses

import pytest

from repro.core import PaseConfig, PaseControlPlane, PaseSender, pase_queue_factory
from repro.sim import Simulator, StarTopology
from repro.sim.packet import PacketKind
from repro.transports import (
    Flow,
    PdqSender,
    PfabricConfig,
    PfabricSender,
    TransportConfig,
    pfabric_queue_factory,
)
from repro.utils.units import KB, MSEC, USEC


def test_transport_config_has_four_fields():
    names = [f.name for f in dataclasses.fields(TransportConfig)]
    assert names == ["init_cwnd", "min_rto", "max_rto", "initial_rtt"]


def test_pfabric_config_only_changes_defaults():
    assert ([f.name for f in dataclasses.fields(PfabricConfig)]
            == [f.name for f in dataclasses.fields(TransportConfig)])
    cfg = PfabricConfig()
    assert (cfg.init_cwnd, cfg.min_rto, cfg.max_rto) == (38.0, 1 * MSEC, 0.1)


def test_pase_config_has_no_dctcp_gain():
    assert "g" not in {f.name for f in dataclasses.fields(PaseConfig)}


def _flow(topo, deadline=None):
    return Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=30 * KB,
                start_time=0.0, deadline=deadline)


def _capture(sender):
    """Swallow everything the sender's host transmits; return the list."""
    sent = []
    sender.host.send = sent.append
    return sent


def _only_probe(sent):
    probes = [p for p in sent if p.kind == PacketKind.PROBE]
    assert len(probes) == 1
    return probes[0]


def test_pase_probe_rides_the_flows_queue():
    cfg = PaseConfig()
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2, queue_factory=pase_queue_factory(cfg))
    sender = PaseSender(sim, topo.hosts[0], _flow(topo),
                        PaseControlPlane(sim, topo, cfg))
    sender.queue_index = 3
    sent = _capture(sender)
    sender.handle_timeout()  # non-top queue: probe instead of data
    probe = _only_probe(sent)
    assert (probe.queue_index, probe.priority) == (3, 3.0)
    assert sender._probe_seq == probe.seq == 0
    assert sender.flow.probes_sent == 1


def test_pfabric_probe_carries_remaining_size_priority():
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2, queue_factory=pfabric_queue_factory())
    sender = PfabricSender(sim, topo.hosts[0], _flow(topo),
                           PfabricConfig(initial_rtt=100 * USEC))
    sender.probe_mode = True
    sent = _capture(sender)
    sender.handle_timeout()
    probe = _only_probe(sent)
    assert probe.priority == pytest.approx(30 * KB)
    assert not probe.ecn_capable
    assert sender.flow.probes_sent == 1


def test_pdq_probe_carries_scheduling_headers():
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2)
    flow = _flow(topo, deadline=5 * MSEC)
    sender = PdqSender(sim, topo.hosts[0], flow,
                       TransportConfig(initial_rtt=100 * USEC))
    sent = _capture(sender)
    sender.start()  # a PDQ flow opens with a probe
    probe = _only_probe(sent)
    assert probe.remaining_bytes == 30 * KB
    assert probe.deadline == flow.absolute_deadline == pytest.approx(5 * MSEC)
    assert flow.probes_sent == 1
