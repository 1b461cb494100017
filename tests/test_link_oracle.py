"""Differential oracle: the fused link against an eager reference link.

:class:`EagerLink` is the link model before hop fusion: every frame posts a
wake-up at the end of its serialization, and that wake-up hands the frame
to the wire and starts the next one.  Each run below is made once with each
model.  The two must agree bit for bit: the per-flow FCT fingerprint and
every per-link counter.  The fused model must also need fewer events.
"""

import pytest

import repro.sim.network as network_module
from repro.harness import ExperimentSpec, run_experiment
from repro.harness.scenarios import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.utils.units import MSEC, transmission_delay
from tests.test_regression_golden import _fingerprint


class EagerLink(Link):
    """Reference model: one wake-up event per frame."""

    # Plain attributes shadow the fused link's read-only properties.
    busy = False
    pkts_sent = 0
    bytes_sent = 0

    def send(self, pkt):
        if self.allocator is not None and pkt.kind != 1:
            self.allocator.process(pkt, self)
        if pkt.kind == 0:
            self.data_pkts_offered += 1
        if not self.up:
            self._drop_down(pkt)
            return False
        if self.loss and pkt.kind == 0:
            for model in reversed(self.loss):
                if model.drop():
                    self.loss_drops += 1
                    return self.queue._record_drop(pkt, "injected-loss")
        if self.queue.enqueue(pkt):
            if not self.busy:
                self._transmit_next()
            return True
        return False

    def _transmit_next(self):
        if not self.up:
            self.busy = False
            return
        pkt = self.queue.dequeue()
        if pkt is None:
            self.busy = False
            return
        self.busy = True
        self._in_flight = pkt
        tx_delay = transmission_delay(pkt.size, self.capacity_bps)
        self.busy_time += tx_delay
        self.sim.post(tx_delay, self._transmission_done)

    def _transmission_done(self):
        pkt = self._in_flight
        self._in_flight = None
        if not self.up:
            self.busy = False
            self._drop_down(pkt)
            return
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        self.sim.post(self.prop_delay, self.dst.receive, pkt, self)
        self._transmit_next()

    def set_down(self, flush=True):
        if not self.up:
            return
        self.up = False
        self.down_transitions += 1
        if flush:
            while True:
                pkt = self.queue.dequeue()
                if pkt is None:
                    break
                self._drop_down(pkt)

    def set_up(self):
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._transmit_next()


def _run(monkeypatch, link_cls, protocol, scenario, load, num_flows, seed):
    links = []

    def make_link(*args):
        link = link_cls(*args)
        links.append(link)
        return link

    with monkeypatch.context() as patch:
        patch.setattr(network_module, "Link", make_link)
        result = run_experiment(ExperimentSpec(
            protocol, ScenarioSpec(*scenario), load,
            num_flows=num_flows, seed=seed))
    counters = [(link.name, link.pkts_sent, link.bytes_sent, link.busy_time,
                 link.queue.drops, link.queue.marks,
                 link.queue.enqueued_total, link.down_drops, link.loss_drops)
                for link in links]
    return result, counters


def _assert_same(monkeypatch, protocol, scenario, load, num_flows, seed):
    eager, eager_links = _run(monkeypatch, EagerLink, protocol, scenario,
                              load, num_flows, seed)
    fused, fused_links = _run(monkeypatch, Link, protocol, scenario,
                              load, num_flows, seed)
    assert _fingerprint(fused) == _fingerprint(eager)
    assert fused_links == eager_links
    assert fused.events < eager.events
    return fused_links


CLEAN_SCENARIOS = {
    "intra-rack": ("intra-rack", {"num_hosts": 6}),
    "left-right": ("left-right", {"hosts_per_rack": 3}),
    "all-to-all": ("all-to-all", {"num_hosts": 8, "fanin": 4}),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", sorted(CLEAN_SCENARIOS))
@pytest.mark.parametrize("protocol",
                         ["pase", "dctcp", "pfabric", "pdq", "d3", "l2dct"])
def test_clean_runs_match_eager_link(monkeypatch, protocol, scenario, seed):
    _assert_same(monkeypatch, protocol, CLEAN_SCENARIOS[scenario], 0.6,
                 20, seed)


FAULT_SCENARIOS = {
    "link-flap": ("intra-rack-link-flap",
                  {"num_hosts": 8, "down_at": 2 * MSEC,
                   "outage": 3 * MSEC}),
    "link-pause": ("intra-rack-link-flap",
                   {"num_hosts": 8, "down_at": 2 * MSEC,
                    "outage": 3 * MSEC, "flush": False}),
    "data-loss": ("intra-rack-data-loss", {"num_hosts": 8, "p": 0.02}),
    "lossy-control": ("left-right-lossy-control",
                      {"hosts_per_rack": 4, "loss_rate": 0.5}),
    "arb-crash": ("intra-rack-arb-crash",
                  {"num_hosts": 8, "crash_at": 3 * MSEC,
                   "crash_duration": 20 * MSEC}),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fault", sorted(FAULT_SCENARIOS))
def test_fault_runs_match_eager_link(monkeypatch, fault, seed):
    links = _assert_same(monkeypatch, "pase", FAULT_SCENARIOS[fault], 0.4,
                         20, seed)
    if fault.startswith("link-"):
        # The outage hit traffic: the oracle covered the link-down path.
        assert sum(down_drops for *_, down_drops, _ in links) > 0
    if fault == "data-loss":
        # So did the loss seam.
        assert sum(loss_drops for *_, loss_drops in links) > 0


#: Left-right's fabric runs at ``hosts_per_rack / 4`` times the host rate,
#: so at four hosts per rack every hop of host -> ToR -> agg -> core ->
#: agg -> ToR -> host is equal-rate: the next packet of a train reaches
#: each switch port just as the port's frame ends.
EQUAL_RATE_CHAIN = ("left-right", {"hosts_per_rack": 4})


@pytest.mark.parametrize("protocol", ["pase", "dctcp", "pfabric"])
def test_equal_rate_switch_chain_hands_off(monkeypatch, protocol):
    """The handoff fires on an equal-rate chain (fewer events than the
    fused link with it switched off) and the run still matches the eager
    link bit for bit."""
    eager, eager_links = _run(monkeypatch, EagerLink, protocol,
                              EQUAL_RATE_CHAIN, 0.6, 20, 1)
    fused, fused_links = _run(monkeypatch, Link, protocol,
                              EQUAL_RATE_CHAIN, 0.6, 20, 1)
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "is_next", lambda self, time, seq: False)
        waking, waking_links = _run(monkeypatch, Link, protocol,
                                    EQUAL_RATE_CHAIN, 0.6, 20, 1)
    assert _fingerprint(fused) == _fingerprint(waking) == _fingerprint(eager)
    assert fused_links == waking_links == eager_links
    assert fused.events < waking.events < eager.events
