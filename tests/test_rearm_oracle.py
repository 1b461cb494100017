"""Differential oracle: timers re-armed in place against cancel + post.

The eager reference below is the timer code before
:meth:`~repro.sim.engine.Simulator.repost`: every re-arm cancels the
pending heap entry and posts a fresh one, leaving the dead entry in the
heap until its time comes.  Each run below is made once with each.  The
two must agree bit for bit: the per-flow FCT fingerprint and the number
of fired events.  Re-arming in place must also keep the heap smaller.
"""

import pytest

from repro.harness import PROTOCOL_NAMES, ExperimentSpec, ScenarioSpec, run_experiment
from repro.transports.base import SenderAgent
from repro.transports.pdq import PROBE_RANK_CAP, PdqSender
from repro.utils.units import MSEC
from tests.test_regression_golden import PIN_POINTS, _fingerprint


def eager_rearm_rto(self):
    self._cancel_rto()
    if self._inflight or self._retx_queue or self.next_new < self.total_pkts:
        self._rto_event = self.sim.post(self.rto_value(), self._on_rto)


def eager_schedule_probe(self):
    if self._probe_event is not None:
        self.sim.cancel(self._probe_event)
    multiplier = 1
    if self.paused and PROBE_RANK_CAP > 1:
        multiplier = max(1, min(self.rank, PROBE_RANK_CAP))
    self._probe_event = self.sim.post(
        self.config.initial_rtt * multiplier, self._maybe_probe)


def _run(monkeypatch, eager, protocol, scenario, load, num_flows, seed):
    """One run; returns the result and the peak heap size seen at any
    RTO re-arm."""
    rearm = eager_rearm_rto if eager else SenderAgent._rearm_rto
    peak = [0]

    def sampled_rearm(self):
        rearm(self)
        peak[0] = max(peak[0], self.sim.pending_events)

    with monkeypatch.context() as patch:
        patch.setattr(SenderAgent, "_rearm_rto", sampled_rearm)
        if eager:
            patch.setattr(PdqSender, "_schedule_probe", eager_schedule_probe)
        result = run_experiment(ExperimentSpec(
            protocol, scenario, load, num_flows=num_flows, seed=seed))
    return result, peak[0]


def _assert_same(monkeypatch, protocol, scenario, load, num_flows, seed):
    eager, eager_peak = _run(monkeypatch, True, protocol, scenario, load,
                             num_flows, seed)
    in_place, peak = _run(monkeypatch, False, protocol, scenario, load,
                          num_flows, seed)
    assert _fingerprint(in_place) == _fingerprint(eager)
    assert in_place.events == eager.events
    assert peak < eager_peak


@pytest.mark.parametrize("point", sorted(PIN_POINTS))
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_pinned_points_match_eager_rearm(monkeypatch, protocol, point):
    scenario, load, num_flows = PIN_POINTS[point]
    _assert_same(monkeypatch, protocol, scenario, load, num_flows, seed=3)


@pytest.mark.parametrize("protocol", ["pase", "pase-dctcp"])
def test_arbitrator_crash_matches_eager_rearm(monkeypatch, protocol):
    scenario = ScenarioSpec("intra-rack-arb-crash", {
        "num_hosts": 8, "crash_at": 3 * MSEC, "crash_duration": 20 * MSEC})

    _assert_same(monkeypatch, protocol, scenario, 0.4, 20, seed=1)
