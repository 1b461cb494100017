"""Python calls per engine event on five pinned points.

A packet arriving at a host runs on the shared transport chassis
(``repro.transports.base``) under every protocol, so the Python frames it
passes through set the cost of most events.  PDQ and D3 add the link's
explicit-rate allocator, which sees every DATA and PROBE packet on every
hop and no ACK.  PASE adds its arbitrators, its end-host rate control
and the switch priority queues.  Wall time on a shared machine is too
noisy to gate these paths; the number of Python calls the event loop
makes per event, counted with ``sys.setprofile``, is exact and
repeatable.  Each ceiling sits about
1% above what the current code makes, so a change that adds a frame to
the per-packet path fails here.

Measured counts (Python 3.11): DCTCP intra-rack 6.04 calls per event,
PASE intra-rack 6.50, PASE left-right 4.67, PDQ intra-rack 7.44, D3
intra-rack 8.25.
"""

import sys

import pytest

from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.sim.engine import Simulator


def _intra_rack(protocol):
    return ExperimentSpec(protocol,
                          ScenarioSpec("intra-rack", {"num_hosts": 20}),
                          0.5, num_flows=30, seed=1000)


POINTS = {
    "dctcp-intra-rack": (_intra_rack("dctcp"), 6.10),
    "pdq-intra-rack": (_intra_rack("pdq"), 7.51),
    "d3-intra-rack": (_intra_rack("d3"), 8.33),
    "pase-intra-rack": (_intra_rack("pase"), 6.56),
    "pase-left-right": (
        ExperimentSpec("pase", ScenarioSpec("left-right",
                                            {"hosts_per_rack": 10}),
                       0.5, num_flows=30, seed=1000),
        4.72),
}


def calls_per_event(monkeypatch, spec):
    """Run ``spec``; return Python calls per event inside the event loop
    and the number of events."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    run = Simulator.run

    def counted_run(self, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(Simulator, "run", counted_run)
    result = run_experiment(spec)
    return calls / result.events, result.events


@pytest.mark.parametrize("point", sorted(POINTS))
def test_calls_per_event_within_budget(monkeypatch, point):
    spec, ceiling = POINTS[point]
    per_event, events = calls_per_event(monkeypatch, spec)
    assert events > 10_000
    assert per_event <= ceiling, (
        f"{point}: {per_event:.3f} Python calls per event over {events} "
        f"events, ceiling {ceiling}")
