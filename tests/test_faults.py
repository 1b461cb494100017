"""Scheduled fault injection: the repro.faults subsystem end to end.

Covers the declarative schedule (checked when built), the loss models, link
down/up semantics, the injector's link resolution, and the PASE degradation
story the paper argues in §3.1: arbitrators crash, control messages vanish,
links flap — and flows still complete because arbitration is soft state and
the endpoints stay self-adjusting (DCTCP fallback), with everything
deterministic under a fixed seed.
"""

import dataclasses

import pytest

from repro.core import (
    PaseConfig,
    PaseControlPlane,
    PaseReceiver,
    PaseSender,
    pase_queue_factory,
)
from repro.core import endhost
from repro.faults import (
    ArbitratorCrash,
    BernoulliLoss,
    ControlDegrade,
    DataLoss,
    FaultInjector,
    FaultSchedule,
    GilbertElliottLoss,
    LinkDown,
)
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.scenarios import SCENARIO_BUILDERS, ScenarioSpec, intra_rack
from repro.sim import Simulator, StarTopology
from repro.sim.queues import REDQueue
from repro.sim.trace import Tracer
from repro.transports import DctcpSender, Flow, ReceiverAgent, TransportConfig
from repro.utils.units import KB, MSEC, USEC


def red_factory():
    return REDQueue(225, 65)


# ----------------------------------------------------------------------
# Schedules: plain data, checked when built
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_bad_data_loss_rejected_at_construction(self):
        # Gilbert-Elliott needs both transition probabilities.
        with pytest.raises(TypeError, match="p_exit_bad"):
            DataLoss(at=0.04, model="gilbert-elliott",
                     params=(("loss_bad", 0.5), ("p_enter_bad", 0.01)))
        with pytest.raises(ValueError, match="unknown loss model"):
            DataLoss(at=0.0, model="meteor-strike")
        with pytest.raises(ValueError, match=r"p must be in \[0.0, 1.0\]"):
            DataLoss(at=0.0, params=(("p", 1.5),))
        ge = DataLoss(at=0.0, model="gilbert-elliott",
                      params=(("p_enter_bad", 0.01), ("p_exit_bad", 0.2)))
        assert FaultSchedule(events=(ge,)).events == (ge,)

    def test_data_loss_scenario_takes_no_model(self):
        with pytest.raises(TypeError, match="model"):
            ScenarioSpec("intra-rack-data-loss", {"model": "gilbert-elliott"})

    def test_lists_normalize_to_tuples(self):
        schedule = FaultSchedule(events=(
            LinkDown(at=0.0, links=["a->b", "b->a"]),
            DataLoss(at=0.0, params={"p": 0.02}),
        ))
        assert schedule.events[0].links == ("a->b", "b->a")
        assert schedule.events[1].params == (("p", 0.02),)

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule(events=(LinkDown(at=0.0),))

    def test_overlapping_control_degrade_rejected_at_construction(self):
        """Each window sets the channel and clears it as it ends, so the
        first to end would clear the other: overlapping (or touching,
        where the listing order would decide) windows fail when built."""
        lossy = ControlDegrade(at=0.0, duration=10 * MSEC, loss_rate=0.3)
        slow = ControlDegrade(at=5 * MSEC, duration=20 * MSEC, loss_rate=0.1,
                              extra_delay=100 * USEC)
        for events in ((lossy, slow), (slow, lossy),
                       (ControlDegrade(at=0.0), slow),
                       (lossy, ControlDegrade(at=10 * MSEC))):
            with pytest.raises(ValueError, match="overlap"):
                FaultSchedule(events=events)
        # Disjoint windows, in either order, and other kinds alongside.
        later = ControlDegrade(at=11 * MSEC, loss_rate=0.1)
        FaultSchedule(events=(later, lossy, ArbitratorCrash(at=0.0)))

    def test_touches_control_plane(self):
        assert FaultSchedule(events=(ArbitratorCrash(at=0.0),)
                             ).touches_control_plane()
        assert not FaultSchedule(events=(LinkDown(at=0.0),)
                                 ).touches_control_plane()


# ----------------------------------------------------------------------
# Loss models
# ----------------------------------------------------------------------
class TestLossModels:
    def test_bernoulli_deterministic_and_calibrated(self):
        a = BernoulliLoss(0.1, seed=5)
        b = BernoulliLoss(0.1, seed=5)
        seq = [a.drop() for _ in range(5000)]
        assert seq == [b.drop() for _ in range(5000)]
        rate = sum(seq) / len(seq)
        assert 0.07 < rate < 0.13

    def test_gilbert_elliott_is_bursty(self):
        ge = GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.2,
                                loss_good=0.0, loss_bad=1.0, seed=3)
        seq = [ge.drop() for _ in range(20000)]
        losses = sum(seq)
        assert losses > 0
        # Burstiness: the chance a loss follows a loss must far exceed the
        # marginal loss rate (that's the point of the model).
        pairs = sum(1 for i in range(1, len(seq)) if seq[i - 1] and seq[i])
        p_loss_given_loss = pairs / max(losses, 1)
        assert p_loss_given_loss > 3 * (losses / len(seq))

    def test_gilbert_elliott_deterministic(self):
        kw = dict(p_enter_bad=0.02, p_exit_bad=0.3, loss_good=0.001,
                  loss_bad=0.6, seed=11)
        a, b = GilbertElliottLoss(**kw), GilbertElliottLoss(**kw)
        assert [a.drop() for _ in range(2000)] == [b.drop() for _ in range(2000)]

    def test_probabilities_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"p must be in \[0.0, 1.0\]"):
            BernoulliLoss(1.5)
        with pytest.raises(ValueError, match="loss_bad must be in"):
            GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.1, loss_bad=-0.1)


# ----------------------------------------------------------------------
# Link down/up semantics
# ----------------------------------------------------------------------
class TestLinkOutage:
    def _one_flow(self, sim, topo, size=60 * KB):
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=size,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        DctcpSender(sim, topo.hosts[0], flow,
                    TransportConfig(initial_rtt=100 * USEC)).start()
        return flow

    def test_sender_rides_out_flap_via_rto(self):
        sim = Simulator()
        sim.tracer = Tracer()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        flow = self._one_flow(sim, topo, size=800 * KB)
        link = topo.host_uplink(topo.hosts[0])
        schedule = FaultSchedule(events=(
            LinkDown(at=1 * MSEC, links=(link.name,), duration=5 * MSEC),))
        FaultInjector(sim, topo.network, schedule)
        sim.run(until=30.0)
        assert flow.completed
        assert link.down_drops > 0
        assert link.down_transitions == 1
        assert flow.timeouts > 0  # the outage was survived via RTO
        reasons = [e for e in sim.tracer.of("drop")
                   if e.detail("reason") == "link-down"]
        assert len(reasons) == link.down_drops

    def test_unflushed_outage_holds_packets(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        flow = self._one_flow(sim, topo, size=800 * KB)
        link = topo.host_uplink(topo.hosts[0])
        schedule = FaultSchedule(events=(
            LinkDown(at=1 * MSEC, links=(link.name,), duration=5 * MSEC,
                     flush=False),))
        FaultInjector(sim, topo.network, schedule)
        sim.run(until=30.0)
        assert flow.completed

    @pytest.mark.parametrize("first_ends_first", [True, False])
    def test_overlapping_outages_keep_the_link_down(self, first_ends_first):
        """Two outages overlap on one link, whichever ends first: the link
        stays down until the last closes, and the second opening (on a
        link already down) changes nothing."""
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        link = topo.host_uplink(topo.hosts[0])
        first, second = (4, 7) if first_ends_first else (9, 2)
        inj = FaultInjector(sim, topo.network, FaultSchedule(events=(
            LinkDown(at=1 * MSEC, links=(link.name,), duration=first * MSEC),
            LinkDown(at=3 * MSEC, links=(link.name,),
                     duration=second * MSEC))))
        up = {}
        for ms in (0.5, 2, 4, 6, 11):
            sim.schedule_at(ms * MSEC, lambda ms=ms: up.update({ms: link.up}))
        sim.run(until=20 * MSEC)
        assert up == {0.5: True, 2: False, 4: False, 6: False, 11: True}
        assert link.down_transitions == 1
        assert inj.injected == {"link-down": 2, "link-up": 2}

    def test_permanent_outage_strands_flow_but_sim_keeps_going(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        flow = self._one_flow(sim, topo, size=800 * KB)
        link = topo.host_uplink(topo.hosts[0])
        FaultInjector(sim, topo.network, FaultSchedule(events=(
            LinkDown(at=1 * MSEC, links=(link.name,)),)))
        sim.run(until=5.0)
        assert not flow.completed
        assert link.down_drops > 0


# ----------------------------------------------------------------------
# Injector mechanics
# ----------------------------------------------------------------------
class TestInjector:
    def test_wildcard_selector_resolution(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=4, queue_factory=red_factory)
        schedule = FaultSchedule(events=(
            LinkDown(at=1 * MSEC, links=("h*->sw0",), duration=1 * MSEC),))
        inj = FaultInjector(sim, topo.network, schedule)
        sim.run(until=10 * MSEC)
        assert inj.injected["link-down"] == 4  # every host uplink
        assert inj.injected["link-up"] == 4

    def test_unmatched_selector_raises(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        with pytest.raises(ValueError, match="match no link"):
            FaultInjector(sim, topo.network, FaultSchedule(events=(
                LinkDown(at=0.0, links=("nope->nothing",)),)))

    def test_control_plane_faults_require_control_plane(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        with pytest.raises(ValueError, match="control plane"):
            FaultInjector(sim, topo.network, FaultSchedule(events=(
                ArbitratorCrash(at=0.0),)))

    def test_data_loss_window_wraps_and_unwraps(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=200 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        DctcpSender(sim, topo.hosts[0], flow,
                    TransportConfig(initial_rtt=100 * USEC)).start()
        link = topo.host_uplink(topo.hosts[0])
        inj = FaultInjector(sim, topo.network, FaultSchedule(events=(
            DataLoss(at=0.0, links=(link.name,), duration=3 * MSEC,
                     model="bernoulli", params=(("p", 0.2),)),)))
        sim.run(until=30.0)
        assert flow.completed
        assert inj.injected_loss_drops > 0
        # The model came off at window close; the link is clean again.
        assert link.loss == []
        # Injected drops stayed visible in network-wide accounting.
        assert topo.network.total_drops() >= inj.injected_loss_drops

    @pytest.mark.parametrize("first_ends_first", [True, False])
    def test_overlapping_loss_windows_on_one_link(self, first_ends_first):
        """Two loss windows overlap on one link, whichever ends first:
        each removes its own model, drops in either count once in the
        link's counters, and the flow completes."""
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=400 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        DctcpSender(sim, topo.hosts[0], flow,
                    TransportConfig(initial_rtt=100 * USEC)).start()
        link = topo.host_uplink(topo.hosts[0])
        second = 4 * MSEC if first_ends_first else 1 * MSEC
        inj = FaultInjector(sim, topo.network, FaultSchedule(events=(
            DataLoss(at=0.0, links=(link.name,), duration=3 * MSEC,
                     params=(("p", 0.1),)),
            DataLoss(at=1 * MSEC, links=(link.name,), duration=second,
                     params=(("p", 0.1),)))))
        sim.run(until=30.0)
        assert flow.completed
        assert inj.injected == {"data-loss-on": 2, "data-loss-off": 2}
        assert link.loss == []
        assert link.loss_drops > 0
        # One flow on a clean star: every drop is an injected one.
        assert inj.injected_loss_drops == link.loss_drops
        assert link.queue.drops == topo.network.total_drops() \
            == inj.injected_loss_drops

    def test_gilbert_elliott_window_is_armed_from_a_hand_built_event(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, queue_factory=red_factory)
        link = topo.host_uplink(topo.hosts[0])
        FaultInjector(sim, topo.network, FaultSchedule(events=(
            DataLoss(at=0.0, links=(link.name,), model="gilbert-elliott",
                     params=(("p_enter_bad", 0.01), ("p_exit_bad", 0.2))),)))
        sim.run(until=0.0)
        (model,) = link.loss
        assert isinstance(model, GilbertElliottLoss)


def _sample_crash_state(windows, at_ms=(0.5, 2, 4, 6, 11)):
    """Run ``ArbitratorCrash`` windows, given as ``(links, at_ms,
    duration_ms)``, on a 3-host star's control plane.  Returns the
    plane, the injector, the crashed host-uplink arbitrator's name and,
    per sample time, ``(cp_down, named arbitrator crashed)``."""
    sim = Simulator()
    cfg = PaseConfig()
    topo = StarTopology(sim, num_hosts=3,
                        queue_factory=pase_queue_factory(cfg))
    cp = PaseControlPlane(sim, topo, cfg)
    name = topo.host_uplink(topo.hosts[0]).name
    events = tuple(
        ArbitratorCrash(at=at * MSEC, duration=duration * MSEC,
                        links=None if links is None else (name,))
        for links, at, duration in windows)
    inj = FaultInjector(sim, topo.network, FaultSchedule(events=events),
                        control_plane=cp)
    seen = {}
    for ms in at_ms:
        sim.schedule_at(ms * MSEC, lambda ms=ms: seen.update(
            {ms: (cp.cp_down, name in cp._crashed)}))
    sim.run(until=20 * MSEC)
    return cp, inj, seen


class TestOverlappingArbitratorCrashes:
    """A target (one arbitrator, or the whole plane) stays down until the
    last window on it closes, whichever window ends first."""

    @pytest.mark.parametrize("first_ends_first", [True, False])
    def test_whole_plane_windows_nest(self, first_ends_first):
        first, second = (4, 7) if first_ends_first else (9, 2)
        cp, inj, seen = _sample_crash_state(
            [(None, 1, first), (None, 3, second)])
        assert {ms: down for ms, (down, _) in seen.items()} == {
            0.5: False, 2: True, 4: True, 6: True, 11: False}
        assert cp.arbitrator_crashes == 2
        assert inj.injected == {"arbitrator-crash": 2,
                                "arbitrator-recover": 2}

    @pytest.mark.parametrize("first_ends_first", [True, False])
    def test_named_windows_nest(self, first_ends_first):
        first, second = (4, 7) if first_ends_first else (9, 2)
        _, _, seen = _sample_crash_state(
            [("named", 1, first), ("named", 3, second)])
        assert seen == {0.5: (False, False), 2: (False, True),
                        4: (False, True), 6: (False, True),
                        11: (False, False)}

    def test_whole_plane_recovery_keeps_open_named_crash(self):
        """The plane's window ends first: the named arbitrator stays down
        until its own window closes."""
        _, _, seen = _sample_crash_state(
            [("named", 1, 9), (None, 3, 2)])
        assert seen == {0.5: (False, False), 2: (False, True),
                        4: (True, True), 6: (False, True),
                        11: (False, False)}

    def test_named_recovery_inside_whole_plane_window(self):
        """The named window ends first: the plane stays down until its own
        window closes."""
        _, _, seen = _sample_crash_state(
            [(None, 1, 9), ("named", 3, 2)])
        assert seen == {0.5: (False, False), 2: (True, False),
                        4: (True, True), 6: (True, False),
                        11: (False, False)}


# ----------------------------------------------------------------------
# PASE degradation: the tentpole story
# ----------------------------------------------------------------------
class TestPaseDegradation:
    CRASH_KW = dict(num_hosts=8, crash_at=3 * MSEC, crash_duration=20 * MSEC)

    def test_arbitrator_crash_mid_experiment(self):
        """Whole control plane crashes mid-run and recovers: every flow
        still completes, fallback episodes and recovery latencies are
        recorded, and the FCT penalty is bounded."""
        clean = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 8}),
            0.5, num_flows=30, seed=3))
        crash = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack-arb-crash", self.CRASH_KW),
            0.5, num_flows=30, seed=3))
        assert clean.faults is None
        assert crash.stats.completion_fraction == 1.0
        faults = crash.faults
        assert faults.injected == {"arbitrator-crash": 1,
                                   "arbitrator-recover": 1}
        assert faults.fallback_episodes > 0
        assert faults.flows_in_fallback > 0
        assert faults.fallback_time > 0
        assert faults.recovery_latencies  # some flows saw the recovery
        assert faults.requests_failed > 0
        # Degraded, not broken: DCTCP fallback keeps the penalty bounded.
        assert crash.afct < 10 * clean.afct

    def test_unrecovered_crash_still_completes_via_fallback(self):
        scenario = ScenarioSpec("intra-rack-arb-crash", {
            "num_hosts": 8, "crash_at": 3 * MSEC, "crash_duration": None})
        result = run_experiment(ExperimentSpec("pase", scenario, 0.5, num_flows=25, seed=3))
        assert result.stats.completion_fraction == 1.0
        assert result.faults.fallback_episodes > 0
        # Nobody recovered — the crash was permanent.
        assert result.faults.injected == {"arbitrator-crash": 1}

    def test_single_arbitrator_crash_only_hits_its_flows(self, monkeypatch):
        monkeypatch.setattr(endhost, "ARBITRATION_MAX_RETRIES", 1)  # fall back quickly
        cfg = PaseConfig()
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=4,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        flows = []
        for i, (src, dst) in enumerate([(0, 3), (1, 3)]):
            f = Flow(flow_id=i + 1, src=topo.hosts[src].node_id,
                     dst=topo.hosts[dst].node_id, size_bytes=400 * KB,
                     start_time=0.0)
            PaseReceiver(sim, topo.hosts[dst], f)
            PaseSender(sim, topo.hosts[src], f, cp).start()
            flows.append(f)
        crashed = topo.host_uplink(topo.hosts[0]).name
        FaultInjector(sim, topo.network, FaultSchedule(events=(
            ArbitratorCrash(at=1 * MSEC, links=(crashed,)),)),
            control_plane=cp)
        sim.run(until=10.0)
        assert all(f.completed for f in flows)
        assert flows[0].fallback_episodes > 0  # its arbitrator died
        assert flows[1].fallback_episodes == 0  # untouched

    def test_link_flap_scenario(self):
        result = run_experiment(ExperimentSpec(
            "pase",
            ScenarioSpec("intra-rack-link-flap", {
                "num_hosts": 8, "down_at": 2 * MSEC, "outage": 3 * MSEC}),
            0.4, num_flows=20, seed=2))
        assert result.stats.completion_fraction == 1.0
        assert result.faults.link_down_drops > 0
        assert result.faults.injected == {"link-down": 1, "link-up": 1}

    def test_link_flap_does_not_strand_pase_flows(self):
        """The flap eats ACKs for packets the receiver already holds, and
        the cwnd left open is smaller than the in-flight set.  The reply to
        the low-priority probe carries the receiver's cumulative ack, so
        the sender frees them all at once instead of one per probe (which
        stranded flows 4 and 14 here after 349,784 events)."""
        result = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack-link-flap", {"num_hosts": 10}),
            0.8, num_flows=12, seed=1))
        assert result.faults.injected == {"link-down": 1, "link-up": 1}
        assert result.stats.completion_fraction == 1.0
        assert result.events < 30_000

    def test_control_message_loss_on_tree(self):
        result = run_experiment(ExperimentSpec(
            "pase",
            ScenarioSpec("left-right-lossy-control",
                         {"hosts_per_rack": 8, "loss_rate": 0.5}),
            0.4, num_flows=25, seed=2))
        assert result.stats.completion_fraction == 1.0
        assert result.faults.control_messages_lost > 0
        assert result.control_plane.messages_lost > 0

    def test_fallback_trace_events(self, monkeypatch):
        monkeypatch.setattr(endhost, "ARBITRATION_MAX_RETRIES", 1)  # fall back quickly
        cfg = PaseConfig()
        sim = Simulator()
        sim.tracer = Tracer()
        topo = StarTopology(sim, num_hosts=3,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        # Big enough to outlive the outage, so the sender sees the recovery
        # (and the "exit" trace) before finishing.
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=1500 * KB,
                    start_time=0.0)
        PaseReceiver(sim, topo.hosts[1], flow)
        PaseSender(sim, topo.hosts[0], flow, cp).start()
        FaultInjector(sim, topo.network, FaultSchedule(events=(
            ArbitratorCrash(at=1 * MSEC, duration=4 * MSEC),)),
            control_plane=cp)
        sim.run(until=10.0)
        assert flow.completed
        phases = [e.detail("phase") for e in sim.tracer.of("fallback")]
        assert "enter" in phases and "exit" in phases
        assert sim.tracer.count("fault") == 2  # crash + recover
        # Episode accounting is consistent.
        assert flow.fallback_episodes == phases.count("enter")
        assert len(flow.recovery_latencies) == phases.count("exit")
        assert flow.fallback_time >= sum(flow.recovery_latencies) - 1e-12


# ----------------------------------------------------------------------
# Determinism and the zero-overhead off path
# ----------------------------------------------------------------------
class TestDeterminism:
    def _crash_run(self):
        return run_experiment(ExperimentSpec(
            "pase",
            ScenarioSpec("intra-rack-arb-crash", {
                "num_hosts": 8, "crash_at": 3 * MSEC,
                "crash_duration": 15 * MSEC}),
            0.5, num_flows=25, seed=4))

    def test_same_schedule_and_seed_replays_identically(self):
        a, b = self._crash_run(), self._crash_run()
        assert a.events == b.events
        assert [f.fct for f in a.flows] == [f.fct for f in b.flows]
        assert a.faults.to_json_dict() == b.faults.to_json_dict()

    def test_clean_runs_unaffected_by_fault_machinery(self):
        """No schedule → no injector, no request fails, and repeated
        clean runs are event-for-event identical."""
        scenario = ScenarioSpec("intra-rack", {"num_hosts": 8})
        a = run_experiment(ExperimentSpec("pase", scenario, 0.5, num_flows=25, seed=4))
        b = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 8}),
            0.5, num_flows=25, seed=4))
        assert a.faults is None and b.faults is None
        assert a.events == b.events
        assert [f.fct for f in a.flows] == [f.fct for f in b.flows]
        assert a.control_plane.requests_failed == 0
        assert a.control_plane.messages_lost == 0

    def test_clean_replies_beat_the_next_tick(self, monkeypatch):
        """Senders always run the retry/backoff logic; it is a no-op in a
        clean run only because every reply lands before the next tick.
        ``pase-noopt`` on ``left-right`` is the slowest case: an agg-level
        consult on the source half with no pruning."""
        ticks = []
        arbitrate = PaseSender._arbitrate

        def spy(sender):
            ticks.append((sender._request_pending, sender._arb_failures))
            arbitrate(sender)

        monkeypatch.setattr(PaseSender, "_arbitrate", spy)
        result = run_experiment(ExperimentSpec(
            "pase-noopt", ScenarioSpec("left-right"), 0.8,
            num_flows=150, seed=1))
        assert len(ticks) > 500
        assert not any(pending for pending, _ in ticks)
        assert not any(failures for _, failures in ticks)
        assert not any(f.fallback_episodes for f in result.flows)

    def test_empty_schedule_is_a_no_op(self, monkeypatch):
        monkeypatch.setitem(
            SCENARIO_BUILDERS, "intra-rack-empty-schedule",
            lambda **kwargs: dataclasses.replace(
                intra_rack(**kwargs), fault_schedule=FaultSchedule()))
        clean = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 8}), 0.5,
            num_flows=25, seed=4))
        empty = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack-empty-schedule", {"num_hosts": 8}),
            0.5, num_flows=25, seed=4))
        assert empty.faults is None
        assert clean.events == empty.events
        assert [f.fct for f in clean.flows] == [f.fct for f in empty.flows]


# ----------------------------------------------------------------------
# Satellite: the expiry sweep must not pin the event loop open
# ----------------------------------------------------------------------
class TestExpireSweepDrains:
    def test_sim_run_without_until_terminates(self):
        cfg = PaseConfig()
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=4,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=50 * KB,
                    start_time=0.0)
        PaseReceiver(sim, topo.hosts[1], flow)
        PaseSender(sim, topo.hosts[0], flow, cp).start()
        sim.run()  # must drain on its own — no `until` safety net
        assert flow.completed
        # The sweep parked itself: nothing is left pending, and it left no
        # soft state behind.
        assert sim.pending_events == 0
        assert all(not arb.flows for arb in cp.arbitrators.values())

    def test_sweep_rearms_for_late_flows(self):
        cfg = PaseConfig()
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=4,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        flows = []

        def launch(fid, src, dst, at):
            f = Flow(flow_id=fid, src=topo.hosts[src].node_id,
                     dst=topo.hosts[dst].node_id, size_bytes=50 * KB,
                     start_time=at)
            flows.append(f)

            def go():
                PaseReceiver(sim, topo.hosts[dst], f)
                PaseSender(sim, topo.hosts[src], f, cp).start()
            sim.schedule_at(at, go)

        launch(1, 0, 1, 0.0)
        # Second flow starts long after the first finished and every
        # arbitrator table emptied (the sweep must have parked by then).
        launch(2, 2, 3, 0.5)
        sim.run()
        assert all(f.completed for f in flows)
        # Silent-death expiry still works for flows after the re-arm.
        uplink = topo.host_uplink(topo.hosts[0])
        assert cp.arbitrators[uplink.name].active_flows == 0
