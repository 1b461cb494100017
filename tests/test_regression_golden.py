"""Golden-value regression tests.

Seeded runs whose headline metrics are pinned to (generous) bands.  Unit
tests catch broken invariants; these catch *silent drift* — a change that
keeps everything green but quietly makes PASE 2x slower, or DCTCP
mysteriously lossless where it should mark, would trip one of these.
Bands are deliberately wide (±40-60%) so legitimate tuning doesn't thrash
them; order-of-magnitude regressions do.
"""

import pytest

from repro.harness import (
    PROTOCOL_NAMES,
    ExperimentSpec,
    ScenarioSpec,
    run_experiment,
)
from repro.harness.scenarios import intra_rack

SEED = 42
LEFT_RIGHT = ScenarioSpec("left-right")
INTRA8 = ScenarioSpec("intra-rack", {"num_hosts": 8})


class TestSingleFlowFloors:
    """A lone 100 KB flow on an idle 1 Gbps path: every protocol should be
    within a small factor of the 0.8 ms serialization floor."""

    @pytest.mark.parametrize("protocol,limit_ms", [
        ("pase", 1.4),
        ("pfabric", 1.3),
        ("pdq", 1.8),      # pays one probe RTT at startup
        ("dctcp", 2.2),    # slow start
        ("l2dct", 2.2),
    ])
    def test_lone_flow_fct(self, protocol, limit_ms):
        from repro.sim import Simulator, StarTopology
        from repro.harness.protocols import make_binding
        from repro.transports import Flow, ReceiverAgent
        from repro.utils.units import GBPS, KB, USEC

        scn = intra_rack(num_hosts=4, num_background_flows=0)
        binding = make_binding(protocol, scn)
        sim = Simulator()
        topo = scn.build_topology(sim, binding.queue_factory())
        binding.setup_network(sim, topo)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=100 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        binding.make_sender(sim, topo.hosts[0], flow).start()
        sim.run(until=1.0)
        assert flow.completed
        assert 0.8 <= flow.fct * 1e3 <= limit_ms


class TestScenarioBands:
    def test_pase_left_right_70(self):
        r = run_experiment(ExperimentSpec("pase", LEFT_RIGHT, 0.7, num_flows=150, seed=SEED))
        assert 1.0 < r.afct * 1e3 < 3.5
        assert r.loss_rate < 0.005
        assert r.stats.completion_fraction == 1.0

    def test_dctcp_left_right_70(self):
        r = run_experiment(ExperimentSpec("dctcp", LEFT_RIGHT, 0.7, num_flows=150, seed=SEED))
        assert 1.8 < r.afct * 1e3 < 5.5

    def test_pfabric_incast_loss_band(self):
        r = run_experiment(ExperimentSpec(
            "pfabric", ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 16}),
            0.8, num_flows=200, seed=SEED))
        assert 0.08 < r.loss_rate < 0.35

    def test_pase_control_overhead_band(self):
        r = run_experiment(ExperimentSpec("pase", LEFT_RIGHT, 0.7, num_flows=150, seed=SEED))
        cp = r.control_plane
        # Messages per flow: a handful of consultations per interval over a
        # few-ms lifetime; runaway chatter or dead arbitration both fail.
        per_flow = cp.messages / 150
        assert 3 < per_flow < 300

    def test_deadline_scenario_band(self):
        r = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack-deadlines", {"num_hosts": 20}),
            0.7, num_flows=150, seed=SEED))
        assert 0.7 < r.application_throughput <= 1.0

    def test_event_count_stability(self):
        """Event count is a deterministic fingerprint of the whole run."""
        a = run_experiment(ExperimentSpec("pase", INTRA8, 0.5,
                           num_flows=40, seed=SEED))
        b = run_experiment(ExperimentSpec("pase", INTRA8, 0.5,
                           num_flows=40, seed=SEED))
        assert a.events == b.events
        assert a.afct == b.afct


def _fingerprint(result) -> str:
    """sha256 over every flow's (id, start, completion, size, pkts_sent):
    any change to scheduling order, timing arithmetic, or retransmission
    behavior shifts at least one completion time and flips the digest."""
    import hashlib

    lines = []
    for f in sorted(result.flows, key=lambda f: f.flow_id):
        lines.append(f"{f.flow_id}:{f.start_time!r}:{f.completion_time!r}"
                     f":{f.size_bytes}:{f.pkts_sent}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TestByteIdenticalGoldens:
    """Exact pinned fingerprints, captured before the event-engine fast
    path landed (list heap entries, pooled ``post()``, batched link
    serialization).  These prove the optimizations are *byte-identical*:
    same seeds → same event count → same per-flow FCTs, to the last bit.
    An intentional semantic change to the simulator must re-pin these.

    The event counts were re-pinned (fingerprints untouched) when links
    stopped waking up after frames nobody queues behind: the same packets
    now take fewer engine events.  They were re-pinned a second time,
    lower again and with every fingerprint untouched, when a switch port
    began handing a packet that arrives just as its frame ends straight to
    the wire instead of queueing it behind a wake-up that would fire next.
    """

    def test_pase_intra_rack_golden(self):
        r = run_experiment(ExperimentSpec(
            "pase", INTRA8, 0.5, num_flows=40, seed=42))
        assert r.events == 65651
        assert _fingerprint(r) == ("f78233a1e5f7e1f8297349a24ff0077d"
                                   "3cf92c4a1d45cd3295161e0fa36e4dca")

    def test_dctcp_intra_rack_golden(self):
        r = run_experiment(ExperimentSpec(
            "dctcp", INTRA8, 0.6, num_flows=40, seed=7))
        assert r.events == 76275
        assert _fingerprint(r) == ("2ac54cbb0aa53700e9dfefb00356ee15"
                                   "394c00d7382bd3aef8544622a66db7d0")

    def test_pfabric_left_right_golden(self):
        r = run_experiment(ExperimentSpec(
            "pfabric", ScenarioSpec("left-right", {"hosts_per_rack": 4}), 0.7,
            num_flows=60, seed=3))
        assert r.events == 102255
        assert _fingerprint(r) == ("d9d1441d4de48168288cbd7f07a9e9c5"
                                   "52e30902aa24ccca497d75682fb1d8d1")

    def test_pase_delegation_golden(self):
        """Delegation-heavy: every left-right flow crosses the core, so the
        virtual arbitrators and the periodic share rebalancer are on the
        hot path.  Pinned immediately before the sorted-table fast path
        landed, so it proves the rebalance path
        (``aggregate_demand(top_queues=1)`` → ``set_share``) is
        byte-identical too."""
        r = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("left-right", {"hosts_per_rack": 4}), 0.7,
            num_flows=80, seed=11))
        assert r.events == 114928
        assert r.stats.completion_fraction == 1.0
        assert _fingerprint(r) == ("d87f7b897b4bc74b6dc0855be8fa5e60"
                                   "db195269f045cf8d4d825375a1065341")


#: (protocol, point, events, fingerprint) for every registered protocol,
#: captured before the protocol bindings were consolidated into one
#: registry.  Where a variant's difference never engages on a point (no
#: loss for ``pase-noprobe``, no fabric links on a star for ``pase-local``
#: and ``pase-noopt``, no deadlines for ``d2tcp`` on left-right) its digest
#: equals its parent protocol's, which pins that too.
PROTOCOL_PINS = [
    ("tcp", "intra", 69194,
     "691469d9badffe3f7dc5b8270727f445ee66496591acce8bf73c44258a0ada10"),
    ("dctcp", "intra", 52487,
     "ccbfaa83d7b461093faf6cf9fb3334af51996fb68734190c8cac75d5feda69ac"),
    ("d2tcp", "intra", 51129,
     "79fd459e32f48e7ee9398cb7f876853d5aee2789b9976fb9d4362fc68ffcedcb"),
    ("l2dct", "intra", 49583,
     "80ec24b830412e0e71fe3bc78b072d4701956b49e3711fe9611cc3ef5c2ac591"),
    ("pdq", "intra", 36547,
     "0dd21fddbed8481e78e424195eec98b29ebf65d2bb2a16c4a0431a012e93c050"),
    ("d3", "intra", 33673,
     "48f2be8ab2c42804e578baca694997ac846bcb91ed3f162722324e7be1cd8e97"),
    ("pfabric", "intra", 29295,
     "39d5c8640e65589164ff0ca354f36c88f201ea3a8a9d60eedcf6889e57bcddfb"),
    ("pase", "intra", 31122,
     "96375d5ee03fa338a187355417517fb39fbfbd8a05d0f84175c3d6b5afa2ce67"),
    ("pase-dctcp", "intra", 34456,
     "44b832029a767d52125d3807609c5e0990bb18767958d20a1474535fcc1f44bb"),
    ("pase-local", "intra", 31122,
     "96375d5ee03fa338a187355417517fb39fbfbd8a05d0f84175c3d6b5afa2ce67"),
    ("pase-noopt", "intra", 31122,
     "96375d5ee03fa338a187355417517fb39fbfbd8a05d0f84175c3d6b5afa2ce67"),
    ("pase-noprobe", "intra", 31122,
     "96375d5ee03fa338a187355417517fb39fbfbd8a05d0f84175c3d6b5afa2ce67"),
    ("tcp", "leftright", 59888,
     "5e8c5c6da49ad94df9a9bc463d4b05a5accdca3e1b071aff0a1b92b673c9aab6"),
    ("dctcp", "leftright", 56207,
     "89ad69f31cd4a4aad69f4e7d552e9cfd8d801642ecf5adc4f1ccca794941f678"),
    ("d2tcp", "leftright", 56207,
     "89ad69f31cd4a4aad69f4e7d552e9cfd8d801642ecf5adc4f1ccca794941f678"),
    ("l2dct", "leftright", 53490,
     "3a7f27155ab6de9b3eeade91d9f023220d4a391a964adb6c5b6cfe86c8cb8688"),
    ("pdq", "leftright", 43432,
     "cd8ab7d9db2f3cdfab7bc2a9007bf2f0953b7a04a49965be0493a8ecbb5dd852"),
    ("d3", "leftright", 47623,
     "f02c4aaa80752d4220a56726890695a65ef808a754c6a50e129b6c0f9aed91ee"),
    ("pfabric", "leftright", 38368,
     "ce3ac027cb330b274520d794e32c1bc25f2054927aeea6af29df86c5e1b0d39c"),
    ("pase", "leftright", 43332,
     "bcb22e7de54daba154c70547c573c2199ecf69276b1c1d90c15a1065ea9bc18a"),
    ("pase-dctcp", "leftright", 43777,
     "f3a6476112be25f5a8db76801265f9bc0abffacd7897d9b3b7b8b0441b6a4afe"),
    ("pase-local", "leftright", 41674,
     "6da8d172791294edae79e507fbe2a27ecc53ad2b64c046b20007c3f09b3c3c5d"),
    ("pase-noopt", "leftright", 44577,
     "b0fc2de6bd4d3cf66e7a90219ac18e088b16961e4686abd06955489d0b61c4d6"),
    ("pase-noprobe", "leftright", 43332,
     "bcb22e7de54daba154c70547c573c2199ecf69276b1c1d90c15a1065ea9bc18a"),
]

#: The two small points every protocol is pinned on.
PIN_POINTS = {
    "intra": (ScenarioSpec("intra-rack-deadlines", {"num_hosts": 5}), 0.8, 20),
    "leftright": (ScenarioSpec("left-right", {"hosts_per_rack": 2}), 0.9, 30),
}


def test_protocol_pins_cover_every_registered_name():
    for point in PIN_POINTS:
        assert sorted(p for p, where, _, _ in PROTOCOL_PINS
                      if where == point) == sorted(PROTOCOL_NAMES)


@pytest.mark.parametrize("protocol,point,events,fingerprint", PROTOCOL_PINS,
                         ids=[f"{p}-{where}" for p, where, _, _ in PROTOCOL_PINS])
def test_protocol_pinned(protocol, point, events, fingerprint):
    scenario, load, num_flows = PIN_POINTS[point]
    r = run_experiment(ExperimentSpec(protocol, scenario, load,
                                      num_flows=num_flows, seed=3))
    assert r.events == events
    assert _fingerprint(r) == fingerprint


#: Small fault points, one row per (protocol, registered fault scenario):
#: (protocol, scenario, kwargs, load, flows, events, injected-loss drops,
#: link-down drops, data drops, fingerprint), all at seed 3.  The drop
#: counters pin what each fault cost the data plane, so a change to how
#: faults are injected must leave them, and every fingerprint, as they are.
#: The data-loss event counts were re-pinned lower (all else untouched)
#: when loss became a link seam: lossy switch ports gained the handoff.
FAULT_PINS = [
    ("pase", "intra-rack-data-loss", {"num_hosts": 8, "p": 0.02}, 0.6, 25,
     112996, 574, 0, 574,
     "ac8da545a159cc7f3854011faf3dfee99596c7f9564a514eec97fa80cd21fceb"),
    ("dctcp", "intra-rack-data-loss", {"num_hosts": 8, "p": 0.02}, 0.6, 25,
     38605, 267, 0, 267,
     "43530c3984f77be4454876c4a936e00f393d3eb783aa763726dcbd5ac5fbf942"),
    ("pfabric", "intra-rack-data-loss", {"num_hosts": 8, "p": 0.02}, 0.6, 25,
     42847, 290, 0, 532,
     "7822b0adcb50735eda6d2cffb84a18206896ca5fdf823f5bd5e48c55e3fed8a5"),
    ("pase", "intra-rack-data-loss",
     {"num_hosts": 8, "p": 0.05, "loss_at": 0.002, "loss_duration": 0.004},
     0.6, 25, 37597, 121, 0, 121,
     "e7c02c79ea9ceb98c49394f8e3c89d93ad3ed9c29a79c259603f78ddd981c5e2"),
    ("pase", "intra-rack-link-flap",
     {"num_hosts": 8, "down_at": 0.002, "outage": 0.003}, 0.6, 25,
     47015, 0, 52, 25,
     "97310793578ea336d1ab7278bc742b1912e5de3f07cb1e670347f7700887410c"),
    ("dctcp", "intra-rack-link-flap",
     {"num_hosts": 8, "down_at": 0.002, "outage": 0.003}, 0.6, 25,
     65874, 0, 6, 2,
     "274dbbb30499e125c390d9e8e307b88eac047fd8e702a9df31dd7fd11bb2db87"),
    ("pase", "left-right-lossy-control",
     {"hosts_per_rack": 4, "loss_rate": 0.3}, 0.5, 25,
     52321, 0, 0, 0,
     "583b172a657b02080b573181e7c136328c434fa03abc0ce93fc855a22a2c7f22"),
    ("pase", "intra-rack-arb-crash",
     {"num_hosts": 8, "crash_at": 0.003, "crash_duration": 0.02}, 0.6, 25,
     42743, 0, 0, 0,
     "efaedbdaf8bb0230c534893c433dbfe43771fd787e3017810f71b68d2dfdf903"),
]


@pytest.mark.parametrize(
    "protocol,scenario,kwargs,load,num_flows,events,loss_drops,down_drops,"
    "data_drops,fingerprint", FAULT_PINS,
    ids=[f"{p}-{s}-{i}" for i, (p, s, *_) in enumerate(FAULT_PINS)])
def test_fault_pinned(protocol, scenario, kwargs, load, num_flows, events,
                      loss_drops, down_drops, data_drops, fingerprint):
    r = run_experiment(ExperimentSpec(protocol, ScenarioSpec(scenario, kwargs),
                                      load, num_flows=num_flows, seed=3))
    assert r.stats.completion_fraction == 1.0
    assert r.events == events
    assert r.faults.injected_loss_drops == loss_drops
    assert r.faults.link_down_drops == down_drops
    assert r.network.data_pkts_dropped == data_drops
    assert _fingerprint(r) == fingerprint
