"""Unit tests for the packet model."""

from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.sim.packet import (
    DEFAULT_MTU,
    HEADER_SIZE,
    Packet,
    PacketKind,
    make_ack_packet,
    make_data_packet,
)
from repro.transports.base import SenderAgent


def test_unique_packet_ids():
    a = make_data_packet(0, 1, 7, 0)
    b = make_data_packet(0, 1, 7, 1)
    assert a.packet_id != b.packet_id


def test_data_packet_defaults():
    p = make_data_packet(3, 4, 9, 5)
    assert p.kind == PacketKind.DATA
    assert p.size == DEFAULT_MTU
    assert p.src == 3 and p.dst == 4
    assert p.flow_id == 9 and p.seq == 5
    assert p.ecn_capable and not p.ecn_marked


def test_ack_reverses_direction():
    data = make_data_packet(3, 4, 9, 5)
    ack = make_ack_packet(data, ack_seq=6)
    assert ack.src == 4 and ack.dst == 3
    assert ack.kind == PacketKind.ACK
    assert ack.size == HEADER_SIZE
    assert ack.ack_seq == 6
    assert ack.ack_sacks == 5


def test_ack_echoes_ecn_mark():
    data = make_data_packet(0, 1, 2, 0)
    data.ecn_marked = True
    ack = make_ack_packet(data, 1)
    assert ack.ecn_echo
    assert not ack.ecn_capable  # ACKs are not themselves markable


def test_ack_carries_timing_for_rtt_sampling():
    data = make_data_packet(0, 1, 2, 0)
    data.sent_time = 1.25
    data.is_retransmit = True
    ack = make_ack_packet(data, 1)
    assert ack.sent_time == 1.25
    assert ack.is_retransmit


def test_ack_echoes_pdq_grant():
    data = make_data_packet(0, 1, 2, 0)
    data.pdq_rate = 5e8
    data.pdq_pause = True
    data.pdq_rank = 3
    ack = make_ack_packet(data, 1)
    assert ack.pdq_rate == 5e8
    assert ack.pdq_pause
    assert ack.pdq_rank == 3


def test_ack_inherits_queue_index_when_given():
    data = make_data_packet(0, 1, 2, 0, queue_index=5)
    ack = make_ack_packet(data, 1, queue_index=data.queue_index)
    assert ack.queue_index == 5


def test_header_only_classification():
    data = make_data_packet(0, 1, 2, 0)
    assert not data.is_header_only()
    ack = make_ack_packet(data, 1)
    assert ack.is_header_only()
    probe = Packet(PacketKind.PROBE, 0, 1, 2)
    assert probe.is_header_only()


def _ack_fields(ack):
    return (ack.kind, ack.flow_id, ack.seq, ack.ack_seq, ack.ack_sacks)


def test_delivered_packets_are_never_rewritten(monkeypatch):
    """A packet handed to an agent stays the agent's: the simulator never
    reuses it for a later packet, so an ACK kept past its delivery still
    reads as it did on arrival when the run is over."""
    kept = []
    on_packet = SenderAgent.on_packet

    def keep(self, ack):
        kept.append((ack, _ack_fields(ack)))
        on_packet(self, ack)

    monkeypatch.setattr(SenderAgent, "on_packet", keep)
    result = run_experiment(ExperimentSpec(
        "dctcp", ScenarioSpec("intra-rack", {"num_hosts": 4}), load=0.5,
        num_flows=10, seed=1))
    assert result.stats.completion_fraction == 1.0
    assert kept
    changed = [(before, _ack_fields(ack)) for ack, before in kept
               if _ack_fields(ack) != before]
    assert not changed, (f"{len(changed)} of {len(kept)} kept ACKs "
                         f"rewritten, first: {changed[0]}")
