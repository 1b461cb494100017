"""Self-test of the census: span arithmetic, owner-to-layer map, and that
tracing leaves simulated results unchanged.

Run from the repository root::

    python3 -m pytest sweepbench/tests -q
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "sweepbench")]

from census import Census, layer_of_module, owner_layer  # noqa: E402
from repro.core import PaseControlPlane, PaseReceiver, PaseSender  # noqa: E402
from repro.core.arbitration import LinkArbitrator, VirtualLinkArbitrator  # noqa: E402
from repro.faults import FaultInjector  # noqa: E402
from repro.harness import ExperimentSpec, run_experiment  # noqa: E402
from repro.harness import experiment as harness_experiment  # noqa: E402
from repro.harness.scenarios import intra_rack_arb_crash, left_right  # noqa: E402
from repro.sim.link import Link  # noqa: E402
from repro.sim.node import Host, Switch  # noqa: E402
from repro.transports import DctcpSender, ReceiverAgent  # noqa: E402
from repro.transports.base import SenderAgent  # noqa: E402

from run import fct_digest  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


class ProbeSender(PaseSender):
    """A subclass overriding ``on_packet`` and delegating to ``super()``."""

    def on_packet(self, ack):
        return super().on_packet(ack)


class ProbeReceiver(PaseReceiver):
    def on_packet(self, pkt):
        return super().on_packet(pkt)


def bare(cls):
    """An instance without running ``__init__`` (only its type matters)."""
    return object.__new__(cls)


# -- self-time arithmetic ------------------------------------------------

def test_nested_self_time_subtracts_children():
    # outer [0, 10] contains a [1, 4] and b [5, 9]; b contains c [6, 7].
    census = Census(clock=FakeClock(0, 1, 4, 5, 6, 7, 9, 10))
    census.enter("outer")
    census.enter("a")
    census.exit()
    census.enter("b")
    census.enter("c")
    census.exit()
    census.exit()
    census.exit()
    assert census.total_s == {"outer": 10, "a": 3, "b": 4, "c": 1}
    assert census.self_s == {"outer": 3, "a": 3, "b": 3, "c": 1}
    assert dict(census.calls) == {"outer": 1, "a": 1, "b": 1, "c": 1}


def test_reentrant_key_is_one_span():
    census = Census(clock=FakeClock(0, 2, 3, 8))

    def inner():
        return census.call("k", lambda: "done")

    def outer():
        census.enter("child")
        census.exit()
        return inner()

    assert census.call("k", outer) == "done"
    assert census.calls["k"] == 1
    assert census.total_s["k"] == 8
    assert census.self_s["k"] == 8 - 1


def test_layer_self_time_sums_keys_of_one_layer():
    census = Census(clock=FakeClock(0, 1, 2, 5))
    census.enter("link.send")
    census.exit()
    census.enter("link.wakeup")
    census.exit()
    assert census.layer_self_s("link") == 4
    assert census.layer_self_s("node") == 0


# -- owner-to-layer map --------------------------------------------------

def test_module_prefixes_pick_the_longest_match():
    assert layer_of_module("repro.sim.engine") == "engine"
    assert layer_of_module("repro.sim.queues") == "link"
    assert layer_of_module("repro.core.endhost") == "transport"
    assert layer_of_module("repro.core.arbitration") == "control"
    assert layer_of_module("repro.transports.dctcp") == "transport"
    assert layer_of_module("repro.faults.injector") == "faults"
    assert layer_of_module("repro.runner.api") == "runner"
    assert layer_of_module("repro.simulator") is None
    assert layer_of_module("builtins") is None


def test_bound_methods_map_to_their_owners_layer():
    expected = {
        bare(Link).send: "link",
        bare(Host).receive: "node",
        bare(Switch).receive: "node",
        bare(DctcpSender).on_packet: "transport",
        bare(PaseSender).on_packet: "transport",
        bare(PaseReceiver).on_packet: "transport",
        bare(ReceiverAgent).on_packet: "transport",
        bare(PaseControlPlane).request: "control",
        bare(VirtualLinkArbitrator).arbitrate: "control",
        bare(FaultInjector)._arm: "faults",
    }
    for fn, layer in expected.items():
        assert owner_layer(fn) == layer, fn


def test_subclasses_outside_repro_inherit_the_layer():
    assert owner_layer(bare(ProbeSender).on_packet) == "transport"
    assert owner_layer(bare(ProbeReceiver).on_packet) == "transport"


def test_functions_partials_and_foreign_callables():
    assert owner_layer(harness_experiment.run_experiment) == "harness"
    assert owner_layer(functools.partial(bare(Link).send)) == "link"
    assert owner_layer([].append) is None
    assert owner_layer(lambda: None) is None


# -- installation ----------------------------------------------------------

def test_install_wraps_overrides_and_restores_originals():
    originals = {cls: cls.__dict__["on_packet"]
                 for cls in (SenderAgent, ReceiverAgent, ProbeSender,
                             ProbeReceiver)}
    arbitrate = LinkArbitrator.__dict__["arbitrate"]
    census = Census()
    with census.installed():
        for cls, original in originals.items():
            assert cls.__dict__["on_packet"] is not original
            assert cls.__dict__["on_packet"].__wrapped__ is original
        sender = bare(ProbeSender)
        sender.finished = True  # on_packet returns at once
        sender.on_packet(None)
    assert census.calls["transport.ack_rx"] == 1
    for cls, original in originals.items():
        assert cls.__dict__["on_packet"] is original
    assert LinkArbitrator.__dict__["arbitrate"] is arbitrate


# -- tracing changes nothing simulated -------------------------------------

def traced_and_untraced(spec: ExperimentSpec):
    plain = run_experiment(spec)
    census = Census()
    with census.installed():
        traced = run_experiment(spec)
    return plain, traced, census


def assert_fully_attributed(census: Census, events: int) -> None:
    assert census.attributed_events() == events
    assert census.calls["unattributed.event"] == 0
    assert census.counts["points"] == 1


def test_traced_run_matches_untraced_with_faults():
    spec = ExperimentSpec("pase", intra_rack_arb_crash(num_hosts=5), 0.6,
                          num_flows=20, seed=3)
    plain, traced, census = traced_and_untraced(spec)
    assert fct_digest(traced.flows) == fct_digest(plain.flows)
    assert traced.events == plain.events
    assert_fully_attributed(census, traced.events)
    assert census.calls["faults.event"] >= 1
    assert census.calls["control.request"] > 0
    # Each wake-up ends one serialization: sent, or corrupted by an outage.
    sent = census.link_totals["pkts_sent"]
    assert sent <= census.calls["link.wakeup"] \
        <= sent + census.link_totals["down_drops"]


def test_traced_run_matches_untraced_inter_rack():
    spec = ExperimentSpec("pase", left_right(hosts_per_rack=2), 0.5,
                          num_flows=15, seed=2)
    plain, traced, census = traced_and_untraced(spec)
    assert fct_digest(traced.flows) == fct_digest(plain.flows)
    assert_fully_attributed(census, traced.events)
    assert census.calls["node.switch_rx"] > census.calls["node.host_rx"]
    assert census.calls["control.event"] > 0
