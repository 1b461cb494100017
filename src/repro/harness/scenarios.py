"""Canonical evaluation scenarios from the paper (§4.1, §4.4).

Each :class:`Scenario` knows how to build its topology (given a queue
factory, which the protocol binding supplies) and its traffic pattern, and
carries the flow-size/deadline distributions and background-flow count.

Scale note: the paper simulates 160 hosts in ns2.  A pure-Python packet
simulator is orders of magnitude slower, so the default constructors here
shrink host counts while preserving the *ratios* that drive the results —
the 4:1 ToR oversubscription and 8:1 left-right core contention, the same
flow-size distributions, the same load points.  Every constructor takes the
size parameters explicitly so full-scale runs remain one call away.

Every constructor argument is plain data (a size distribution goes by its
:data:`SIZE_DISTRIBUTIONS` name), so a run names its scenario as a
:class:`ScenarioSpec`, ``(name, kwargs)``, and has a content hash.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.faults.schedule import (
    ArbitratorCrash,
    ControlDegrade,
    DataLoss,
    FaultSchedule,
    LinkDown,
)
from repro.sim.engine import Simulator
from repro.sim.network import QueueFactory
from repro.sim.topology import (
    StarTopology,
    Topology,
    TreeTopology,
    TreeTopologyConfig,
)
from repro.utils.units import GBPS, MSEC, USEC
from repro.workloads.distributions import (
    DEADLINE_SIZES,
    QUERY_SIZES,
    DeadlineDistribution,
    SizeDistribution,
)
from repro.workloads.production import web_search_sizes
from repro.workloads.patterns import (
    IncastAllToAll,
    IntraRackRandom,
    LeftRight,
    ManyToOne,
    TrafficPattern,
)


@dataclass
class Scenario:
    """One named evaluation setup."""

    name: str
    build_topology: Callable[[Simulator, QueueFactory], Topology]
    build_pattern: Callable[[Topology], TrafficPattern]
    size_dist: SizeDistribution
    deadline_dist: Optional[DeadlineDistribution] = None
    num_background_flows: int = 0
    #: Nominal propagation RTT used to seed transports' initial estimates.
    base_rtt: float = 300 * USEC
    #: "deadline" scenarios arbitrate EDF; "size" scenarios SJF.
    criterion: str = "size"
    #: Fault schedule armed by the harness for every run of this scenario
    #: (see :mod:`repro.faults`); None keeps runs fault-free.
    fault_schedule: Optional[FaultSchedule] = None
    #: ``(capacity, K)`` of the modelled switch's marking queues; None keeps
    #: each protocol's own buffer.  ``dctcp``, ``d2tcp`` and ``l2dct`` take
    #: it, PASE takes it in each buffer field its ``PaseConfig`` leaves at
    #: the default, and ``tcp``, ``pdq``, ``d3`` and ``pfabric`` ignore it.
    switch_buffer: Optional[Tuple[int, int]] = None


#: The flow-size distributions a scenario's ``sizes`` argument names.
SIZE_DISTRIBUTIONS: Dict[str, SizeDistribution] = {
    "query": QUERY_SIZES,  # U[2 KB, 198 KB]
    "deadline": DEADLINE_SIZES,  # U[100 KB, 500 KB]
    "web-search": web_search_sizes(),
}


def intra_rack(
    num_hosts: int = 20,
    link_bps: float = 1 * GBPS,
    rtt: float = 300 * USEC,
    sizes: str = "deadline",
    with_deadlines: bool = False,
    num_background_flows: int = 2,
) -> Scenario:
    """The D2TCP-replication scenario (§2, Fig. 1; §4.2.1, Fig. 9c):
    intra-rack random pairs, flow sizes U[100 KB, 500 KB], deadlines
    U[5 ms, 25 ms], two long background flows."""
    deadline_dist = DeadlineDistribution(5 * MSEC, 25 * MSEC) if with_deadlines else None

    def topology(sim: Simulator, queue_factory: QueueFactory) -> Topology:
        return StarTopology(sim, num_hosts, link_bps, rtt, queue_factory)

    def pattern(topo: Topology) -> TrafficPattern:
        return IntraRackRandom(topo.host_ids(), link_bps)

    return Scenario(
        name=f"intra_rack[{num_hosts}]",
        build_topology=topology,
        build_pattern=pattern,
        size_dist=SIZE_DISTRIBUTIONS[sizes],
        deadline_dist=deadline_dist,
        num_background_flows=num_background_flows,
        base_rtt=rtt,
        criterion="deadline" if with_deadlines else "size",
    )


def all_to_all_intra_rack(
    num_hosts: int = 20,
    link_bps: float = 1 * GBPS,
    rtt: float = 300 * USEC,
    sizes: str = "query",
    num_background_flows: int = 0,
    fanin: int = 8,
) -> Scenario:
    """The search-application worker/aggregator interaction (§2.1 Fig. 4;
    §4.2.2 Fig. 10c): each query makes ``fanin`` workers answer the next
    round-robin aggregator simultaneously (partition-aggregate incast),
    flows U[2 KB, 198 KB].  ``fanin=0`` means every other host responds
    (the paper's full all-to-all); ``fanin=1`` degenerates to unsynchronized
    random worker/aggregator pairs."""

    def topology(sim: Simulator, queue_factory: QueueFactory) -> Topology:
        return StarTopology(sim, num_hosts, link_bps, rtt, queue_factory)

    def pattern(topo: Topology) -> TrafficPattern:
        return IncastAllToAll(topo.host_ids(), link_bps, fanin=fanin)

    return Scenario(
        name=f"all_to_all[{num_hosts},fanin={fanin}]",
        build_topology=topology,
        build_pattern=pattern,
        size_dist=SIZE_DISTRIBUTIONS[sizes],
        num_background_flows=num_background_flows,
        base_rtt=rtt,
    )


def left_right(
    hosts_per_rack: int = 40,
    num_racks: int = 4,
    racks_per_agg: int = 2,
    host_link_bps: float = 1 * GBPS,
    core_rtt: float = 300 * USEC,
    sizes: str = "query",
    num_background_flows: int = 2,
) -> Scenario:
    """The inter-rack scenario (§4.2.1, Figs. 9a/9b/10a/10b/11/12): every
    left-subtree host sends to right-subtree hosts; the left aggregation's
    core uplink is the bottleneck.

    The fabric capacity is derived from the rack size to preserve the
    paper's ratios: ToR uplinks carry ``hosts_per_rack`` access links at 4:1
    oversubscription, which reproduces the paper's 40-hosts / 10 Gbps
    geometry at any scale.  The default IS the paper's scale (160 hosts) —
    simulation cost scales with flow count, not host count — but note that
    shrinking ``hosts_per_rack`` below ~10 narrows the fabric below a few
    NIC widths and qualitatively changes scheduling dynamics (the top
    priority queue then fits a single flow's demand).
    """
    fabric_bps = hosts_per_rack * host_link_bps / 4

    def topology(sim: Simulator, queue_factory: QueueFactory) -> Topology:
        cfg = TreeTopologyConfig(
            num_racks=num_racks,
            racks_per_agg=racks_per_agg,
            hosts_per_rack=hosts_per_rack,
            host_link_bps=host_link_bps,
            fabric_link_bps=fabric_bps,
            core_rtt=core_rtt,
        )
        return TreeTopology(sim, cfg, queue_factory)

    def pattern(topo: Topology) -> TrafficPattern:
        assert isinstance(topo, TreeTopology)
        left = [h.node_id for h in topo.left_hosts()]
        right = [h.node_id for h in topo.right_hosts()]
        return LeftRight(left, right, fabric_bps)

    return Scenario(
        name=f"left_right[{hosts_per_rack}x{num_racks}]",
        build_topology=topology,
        build_pattern=pattern,
        size_dist=SIZE_DISTRIBUTIONS[sizes],
        num_background_flows=num_background_flows,
        base_rtt=core_rtt,
    )


def intra_rack_deadlines(**kwargs) -> Scenario:
    """:func:`intra_rack` with the paper's U[5 ms, 25 ms] deadlines — a
    named constructor so the registry can address it without partials."""
    return intra_rack(with_deadlines=True, **kwargs)


def testbed(
    num_hosts: int = 10,
    link_bps: float = 1 * GBPS,
    rtt: float = 250 * USEC,
) -> Scenario:
    """The simulated stand-in for the paper's Linux testbed (§4.4,
    Fig. 13b): one rack, nine clients sending U[100 KB, 500 KB] flows to a
    single server, one long-lived background flow, and the testbed switch's
    100-packet queues with K = 20."""

    def topology(sim: Simulator, queue_factory: QueueFactory) -> Topology:
        return StarTopology(sim, num_hosts, link_bps, rtt, queue_factory)

    def pattern(topo: Topology) -> TrafficPattern:
        ids = topo.host_ids()
        return ManyToOne(ids[:-1], ids[-1], link_bps)

    return Scenario(
        name=f"testbed[{num_hosts}]",
        build_topology=topology,
        build_pattern=pattern,
        size_dist=DEADLINE_SIZES,
        num_background_flows=1,
        base_rtt=rtt,
        switch_buffer=(100, 20),
    )


# ----------------------------------------------------------------------
# Fault scenarios (PR 2): clean scenarios plus a declarative FaultSchedule.
# ----------------------------------------------------------------------

def _with_fault(base: Scenario, suffix: str, event, fault_seed: int) -> Scenario:
    """``base`` renamed ``<name>+<suffix>``, with ``event`` scheduled."""
    return replace(base, name=f"{base.name}+{suffix}", fault_schedule=(
        FaultSchedule(events=(event,), seed=fault_seed)))


def intra_rack_arb_crash(
    crash_at: float = 5 * MSEC,
    crash_duration: Optional[float] = 15 * MSEC,
    arbitrators: Optional[Sequence[str]] = None,
    fault_seed: int = 0,
    **kwargs,
) -> Scenario:
    """:func:`intra_rack` with an arbitrator crash mid-experiment.

    ``arbitrators=None`` crashes the whole control plane (the paper's §3.1
    worst case: every flow loses arbitration and survives on DCTCP
    fallback); pass link names (e.g. ``["h0->sw0"]``) to crash individual
    arbitrators instead.  ``crash_duration=None`` means no recovery."""
    return _with_fault(intra_rack(**kwargs), "arb_crash", ArbitratorCrash(
        at=crash_at, links=None if arbitrators is None else tuple(arbitrators),
        duration=crash_duration), fault_seed)


def intra_rack_link_flap(
    down_at: float = 5 * MSEC,
    outage: float = 2 * MSEC,
    links: Sequence[str] = ("h1->sw0",),
    flush: bool = True,
    fault_seed: int = 0,
    **kwargs,
) -> Scenario:
    """:func:`intra_rack` with a link flap: the named links go down at
    ``down_at`` and come back ``outage`` later; senders ride it out via
    RTO (and PASE additionally via fallback if their arbitrator's host
    becomes unreachable)."""
    return _with_fault(intra_rack(**kwargs), "link_flap", LinkDown(
        at=down_at, links=tuple(links), duration=outage, flush=flush),
        fault_seed)


def left_right_lossy_control(
    degrade_at: float = 0.0,
    degrade_duration: Optional[float] = None,
    loss_rate: float = 0.3,
    extra_delay: float = 0.0,
    fault_seed: int = 0,
    **kwargs,
) -> Scenario:
    """:func:`left_right` with a lossy/slow control channel: each explicit
    arbitration message is dropped with ``loss_rate`` (and delayed by
    ``extra_delay``) during the window.  ``degrade_duration=None`` keeps
    the degradation on for the whole run.  Built on the inter-rack scenario
    because only inter-rack arbitration uses explicit control messages —
    intra-rack exchanges are piggybacked on data packets (§3.1.2) and have
    nothing to lose."""
    return _with_fault(left_right(**kwargs), "lossy_control", ControlDegrade(
        at=degrade_at, duration=degrade_duration, loss_rate=loss_rate,
        extra_delay=extra_delay), fault_seed)


def intra_rack_data_loss(
    loss_at: float = 0.0,
    loss_duration: Optional[float] = None,
    p: float = 0.01,
    links: Optional[Sequence[str]] = None,
    fault_seed: int = 0,
    **kwargs,
) -> Scenario:
    """:func:`intra_rack` with i.i.d. (Bernoulli) data-plane loss of
    probability ``p`` on the named links (``None`` = every link).  Bursty
    Gilbert–Elliott loss needs its transition probabilities, so it is a
    hand-built :class:`~repro.faults.DataLoss` in a schedule."""
    return _with_fault(intra_rack(**kwargs), "data_loss", DataLoss(
        at=loss_at, links=None if links is None else tuple(links),
        duration=loss_duration, params=(("p", p),)), fault_seed)


#: Registry of named scenario constructors.  These names are the stable,
#: declarative identities a :class:`ScenarioSpec` (and the CLI) refers to:
#: a run rebuilds the scenario from ``(name, kwargs)``, which is what lets
#: the result cache address it by content.
SCENARIO_BUILDERS: Dict[str, Callable[..., Scenario]] = {
    "intra-rack": intra_rack,
    "intra-rack-deadlines": intra_rack_deadlines,
    "all-to-all": all_to_all_intra_rack,
    "left-right": left_right,
    "testbed": testbed,
    "intra-rack-arb-crash": intra_rack_arb_crash,
    "intra-rack-link-flap": intra_rack_link_flap,
    "left-right-lossy-control": left_right_lossy_control,
    "intra-rack-data-loss": intra_rack_data_loss,
}


#: Registered scenarios that pass their ``**kwargs`` on to another one.
_EXTENDS: Dict[str, str] = {
    "intra-rack-deadlines": "intra-rack",
    "intra-rack-arb-crash": "intra-rack",
    "intra-rack-link-flap": "intra-rack",
    "intra-rack-data-loss": "intra-rack",
    "left-right-lossy-control": "left-right",
}


def _builder(name: str) -> Callable[..., Scenario]:
    try:
        return SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_BUILDERS)}"
        ) from None


def scenario_defaults(name: str) -> Dict[str, Any]:
    """Every keyword argument of a registered scenario, with its default
    (an extended scenario's included)."""
    params = inspect.signature(_builder(name)).parameters.values()
    own = {p.name: p.default for p in params if p.default is not p.empty}
    base = _EXTENDS.get(name)
    return {**scenario_defaults(base), **own} if base else own


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario addressed by ``(name, kwargs)``.  The kwargs
    must be plain JSON data (a ``TypeError`` names any that is not), so a
    run described with one has a content hash; an unknown name, or kwargs
    its builder rejects, fail here rather than mid-sweep."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in self.kwargs.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise TypeError(f"scenario kwarg {key!r} is not plain "
                                f"JSON data: {value!r}") from None
        self.build()

    def build(self) -> Scenario:
        return _builder(self.name)(**self.kwargs)

    def minimal_kwargs(self) -> Dict[str, Any]:
        """The kwargs minus every one equal to its default, so two spellings
        of one scenario name the same run."""
        defaults = scenario_defaults(self.name)
        return {key: value for key, value in self.kwargs.items()
                if key not in defaults
                or json.dumps(value) != json.dumps(defaults[key])}

    def label(self) -> str:
        if not self.kwargs:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.kwargs.items()))
        return f"{self.name}[{inner}]"


def scenario_cli_kwargs(name: str, hosts: Optional[int] = None,
                        fanin: int = 8) -> dict:
    """Map the generic ``--hosts``/``--fanin`` CLI flags onto a registered
    scenario's actual constructor parameters."""
    defaults = scenario_defaults(name)
    key = "hosts_per_rack" if "hosts_per_rack" in defaults else "num_hosts"
    kwargs = {key: hosts or defaults[key]}
    if "fanin" in defaults:
        kwargs["fanin"] = fanin
    return kwargs
