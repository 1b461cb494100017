"""PASE's arbitration control plane (§3.1).

One :class:`~repro.core.arbitration.LinkArbitrator` exists per link that a
flow can bottleneck on.  Arbitrators are *placed*: a host's access links are
arbitrated at the host itself; ToR–aggregation links at the ToR; aggregation–
core links at the aggregation switch — or, with **delegation**, at each child
ToR over a virtual slice of the core link's capacity.

Arbitration is bottom-up (Fig. 5).  A request walks the source half of the
path (host uplink → ToR → agg), then the destination half walks symmetrically
from the destination host upward.  The paper's two scalability optimizations
are implemented faithfully:

* **Early pruning** — a half stops climbing as soon as the flow fails to map
  within the top ``pruning_queues`` classes at the current level, since a
  flow's final queue is the lowest along its path and further consultation
  cannot improve it (§3.1.2).
* **Delegation** — aggregation–core capacity is split into per-ToR virtual
  links rebalanced periodically from child demand reports, so inter-rack
  flows never need to contact an arbitrator above the ToR.

Control-message accounting (for Fig. 11b): every consultation of a non-local
arbitrator costs a request + a response message; delegation's rebalance costs
two messages per child per period; intra-rack exchanges between the two
endpoints are piggybacked on data/ACK packets and cost nothing (§3.1.2:
"for intra-rack communication ... flows incur no additional network latency
for arbitration" — nor messages).  Control traffic rides a modeled control
channel (per-hop propagation + processing delay) rather than consuming
data-plane bandwidth; see DESIGN.md for why this substitution is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.arbitration import (
    ArbitrationResult,
    LinkArbitrator,
    VirtualLinkArbitrator,
)
from repro.core.config import PaseConfig
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import DEFAULT_MTU
from repro.sim.topology import Topology, TreeTopology
from repro.transports.flow import Flow
from repro.utils.units import MSEC, USEC, bytes_to_bits

#: Invoked as ``callback(half, result)`` — ``half`` is "src" or "dst" —
#: whenever one half-path's arbitration outcome reaches the source.  The
#: sender merges the most recent result of each half (a flow obeys the
#: lowest queue / smallest rate along its whole path), so a fresh source
#: half never transiently overrides a still-binding destination half.
ArbitrationCallback = Callable[[str, ArbitrationResult], None]

#: Arbitrator placement levels (for message/processing statistics).
LEVEL_HOST = 0
LEVEL_TOR = 1
LEVEL_AGG = 2

#: Per-arbitrator processing delay for one control message (s).
PROCESSING_DELAY = 10 * USEC
#: Arbitration interval of a control plane built without a protocol
#: binding (whose config leaves ``arbitration_interval`` unset); a binding
#: sets the scenario's RTT instead.
ARBITRATION_INTERVAL = 300 * USEC
#: Arbitrator entries not refreshed within this many arbitration intervals
#: are dropped (safety net; normal removal is the completion message).
ENTRY_TIMEOUT_INTERVALS = 4.0
#: Period between virtual-link capacity rebalances (s).
DELEGATION_UPDATE_INTERVAL = 1 * MSEC
#: Minimum fraction of a delegated link any child retains, so a burst at a
#: quiet child is never completely locked out while waiting for the next
#: rebalance.
DELEGATION_MIN_SHARE = 0.05


@dataclass(slots=True)
class ChainHop:
    """One arbitrator consultation on a flow's (half-)path."""

    arbitrator: LinkArbitrator
    #: One-way control latency from the half's initiating endpoint to this
    #: arbitrator (cumulative, includes processing).
    latency: float
    #: Control messages charged when this hop is consulted (request +
    #: response); 0 for endpoint-local and piggybacked consultations.
    message_cost: int
    level: int


@dataclass(slots=True)
class FlowChains:
    """Cached per-flow arbitration chains (the path is static)."""

    src_hops: List[ChainHop]
    dst_hops: List[ChainHop]
    #: One-way data-path latency (the destination half starts this late and
    #: its response rides back to the source over the same path).
    transfer_latency: float


class PaseControlPlane:
    """All arbitrators for one topology plus the request machinery."""

    def __init__(self, sim: Simulator, topology: Topology, config: Optional[PaseConfig] = None) -> None:
        self.sim = sim
        self.topology = topology
        cfg = config or PaseConfig()
        if cfg.arbitration_interval is None:
            cfg = replace(cfg, arbitration_interval=ARBITRATION_INTERVAL)
        #: The run's config, read by every sender of the run; its
        #: ``arbitration_interval`` is always set.
        self.config = cfg
        self.entry_timeout = ENTRY_TIMEOUT_INTERVALS * cfg.arbitration_interval
        self.arbitrators: Dict[str, LinkArbitrator] = {}
        #: (parent link name, child ToR node id) -> virtual arbitrator.
        self.virtual: Dict[Tuple[str, int], VirtualLinkArbitrator] = {}
        self._delegation_groups: List[Tuple[Link, List[VirtualLinkArbitrator]]] = []
        self._chains: Dict[int, FlowChains] = {}
        # -- fault model (all inert until a fault crashes or degrades it) --
        #: True while the whole control plane is crashed.
        self.cp_down = False
        #: Names of individually crashed arbitrators (link or virtual names).
        self._crashed: Set[str] = set()
        #: Loss probability / extra latency applied to each explicit control
        #: message while a ControlDegrade window is open.
        self.control_loss_rate = 0.0
        self.control_extra_delay = 0.0
        self.control_rng: Optional[random.Random] = None
        # -- statistics ------------------------------------------------
        self.messages_sent = 0
        self.messages_by_level = {LEVEL_HOST: 0, LEVEL_TOR: 0, LEVEL_AGG: 0}
        #: Arbitration decisions computed per placement level — the
        #: processing-load metric of §3.1.2 (early pruning exists to keep
        #: the higher levels' numbers down).
        self.processed_by_level = {LEVEL_HOST: 0, LEVEL_TOR: 0, LEVEL_AGG: 0}
        self.requests_started = 0
        self.prunes = 0
        #: Requests refused outright because the local arbitrator was down.
        self.requests_failed = 0
        #: Half-path walks that died at a crashed arbitrator (no response).
        self.consults_aborted = 0
        #: Control messages eaten by a degraded control channel.
        self.control_messages_lost = 0
        self.arbitrator_crashes = 0
        #: Soft-state entries dropped by the periodic expiry sweep (a
        #: source that is still alive re-registers on its next request).
        self.entries_expired = 0

        self._build_arbitrators()
        #: True while a delegation rebalance is pending; the rebalancer
        #: parks itself (clears this) when nothing else is pending.
        self._rebalance_armed = bool(self._delegation_groups)
        if self._rebalance_armed:
            self.sim.post(DELEGATION_UPDATE_INTERVAL, self._rebalance_delegation)
        #: True while an expiry sweep is pending; the sweep parks itself
        #: (clears this) when every table is empty.
        self._expire_armed = True
        self.sim.post(self.entry_timeout, self._expire_sweep)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _base_rate_for(self, link: Link) -> float:
        """Algorithm 1's "baserate": one MTU per RTT, in bits/s."""
        rtt = getattr(self.topology, "rtt", None)
        if rtt is None:
            rtt = self.topology.config.core_rtt  # TreeTopology
        return bytes_to_bits(DEFAULT_MTU) / rtt

    def _make_arbitrator(self, link: Link) -> LinkArbitrator:
        arb = LinkArbitrator(
            link.name,
            link.capacity_bps,
            self.config.num_data_queues,
            self._base_rate_for(link),
        )
        self.arbitrators[link.name] = arb
        return arb

    def _build_arbitrators(self) -> None:
        for link in self.topology.network.links.values():
            self._make_arbitrator(link)
        if not isinstance(self.topology, TreeTopology) or not self.config.delegation_enabled:
            return
        topo: TreeTopology = self.topology
        net = topo.network
        # Delegate each agg<->core direction to the ToRs under that agg.
        for agg in topo.aggs:
            children = [tor for tor in topo.tors if topo.agg_of(tor) is agg]
            if not children:
                continue
            for parent_link in (net.link_between(agg, topo.core),
                                net.link_between(topo.core, agg)):
                group: List[VirtualLinkArbitrator] = []
                share = 1.0 / len(children)
                for tor in children:
                    varb = VirtualLinkArbitrator(
                        f"{parent_link.name}@{tor.name}",
                        parent_link.capacity_bps,
                        self.config.num_data_queues,
                        self._base_rate_for(parent_link),
                        initial_share=share,
                    )
                    self.virtual[(parent_link.name, tor.node_id)] = varb
                    group.append(varb)
                self._delegation_groups.append((parent_link, group))

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def chains_for(self, flow: Flow) -> FlowChains:
        chains = self._chains.get(flow.flow_id)
        if chains is None:
            chains = self._build_chains(flow)
            self._chains[flow.flow_id] = chains
        return chains

    def _build_chains(self, flow: Flow) -> FlowChains:
        cfg = self.config
        topo = self.topology
        net = topo.network
        src_host = net.nodes[flow.src]
        dst_host = net.nodes[flow.dst]
        transfer = topo.base_rtt(flow.src, flow.dst) / 2.0

        up = topo.host_uplink(src_host)
        down = topo.host_downlink(dst_host)
        src_hops = [ChainHop(self.arbitrators[up.name], 0.0, 0, LEVEL_HOST)]
        dst_hops = [ChainHop(self.arbitrators[down.name], 0.0, 0, LEVEL_HOST)]

        if (cfg.end_to_end_arbitration and isinstance(topo, TreeTopology)
                and not topo.same_rack(flow.src, flow.dst)):
            self._extend_tree_hops(flow, topo, src_hops, dst_hops)
        return FlowChains(src_hops, dst_hops, transfer)

    def _extend_tree_hops(
        self,
        flow: Flow,
        topo: TreeTopology,
        src_hops: List[ChainHop],
        dst_hops: List[ChainHop],
    ) -> None:
        cfg = self.config
        net = topo.network
        proc = PROCESSING_DELAY
        d_host = topo.host_uplink(net.nodes[flow.src]).prop_delay
        d_fabric = topo.config.per_link_delay

        src_tor = topo.tor_of(net.nodes[flow.src])
        dst_tor = topo.tor_of(net.nodes[flow.dst])
        src_agg = topo.agg_of(src_tor)
        dst_agg = topo.agg_of(dst_tor)

        # ToR level: the rack's up/down fabric links.
        tor_up = net.link_between(src_tor, src_agg)
        agg_down = net.link_between(dst_agg, dst_tor)
        src_hops.append(ChainHop(self.arbitrators[tor_up.name],
                                 d_host + proc, 2, LEVEL_TOR))
        dst_hops.append(ChainHop(self.arbitrators[agg_down.name],
                                 d_host + proc, 2, LEVEL_TOR))

        if src_agg is dst_agg:
            return  # path turns around at the aggregation switch
        agg_up = net.link_between(src_agg, topo.core)
        core_down = net.link_between(topo.core, dst_agg)
        if cfg.delegation_enabled:
            # Same control message as the ToR hop: zero marginal cost.
            src_hops.append(ChainHop(self.virtual[(agg_up.name, src_tor.node_id)],
                                     d_host + proc, 0, LEVEL_TOR))
            dst_hops.append(ChainHop(self.virtual[(core_down.name, dst_tor.node_id)],
                                     d_host + proc, 0, LEVEL_TOR))
        else:
            src_hops.append(ChainHop(self.arbitrators[agg_up.name],
                                     d_host + d_fabric + 2 * proc, 2, LEVEL_AGG))
            dst_hops.append(ChainHop(self.arbitrators[core_down.name],
                                     d_host + d_fabric + 2 * proc, 2, LEVEL_AGG))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(
        self,
        flow: Flow,
        criterion_value: float,
        demand: float,
        callback: ArbitrationCallback,
    ) -> Optional[ArbitrationResult]:
        """Run one bottom-up arbitration round for ``flow``.

        The source half's *local* decision is computed synchronously and
        returned, so a new flow can start sending immediately (§3.1.2).
        Higher-level consultations and the whole destination half proceed
        asynchronously; ``callback`` fires with the merged result as each
        half completes.

        Any request can fail: when the control plane (or the source host's
        own arbitrator) is crashed, ``None`` comes back immediately and no
        callback will ever fire — the sender's retry/fallback machinery
        takes over.  A crashed arbitrator higher up the chain silently
        swallows that half's walk (the response simply never arrives),
        which the sender detects by timeout.
        """
        self.requests_started += 1
        # chains_for, with its cache hit inline.
        chains = self._chains.get(flow.flow_id)
        if chains is None:
            chains = self.chains_for(flow)
        if self.cp_down or (self._crashed
                            and self._is_crashed(chains.src_hops[0])):
            self.requests_failed += 1
            return None
        state = _RequestState(criterion_value, demand, callback)

        local = chains.src_hops[0].arbitrator.arbitrate(
            flow.flow_id, criterion_value, demand, self.sim.now)
        self.processed_by_level[LEVEL_HOST] += 1
        # A parked expiry sweep or rebalancer restarts with fresh soft
        # state.
        if not self._expire_armed:
            self._expire_armed = True
            self.sim.post(self.entry_timeout, self._expire_sweep)
        if not self._rebalance_armed and self._delegation_groups:
            self._rebalance_armed = True
            self.sim.post(DELEGATION_UPDATE_INTERVAL, self._rebalance_delegation)
        self._walk(flow, chains.src_hops, 1, local, state, "src",
                   return_extra=0.0)
        dst_start = chains.transfer_latency
        self.sim.post(dst_start, self._walk, flow, chains.dst_hops, 0,
                      None, state, "dst", chains.transfer_latency)
        return local

    def _walk(
        self,
        flow: Flow,
        hops: List[ChainHop],
        index: int,
        acc: Optional[ArbitrationResult],
        state: "_RequestState",
        half: str,
        return_extra: float,
    ) -> None:
        """Consult ``hops[index:]`` bottom-up, then deliver the half result."""
        cfg = self.config
        prev_latency = hops[index - 1].latency if index > 0 else 0.0
        while index < len(hops):
            hop = hops[index]
            if (self.cp_down or self._crashed) and self._is_crashed(hop):
                # The request reached a dead arbitrator: the chain is
                # severed and this half never answers (sender times out).
                self.consults_aborted += 1
                return
            # cfg.pruning_enabled, inline.
            pruned = (cfg.pruning_queues > 0 and acc is not None
                      and acc.queue >= cfg.pruning_queues)
            if pruned:
                self.prunes += 1
                break
            step = hop.latency - prev_latency
            if step > 1e-12:
                # Climb to the next arbitrator; resume there after the hop.
                if hop.message_cost and self._lose_control_message():
                    return  # request message eaten by the control channel
                if self.control_extra_delay > 0.0:
                    step += self.control_extra_delay
                self.sim.post(step, self._consult_and_continue, flow,
                              hops, index, acc, state, half, return_extra)
                return
            acc = self._consult(flow, hop, acc, state)
            prev_latency = hop.latency
            index += 1
        self._deliver(hops, index, acc, state, half, return_extra)

    def _consult_and_continue(self, flow, hops, index, acc, state, half, return_extra):
        if self._is_crashed(hops[index]):
            self.consults_aborted += 1
            return
        acc = self._consult(flow, hops[index], acc, state)
        self._walk(flow, hops, index + 1, acc, state, half, return_extra)

    def _consult(self, flow, hop: ChainHop, acc, state: "_RequestState"):
        self.messages_sent += hop.message_cost
        self.messages_by_level[hop.level] += hop.message_cost
        self.processed_by_level[hop.level] += 1
        result = hop.arbitrator.arbitrate(
            flow.flow_id, state.criterion_value, state.demand, self.sim.now)
        return result if acc is None else acc.merge(result)

    def _deliver(self, hops, consulted_until, acc, state, half, return_extra):
        """Send the half's result back to the source and fire the callback."""
        if acc is None:
            return
        used_messages = False
        for hop in hops[:consulted_until]:
            if hop.message_cost:
                used_messages = True
                break
        if used_messages and self._lose_control_message():
            return  # response message eaten by the control channel
        deepest = hops[min(consulted_until, len(hops)) - 1].latency if consulted_until > 0 else 0.0
        delay = deepest + return_extra
        if used_messages and self.control_extra_delay > 0.0:
            delay += self.control_extra_delay
        if delay > 1e-12:
            self.sim.post(delay, state.fire, half, acc)
        else:
            state.fire(half, acc)

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def _is_crashed(self, hop: ChainHop) -> bool:
        return self.cp_down or hop.arbitrator.name in self._crashed

    def _lose_control_message(self) -> bool:
        """Roll the control channel's loss dice for one explicit message."""
        if self.control_rng is None or self.control_loss_rate <= 0.0:
            return False
        if self.control_rng.random() < self.control_loss_rate:
            self.control_messages_lost += 1
            return True
        return False

    def crash(self, names: Optional[Sequence[str]] = None) -> None:
        """Crash arbitrators, wiping their soft state.

        ``names=None`` takes the whole control plane down: every flow table
        (real and virtual) is lost and :meth:`request` refuses service until
        :meth:`recover`.  Otherwise only the named arbitrators (link names,
        or ``link@tor`` virtual names) crash; walks that reach them die
        silently and the senders' timeouts kick in.
        """
        self.arbitrator_crashes += 1
        if names is None:
            self.cp_down = True
            for arb in self.arbitrators.values():
                arb.clear()
            for varb in self.virtual.values():
                varb.clear()
            return
        for name in names:
            arb = self.arbitrators.get(name)
            if arb is None:
                arb = next((v for v in self.virtual.values() if v.name == name), None)
            if arb is None:
                raise KeyError(f"no arbitrator named {name!r}")
            self._crashed.add(name)
            arb.clear()

    def recover(self, names: Optional[Sequence[str]] = None) -> None:
        """Bring arbitrators back.  They restart *empty* — the paper's soft
        state is rebuilt organically by the senders' periodic requests.

        ``names=None`` ends a whole-plane crash; arbitrators crashed by
        name stay down until they are recovered by name, as
        :meth:`crash` keeps the two apart."""
        if names is None:
            self.cp_down = False
            return
        for name in names:
            self._crashed.discard(name)

    # ------------------------------------------------------------------
    # Completion / maintenance
    # ------------------------------------------------------------------
    def notify_complete(self, flow: Flow) -> None:
        """Explicitly clear the flow from every arbitrator that knows it."""
        chains = self._chains.pop(flow.flow_id, None)
        if chains is None:
            return
        for hop in chains.src_hops + chains.dst_hops:
            if flow.flow_id in hop.arbitrator.flows:
                hop.arbitrator.remove(flow.flow_id)
                if hop.message_cost:
                    self.messages_sent += 1
                    self.messages_by_level[hop.level] += 1

    def _expire_sweep(self) -> None:
        timeout = self.entry_timeout
        now = self.sim.now
        occupied = False
        for tables in (self.arbitrators, self.virtual):
            for arb in tables.values():
                self.entries_expired += len(arb.expire(now, timeout))
                occupied = occupied or bool(arb.flows)
        if occupied:
            self.sim.post(timeout, self._expire_sweep)
        else:
            # Every table is empty: park the sweep so an idle simulation can
            # drain.  request() re-arms it when fresh soft state appears.
            self._expire_armed = False

    def _rebalance_delegation(self) -> None:
        """Periodic virtual-link capacity refresh from child demand reports.

        A crashed control plane neither reports demand nor reassigns
        shares; the last shares stay frozen until recovery.
        """
        if not self.cp_down:
            for _, group in self._delegation_groups:
                demands = [max(v.aggregate_demand(top_queues=1), 0.0)
                           for v in group]
                total = sum(demands)
                floor = DELEGATION_MIN_SHARE
                if total <= 0:
                    shares = [1.0 / len(group)] * len(group)
                else:
                    shares = [floor + (1 - floor * len(group)) * (d / total)
                              for d in demands]
                for varb, share in zip(group, shares):
                    varb.set_share(max(share, 1e-6))
                # One report up + one share notification down per child.
                self.messages_sent += 2 * len(group)
                self.messages_by_level[LEVEL_AGG] += 2 * len(group)
        if self.sim.peek_time() is None:
            # Nothing else is pending: park so an idle simulation can
            # drain.  request() re-arms the rebalancer.
            self._rebalance_armed = False
        else:
            self.sim.post(DELEGATION_UPDATE_INTERVAL, self._rebalance_delegation)


class _RequestState:
    """Carries one round's inputs and routes per-half results back."""

    __slots__ = ("criterion_value", "demand", "callback")

    def __init__(self, criterion_value: float, demand: float, callback: ArbitrationCallback):
        self.criterion_value = criterion_value
        self.demand = demand
        self.callback = callback

    def fire(self, half: str, result: ArbitrationResult) -> None:
        self.callback(half, result)
