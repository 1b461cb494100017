"""Topology builders for the paper's scenarios.

Two shapes cover every experiment:

* :class:`StarTopology` — N hosts on one switch.  Used for all intra-rack
  scenarios (Figs. 1, 2, 4, 9c, 10c, 13a), the Fig. 3 toy example, and the
  simulated testbed (Fig. 13b).
* :class:`TreeTopology` — the paper's Fig. 8 three-tier tree: racks of hosts
  under ToR switches, ToRs under aggregation switches, aggregations joined by
  one core switch.  Host links are 1 Gbps, fabric links 10 Gbps, giving the
  paper's 4:1 ToR-uplink oversubscription at the default sizes.  Used for the
  left-right inter-rack scenarios (Figs. 9a/9b, 10a/10b, 11, 12).

Both expose the structural queries the PASE control plane needs: a host's
up/down access links, the ToR/aggregation ancestry of a host, and ordered
path links between hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network, QueueFactory
from repro.sim.node import Host, Switch
from repro.sim.queues import REDQueue
from repro.utils.units import GBPS, USEC
from repro.utils.validation import check_positive


def default_queue_factory() -> REDQueue:
    """DCTCP-style marking FIFO with the paper's defaults (Table 3)."""
    return REDQueue(capacity_pkts=225, mark_threshold_pkts=65)


@dataclass
class TreeTopologyConfig:
    """Knobs for :class:`TreeTopology`.

    Defaults reproduce Fig. 8 scaled by ``hosts_per_rack`` — the paper used
    40 hosts/rack; benchmarks shrink this (shape-preserving) for pure-Python
    runtimes.  Per-link propagation delay is chosen so the host-to-host RTT
    through the core is ``core_rtt`` (300 µs in the paper) in the absence of
    queueing.
    """

    num_racks: int = 4
    racks_per_agg: int = 2
    hosts_per_rack: int = 40
    host_link_bps: float = 1 * GBPS
    fabric_link_bps: float = 10 * GBPS
    core_rtt: float = 300 * USEC

    def __post_init__(self) -> None:
        check_positive("num_racks", self.num_racks)
        check_positive("racks_per_agg", self.racks_per_agg)
        check_positive("hosts_per_rack", self.hosts_per_rack)
        check_positive("host_link_bps", self.host_link_bps)
        check_positive("fabric_link_bps", self.fabric_link_bps)
        check_positive("core_rtt", self.core_rtt)
        if self.num_racks % self.racks_per_agg != 0:
            raise ValueError(
                f"num_racks ({self.num_racks}) must divide evenly into groups "
                f"of racks_per_agg ({self.racks_per_agg})"
            )

    @property
    def num_aggs(self) -> int:
        return self.num_racks // self.racks_per_agg

    @property
    def num_hosts(self) -> int:
        return self.num_racks * self.hosts_per_rack

    @property
    def per_link_delay(self) -> float:
        # Host-to-host via core crosses 6 links each way.
        return self.core_rtt / 12.0


class Topology:
    """Base class: common structural queries over a built network."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network

    @property
    def hosts(self) -> List[Host]:
        return self.network.hosts

    def host_ids(self) -> List[int]:
        return [h.node_id for h in self.network.hosts]

    def host_uplink(self, host: Host) -> Link:
        """The host's single access link toward the fabric."""
        raise NotImplementedError

    def host_downlink(self, host: Host) -> Link:
        """The fabric's link down into the host."""
        raise NotImplementedError

    def path_links(self, src: int, dst: int) -> List[Link]:
        return self.network.path_links(src, dst)

    def base_rtt(self, src: int, dst: int) -> float:
        """Propagation-only RTT between two hosts (no queueing/serialization)."""
        forward = sum(l.prop_delay for l in self.path_links(src, dst))
        backward = sum(l.prop_delay for l in self.path_links(dst, src))
        return forward + backward


class StarTopology(Topology):
    """``num_hosts`` hosts hanging off a single switch.

    ``rtt`` is the host-to-host propagation RTT: each of the four link
    traversals (up, down, and back) contributes ``rtt / 4``.
    """

    def __init__(
        self,
        sim: Simulator,
        num_hosts: int,
        link_bps: float = 1 * GBPS,
        rtt: float = 100 * USEC,
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(sim, Network(sim))
        check_positive("num_hosts", num_hosts)
        factory = queue_factory or default_queue_factory
        self.link_bps = link_bps
        self.rtt = rtt
        self.switch = self.network.add_switch("sw0")
        self._uplinks: Dict[int, Link] = {}
        self._downlinks: Dict[int, Link] = {}
        per_link_delay = rtt / 4.0
        for i in range(num_hosts):
            host = self.network.add_host(f"h{i}")
            up, down = self.network.connect(
                host, self.switch, link_bps, per_link_delay, factory
            )
            self._uplinks[host.node_id] = up
            self._downlinks[host.node_id] = down
        self.network.build_routes()

    def host_uplink(self, host: Host) -> Link:
        return self._uplinks[host.node_id]

    def host_downlink(self, host: Host) -> Link:
        return self._downlinks[host.node_id]


class TreeTopology(Topology):
    """The paper's Fig. 8 three-tier tree."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[TreeTopologyConfig] = None,
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(sim, Network(sim))
        self.config = config or TreeTopologyConfig()
        factory = queue_factory or default_queue_factory
        cfg = self.config
        delay = cfg.per_link_delay

        self.core = self.network.add_switch("core")
        self.aggs: List[Switch] = []
        self.tors: List[Switch] = []
        self._tor_of_host: Dict[int, Switch] = {}
        self._agg_of_tor: Dict[int, Switch] = {}
        self._uplinks: Dict[int, Link] = {}
        self._downlinks: Dict[int, Link] = {}
        self._rack_hosts: Dict[int, List[Host]] = {}

        for a in range(cfg.num_aggs):
            agg = self.network.add_switch(f"agg{a}")
            self.aggs.append(agg)
            self.network.connect(agg, self.core, cfg.fabric_link_bps, delay, factory)

        for r in range(cfg.num_racks):
            tor = self.network.add_switch(f"tor{r}")
            self.tors.append(tor)
            agg = self.aggs[r // cfg.racks_per_agg]
            self._agg_of_tor[tor.node_id] = agg
            self.network.connect(tor, agg, cfg.fabric_link_bps, delay, factory)
            rack: List[Host] = []
            for h in range(cfg.hosts_per_rack):
                host = self.network.add_host(f"h{r}_{h}")
                up, down = self.network.connect(
                    host, tor, cfg.host_link_bps, delay, factory
                )
                self._uplinks[host.node_id] = up
                self._downlinks[host.node_id] = down
                self._tor_of_host[host.node_id] = tor
                rack.append(host)
            self._rack_hosts[r] = rack

        self.network.build_routes()

    # -- structure -------------------------------------------------------
    def host_uplink(self, host: Host) -> Link:
        return self._uplinks[host.node_id]

    def host_downlink(self, host: Host) -> Link:
        return self._downlinks[host.node_id]

    def tor_of(self, host: Host) -> Switch:
        return self._tor_of_host[host.node_id]

    def agg_of(self, tor: Switch) -> Switch:
        return self._agg_of_tor[tor.node_id]

    def rack_hosts(self, rack: int) -> List[Host]:
        return list(self._rack_hosts[rack])

    def same_rack(self, src: int, dst: int) -> bool:
        return self._tor_of_host[src] is self._tor_of_host[dst]

    def left_hosts(self) -> List[Host]:
        """Hosts in racks under the first aggregation switch ("left" side)."""
        racks = range(self.config.racks_per_agg)
        return [h for r in racks for h in self._rack_hosts[r]]

    def right_hosts(self) -> List[Host]:
        """Hosts in racks under the remaining aggregation switches."""
        racks = range(self.config.racks_per_agg, self.config.num_racks)
        return [h for r in racks for h in self._rack_hosts[r]]
