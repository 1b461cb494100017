"""Network container: owns nodes and links, builds routing tables.

The :class:`Network` is deliberately dumb — it wires :class:`~repro.sim.node.Node`
objects together with :class:`~repro.sim.link.Link` objects and computes
static single-path routes by BFS (the paper's topologies are trees, so BFS
yields the unique path).  Topology-specific structure (which switch is a ToR,
which hosts form a rack) lives in :mod:`repro.sim.topology`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Node, Switch
from repro.sim.queues import QueueDiscipline

#: A factory producing a fresh queue discipline per link direction.
QueueFactory = Callable[[], QueueDiscipline]


class Network:
    """A collection of nodes and unidirectional links plus routing."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[int, Node] = {}
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        #: Unidirectional links keyed by (src_node_id, dst_node_id).
        self.links: Dict[Tuple[int, int], Link] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        host = Host(self.sim, self._take_id(), name)
        self.nodes[host.node_id] = host
        self.hosts.append(host)
        self._adjacency[host.node_id] = []
        return host

    def add_switch(self, name: str) -> Switch:
        switch = Switch(self.sim, self._take_id(), name)
        self.nodes[switch.node_id] = switch
        self.switches.append(switch)
        self._adjacency[switch.node_id] = []
        return switch

    def _take_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def connect(
        self,
        a: Node,
        b: Node,
        capacity_bps: float,
        prop_delay: float,
        queue_factory: QueueFactory,
    ) -> Tuple[Link, Link]:
        """Create a duplex cable between ``a`` and ``b``.

        Each direction gets its own queue from ``queue_factory``.  Returns
        ``(link_a_to_b, link_b_to_a)``.
        """
        key_ab = (a.node_id, b.node_id)
        if key_ab in self.links:
            raise ValueError(f"{a.name} and {b.name} are already connected")
        ab = Link(self.sim, f"{a.name}->{b.name}", a, b, capacity_bps,
                  prop_delay, queue_factory())
        ba = Link(self.sim, f"{b.name}->{a.name}", b, a, capacity_bps,
                  prop_delay, queue_factory())
        self.links[key_ab] = ab
        self.links[(b.node_id, a.node_id)] = ba
        self._adjacency[a.node_id].append(b.node_id)
        self._adjacency[b.node_id].append(a.node_id)
        return ab, ba

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Populate every node's ``routes`` table by BFS from each host.

        For tree topologies the BFS path is the unique path; for non-trees
        this yields deterministic shortest-path routing (ties broken by
        insertion order of ``connect`` calls).
        """
        for host in self.hosts:
            self._install_routes_toward(host.node_id)

    def _install_routes_toward(self, dst: int) -> None:
        # BFS distance labels from dst; a node's route is its first
        # neighbor (in connect order) one step closer to dst.
        dist: Dict[int, int] = {dst: 0}
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in dist:
                    dist[neighbor] = dist[current] + 1
                    frontier.append(neighbor)
        for node_id, d in dist.items():
            if node_id == dst:
                continue
            nexthop = next(n for n in self._adjacency[node_id]
                           if dist[n] == d - 1)
            self.nodes[node_id].routes[dst] = self.links[(node_id, nexthop)]

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def link_between(self, a: Node, b: Node) -> Link:
        """The unidirectional link from ``a`` to ``b``."""
        try:
            return self.links[(a.node_id, b.node_id)]
        except KeyError:
            raise KeyError(f"no link {a.name}->{b.name}") from None

    def path_links(self, src: int, dst: int) -> List[Link]:
        """The ordered list of links a packet traverses from host ``src``
        to host ``dst``."""
        links: List[Link] = []
        node = self.nodes[src]
        hops = 0
        while node.node_id != dst:
            link = node.egress_for(dst)
            links.append(link)
            node = link.dst
            hops += 1
            if hops > len(self.nodes):
                raise RuntimeError(f"routing loop from {src} to {dst}")
        return links

    # ------------------------------------------------------------------
    # Aggregate accounting
    # ------------------------------------------------------------------
    def total_drops(self) -> int:
        """Every packet lost network-wide: queue drops (overflows, pFabric
        evictions and injected loss) plus link-outage losses."""
        return sum(link.queue.drops + link.down_drops
                   for link in self.links.values())

    def total_data_offered(self) -> int:
        return sum(link.data_pkts_offered for link in self.links.values())

    def total_data_drops(self) -> int:
        """Data packets lost network-wide (ACKs and probes excluded)."""
        return sum(link.data_drops for link in self.links.values())
