"""Topology description and the 12-host leaf/root preset.

The preset mirrors a small two-tier testbed: 12 hosts in 4 racks of 3,
one top-of-rack switch per rack, one root switch, every link 1 Gbps.
With store-and-forward switching and zero configured propagation and
processing delay, a full-size data segment plus its ACK cross four links
each way, giving an unloaded inter-rack RTT of

    4 * 12us (1500B at 1Gbps) + 4 * 0.512us (64B ACK) ~= 50.05us

which is the ~50us the preset is meant to realize.
"""

from dataclasses import dataclass, field

from .units import GBPS


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    rate_bps: int
    prop_delay_ns: int = 0


@dataclass
class Topology:
    hosts: list
    switches: list
    links: list
    hop_proc_ns: int = 0

    neighbors: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for link in self.links:
            self.neighbors.setdefault(link.a, {})[link.b] = link
            self.neighbors.setdefault(link.b, {})[link.a] = link

    def port_ids(self):
        """Output port names, one per link direction: "<from>-><to>"."""
        return [f"{a}->{b}" for link in self.links
                for a, b in ((link.a, link.b), (link.b, link.a))]

    def validate(self):
        names = set(self.hosts) | set(self.switches)
        for link in self.links:
            if link.a not in names or link.b not in names:
                raise ValueError(f"link endpoint unknown: {link}")
        for host in self.hosts:
            uplinks = self.neighbors.get(host, {})
            if len(uplinks) != 1:
                raise ValueError(f"host {host} must have exactly one uplink")
        # connectivity over the union graph
        seen = set()
        stack = [self.hosts[0]]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.neighbors.get(node, {}))
        if seen != names:
            raise ValueError("topology graph is not connected")

    def path(self, src: str, dst: str) -> list:
        """Node sequence src..dst via BFS (unique in the tree preset)."""
        if src == dst:
            raise ValueError("src == dst")
        prev = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in self.neighbors.get(node, {}):
                    if peer not in prev:
                        prev[peer] = node
                        nxt.append(peer)
            if dst in prev:
                break
            frontier = nxt
        if dst not in prev:
            raise ValueError(f"no path {src} -> {dst}")
        nodes = [dst]
        while prev[nodes[-1]] is not None:
            nodes.append(prev[nodes[-1]])
        return nodes[::-1]


def rack_of(host: str) -> int:
    """Rack index 0..3 for preset host names h1..h12."""
    return (int(host[1:]) - 1) // 3


def paper_preset(link_rate_bps: int = GBPS, prop_delay_ns: int = 0,
                 hop_proc_ns: int = 0) -> Topology:
    """12 hosts, 4 racks of 3, one ToR each, one root, all links equal rate."""
    hosts = [f"h{i}" for i in range(1, 13)]
    tors = [f"t{i}" for i in range(1, 5)]
    links = []
    for i, host in enumerate(hosts):
        links.append(Link(host, tors[i // 3], link_rate_bps, prop_delay_ns))
    for tor in tors:
        links.append(Link(tor, "root", link_rate_bps, prop_delay_ns))
    topo = Topology(hosts=hosts, switches=tors + ["root"], links=links,
                    hop_proc_ns=hop_proc_ns)
    topo.validate()
    return topo
