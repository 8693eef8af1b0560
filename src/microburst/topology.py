"""The 12-host two-tier preset: hosts, switches, links and routes.

The preset mirrors a small two-tier testbed: 12 hosts in 4 racks of 3,
one top-of-rack switch per rack, one root switch, every link 1 Gbps.
With store-and-forward switching and zero configured propagation and
processing delay, a full-size data segment plus its ACK cross four links
each way, giving an unloaded inter-rack RTT of

    4 * 12us (1500B at 1Gbps) + 4 * 0.512us (64B ACK) ~= 50.05us

which is the ~50us the preset is meant to realize.
"""

HOSTS = tuple(f"h{i}" for i in range(1, 13))
TORS = ("t1", "t2", "t3", "t4")
ROOT = "root"


def tor_of(host: str) -> str:
    """Top-of-rack switch of preset host h1..h12 (racks of 3)."""
    return TORS[(int(host[1:]) - 1) // 3]


# undirected links: every host uplink, then every ToR uplink
LINKS = (tuple((host, tor_of(host)) for host in HOSTS)
         + tuple((tor, ROOT) for tor in TORS))

# every output port, one per link direction, as (port id "<from>-><to>",
# leaves a host, leads to the root, leads to a switch); built once, so a
# run's network reads each port's role instead of deriving it
PORT_TABLE = tuple((f"{a}->{b}", a in HOSTS, b == ROOT, b not in HOSTS)
                   for link in LINKS for a, b in (link, link[::-1]))
PORT_IDS = tuple(port_id for port_id, *_ in PORT_TABLE)


def path(src: str, dst: str) -> list:
    """Node sequence src..dst: through the shared ToR within a rack, else
    up to the root and down."""
    up, down = tor_of(src), tor_of(dst)
    if up == down:
        return [src, up, dst]
    return [src, up, ROOT, down, dst]


def _switch_ports_into(dst: str) -> frozenset:
    """Ids of the switch ports on some path into ``dst``: every hop of a
    route but the first, which leaves the sending host."""
    hops = set()
    for src in HOSTS:
        if src != dst:
            nodes = path(src, dst)
            hops.update(zip(nodes[1:], nodes[2:]))
    return frozenset(f"{a}->{b}" for a, b in hops)


# host -> the switch ports its data can cross, so the only ports whose
# marking a flow to it can see (ACKs are never marked)
PORTS_INTO = {dst: _switch_ports_into(dst) for dst in HOSTS}
