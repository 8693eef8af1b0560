"""Simulated packets: data segments and cumulative ACKs."""

DATA = 0
ACK = 1

ACK_SIZE = 64


class Packet:
    """One simulated packet.

    Data packets carry a byte range [seq_lo, seq_hi); ACKs carry the
    cumulative ack number in `ack_no` plus receiver echo flags.  The route
    is the ordered tuple of output ports the packet still has to traverse;
    `hop` indexes the port currently serializing it.

    The receiver rewrites a delivered data packet into its ACK, and the
    sender keeps the ACK and rewrites it into its next data segment, so in
    steady state one object carries a flow's data -> ACK -> data cycle.
    """

    __slots__ = ("flow_id", "kind", "size", "seq_lo", "seq_hi", "ack_no",
                 "ecn_marked", "ece_echo", "cwr", "first_window",
                 "send_round", "route", "hop")

    def __init__(self, flow_id, kind, size, route,
                 seq_lo=0, seq_hi=0, ack_no=0):
        self.flow_id = flow_id
        self.kind = kind
        self.size = size
        self.seq_lo = seq_lo
        self.seq_hi = seq_hi
        self.ack_no = ack_no
        self.ecn_marked = False
        self.ece_echo = False
        self.cwr = False
        self.first_window = False
        self.send_round = 0
        self.route = route
        self.hop = 0

    def __repr__(self):
        kind = "data" if self.kind == DATA else "ack"
        return (f"Packet({kind} flow={self.flow_id} size={self.size} "
                f"seq=[{self.seq_lo},{self.seq_hi}) ack={self.ack_no})")
