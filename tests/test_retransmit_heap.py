"""The NI's deadline heap expires packets in the old scan's order.

``RetransmissionManager.tick`` pops expired entries off a heap instead
of scanning every outstanding packet each cycle.  ``_scan_tick`` below
is the scan it replaced; a manager driven with it must make the same
timeout purges in the same order, and end with the same counters, as
the heap-driven one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.faults import FaultSchedule, FaultSpec, kill_routers
from repro.faults.retransmit import RetransmissionManager
from repro.noc.flit import Packet, reset_packet_ids
from repro.noc.topology import Mesh
from repro.traffic.patterns import pattern_by_name
from repro.traffic.runner import run_synthetic
from tests.test_purge_differential import _east


def _scan_tick(self, cycle):
    """The O(outstanding) tick the deadline heap replaced."""
    if self._retry_queue:
        retries, self._retry_queue = self._retry_queue, []
        for packet in retries:
            self._resend(packet, cycle)
    if not self._outstanding:
        return
    expired = [
        entry
        for entry in self._outstanding.values()
        if cycle >= entry.deadline
    ]
    for entry in expired:
        self._retry(entry, cycle, purge=True)


class _ScanManager(RetransmissionManager):
    tick = _scan_tick


class _StubNetwork:
    """Just enough of a network for the NI: it logs every purge."""

    def __init__(self):
        self.cycle = 0
        self.faults = None
        self.obs = None
        self.topology = Mesh(4)
        self.purged = []

    def enqueue(self, packet, retransmit=False):
        return True

    def purge_packet(self, packet):
        self.purged.append((self.cycle, packet.packet_id))
        return True


def _drive(manager_cls, script, packets=8):
    network = _StubNetwork()
    ni = manager_cls(network, timeout=4, max_retries=3, backoff_factor=1.0)
    pool = [
        Packet(src=0, dst=5, num_flits=1, created_at=0, packet_id=k,
               measured=k % 2 == 0)
        for k in range(packets)
    ]
    for op, k, arg in script:
        packet = pool[k % packets]
        if op == "send":
            ni.send(packet)
        elif op == "deliver":
            packet.corrupted = arg % 3 == 0
            ni.on_delivery(packet, network.cycle)
        elif op == "loss":
            ni.on_loss(packet, "fault", network.cycle)
        else:  # advance the clock by ``arg`` cycles, ticking once
            network.cycle += arg
            ni.tick(network.cycle)
    return (
        network.purged,
        ni.summary(),
        ni.losses,
        list(ni._outstanding),
        [p.packet_id for p in ni._retry_queue],
        ni.outstanding_measured(),
    )


_ops = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("deliver"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("loss"), st.integers(0, 7), st.just(0)),
    # Ticks with gaps let many deadlines come due in one tick.
    st.tuples(st.just("tick"), st.just(0), st.integers(0, 12)),
)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(_ops, max_size=80))
def test_expiry_order_matches_scan(script):
    assert _drive(RetransmissionManager, script) == _drive(_ScanManager, script)


def test_shared_deadlines_expire_in_table_order():
    # Eight packets share one deadline; two are re-sent while still
    # outstanding (keeping their place in the table), one is delivered
    # in between, and a single late tick expires the rest.
    script = [("send", k, 0) for k in range(8)]
    script += [("send", 5, 0), ("send", 2, 0), ("deliver", 3, 1)]
    script += [("tick", 0, 9)]
    heap = _drive(RetransmissionManager, script)
    assert heap == _drive(_ScanManager, script)
    assert [pid for _, pid in heap[0]] == [0, 1, 2, 4, 5, 6, 7]


def _faulted_result():
    reset_packet_ids()
    network = build_network(layout_by_name("diagonal+BL", 4), topology=Mesh(4))
    specs = kill_routers([5, 10], at=40).specs + (
        FaultSpec(kind="bit_flip", router=1, port=_east(1)),
    )
    result = run_synthetic(
        network,
        pattern_by_name("uniform_random", network.topology),
        rate=0.08,
        warmup_packets=20,
        measure_packets=100,
        seed=3,
        faults=FaultSchedule(
            specs=specs, retransmit_timeout=128, max_retries=2,
            backoff_factor=1.5,
        ),
    )
    return (
        result.resilience,
        result.total_cycles,
        [tuple(vars(r).values()) for r in result.stats.records],
    )


def test_bitflip_and_kill_run_summary_matches_scan(monkeypatch):
    heap = _faulted_result()
    monkeypatch.setattr(RetransmissionManager, "tick", _scan_tick)
    scan = _faulted_result()
    assert heap == scan
    resilience = heap[0]
    assert resilience["corrupt_deliveries"] > 0
    assert resilience["retransmissions"] > 0

