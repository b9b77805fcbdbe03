"""Differential oracle for ``Network.purge_packet``.

``purge_packet`` visits only what the fault injector's per-packet
location index recorded: the input VCs the packet's head entered and the
downstream VCs it claimed.  :func:`full_scan_purge` below is the purge
it replaced, which scans every router x port x VC, every link event and
every ``out_vc_owner`` slot.  The tests deep-copy a faulted network mid
run, purge the same packet once with each version and require the whole
network state, and the return values, to agree -- including when the
run then continues, so the index must stay a usable superset after a
purge as well.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.faults.retransmit import RetransmissionManager
from repro.faults.routing import FaultAwareRouting
from repro.noc.flit import (
    packet_id_marker,
    reset_packet_ids,
    seed_packet_ids,
)
from repro.noc.topology import Mesh


def full_scan_purge(network, packet) -> bool:
    """The O(network) reference purge (no location index)."""
    network._deactivate_ck()
    pid = packet.packet_id
    topo = network.topology
    found = False

    source = network.sources[packet.src]
    if packet in source.queue:
        source.queue.remove(packet)
        found = True
    if source.flits and source.flits[0].packet is packet:
        source.flits = []
        source.next_flit = 0
        source.vc = None
        found = True

    for router in network.routers:
        rid = router.router_id
        for (port, vc) in list(router._active):
            state = router._vc_states[port][vc]
            before = len(state.queue)
            if any(f.packet is packet for f in state.queue):
                kept = [f for f in state.queue if f.packet is not packet]
                state.queue.clear()
                state.queue.extend(kept)
            removed = before - len(state.queue)
            if removed:
                found = True
                router.occupied_flits -= removed
                if not state.queue and router._active.pop((port, vc), None):
                    router._port_active[port] -= 1
                if not topo.is_local_port(rid, port):
                    upstream = topo.neighbor(rid, port)
                    if upstream is not None and network._element_alive(
                        *upstream
                    ):
                        up_router, up_port = upstream
                        for _ in range(removed):
                            network.routers[up_router].return_credit(
                                up_port, vc
                            )
        for port in range(router.num_ports):
            for vc in range(router.config.num_vcs):
                if router._vc_states[port][vc].packet_id == pid:
                    router._vc_states[port][vc].reset_packet()
                    found = True

    for when in list(network._arrivals):
        events = network._arrivals[when]
        kept_events = []
        for event in events:
            router_id, port, vc, flit = event
            if flit.packet is not packet:
                kept_events.append(event)
                continue
            found = True
            upstream = topo.neighbor(router_id, port)
            if upstream is not None and network._element_alive(*upstream):
                network.routers[upstream[0]].return_credit(upstream[1], vc)
        if kept_events:
            network._arrivals[when] = kept_events
        else:
            del network._arrivals[when]

    released = set()
    for router in network.routers:
        for port in range(router.num_ports):
            owners = router.out_vc_owner[port]
            for vc, owner in enumerate(owners):
                if owner == pid:
                    owners[vc] = None
                    released.add((router.router_id, port, vc))
    if released:
        for when, events in network._credits.items():
            network._credits[when] = [
                (rid, port, vc, release and (rid, port, vc) not in released)
                for rid, port, vc, release in events
            ]

    if found:
        network.packets_in_flight -= 1
    return found


def _state(net):
    """Everything a purge may touch, in comparable form."""
    routers = []
    for router in net.routers:
        vcs = tuple(
            (
                state.packet_id,
                state.route_port,
                state.out_vc,
                tuple((f.packet.packet_id, f.index) for f in state.queue),
            )
            for states in router._vc_states
            for state in states
        )
        routers.append((
            vcs,
            tuple(router._active),
            tuple(router._port_active),
            router.occupied_flits,
            tuple(tuple(credits) for credits in router.out_credits),
            tuple(tuple(owners) for owners in router.out_vc_owner),
        ))
    arrivals = tuple(
        (when, tuple((r, p, v, f.packet.packet_id, f.index) for r, p, v, f in evs))
        for when, evs in sorted(net._arrivals.items())
    )
    credits = tuple(
        (when, tuple(evs)) for when, evs in sorted(net._credits.items())
    )
    sources = tuple(
        (
            tuple(p.packet_id for p in source.queue),
            tuple((f.packet.packet_id, f.index) for f in source.flits),
            source.next_flit,
            source.vc,
        )
        for source in net.sources
    )
    return (
        net.cycle,
        tuple(routers),
        arrivals,
        credits,
        sources,
        net.packets_in_flight,
    )


class _Run:
    """A 4x4 network with the fault stack wired as ``run_synthetic`` does,
    driven by seeded uniform traffic through the NI."""

    def __init__(self, layout, specs, seed, rate=0.12, attach_at=0,
                 kernel="event"):
        reset_packet_ids()
        self.net = build_network(layout_by_name(layout, 4), topology=Mesh(4))
        self.net.use_kernel(kernel)
        self.schedule = FaultSchedule(
            specs=tuple(specs), retransmit_timeout=96, max_retries=3,
            backoff_factor=1.5,
        )
        self.rng = random.Random(seed)
        self.rate = rate
        self.attach_at = attach_at
        self.ni = None
        #: every packet offered, delivered or not, in creation order
        self.packets = []
        #: corrupted deliveries seen during the last step
        self.corrupted = []
        #: this run's packet-id counter, so deep copies stepped in turn
        #: number their packets alike
        self.next_id = packet_id_marker()
        if attach_at == 0:
            self._attach()

    def _attach(self):
        net = self.net
        injector = FaultInjector(self.schedule, net.topology)
        routing = FaultAwareRouting(net.routing, injector)
        injector.set_routing(routing)
        net.routing = routing
        net.attach_faults(injector)
        self.ni = RetransmissionManager(
            net, self.schedule.retransmit_timeout,
            max_retries=self.schedule.max_retries,
            backoff_factor=self.schedule.backoff_factor,
        )
        net.on_delivery = self._delivered
        net.on_loss = self.ni.on_loss

    def _delivered(self, packet, cycle):
        if packet.corrupted:
            self.corrupted.append(packet)
        self.ni.on_delivery(packet, cycle)

    def step(self):
        net = self.net
        seed_packet_ids(self.next_id)
        if self.ni is None and net.cycle >= self.attach_at:
            self._attach()
        self.corrupted = []
        nodes = net.topology.num_nodes
        for node in range(nodes):
            if self.rng.random() < self.rate:
                dst = self.rng.randrange(nodes)
                if dst == node:
                    continue
                packet = net.make_packet(node, dst, payload_bits=256)
                self.packets.append(packet)
                if self.ni is None:
                    net.enqueue(packet)
                else:
                    self.ni.send(packet)
        if self.ni is not None:
            self.ni.tick(net.cycle)
        net.step()
        self.next_id = packet_id_marker()

    def run(self, cycles):
        for _ in range(cycles):
            self.step()


def _check_purge(run, index, continue_cycles=0):
    """Purge ``run.packets[index]`` twice in two deep copies, one per
    version, comparing the state after each purge and after
    ``continue_cycles`` further cycles."""
    indexed = copy.deepcopy(run)
    reference = copy.deepcopy(run)
    for _ in range(2):
        got = indexed.net.purge_packet(indexed.packets[index])
        want = full_scan_purge(reference.net, reference.packets[index])
        assert got == want
        assert _state(indexed.net) == _state(reference.net)
    for _ in range(continue_cycles):
        indexed.step()
        reference.step()
        assert _state(indexed.net) == _state(reference.net)


def _east(router):
    """The port of ``router`` facing its +x neighbour on the 4x4 mesh."""
    topo = Mesh(4)
    for port in range(topo.num_ports(router)):
        neighbor = topo.neighbor(router, port)
        if neighbor is not None and neighbor[0] == router + 1:
            return port
    raise AssertionError(f"router {router} has no east neighbour")


def _kill(routers, at):
    return [FaultSpec(kind="router", router=r, at=at) for r in routers]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    layout=st.sampled_from(["baseline", "diagonal+BL", "center+BL"]),
    kills=st.lists(st.sampled_from([5, 6, 9, 10]), max_size=2, unique=True),
    kill_at=st.integers(0, 60),
    flaky=st.booleans(),
    seed=st.integers(0, 2**16),
    cycles=st.integers(5, 160),
    pick=st.integers(0, 10**6),
)
def test_purge_matches_full_scan(
    layout, kills, kill_at, flaky, seed, cycles, pick
):
    specs = _kill(kills, kill_at)
    if flaky:
        specs.append(FaultSpec(kind="bit_flip", router=1, port=_east(1)))
    run = _Run(layout, specs, seed)
    run.run(cycles)
    if not run.packets:
        return
    _check_purge(run, pick % len(run.packets), continue_cycles=20)


@pytest.mark.parametrize("kernel", ["event", "c"])
def test_attach_mid_run_with_traffic_in_flight(kernel):
    # Attaching seeds the index from the live state: every packet that
    # was already in flight must purge exactly as the full scan does.
    run = _Run("diagonal+BL", _kill([5], 80), seed=3, attach_at=40,
               kernel=kernel)
    run.run(41)
    assert run.net.faults is not None
    in_flight = [
        i for i, p in enumerate(run.packets) if p.received_at is None
    ]
    assert len(in_flight) > 10
    for index in in_flight:
        _check_purge(run, index)
    _check_purge(run, in_flight[0], continue_cycles=80)


def test_purge_at_send_when_destination_unreachable():
    run = _Run("baseline", _kill([6], 0), seed=5)
    run.run(30)
    dead_node = next(
        node for node in range(run.net.topology.num_nodes)
        if run.net.topology.router_of_node(node) == 6
    )

    def send(sim, purge):
        sim.net.purge_packet = purge
        seed_packet_ids(sim.next_id)
        packet = sim.net.make_packet(0, dead_node, payload_bits=256)
        sim.next_id = packet_id_marker()
        sim.packets.append(packet)
        assert sim.ni.send(packet)
        return sim

    indexed = copy.deepcopy(run)
    reference = copy.deepcopy(run)
    purged = []

    def indexed_purge(packet):
        purged.append(packet.packet_id)
        return type(indexed.net).purge_packet(indexed.net, packet)

    send(indexed, indexed_purge)
    send(reference, lambda packet: full_scan_purge(reference.net, packet))
    assert purged == [indexed.packets[-1].packet_id]
    assert _state(indexed.net) == _state(reference.net)
    for _ in range(40):
        indexed.step()
        reference.step()
        assert _state(indexed.net) == _state(reference.net)


def test_purge_after_corrupted_delivery():
    # A delivered packet's index entry is dropped, but its last claims
    # stay owned until their release events land; the purge must still
    # find and release them.
    run = _Run(
        "baseline",
        [FaultSpec(kind="bit_flip", router=r, port=_east(r)) for r in (4, 5, 6)],
        seed=9,
        rate=0.15,
    )
    checked = 0
    while checked < 5 and run.net.cycle < 600:
        run.step()
        for packet in run.corrupted:
            pid = packet.packet_id
            assert pid not in run.net.faults.packet_claims
            owned = any(
                owner == pid
                for router in run.net.routers
                for owners in router.out_vc_owner
                for owner in owners
            )
            if owned:
                _check_purge(run, run.packets.index(packet), continue_cycles=5)
                checked += 1
    assert checked == 5


def test_purge_needs_an_injector():
    reset_packet_ids()
    net = build_network(layout_by_name("baseline", 4), topology=Mesh(4))
    packet = net.make_packet(0, 5, payload_bits=256)
    net.enqueue(packet)
    with pytest.raises(RuntimeError, match="fault injector"):
        net.purge_packet(packet)


@pytest.mark.parametrize(
    "specs",
    [
        _kill([5, 10], 0),
        _kill([6], 50)
        + [FaultSpec(kind="bit_flip", router=1, port=_east(1))],
        [
            FaultSpec(kind="link", router=5, port=_east(5),
                      mode="transient", at=30, repair_after=120),
            FaultSpec(kind="vc_stuck", router=10, port=_east(10), vc=0,
                      at=60),
        ],
    ],
    ids=["two-kills", "kill+bitflip", "transient+stuck"],
)
def test_whole_run_matches_full_scan(specs):
    # Every purge of the run -- fault casualties, NI timeouts and the
    # send path -- goes through the reference in one copy.
    indexed = _Run("diagonal+BL", specs, seed=17)
    reference = _Run("diagonal+BL", specs, seed=17)
    purged = []

    def reference_purge(packet):
        purged.append(packet.packet_id)
        return full_scan_purge(reference.net, packet)

    reference.net.purge_packet = reference_purge
    for _ in range(500):
        indexed.step()
        reference.step()
        assert _state(indexed.net) == _state(reference.net)
    assert indexed.ni.summary() == reference.ni.summary()
    assert purged
