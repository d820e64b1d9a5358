"""The forwarding engine: packets walking AS-level paths over the topology.

``Network`` binds a :class:`~repro.netsim.topology.Topology` to a
:class:`~repro.netsim.engine.Simulator`. Sending a packet expands its AS
path into a *trail* of directed-channel traversals with a border router (or
the destination host) at the end of each; the trail is then walked with one
simulator event per segment. TTL is decremented at every border router,
and routers answer TTL expiry with rate-limited, slow-path ICMP
time-exceeded messages — the behaviour that makes real traceroute both
lossy and unrepresentative of data-packet latency (§II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import SimulationError
from repro.common.rng import derive_buffered_rng
from repro.netsim.conduit import DirectedChannel
from repro.netsim.endhost import Host
from repro.netsim.engine import Simulator
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.netsim.topology import BorderRouter, PathHop, Topology

DropCallback = Callable[[Packet, str, float], None]


@dataclass
class _Segment:
    """One channel traversal; ``router`` set when the segment ends at one."""

    channel: DirectedChannel
    router: BorderRouter | None = None
    host: Host | None = None


@dataclass
class NetworkStats:
    """Aggregate counters for a run."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    ttl_expiries: int = 0
    icmp_generated: int = 0
    drops_by_reason: dict[str, int] = field(default_factory=dict)

    def record_drop(self, reason: str) -> None:
        self.packets_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1


class Network:
    """Packet forwarding over a topology, driven by the event engine."""

    def __init__(self, topology: Topology, simulator: Simulator, *, seed: int = 0) -> None:
        self.topology = topology
        self.simulator = simulator
        self.hosts: dict[Address, Host] = {}
        self.stats = NetworkStats()
        self.on_drop: DropCallback | None = None
        # This stream only ever draws slow-path jitter normals, so the
        # buffered façade serves it from blocks (sequence-identical).
        self._rng = derive_buffered_rng(seed, "network")
        # Default-route trails are pure functions of (src, dst) over a
        # static topology; memoize them. Invalidated when hosts appear.
        self._trail_cache: dict[tuple[Address, Address], list[_Segment]] = {}

    # ------------------------------------------------------------- hosts

    def add_host(self, host: Host) -> Host:
        """Register ``host`` and attach it to this network."""
        if host.address in self.hosts:
            raise SimulationError(f"duplicate host address {host.address}")
        if host.address.asn not in self.topology.ases:
            raise SimulationError(f"host AS {host.address.asn} not in topology")
        self.hosts[host.address] = host
        host.attach(self)
        self.invalidate_routes()
        return host

    def make_host(self, asn: int, name: str, *, attachment: str = "interior", **kwargs) -> Host:
        """Create, register, and return a host in AS ``asn``."""
        host = Host(Address(asn, name), attachment=attachment, **kwargs)
        return self.add_host(host)

    # ------------------------------------------------------------ sending

    def invalidate_routes(self) -> None:
        """Flush memoized trails (topology or host set changed)."""
        self._trail_cache.clear()

    def send(self, packet: Packet, *, path: list[PathHop] | None = None) -> None:
        """Transmit ``packet`` now, along ``path`` or the shortest AS path."""
        self.stats.packets_sent += 1
        packet.send_time = self.simulator.now
        if path is None:
            key = (packet.src, packet.dst)
            trail = self._trail_cache.get(key)
            if trail is None:
                try:
                    trail = self._build_trail(packet, None)
                except SimulationError:
                    self._drop(packet, "unroutable")
                    return
                self._trail_cache[key] = trail
        else:
            try:
                trail = self._build_trail(packet, path)
            except SimulationError:
                self._drop(packet, "unroutable")
                return
        self._advance(packet, trail, 0, self.simulator.now)

    def _build_trail(self, packet: Packet, path: list[PathHop] | None) -> list[_Segment]:
        dst_host = self.hosts.get(packet.dst)
        if path is None:
            path = self.topology.shortest_path(packet.src.asn, packet.dst.asn)
        if not path or path[0].asn != packet.src.asn or path[-1].asn != packet.dst.asn:
            raise SimulationError("path does not join packet source and destination")

        src_host = self.hosts.get(packet.src)
        src_attachment = src_host.attachment if src_host else self._router_attachment(packet.src)
        dst_attachment = dst_host.attachment if dst_host else "interior"

        segments: list[_Segment] = []
        for channel, asn, interface in self.topology.trail_channels(
            path, src_attachment, dst_attachment
        ):
            if interface is None:
                segments.append(_Segment(channel, host=dst_host))
            else:
                router = self.topology.autonomous_system(asn).router(interface)
                segments.append(_Segment(channel, router=router))
        return segments

    def _router_attachment(self, address: Address) -> str:
        """Attachment point for router-originated packets (``brN`` hosts)."""
        if address.host.startswith("br"):
            return f"if{address.host[2:]}"
        return "interior"

    def _advance(self, packet: Packet, trail: list[_Segment], index: int, t: float) -> None:
        if index >= len(trail):
            self._deliver(packet, t)
            return
        segment = trail[index]
        outcome = segment.channel.transit(packet, t)
        if not outcome.delivered:
            self._drop(packet, outcome.drop_reason or "loss")
            return
        arrival = t + outcome.delay
        # Hop events are never cancelled: use the handle-free fast path.
        self.simulator.post(arrival, self._arrive, packet, trail, index, arrival)

    def _arrive(self, packet: Packet, trail: list[_Segment], index: int, t: float) -> None:
        segment = trail[index]
        if segment.router is not None:
            packet.ttl -= 1
            if packet.ttl <= 0:
                self.stats.ttl_expiries += 1
                self._handle_ttl_expiry(packet, segment.router, t)
                return
        self._advance(packet, trail, index + 1, t)

    def _handle_ttl_expiry(self, packet: Packet, router: BorderRouter, t: float) -> None:
        """Drop the packet; maybe emit a slow-path ICMP time-exceeded."""
        self._drop(packet, "ttl_expired")
        if packet.protocol is Protocol.ICMP and packet.icmp_type in (
            IcmpType.TIME_EXCEEDED,
            IcmpType.DEST_UNREACHABLE,
        ):
            return  # never answer ICMP errors with ICMP errors
        if not router.allow_icmp_generation(t):
            return
        self.stats.icmp_generated += 1
        reply = Packet(
            src=router.address,
            dst=packet.src,
            protocol=Protocol.ICMP,
            size=56,
            seq=packet.seq,
            icmp_type=IcmpType.TIME_EXCEEDED,
            payload={
                "original_protocol": packet.protocol.name,
                "original_seq": packet.seq,
                "original_dst_port": packet.dst_port,
            },
        )
        # Control-plane punt: routers generate ICMP on the slow path.
        delay = router.slow_path_delay
        if router.slow_path_jitter:
            delay += abs(float(self._rng.normal(0.0, router.slow_path_jitter)))
        self.simulator.post(self.simulator.now + delay, self.send, reply)

    def _deliver(self, packet: Packet, t: float) -> None:
        host = self.hosts.get(packet.dst)
        if host is None:
            self._drop(packet, "no_such_host")
            return
        self.stats.packets_delivered += 1
        host.deliver(packet, t)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(reason)
        obs = self.simulator.obs
        if obs is not None:
            obs.metrics.counter("net_drops_total", reason=reason).inc()
        if self.on_drop is not None:
            self.on_drop(packet, reason, self.simulator.now)
