"""Vectorized fast path for open-loop probe studies.

The §II motivation experiments push millions of probes through
:meth:`DirectedChannel.transit`, paying several heap events and 2–4 scalar
RNG calls per packet. For *open-loop* probe trains — a fixed send schedule
with no feedback, exactly the :class:`~repro.netsim.traffic.MultiProtocolProber`
shape — every per-packet quantity is an independent function of the send
time, so an entire train can be simulated as numpy array operations.

**Equivalence contract.** :func:`simulate_cell` produces a
:class:`~repro.netsim.trace.MeasurementTrace` whose per-protocol
mean/std/loss statistics match the event-driven reference within sampling
tolerance (property-tested in ``tests/properties/test_prop_fastpath.py``).
It is *not* bit-identical: the fast path draws its randomness from a
per-cell stream derived via the standard ``derive_rng`` scheme, which also
makes every cell independent — serial and process-parallel execution give
identical results. The fast path deliberately skips two effects that are
negligible for paper-style probing and documented in DESIGN.md:

- the Lindley self-queueing term (probe interarrival ≫ transmission time
  for one-per-second 64-byte probes on multi-Gbps channels), and
- sub-RTT drift of the congestion/churn evaluation instant (processes
  vary over minutes-to-hours; a probe crosses a channel in milliseconds).

Channel features that *would* change results are refused with
:class:`FastPathUnsupported` — fault overlays, flowlet ECMP, expired TTL
budgets — so callers can fall back to the event-driven reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_seed
from repro.netsim.conduit import DirectedChannel
from repro.netsim.ecmp import HashGranularity
from repro.netsim.packet import Address, Packet, Protocol
from repro.netsim.trace import MeasurementTrace

DAY = 86400.0


class FastPathUnsupported(SimulationError):
    """The scenario uses a feature the vectorized path cannot reproduce."""


@dataclass(frozen=True)
class CongestionParams:
    """Picklable snapshot of a :class:`CongestionProcess`."""

    base: float
    amplitude: float
    phase: float
    bursts: tuple[tuple[float, float, float], ...]  # (start, end, magnitude)
    queue_service_time: float
    queue_shape: float
    priority_fraction: float
    drop_threshold: float
    drop_scale: float

    def utilization(self, t: np.ndarray) -> np.ndarray:
        u = np.full(t.shape, self.base)
        if self.amplitude:
            u += self.amplitude * np.sin(2.0 * math.pi * t / DAY + self.phase)
        for start, end, magnitude in self.bursts:
            u += magnitude * ((t >= start) & (t < end))
        return np.clip(u, 0.0, 0.99)


@dataclass(frozen=True)
class OverlayWindow:
    """Picklable snapshot of a protocol-filtered :class:`FaultOverlay`.

    Fault overlays are *time windows*: a probe is only affected when its
    traversal instant falls inside ``[start, end)``. That makes them
    vectorizable with boolean masks — the generalization (PR 10) that
    lets the fast path run full localization campaigns, where injected
    faults are the entire point of the workload.
    """

    start: float
    end: float
    extra_delay: float = 0.0
    extra_loss: float = 0.0
    blackhole: bool = False
    extra_jitter: float = 0.0


@dataclass(frozen=True)
class ChannelStage:
    """One channel traversal of a probe's round trip, vectorizable."""

    base_delay: float
    transmission: float
    priority: bool
    extra_delay: float
    base_drop: float
    drop_multiplier: float
    jitter_base: float  # jitter_std + treatment.extra_jitter
    route_offsets: tuple[float, ...]
    route_jitters: tuple[float, ...]
    route_weights: tuple[float, ...]  # normalized; () when route is fixed
    fixed_route: int  # used when route_weights is empty
    congestion: CongestionParams
    churn: tuple[tuple[float, float, float], ...]  # (start, end, delta)
    overlays: tuple[OverlayWindow, ...] = ()


@dataclass(frozen=True)
class ProbeCell:
    """One (probe train) cell: schedule plus its round-trip stages."""

    label: str
    protocol: Protocol
    count: int
    interval: float
    start: float
    timeout: float
    seed: int
    stages: tuple[ChannelStage, ...]


# --------------------------------------------------------------- extraction


def _stage_from_channel(
    channel: DirectedChannel, packet: Packet, *, allow_overlays: bool = False
) -> ChannelStage:
    """Snapshot ``channel`` as seen by ``packet``'s protocol.

    ``allow_overlays`` opts in to vectorized fault-overlay windows (the
    localization fast path); the default preserves PR 1's refusal
    contract for callers that predate overlay support.
    """
    overlays: tuple[OverlayWindow, ...] = ()
    if channel.overlays:
        if not allow_overlays:
            raise FastPathUnsupported(
                f"channel {channel.name} has fault overlays; "
                "use the event-driven path"
            )
        overlays = tuple(
            OverlayWindow(
                start=o.start,
                end=o.end,
                extra_delay=o.extra_delay,
                extra_loss=o.extra_loss,
                blackhole=o.blackhole,
                extra_jitter=o.extra_jitter,
            )
            for o in channel.overlays
            if o.protocols is None or packet.protocol in o.protocols
        )
    treatment = channel.treatment.for_protocol(packet.protocol)
    if channel.priority_addresses and (
        packet.src in channel.priority_addresses
        or packet.dst in channel.priority_addresses
    ):
        treatment = replace(treatment, priority=True, drop_multiplier=0.0)

    ecmp = channel.ecmp_for(packet.protocol)
    granularity = treatment.ecmp_granularity
    offsets = tuple(route.delay_offset for route in ecmp.routes)
    jitters = tuple(route.jitter for route in ecmp.routes)
    if granularity is HashGranularity.PER_PACKET and len(ecmp) > 1:
        total = sum(route.weight for route in ecmp.routes)
        weights = tuple(route.weight / total for route in ecmp.routes)
        fixed = 0
    elif granularity is HashGranularity.PER_FLOWLET and len(ecmp) > 1:
        raise FastPathUnsupported(
            f"channel {channel.name}: flowlet ECMP is time-dependent"
        )
    else:
        # SINGLE always picks route 0; PER_FLOW / PER_DEST hash quantities
        # that are constant across an open-loop train, so the event-driven
        # selection is a fixed index we can compute exactly.
        weights = ()
        fixed = ecmp.select(packet, 0.0, granularity)

    congestion = channel.congestion
    config = congestion.config
    bursts = tuple(
        (burst.start, burst.end, burst.magnitude)
        for burst in (congestion._bursts + congestion._extra)
    )
    churn = tuple(
        (shift.start, shift.end, shift.delta)
        for shift in channel.churn.shifts
        if shift.protocols is None or packet.protocol in shift.protocols
    )
    return ChannelStage(
        base_delay=channel.base_delay,
        transmission=channel.transmission_time(packet.size),
        priority=treatment.priority,
        extra_delay=treatment.extra_delay,
        base_drop=treatment.base_drop,
        drop_multiplier=treatment.drop_multiplier,
        jitter_base=channel.jitter_std + treatment.extra_jitter,
        route_offsets=offsets,
        route_jitters=jitters,
        route_weights=weights,
        fixed_route=fixed,
        congestion=CongestionParams(
            base=config.base_utilization,
            amplitude=config.diurnal_amplitude,
            phase=config.diurnal_phase,
            bursts=bursts,
            queue_service_time=config.queue_service_time,
            queue_shape=config.queue_shape,
            priority_fraction=config.priority_backlog_fraction,
            drop_threshold=config.drop_threshold,
            drop_scale=config.drop_scale,
        ),
        churn=churn,
        overlays=overlays,
    )


def extract_probe_cell(
    network,
    client,
    server_address,
    protocol: Protocol,
    *,
    count: int,
    interval: float,
    start: float,
    size: int = 64,
    timeout: float = 5.0,
    src_port: int = 0,
    dst_port: int = 7,
    seed: int = 0,
    label: str = "",
) -> ProbeCell:
    """Snapshot one echo-probe train as a vectorizable :class:`ProbeCell`.

    Walks the same trails the event-driven path would use (probe out,
    echo reply back) and converts every traversed channel into a
    :class:`ChannelStage`. Raises :class:`FastPathUnsupported` when the
    scenario relies on effects only the event-driven path models.
    """
    if count <= 0:
        raise ConfigurationError("probe count must be positive")
    if interval <= 0:
        raise ConfigurationError("probe interval must be positive")
    server_host = network.hosts.get(server_address)
    if server_host is None:
        raise FastPathUnsupported(f"no host at {server_address}")
    if protocol not in server_host.echo_protocols:
        raise FastPathUnsupported(
            f"{server_address} does not echo {protocol.name}"
        )
    probe = Packet(
        src=client.address,
        dst=server_address,
        protocol=protocol,
        size=size,
        src_port=src_port,
        dst_port=dst_port,
    )
    reply = probe.reply_to()
    stages = []
    for packet in (probe, reply):
        trail = network._build_trail(packet, None)
        for segment in trail:
            stages.append(_stage_from_channel(segment.channel, packet))
    return ProbeCell(
        label=label,
        protocol=protocol,
        count=count,
        interval=interval,
        start=start,
        timeout=timeout,
        seed=seed,
        stages=tuple(stages),
    )


def extract_segment_cell(
    topology,
    segment,
    protocol: Protocol,
    *,
    client_vantage: tuple[int, int],
    server_vantage: tuple[int, int],
    count: int,
    interval: float,
    start: float,
    size: int = 64,
    timeout: float = 5.0,
    dst_port: int = 7,
    seed: int = 0,
    label: str = "",
    allow_overlays: bool = True,
) -> ProbeCell:
    """Snapshot a D2D segment measurement as a vectorizable cell.

    The generalization of :func:`extract_probe_cell` to the localization
    workloads (§IV-B, Fig 6): a probe train between two border-router
    vantage points over a *pinned* :class:`~repro.pathaware.segments.PathSegment`,
    echoed back over its reverse — exactly the round trip
    :class:`~repro.core.probing.SegmentProber` runs with paired echo
    Debuglets. Fault overlays are vectorized by default here (a
    localization campaign is *about* injected faults); pass
    ``allow_overlays=False`` to restore the PR 1 refusal behavior.
    """
    if count <= 0:
        raise ConfigurationError("probe count must be positive")
    if interval <= 0:
        raise ConfigurationError("probe interval must be positive")
    hops = segment.as_list()
    if hops[0].asn != client_vantage[0] or hops[-1].asn != server_vantage[0]:
        raise ConfigurationError("segment does not join the two vantage points")
    client_attachment = f"if{client_vantage[1]}"
    server_attachment = f"if{server_vantage[1]}"
    probe = Packet(
        src=_vantage_address(client_vantage),
        dst=_vantage_address(server_vantage),
        protocol=protocol,
        size=size,
        dst_port=dst_port,
    )
    legs = (
        (probe, hops, client_attachment, server_attachment),
        (probe.reply_to(), segment.reversed().as_list(),
         server_attachment, client_attachment),
    )
    stages = [
        _stage_from_channel(channel, packet, allow_overlays=allow_overlays)
        for packet, path, src, dst in legs
        for channel, _, _ in topology.trail_channels(path, src, dst)
    ]
    return ProbeCell(
        label=label,
        protocol=protocol,
        count=count,
        interval=interval,
        start=start,
        timeout=timeout,
        seed=seed,
        stages=tuple(stages),
    )


def _vantage_address(vantage: tuple[int, int]) -> "Address":
    """The data address an executor deployed at ``vantage`` would use.

    Mirrors ``repro.core.executor.executor_data_address`` (kept in sync
    by a unit test) rather than importing it: netsim sits below core in
    the layering.
    """
    asn, interface = vantage
    return Address(asn, f"exec{interface}")


# --------------------------------------------------------------- simulation


def simulate_cell_arrays(cell: ProbeCell) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one open-loop probe train entirely as array operations.

    Returns ``(send_times, rtts)`` with NaN rtt marking a lost probe —
    the raw form :mod:`repro.perf.parallel` ships across process
    boundaries (two float arrays pickle far cheaper than per-probe record
    objects). Pure function of ``cell`` (including its embedded seed):
    calling it from any process or in any order yields bit-identical
    arrays, which is what makes the parallel fan-out safe.
    """
    rng = np.random.default_rng(cell.seed)
    n = cell.count
    send_times = cell.start + cell.interval * np.arange(n, dtype=np.float64)
    t = send_times.copy()  # arrival instant at the current stage
    delivered = np.ones(n, dtype=bool)

    for stage in cell.stages:
        congestion = stage.congestion
        u = congestion.utilization(t)

        # Fault-overlay activity masks: which probes traverse this
        # channel inside each overlay's [start, end) window.
        overlay_masks: list[tuple[OverlayWindow, np.ndarray]] = []
        if stage.overlays:
            overlay_masks = [
                (o, (t >= o.start) & (t < o.end)) for o in stage.overlays
            ]

        # Drop decision: protocol floor + congestion loss + overlays.
        drop_probability = np.full(n, stage.base_drop)
        excess = u - congestion.drop_threshold
        over = excess > 0.0
        if over.any():
            drop_probability = drop_probability + np.where(
                over,
                congestion.drop_scale * excess * excess * stage.drop_multiplier,
                0.0,
            )
        for overlay, mask in overlay_masks:
            if overlay.blackhole:
                delivered &= ~mask
            if overlay.extra_loss:
                drop_probability = drop_probability + overlay.extra_loss * mask
        if drop_probability.max() > 0.0:
            delivered &= rng.random(n) >= np.minimum(drop_probability, 1.0)

        # Route choice.
        if stage.route_weights:
            cumulative = np.cumsum(stage.route_weights)
            cumulative[-1] = 1.0
            indices = np.searchsorted(cumulative, rng.random(n), side="right")
            route_offset = np.asarray(stage.route_offsets)[indices]
            route_jitter = np.asarray(stage.route_jitters)[indices]
        else:
            route_offset = stage.route_offsets[stage.fixed_route]
            route_jitter = stage.route_jitters[stage.fixed_route]

        # Cross-traffic queueing (gamma with the class-appropriate mean).
        mean_queue = u / (1.0 - u) * congestion.queue_service_time
        if stage.priority:
            mean_queue = mean_queue * congestion.priority_fraction
        shape = congestion.queue_shape
        queue = rng.standard_gamma(shape, n) * (mean_queue / shape)

        # Per-packet jitter (folded normal), scale possibly per-route.
        jitter_scale = stage.jitter_base + route_jitter
        if np.any(jitter_scale > 0.0):
            jitter = np.abs(rng.standard_normal(n)) * jitter_scale
        else:
            jitter = 0.0

        # Route churn offset in effect at the traversal instant.
        churn_offset = 0.0
        if stage.churn:
            churn_offset = np.zeros(n)
            for start, end, delta in stage.churn:
                churn_offset += delta * ((t >= start) & (t < end))

        # Overlay delay/jitter, masked to each overlay's active window.
        overlay_delay = 0.0
        if overlay_masks:
            overlay_delay = np.zeros(n)
            for overlay, mask in overlay_masks:
                if overlay.extra_delay:
                    overlay_delay += overlay.extra_delay * mask
                if overlay.extra_jitter:
                    overlay_delay += (
                        np.abs(rng.standard_normal(n)) * overlay.extra_jitter * mask
                    )

        t = t + (
            stage.base_delay
            + stage.transmission
            + queue
            + route_offset
            + churn_offset
            + stage.extra_delay
            + overlay_delay
            + jitter
        )

    rtts = t - send_times
    rtts[~delivered | (rtts > cell.timeout)] = np.nan
    return send_times, rtts


def simulate_cell(cell: ProbeCell) -> MeasurementTrace:
    """Simulate ``cell`` and wrap the result as a :class:`MeasurementTrace`."""
    send_times, rtts = simulate_cell_arrays(cell)
    return MeasurementTrace.from_arrays(
        cell.protocol, send_times, rtts, label=cell.label
    )


def cell_seed(seed: int, *labels: str | int) -> int:
    """Per-cell seed via the standard derivation scheme.

    ``derive_seed(seed, "fastpath", *labels)`` — a pure function of the
    labels, so cells get the same stream whether simulated serially, in a
    different order, or in worker processes.
    """
    return derive_seed(seed, "fastpath", *labels)
