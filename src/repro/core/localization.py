"""Fault localization over Debuglet segment measurements.

Implements the paper's measurement-selection strategies (§IV-B, §VI-D):

- **exhaustive** — measure every consecutive inter-domain link plus the
  whole path, then attribute residual degradation to AS interiors by
  decomposition (the Fig 6 procedure generalized);
- **binary** — the §VI-D binary search: split the path at its midpoint,
  recurse into faulty halves; interior faults of the split AS are inferred
  when a faulty interval has two clean halves;
- **linear** — scan growing prefixes from the client side, then
  disambiguate link vs interior with one extra link measurement.

A :class:`FaultJudge` compares each measurement against a baseline
expectation (analytic from the topology, or calibrated), and the localizer
returns a report with suspects, the measurements spent, and time-to-locate
— the §VI-D cost/time trade-off. The vantage and location helpers below
are shared with the campaign engine (:mod:`repro.perf.shardloop`), which
drives the same plans on the vectorized fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.core.locplans import SuspectSpec, drive_plan, make_plan
from repro.core.probing import SegmentMeasurement, SegmentProber, Vantage
from repro.netsim.faults import FaultLocation
from repro.netsim.packet import Protocol
from repro.netsim.topology import Topology
from repro.pathaware.segments import PathSegment


def client_vantage(path: PathSegment, index: int) -> Vantage:
    """The probing-side vantage at on-path AS ``index`` (egress first)."""
    hop = path.hops[index]
    interface = hop.egress if hop.egress is not None else hop.ingress
    if interface is None:
        raise ConfigurationError(f"AS {hop.asn} has no on-path interface")
    return (hop.asn, interface)


def server_vantage(path: PathSegment, index: int) -> Vantage:
    """The echoing-side vantage at on-path AS ``index`` (ingress first)."""
    hop = path.hops[index]
    interface = hop.ingress if hop.ingress is not None else hop.egress
    if interface is None:
        raise ConfigurationError(f"AS {hop.asn} has no on-path interface")
    return (hop.asn, interface)


def location_for(path: PathSegment, spec: SuspectSpec) -> FaultLocation:
    """Resolve a plan's suspect spec to a concrete location on ``path``."""
    kind, index = spec
    if kind == "link":
        egress, ingress = path.inter_domain_links()[index]
        return FaultLocation(link=(egress, ingress))
    return FaultLocation(asn=path.hops[index].asn)


def location_matches(suspect: FaultLocation, truth: FaultLocation) -> bool:
    """Does ``suspect`` name ``truth`` (a link matches either way)?"""
    if suspect == truth:
        return True
    return (
        suspect.link is not None
        and truth.link is not None
        and set(suspect.link) == set(truth.link)
    )


def estimate_baseline_rtt(
    topology: Topology,
    segment: PathSegment,
    *,
    sandbox_overhead: float = 300e-6,
) -> float:
    """Analytic no-fault RTT for a D2D measurement over ``segment``.

    Sums propagation both ways over the inter-domain links and the
    interior delays of transit ASes, plus the sandbox host-switch
    overhead. Queueing under benign load is not included — judges should
    allow slack on top of this.
    """
    total = sandbox_overhead
    for a, b in segment.inter_domain_links():
        total += topology.channel_between(a, b).base_delay
        total += topology.channel_between(b, a).base_delay
    hops = segment.as_list()
    for hop in hops:
        asys = topology.autonomous_system(hop.asn)
        if hop.ingress is not None and hop.egress is not None:
            total += 2 * asys.internal_delay  # transit both directions
    return total


@dataclass
class SegmentVerdict:
    """One judged measurement."""

    measurement: SegmentMeasurement
    baseline_rtt_ms: float
    faulty: bool
    reasons: list[str] = field(default_factory=list)


@dataclass
class FaultJudge:
    """Decides whether a segment measurement indicates a fault.

    A segment is faulty when loss exceeds ``loss_threshold``, or the mean
    RTT exceeds baseline by both the absolute slack and the relative
    factor (both must trip, so short segments are not flagged by noise).
    """

    loss_threshold: float = 0.02
    rtt_slack_ms: float = 2.0
    rtt_factor: float = 1.3

    def judge(
        self, measurement: SegmentMeasurement, baseline_rtt_ms: float
    ) -> SegmentVerdict:
        reasons: list[str] = []
        if not measurement.ok:
            reasons.append("execution failed")
            return SegmentVerdict(measurement, baseline_rtt_ms, True, reasons)
        loss = measurement.loss_rate()
        if loss > self.loss_threshold:
            reasons.append(f"loss {loss:.3f} > {self.loss_threshold}")
        mean = measurement.mean_rtt_ms()
        threshold = max(
            baseline_rtt_ms + self.rtt_slack_ms, baseline_rtt_ms * self.rtt_factor
        )
        if not math.isnan(mean) and mean > threshold:
            reasons.append(
                f"rtt {mean:.3f} ms > threshold {threshold:.3f} ms "
                f"(baseline {baseline_rtt_ms:.3f})"
            )
        return SegmentVerdict(measurement, baseline_rtt_ms, bool(reasons), reasons)


@dataclass
class LocalizationReport:
    """What a localization run concluded and what it cost."""

    path: PathSegment
    strategy: str
    suspects: list[FaultLocation]
    verdicts: list[SegmentVerdict]
    started_at: float
    finished_at: float

    @property
    def measurements_used(self) -> int:
        return len(self.verdicts)

    @property
    def time_to_locate(self) -> float:
        return self.finished_at - self.started_at

    def found(self, location: FaultLocation) -> bool:
        """Did the report name ``location`` (link matched either way)?"""
        return any(location_matches(s, location) for s in self.suspects)


class FaultLocalizer:
    """Runs a strategy of segment measurements to localize path faults.

    The strategy decision logic lives in :mod:`repro.core.locplans` as
    engine-neutral measurement plans; this class drives a plan against
    the event-driven :class:`~repro.core.probing.SegmentProber` (or the
    duck-typed :class:`~repro.core.fastprobe.FastSegmentProber`). The
    campaign engine (:mod:`repro.perf.shardloop`) drives the *same* plans
    through the same :func:`~repro.core.locplans.drive_plan`, which is
    what keeps the engines' measurement sequences identical.
    """

    STRATEGIES = ("exhaustive", "binary", "linear", "guided")

    def __init__(
        self,
        prober: SegmentProber,
        *,
        judge: FaultJudge | None = None,
        protocol: Protocol = Protocol.UDP,
        baseline: Callable[[PathSegment], float] | None = None,
    ) -> None:
        self.prober = prober
        self.judge = judge or FaultJudge()
        self.protocol = protocol
        topology = prober.network.topology
        self._baseline = baseline or (
            lambda segment: estimate_baseline_rtt(topology, segment)
        )

    def _measure(self, path: PathSegment, i: int, j: int) -> SegmentVerdict:
        """Measure the sub-path between on-path AS indices ``i < j``."""
        asns = path.asns()
        segment = path.subsegment(asns[i], asns[j])
        client = client_vantage(path, i)
        server = server_vantage(path, j)
        measurement = self.prober.measure_sync(
            client, server, segment, protocol=self.protocol
        )
        baseline_ms = self._baseline(segment) * 1e3
        return self.judge.judge(measurement, baseline_ms)

    # -------------------------------------------------------- strategies

    def localize(
        self,
        path: PathSegment,
        *,
        strategy: str = "binary",
        hint: FaultLocation | None = None,
    ) -> LocalizationReport:
        """Run ``strategy`` over ``path`` and report suspects.

        The ``guided`` strategy (§VI-D: "educated initial guesses,
        historical data") checks ``hint`` first with the minimal bracketing
        measurements and falls back to binary search when the hint does
        not pan out.
        """
        if strategy not in self.STRATEGIES:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if strategy == "guided" and hint is None:
            raise ConfigurationError("guided strategy requires a hint")
        if path.length < 1:
            raise ConfigurationError("path must cross at least one link")
        started = self.prober.network.simulator.now
        verdicts: list[SegmentVerdict] = []

        def measure(i: int, j: int) -> bool:
            verdict = self._measure(path, i, j)
            verdicts.append(verdict)
            return verdict.faulty

        plan = make_plan(
            strategy,
            path.length,
            hint=hint_spec_for(path, hint) if hint is not None else None,
        )
        specs = drive_plan(plan, measure)
        suspects = [location_for(path, spec) for spec in specs]
        finished = self.prober.network.simulator.now
        return LocalizationReport(
            path=path,
            strategy=strategy,
            suspects=suspects,
            verdicts=verdicts,
            started_at=started,
            finished_at=finished,
        )


def hint_spec_for(path: PathSegment, hint: FaultLocation) -> SuspectSpec | None:
    """Resolve a :class:`FaultLocation` hint to on-path plan indices.

    Returns ``("link", i)`` when the hint names the path's i-th crossed
    link (either direction), ``("interior", k)`` when it names the k-th
    on-path AS, or ``None`` when the hint is off-path (the guided plan
    then degenerates to binary search).
    """
    if hint.link is not None:
        for index, (a, b) in enumerate(path.inter_domain_links()):
            if {a, b} == set(hint.link):
                return ("link", index)
        return None
    if hint.asn is not None:
        asns = path.asns()
        if hint.asn in asns:
            return ("interior", asns.index(hint.asn))
    return None
