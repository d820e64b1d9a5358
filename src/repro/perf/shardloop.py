"""The serial campaign engine for continent-scale localization.

A campaign runs many localization *episodes* — each a strategy plan
(:mod:`repro.core.locplans`) probing one policy path — on the vectorized
fast path (:class:`~repro.core.fastprobe.FastSegmentProber`).
:class:`CampaignEngine` drives each episode's plan to completion through
the shared :func:`~repro.core.locplans.drive_plan`, one episode after
another.

Episode isolation: every measurement's RNG stream is derived from
``(seed, episode, step)``, never from a shared clock or issue order, and
its start time is slot ``step`` of the episode's private simulated-time
window, so injected fault overlays (time-masked in the vectorized path)
cannot leak across episodes. An episode's result row is therefore a pure
function of the scenario and the episode: running any subset of a
campaign's episodes, in any process, yields the same rows as the full run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.fastprobe import FastSegmentProber
from repro.core.localization import (
    FaultJudge,
    client_vantage,
    estimate_baseline_rtt,
    location_for,
    location_matches,
    server_vantage,
)
from repro.core.locplans import SuspectSpec, drive_plan, make_plan
from repro.netsim.faults import FaultLocation
from repro.netsim.packet import Protocol
from repro.pathaware.segments import PathSegment


@dataclass(frozen=True)
class Episode:
    """One localization episode of a campaign.

    ``window_start`` is the beginning of the episode's private
    simulated-time interval; the fault (if any) should be injected
    active over exactly that window so other episodes cannot observe
    its overlays.
    """

    index: int
    path: PathSegment
    strategy: str
    window_start: float
    hint: SuspectSpec | None = None
    fault_kind: str = ""
    fault_location: FaultLocation | None = None


def _location_str(location: FaultLocation) -> str:
    if location.link is not None:
        a, b = location.link
        return f"link:{a.asn}#{a.interface}-{b.asn}#{b.interface}"
    return f"as:{location.asn}"


@dataclass
class CampaignResult:
    """Deterministic outcome of a campaign run.

    ``epochs`` is the deepest episode's measurement count: the number of
    rounds a lockstep schedule of the same campaign would take.
    """

    rows: list[dict]
    epochs: int
    measurements: int
    probes_sent: int

    def digest(self) -> str:
        """Canonical fingerprint of the campaign outcome.

        Serializes the per-episode rows (verdict sequences included) as
        canonical JSON; ``repr``-based float serialization round-trips
        IEEE doubles exactly, so two runs digest equal iff their results
        are bit-identical.
        """
        payload = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CampaignEngine:
    """Runs a set of episodes on the fast path, one after another."""

    def __init__(
        self,
        network,
        episodes: list[Episode],
        *,
        judge: FaultJudge | None = None,
        protocol: Protocol = Protocol.UDP,
        probes: int = 10,
        interval_us: int = 5_000,
        probe_size: int = 64,
        timeout: float = 2.0,
        slot: float | None = None,
        max_steps: int = 64,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.episodes = episodes
        self.judge = judge or FaultJudge()
        self.protocol = protocol
        self.max_steps = max_steps
        self.prober = FastSegmentProber(
            network,
            probes=probes,
            interval_us=interval_us,
            probe_size=probe_size,
            timeout=timeout,
            seed=seed,
            label="wan",
        )
        # One measurement slot: server warmup + the train + timeout slack.
        self.slot = slot if slot is not None else (
            0.1 + probes * interval_us * 1e-6 + timeout
        )

    def run(self) -> CampaignResult:
        rows = [self._run_episode(episode) for episode in self.episodes]
        counts = [row["measurements"] for row in rows]
        measurements = sum(counts)
        return CampaignResult(
            rows=rows,
            epochs=max(counts, default=0),
            measurements=measurements,
            probes_sent=measurements * self.prober.probes,
        )

    def _run_episode(self, episode: Episode) -> dict:
        path = episode.path
        asns = path.asns()
        verdicts: list[dict] = []

        def measure(i: int, j: int) -> bool:
            step = len(verdicts)
            segment = path.subsegment(asns[i], asns[j])
            measurement = self.prober.measure_at(
                client_vantage(path, i),
                server_vantage(path, j),
                segment,
                protocol=self.protocol,
                start=episode.window_start + step * self.slot,
                seed_labels=(episode.index, step),
            )
            baseline_ms = (
                estimate_baseline_rtt(self.network.topology, segment) * 1e3
            )
            verdict = self.judge.judge(measurement, baseline_ms)
            verdicts.append(
                {
                    "i": i,
                    "j": j,
                    "faulty": verdict.faulty,
                    "mean_rtt_ms": measurement.mean_rtt_ms(),
                    "loss": measurement.loss_rate(),
                    "finished_at": measurement.finished_at,
                }
            )
            return verdict.faulty

        plan = make_plan(episode.strategy, path.length, hint=episode.hint)
        specs = drive_plan(plan, measure, max_steps=self.max_steps)
        suspects = [location_for(path, spec) for spec in specs]
        found = episode.fault_location is not None and any(
            location_matches(s, episode.fault_location) for s in suspects
        )
        convergence = 0.0
        if verdicts:
            convergence = verdicts[-1]["finished_at"] - episode.window_start
        return {
            "episode": episode.index,
            "src": path.src_asn,
            "dst": path.dst_asn,
            "path_length": path.length,
            "strategy": episode.strategy,
            "fault_kind": episode.fault_kind,
            "fault": (
                _location_str(episode.fault_location)
                if episode.fault_location is not None
                else ""
            ),
            "found": found,
            "measurements": len(verdicts),
            "convergence_time": convergence,
            "suspects": [_location_str(s) for s in suspects],
            "verdicts": verdicts,
        }


__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "Episode",
]
