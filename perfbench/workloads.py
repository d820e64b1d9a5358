"""The benchmark's workloads: set-up, timed loop and correctness gate.

Each workload is generated from one seed and runs in one process with one
thread, through the program's public entry points only:

- ``session_short`` / ``session_long``: a closed loop of verified sessions
  on a staked :class:`MarketplaceTestbed` with an on-chain auditor. One
  operation is one session, timed from building its two applications to
  both results passing :meth:`ChainVerifier.verify_result` and the audit.
- ``fleet_loadgen``: rounds of ``build_loadgen``/``run_loadgen`` on the
  batched ledger, each followed by ``Ledger.verify_chain``. One operation
  is one certified loadgen session.
- ``wan_campaign``: ``build_continent`` once, then ``run_campaign``
  repeatedly over the same scenario. One operation is one localization
  episode; it fails when the injected fault is not found (a known gap:
  on the longest paths the campaign judge misses ~0.1% of delay faults).

A check that fails raises :class:`CheckFailed`; the command then prints
no result and exits non-zero.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import time
from dataclasses import dataclass, field

from repro.chain.gas import sui_to_mist
from repro.common.errors import DebugletError
from repro.contracts.debuglet_market import ExecutionSlot
from repro.core import ChainVerifier, DebugletApplication
from repro.core.audit import AuditConfig
from repro.core.executor import executor_data_address
from repro.core.marketplace import SessionState
from repro.netsim import Protocol
from repro.sandbox import echo_client, echo_server
from repro.workloads import (
    LoadgenConfig,
    MarketplaceTestbed,
    WanbenchConfig,
    build_continent,
    build_loadgen,
    run_campaign,
    run_loadgen,
)

#: A run holds at least this many sessions, so that ten samples lie
#: beyond the p90 it reports.
MIN_SESSIONS = 100
#: Audit sampling rate of the on-chain auditor (AuditConfig's default).
AUDIT_RATE = 0.25
EXECUTOR_STAKE = sui_to_mist(5)
SLOT_PRICE = 50_000_000
#: Sessions buy a 30-s window. ``MarketplaceTestbed.build`` offers only 16
#: standing slots per agent over 3 600 sim-s, so the loop registers extra
#: 40-s slots after that horizon: EXTRA_SLOTS_PER_SECOND per run second
#: plus EXTRA_SLOTS_BASE, more than any run can use up.
SESSION_WINDOW_S = 30.0
STANDING_HORIZON_S = 3600.0
EXTRA_SLOT_WIDTH_S = 40.0
EXTRA_SLOTS_PER_SECOND = 64
EXTRA_SLOTS_BASE = 256
#: Gas top-up per provisioned slot for every executor agent. At the
#: testbed's slot price, publishing a 200-probe result costs the client
#: executor more gas than the slot earns, and its default 10 SUI of gas
#: runs out after ~75 sessions.
GAS_PER_SLOT = sui_to_mist(1)
#: Sessions run during set-up to warm the process-wide caches.
WARMUP_SESSIONS = 2
#: Loadgen sessions run during set-up to warm the signer tables.
WARMUP_LOADGEN_SESSIONS = 64
#: Episodes of the set-up campaign that warms the fast path.
WARMUP_EPISODES = 30
#: Loadgen rounds and campaign passes are repeated at least this often,
#: so that every run checks that same-seed repeats agree.
MIN_REPEATS = 2
#: Generator seed of the wan_campaign Internet (WanbenchConfig's default).
INTERNET_SEED = 0
#: Set-ups per untraced run for workloads whose set-up takes under a
#: second: its time is mostly noise from the host, so take more samples.
CHEAP_SETUP_REPEATS = 5
#: Loadgen rounds per run: four rounds of 500 sessions make ~2 000
#: sessions.
MIN_ROUNDS = 4


class CheckFailed(Exception):
    """A correctness check of the run failed."""


@dataclass
class RunResult:
    """What one timed phase produced."""

    attempted: int
    failed: int
    #: Loop iterations: sessions, loadgen rounds or campaign passes.
    repeats: int
    wall_s: float
    #: Completed operations per second of time spent in them (sessions,
    #: ``run_loadgen`` calls or campaigns; set-up between them not counted).
    ops_per_s: float
    latencies_s: list[float] = field(default_factory=list)
    verify_tx_per_s: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    #: Peak resident memory after a fixed amount of work (MiB).
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_conservation(ledger) -> None:
    """Token conservation: every token granted at genesis is still held by
    an account or a contract, or sits in a sink (gas burned, storage fund,
    slashed)."""
    genesis = sum(amount for _, amount in ledger._genesis_grants)
    held = (
        sum(account.balance for account in ledger.accounts.values())
        + sum(ledger.contract_balances.values())
        + ledger.gas_burned
        + ledger.storage_fund
        + ledger.tokens_slashed
    )
    if genesis != held:
        raise CheckFailed(f"token conservation: genesis {genesis} != held {held}")


def verify_chain_rate(ledger) -> float:
    """Run ``Ledger.verify_chain``; return transactions re-checked per second."""
    started = time.perf_counter()
    try:
        ledger.verify_chain()
    except DebugletError as exc:
        raise CheckFailed(f"verify_chain: {exc}") from exc
    return len(ledger.transactions) / (time.perf_counter() - started)


def tamper_with_chain(ledger) -> None:
    """Alter one stored transaction, as a forger rewriting history would."""
    txs = ledger._transactions
    index = len(txs) // 2
    txs[index] = dataclasses.replace(txs[index], value=txs[index].value + 1)


def _would_overrun(started: float, repeats: int, seconds: float) -> bool:
    """Whether one more repeat of the average length would end after
    ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / repeats > seconds


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ------------------------------------------------------------- sessions


@dataclass
class _SessionBed:
    testbed: MarketplaceTestbed
    auditor: object
    verifier: ChainVerifier
    client: tuple[int, int]
    server: tuple[int, int]
    path: object
    errors: list[str] = field(default_factory=list)


class SessionLoop:
    """A closed loop of one initiator buying, running and verifying sessions."""

    op = "session"
    setup_repeats = CHEAP_SETUP_REPEATS

    def __init__(self, name: str, *, n_ases: int, probes: int, smoke: bool,
                 tamper: bool) -> None:
        self.name = name
        self.n_ases = n_ases
        self.probes = probes
        self.min_ops = 3 if smoke else MIN_SESSIONS
        self.tamper = tamper

    def setup(self, seed: int, seconds: float) -> _SessionBed:
        extra = EXTRA_SLOTS_BASE + EXTRA_SLOTS_PER_SECOND * int(seconds)
        testbed = MarketplaceTestbed.build(
            n_ases=self.n_ases,
            seed=seed,
            executor_stake=EXECUTOR_STAKE,
            initiator_funding=sui_to_mist(100) + extra * sui_to_mist(1),
        )
        auditor = testbed.make_auditor(
            config=AuditConfig(audit_rate=AUDIT_RATE, seed=seed)
        )
        client, server = (1, 2), (self.n_ases, 1)
        slots = [
            ExecutionSlot(
                cores=2,
                memory_mb=512,
                bandwidth_mbps=100,
                start=STANDING_HORIZON_S + i * EXTRA_SLOT_WIDTH_S,
                end=STANDING_HORIZON_S + (i + 1) * EXTRA_SLOT_WIDTH_S,
                price=SLOT_PRICE,
            )
            for i in range(extra)
        ]
        for vantage in (client, server):
            agent = testbed.agents[vantage]
            testbed.ledger.faucet(agent.wallet.address, extra * GAS_PER_SLOT)
            agent.offer_slots(slots)
        bed = _SessionBed(
            testbed=testbed,
            auditor=auditor,
            verifier=ChainVerifier(testbed.ledger, testbed.market),
            client=client,
            server=server,
            path=testbed.chain.registry.shortest(client[0], server[0]),
        )
        for _ in range(WARMUP_SESSIONS):
            if self._session(bed) is None:
                raise CheckFailed(f"warm-up session failed: {bed.errors}")
        return bed

    def setup_digests(self, bed: _SessionBed) -> dict[str, str]:
        return {"setup_state": bed.testbed.ledger.state_digest().hex()}

    def _session(self, bed: _SessionBed) -> float | None:
        """One verified session; its wall time, or None when it failed."""
        started = time.perf_counter()
        testbed = bed.testbed
        server_app = DebugletApplication.from_stock(
            "bench-server",
            echo_server(
                Protocol.UDP, max_echoes=self.probes, idle_timeout_us=3_000_000
            ),
            listen_port=7801,
            path=bed.path.reversed().as_list(),
        )
        client_app = DebugletApplication.from_stock(
            "bench-client",
            echo_client(
                Protocol.UDP,
                executor_data_address(*bed.server),
                count=self.probes,
                interval_us=50_000,
                dst_port=7801,
            ),
            path=bed.path.as_list(),
        )
        initiator, simulator = testbed.initiator, testbed.chain.simulator
        session = initiator.request_measurement(
            client_app, server_app, bed.client, bed.server,
            duration=SESSION_WINDOW_S,
        )
        try:
            initiator.run_until_done(session, simulator, timeout=3600.0)
        except DebugletError as exc:
            bed.errors.append(f"session stalled: {exc}")
            return None
        if session.state is not SessionState.CERTIFIED:
            bed.errors.append(f"session ended {session.state.value}")
            return None
        try:
            for application in (
                session.client_application, session.server_application
            ):
                bed.verifier.verify_result(application)
        except DebugletError as exc:
            bed.errors.append(f"verify_result: {exc}")
            return None
        bed.auditor.on_session_complete(session)
        simulator.run()  # the sampled replay audit runs as its own event
        return time.perf_counter() - started

    def run(self, bed: _SessionBed, seconds: float, *, ops: int | None = None,
            tracer=None) -> RunResult:
        """Run sessions for ``seconds`` (and at least ``min_ops``), or
        exactly ``ops`` sessions when given.

        Memory grows with every session kept on the ledger, so the peak
        is read after ``min_ops`` sessions: a faster loop runs more
        sessions, and must not read as a bigger one.
        """
        latencies: list[float] = []
        failed = 0
        rss = 0.0
        started = time.perf_counter()
        while True:
            done = len(latencies) + failed
            if ops is not None:
                if done >= ops:
                    break
            elif time.perf_counter() - started >= seconds and done >= self.min_ops:
                break
            if tracer is not None:
                tracer.session = done
            latency = self._session(bed)
            if latency is None:
                failed += 1
            else:
                latencies.append(latency)
            if done + 1 == self.min_ops:
                rss = peak_rss_mb()
        wall = time.perf_counter() - started
        return RunResult(
            attempted=len(latencies) + failed,
            failed=failed,
            repeats=len(latencies) + failed,
            wall_s=wall,
            ops_per_s=len(latencies) / sum(latencies),
            latencies_s=latencies,
            peak_rss_mb=rss or peak_rss_mb(),
        )

    def gate(self, bed: _SessionBed, result: RunResult) -> None:
        """Checks that need the whole loop: run after the timed phase."""
        if bed.errors:
            raise CheckFailed(f"{len(bed.errors)} sessions failed: {bed.errors[0]}")
        result.checks.append(
            f"verify_result ok on {result.attempted} sessions (both sides)"
        )
        convictions = bed.auditor.finalize()
        if convictions:
            raise CheckFailed(f"honest executors convicted: {convictions[0]}")
        result.checks.append(
            f"audit ok: {bed.auditor.sessions_audited} replayed, 0 convictions"
        )
        ledger = bed.testbed.ledger
        if self.tamper:
            tamper_with_chain(ledger)
        result.verify_tx_per_s.append(verify_chain_rate(ledger))
        result.checks.append(f"verify_chain ok ({len(ledger.transactions)} tx)")
        check_conservation(ledger)
        result.checks.append("token conservation ok")
        result.digests["final_state"] = ledger.state_digest().hex()


# ---------------------------------------------------------------- fleet


class FleetLoadgen:
    """Rounds of the batched-ledger load generator, each verified."""

    op = "session"
    setup_repeats = CHEAP_SETUP_REPEATS

    def __init__(self, name: str, *, sessions: int, smoke: bool, tamper: bool) -> None:
        self.name = name
        self.sessions = 40 if smoke else sessions
        self.min_rounds = MIN_REPEATS if smoke else MIN_ROUNDS
        self.tamper = tamper

    def _config(self, seed: int, sessions: int) -> LoadgenConfig:
        return LoadgenConfig(
            sessions=sessions,
            executors=16,
            initiators=16,
            ledger_mode="batched",
            seed=seed,
        )

    def setup(self, seed: int, seconds: float) -> dict:
        warm = build_loadgen(self._config(seed, WARMUP_LOADGEN_SESSIONS))
        run_loadgen(warm)
        fleet = build_loadgen(self._config(seed, self.sessions))
        return {
            "seed": seed,
            "warm_digest": warm.ledger.state_digest().hex(),
            "fleet": fleet,
        }

    def setup_digests(self, state: dict) -> dict[str, str]:
        return {
            "warmup_state": state["warm_digest"],
            "setup_state": state["fleet"].ledger.state_digest().hex(),
        }

    def run(self, state: dict, seconds: float, *, ops: int | None = None,
            tracer=None) -> RunResult:
        """Run rounds for ``seconds`` (at least ``min_rounds``), or
        exactly ``ops`` rounds when given."""
        rounds = 0
        run_wall = 0.0
        verify_rates: list[float] = []
        digests: list[str] = []
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            if ops is not None:
                if rounds >= ops:
                    break
            elif rounds >= self.min_rounds and _would_overrun(
                started, rounds, seconds
            ):
                break
            fleet = state.pop("fleet", None) or build_loadgen(
                self._config(state["seed"], self.sessions)
            )
            if tracer is not None:
                tracer.session = rounds
            round_started = time.perf_counter()
            report = run_loadgen(fleet)
            run_wall += time.perf_counter() - round_started
            certified = report["deterministic"]["certified"]
            attempted += self.sessions
            failed += self.sessions - certified
            rounds += 1
            if self.tamper:
                tamper_with_chain(fleet.ledger)
            verify_rates.append(verify_chain_rate(fleet.ledger))
            check_conservation(fleet.ledger)
            digests.append(fleet.ledger.state_digest().hex())
            del fleet
        wall = time.perf_counter() - started
        if len(set(digests)) != 1:
            raise CheckFailed(f"same-seed loadgen rounds differ: {digests}")
        return RunResult(
            attempted=attempted,
            failed=failed,
            repeats=rounds,
            wall_s=wall,
            ops_per_s=(attempted - failed) / run_wall,
            verify_tx_per_s=verify_rates,
            digests={"round_state": digests[0]},
            peak_rss_mb=peak_rss_mb(),
            checks=[
                f"verify_chain ok on {rounds} rounds",
                "token conservation ok",
                f"{rounds} same-seed rounds agree on state_digest",
            ],
        )

    def gate(self, state: dict, result: RunResult) -> None:
        """Checks run inside :meth:`run`, round by round."""


# ------------------------------------------------------------------ wan


def _location_keys(location) -> set[str]:
    """The suspect strings that name ``location`` (a link in either
    direction, or an AS interior)."""
    if location.link is None:
        return {f"as:{location.asn}"}
    a, b = location.link
    return {
        f"link:{a.asn}#{a.interface}-{b.asn}#{b.interface}",
        f"link:{b.asn}#{b.interface}-{a.asn}#{a.interface}",
    }


class WanCampaign:
    """Repeated localization campaigns over one generated Internet.

    The Internet, its traffic and its faulted episodes come from the
    generator's default seed (INTERNET_SEED) on every run: campaign cost
    per episode differs by up to ~30% between generated topologies, which
    would swamp the engine changes the benchmark is there to show. The
    run's seed drives the campaign itself: every probe train's loss and
    delay draws, hence every verdict and the path each search takes.
    """

    op = "episode"
    setup_repeats = 3

    def __init__(self, name: str, *, n_ases: int, episodes: int, smoke: bool,
                 tamper: bool) -> None:
        self.name = name
        self.n_ases = 150 if smoke else n_ases
        self.episodes = 20 if smoke else episodes
        self.tamper = tamper

    def setup(self, seed: int, seconds: float):
        scenario = build_continent(
            WanbenchConfig(
                n_ases=self.n_ases,
                episodes=self.episodes,
                seed=INTERNET_SEED,
                workers=0,
                traffic=True,
            )
        )
        scenario = dataclasses.replace(
            scenario, config=dataclasses.replace(scenario.config, seed=seed)
        )
        warm = dataclasses.replace(
            scenario, episodes=scenario.episodes[:WARMUP_EPISODES]
        )
        run_campaign(warm, workers=0)
        return scenario

    def setup_digests(self, scenario) -> dict[str, str]:
        episodes = [
            f"{e.index}:{e.strategy}:{e.fault_kind}:{e.path.asns()}:"
            f"{sorted(_location_keys(e.fault_location))}"
            for e in scenario.episodes
        ]
        return {
            "topology": scenario.topology.digest(),
            "episodes": _digest(*episodes),
            "campaign_seed": str(scenario.config.seed),
        }

    def run(self, scenario, seconds: float, *, ops: int | None = None,
            tracer=None) -> RunResult:
        """Run the campaign over all episodes for ``seconds`` (at least
        MIN_REPEATS times), or exactly ``ops`` times when given."""
        truth = {
            episode.index: _location_keys(fault.location)
            for episode, fault in zip(scenario.episodes, scenario.faults)
        }
        digests: list[str] = []
        attempted = failed = passes = 0
        campaign_wall = 0.0
        started = time.perf_counter()
        while True:
            if ops is not None:
                if passes >= ops:
                    break
            elif passes >= MIN_REPEATS and _would_overrun(started, passes, seconds):
                break
            if tracer is not None:
                tracer.session = passes
            campaign_started = time.perf_counter()
            outcome = run_campaign(scenario, workers=0)
            campaign_wall += time.perf_counter() - campaign_started
            rows = outcome.rows
            if self.tamper:
                rows[0]["found"] = not rows[0]["found"]
            if len(rows) != len(scenario.episodes):
                raise CheckFailed(
                    f"{len(rows)} rows for {len(scenario.episodes)} episodes"
                )
            for row in rows:
                keys = truth[row["episode"]]
                found = any(suspect in keys for suspect in row["suspects"])
                if row["found"] != found or row["fault"] not in keys:
                    raise CheckFailed(
                        f"episode {row['episode']}: found={row['found']} but "
                        f"suspects {row['suspects']} vs injected {sorted(keys)}"
                    )
            attempted += len(rows)
            failed += sum(1 for row in rows if not row["found"])
            digests.append(outcome.digest)
            passes += 1
        wall = time.perf_counter() - started
        if len(set(digests)) != 1:
            raise CheckFailed(f"same-seed campaigns differ: {digests}")
        return RunResult(
            attempted=attempted,
            failed=failed,
            repeats=passes,
            wall_s=wall,
            ops_per_s=attempted / campaign_wall,
            digests={"campaign": digests[0]},
            peak_rss_mb=peak_rss_mb(),
            checks=[
                f"found matches the injected faults on {attempted} episodes",
                f"{passes} same-seed passes agree on the campaign digest()",
            ],
        )

    def gate(self, scenario, result: RunResult) -> None:
        """Checks run inside :meth:`run`, campaign by campaign."""


def make(name: str, *, smoke: bool = False, tamper: bool = False):
    """The workload called ``name``, at full or smoke size. With
    ``tamper`` the run corrupts its own output before the checks."""
    if name == "session_short":
        return SessionLoop(name, n_ases=3, probes=3 if smoke else 30,
                           smoke=smoke, tamper=tamper)
    if name == "session_long":
        return SessionLoop(name, n_ases=6, probes=5 if smoke else 200,
                           smoke=smoke, tamper=tamper)
    if name == "fleet_loadgen":
        return FleetLoadgen(name, sessions=500, smoke=smoke, tamper=tamper)
    if name == "wan_campaign":
        return WanCampaign(name, n_ases=2000, episodes=1000, smoke=smoke,
                           tamper=tamper)
    raise ValueError(f"unknown workload {name!r}")
