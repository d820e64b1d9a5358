"""Loadgen smoke checks (DESIGN.md §11).

Cheap guards that the fleet-scale bench stays healthy inside the tier-1
suite: the fleet certifies everything it launches, sustains full
concurrency, runs deterministically (byte-identical observability exports
for the same seed), and the batched ledger stays ahead of the serial
baseline. The real >=5x assertion at full scale lives in
``BENCH_scale.json`` (see README: ``repro loadgen``).
"""

import pytest

from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

SMOKE = dict(sessions=150, executors=8, initiators=8, ramp=4.0, seed=1)


def _run(**overrides):
    config = LoadgenConfig(**{**SMOKE, **overrides})
    obs = Observability.enabled()
    fleet = build_loadgen(config, obs=obs)
    report = run_loadgen(fleet)
    return fleet, report, obs


def test_loadgen_certifies_full_fleet_at_peak_concurrency():
    fleet, report, _ = _run()
    det = report["deterministic"]
    assert det["certified"] == SMOKE["sessions"]
    assert det["launch_failures"] == 0
    # Every session shares one execution epoch (earliest = windows_open),
    # so the whole fleet is concurrently active at the top of the ramp —
    # the property that scales to the >=10k-session acceptance run.
    assert det["peak_active_sessions"] == SMOKE["sessions"]
    assert det["latency_p50_s"] > 0
    assert det["latency_p99_s"] >= det["latency_p50_s"]
    # Loose CI-robust throughput floor; the bench records the real number.
    assert report["sessions_per_sec"] > 2.0, report


def test_loadgen_batched_matches_serial_outcome():
    _, batched, _ = _run(ledger_mode="batched")
    _, serial, _ = _run(ledger_mode="serial")
    assert batched["deterministic"]["state_digest"] == (
        serial["deterministic"]["state_digest"]
    )
    det_b = dict(batched["deterministic"])
    det_s = dict(serial["deterministic"])
    # Checkpoint grouping is the one allowed difference.
    assert det_b.pop("blocks_sealed") > det_s.pop("blocks_sealed") == 0
    assert det_b.pop("checkpoints") < det_s.pop("checkpoints")
    assert det_b == det_s


def test_loadgen_same_seed_obs_exports_are_byte_identical():
    _, first_report, first_obs = _run()
    _, second_report, second_obs = _run()
    assert first_report["deterministic"] == second_report["deterministic"]
    first_text = to_prometheus(first_obs.metrics)
    second_text = to_prometheus(second_obs.metrics)
    assert first_text.encode() == second_text.encode()
    # The batching/fleet metrics are present in the export.
    for name in ("ledger_batch_size", "ledger_apply_seconds",
                 "sessions_active", "fleet_sessions_total",
                 "ledger_blocks_total"):
        assert name in first_text, f"{name} missing from metrics export"


def test_loadgen_chain_verifies():
    config = LoadgenConfig(**{**SMOKE, "sessions": 60, "verify_chain": True})
    report = run_loadgen(build_loadgen(config))
    assert "verify_chain_seconds" in report


# ----------------------------------------------------------- perf guard


@pytest.mark.perf_smoke
def test_batched_ledger_beats_serial_on_small_fleet(record_bench):
    """Smoke-scale guard for the scale bench: batched must already be
    ahead of serial at a few hundred sessions (the full-scale bench in
    BENCH_scale.json asserts the real >=5x at 12k sessions, where per-tx
    signature checks and per-tx shard-root folds dominate)."""
    scale = dict(sessions=600, executors=16, initiators=16, ramp=6.0, seed=2)
    _, serial, _ = _run(ledger_mode="serial", **scale)
    _, batched, _ = _run(ledger_mode="batched", **scale)
    assert batched["deterministic"] == {
        **serial["deterministic"],
        "blocks_sealed": batched["deterministic"]["blocks_sealed"],
        "checkpoints": batched["deterministic"]["checkpoints"],
    }
    record_bench("scale", [
        {k: row[k] for k in ("mode", "wall_seconds", "sessions_per_sec",
                             "ledger_txs_per_sec")}
        | {"sessions": scale["sessions"], "tier": "perf_smoke"}
        for row in (serial, batched)
    ])
    assert batched["wall_seconds"] < serial["wall_seconds"], (
        batched["wall_seconds"], serial["wall_seconds"],
    )


def test_loadgen_audit_mode_observes_and_samples():
    fleet, report, _ = _run(sessions=100, audit_rate=0.25)
    audit = report["deterministic"]["audit"]
    assert audit["sessions_observed"] == 100
    # Seeded sampling lands near the configured rate.
    assert 10 <= audit["sessions_sampled"] <= 40
    assert audit["certificates_checked"] == 2 * audit["sessions_sampled"]
    assert audit["window_violations"] == 0
    assert audit["signature_failures"] == 0
    assert report["audit_rate"] == 0.25


@pytest.mark.perf_smoke
def test_audit_overhead_stays_under_ten_percent(record_bench):
    """Acceptance guard: fleet-scale auditing (25% sampling, window
    checks + batch signature verification) costs <10% sessions/sec.
    Recorded in BENCH_scale.json alongside the ledger rows. Both runs
    certify the same session population, so the comparison is honest.

    Plain and audited runs alternate (A/B/A/B...) and each side keeps its
    fastest run, so a load spike from other work on the machine during
    one run cannot fail the guard on its own."""
    scale = dict(sessions=600, executors=16, initiators=16, ramp=6.0, seed=2)
    plain_runs, audited_runs = [], []
    for _ in range(3):
        plain_runs.append(_run(**scale)[1])
        audited_runs.append(_run(audit_rate=0.25, **scale)[1])
    plain = max(plain_runs, key=lambda row: row["sessions_per_sec"])
    audited = max(audited_runs, key=lambda row: row["sessions_per_sec"])
    assert audited["deterministic"]["certified"] == (
        plain["deterministic"]["certified"]
    )
    assert audited["deterministic"]["audit"]["window_violations"] == 0
    record_bench("scale", [
        {
            "mode": row["mode"],
            "wall_seconds": row["wall_seconds"],
            "sessions_per_sec": row["sessions_per_sec"],
            "audit_rate": row.get("audit_rate", 0.0),
            "sessions": scale["sessions"],
            "tier": "audit_overhead",
        }
        for row in (plain, audited)
    ])
    degradation = 1.0 - (
        audited["sessions_per_sec"] / plain["sessions_per_sec"]
    )
    assert degradation < 0.10, (
        f"auditing degrades sessions/sec by {degradation:.1%} "
        f"({plain['sessions_per_sec']:.1f} -> "
        f"{audited['sessions_per_sec']:.1f})"
    )
