"""The wanbench campaign guards (select with ``-m wan``).

Three contracts of the continent-scale campaign family:

- **Determinism** — same-seed campaigns produce byte-identical result
  digests, pinned to known values and recomputed in fresh interpreters
  under different ``PYTHONHASHSEED`` values (the CI ``wan`` job repeats
  the cross-process check through the CLI);
- **Engine agreement** — the event-driven reference drives the same
  plans to the same verdicts, so accuracy and measurement counts match
  the fast path exactly;
- **Speed** — the fast path beats the event-driven engine by a sound
  margin even at smoke scale (the >=10x acceptance number is recorded at
  >=5k ASes in ``BENCH_wan.json``; see EXPERIMENTS.md).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.workloads.wanbench import (
    WanbenchConfig,
    build_continent,
    run_campaign,
    run_wanbench,
    small_config,
)

pytestmark = pytest.mark.wan


@pytest.fixture(scope="module")
def smoke_summary():
    return run_wanbench(small_config(), modes=("event", "fast"))


#: ``(small_config overrides, digest, measurements, found)`` of known
#: campaigns: any change to campaign results shows up here.
PINNED = [
    (
        {},
        "fefd4f00f5734ee2167a1cbcb55b459b334c9861ccd9f84d7138b39a936fe25b",
        51,
        9,
    ),
    (
        {"max_steps": 3, "seed": 5, "episodes": 6},
        "2120705da87cf4c343dad5fc23a049094972db4a5c3f10edd06fffc8cb3c6eea",
        18,
        0,
    ),
    (
        {"strategy": "linear", "seed": 7, "traffic": False, "episodes": 6},
        "d1cd3103569552cbb62ba757fef3acf2b2fed8d167430efeb886565ccab5bffd",
        30,
        6,
    ),
]

_DIGEST_SCRIPT = (
    "from repro.workloads.wanbench import build_continent, run_campaign, "
    "small_config; "
    "print(run_campaign(build_continent(small_config())).digest)"
)


class TestDeterminism:
    def test_campaign_digests_are_pinned(self):
        for overrides, digest, measurements, found in PINNED:
            outcome = run_campaign(build_continent(small_config(**overrides)))
            assert (outcome.digest, outcome.measurements, outcome.found) == (
                digest,
                measurements,
                found,
            ), overrides

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_digest_is_stable_across_processes(self, smoke_summary, hash_seed):
        src = str(Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        completed = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        in_process = smoke_summary["outcomes"]["fast"].digest
        assert completed.stdout.strip() == in_process

    def test_rebuilt_scenario_reproduces_digest(self):
        config = small_config(episodes=4)
        first = run_campaign(build_continent(config))
        second = run_campaign(build_continent(config))
        assert first.digest == second.digest

    def test_different_seed_changes_digest(self):
        base = run_campaign(build_continent(small_config(episodes=4)))
        other = run_campaign(build_continent(small_config(episodes=4, seed=1)))
        assert base.digest != other.digest

    def test_parallel_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(workers=2)
        with pytest.raises(ConfigurationError):
            run_campaign(build_continent(small_config(episodes=2)), workers=2)


class TestEngineAgreement:
    def test_event_and_fast_agree_on_outcomes(self, smoke_summary):
        event = smoke_summary["outcomes"]["event"]
        fast = smoke_summary["outcomes"]["fast"]
        assert event.episodes == fast.episodes
        assert event.found == fast.found
        # Shared plans + agreeing verdicts => identical measurement
        # sequences across engines.
        assert event.measurements == fast.measurements
        assert event.probes_sent == fast.probes_sent
        by_episode = {row["episode"]: row for row in fast.rows}
        for row in event.rows:
            assert row["measurements"] == by_episode[row["episode"]]["measurements"]
            assert row["found"] == by_episode[row["episode"]]["found"]

    def test_campaign_localizes_most_faults(self, smoke_summary):
        fast = smoke_summary["outcomes"]["fast"]
        assert fast.accuracy >= 0.75, [r for r in fast.rows if not r["found"]]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_wanbench(small_config(), modes=("fast", "warp"))


class TestEpisodeWindows:
    def test_windows_are_disjoint_and_faults_bounded(self):
        scenario = build_continent(small_config())
        for episode, fault in zip(scenario.episodes, scenario.faults):
            assert episode.window_start == episode.index * scenario.window_length
            assert fault.start == episode.window_start
            assert fault.end == episode.window_start + scenario.window_length
        starts = [e.window_start for e in scenario.episodes]
        assert starts == sorted(set(starts))

    def test_paths_meet_min_hops(self):
        scenario = build_continent(small_config())
        for episode in scenario.episodes:
            assert episode.path.length >= scenario.config.min_hops


@pytest.mark.perf_smoke
def test_fast_path_beats_event_driven_campaign(smoke_summary, record_bench):
    event = smoke_summary["outcomes"]["event"]
    fast = smoke_summary["outcomes"]["fast"]
    # Loose smoke bound (>=3x at 120 ASes); the >=10x acceptance number
    # is asserted at >=5k ASes by the full-scale wanbench run.
    assert fast.wall_seconds * 3 < event.wall_seconds, (
        fast.wall_seconds,
        event.wall_seconds,
    )
    config = WanbenchConfig(
        n_ases=120, episodes=9, regions=3, demands_per_as=0.5
    )
    rows = [
        dict(outcome.bench_row(config), kind="smoke")
        for outcome in smoke_summary["outcomes"].values()
    ]
    rows[-1]["speedup_fast_over_event"] = round(
        smoke_summary["speedup_fast_over_event"], 2
    )
    record_bench("wan", rows)
