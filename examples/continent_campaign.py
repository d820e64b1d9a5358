"""A continent-scale fault-localization campaign, end to end.

Generates a 5 000-AS power-law Internet with Gao-Rexford routing and
background traffic, injects one fault per episode (delay, loss, or
blackhole — each confined to its episode's time window), and localizes
all of them with the vectorized campaign engine — then reruns the
campaign on a scenario rebuilt from the same config, checking the two
runs are bit-identical. Also runs a small event-driven slice to show the
engines agree measurement-for-measurement.

Run:  python examples/continent_campaign.py [n_ases] [episodes]
"""

import sys
from dataclasses import replace

from repro.workloads.wanbench import (
    WanbenchConfig,
    build_continent,
    run_campaign,
    run_event_baseline,
)

N_ASES = 5000
EPISODES = 24


def main() -> None:
    n_ases = int(sys.argv[1]) if len(sys.argv) > 1 else N_ASES
    episodes = int(sys.argv[2]) if len(sys.argv) > 2 else EPISODES
    config = WanbenchConfig(
        n_ases=n_ases, episodes=episodes, regions=5, strategy="mixed"
    )

    scenario = build_continent(config)
    degrees = sorted(
        (scenario.topology.degree(a) for a in scenario.topology.ases),
        reverse=True,
    )
    print(
        f"generated {n_ases}-AS Internet: top degrees {degrees[:3]}, "
        f"median {degrees[len(degrees) // 2]}, "
        f"{scenario.congested_channels} channels carrying background traffic"
    )
    print(
        f"{episodes} episodes on policy paths of "
        f"{min(e.path.length for e in scenario.episodes)}-"
        f"{max(e.path.length for e in scenario.episodes)} hops, "
        "one windowed fault each\n"
    )

    campaign = run_campaign(scenario)
    print(
        f"fast path:         {campaign.wall_seconds:6.2f}s  "
        f"accuracy {campaign.accuracy:.0%}  "
        f"{campaign.measurements} measurements ({campaign.probes_sent} probes)"
    )

    rerun = run_campaign(build_continent(config))
    print(
        f"rebuilt rerun:     {rerun.wall_seconds:6.2f}s  "
        f"accuracy {rerun.accuracy:.0%}"
    )
    match = campaign.digest == rerun.digest
    print(f"digest equality:   {'BIT-IDENTICAL' if match else 'MISMATCH'} "
          f"({campaign.digest[:16]})\n")
    if not match:
        raise SystemExit(1)

    # Event-driven slice: same plans, same verdicts, a fraction of the
    # episodes (VM probing at full scale would take minutes).
    slice_config = replace(config, episodes=min(4, episodes))
    event = run_event_baseline(build_continent(slice_config))
    fast_slice = run_campaign(build_continent(slice_config))
    agree = event.measurements == fast_slice.measurements
    print(
        f"event-driven slice ({slice_config.episodes} episodes): "
        f"{event.wall_seconds:.2f}s vs fast {fast_slice.wall_seconds:.2f}s "
        f"— speedup {event.wall_seconds / fast_slice.wall_seconds:.0f}x"
    )
    print(
        "engines agree on every measurement: "
        f"{agree} ({event.measurements} == {fast_slice.measurements})"
    )

    by_strategy: dict[str, list] = {}
    for row in campaign.rows:
        by_strategy.setdefault(row["strategy"], []).append(row)
    print("\nper-strategy curves (accuracy / probe cost / convergence):")
    for strategy in sorted(by_strategy):
        rows = by_strategy[strategy]
        found = sum(1 for r in rows if r["found"])
        probes = sum(r["measurements"] for r in rows) / len(rows)
        conv = sum(r["convergence_time"] for r in rows) / len(rows)
        print(
            f"  {strategy:<11} accuracy {found}/{len(rows)}  "
            f"mean {probes:4.1f} measurements  "
            f"mean convergence {conv:5.1f}s"
        )


if __name__ == "__main__":
    main()
