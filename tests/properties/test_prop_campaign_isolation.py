"""Property test: campaign episodes are isolated from one another.

Every measurement's RNG stream is derived from ``(seed, episode, step)``
and its start time lies in the episode's private window, so an episode's
result row is a pure function of the scenario and the episode. Running
any subset of a campaign's episodes, in any order, must therefore give
rows whose canonical JSON equals the matching rows of the full run.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.wanbench import build_continent, run_campaign, small_config


def _canonical(rows: list[dict]) -> str:
    # NaN != NaN, so compare the serialization the digest hashes.
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


@st.composite
def campaign_subsets(draw):
    config = small_config(
        n_ases=draw(st.integers(min_value=60, max_value=150)),
        seed=draw(st.integers(min_value=0, max_value=30)),
        episodes=draw(st.integers(min_value=2, max_value=6)),
        regions=draw(st.integers(min_value=1, max_value=4)),
        strategy=draw(
            st.sampled_from(["mixed", "binary", "linear", "exhaustive"])
        ),
        traffic=draw(st.booleans()),
    )
    subset = draw(
        st.lists(
            st.integers(min_value=0, max_value=config.episodes - 1),
            unique=True,
            max_size=config.episodes,
        )
    )
    return config, subset


class TestEpisodeIsolation:
    @given(campaign_subsets())
    @settings(max_examples=5, deadline=None)
    def test_subset_rows_match_full_run(self, case):
        config, subset = case
        full = run_campaign(build_continent(config))
        scenario = build_continent(config)
        partial = run_campaign(
            dataclasses.replace(
                scenario, episodes=[scenario.episodes[i] for i in subset]
            )
        )
        expected = [full.rows[i] for i in subset]
        assert _canonical(partial.rows) == _canonical(expected), (config, subset)
