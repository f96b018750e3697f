"""Property test: an honest candidate is friendly exactly when its seeds match."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectrack.cipher import SeedPair  # noqa: E402
from sectrack.protocol import AdversaryModel, Verdict, complete_verification  # noqa: E402

seed_pairs = st.builds(
    lambda dist, bearing, rtt: SeedPair((dist << 32) | bearing, rtt),
    st.integers(0, 2**32 - 1),
    st.integers(0, 359),
    st.integers(0, 2**64 - 1),
)


@st.composite
def initiator_and_candidate_seeds(draw):
    """The initiator's pair and a candidate pair equal to it or just off."""
    init = draw(seed_pairs)
    bearing = init.loc_seed & 0xFFFFFFFF
    how = draw(st.sampled_from(("equal", "rtt", "bearing", "distance", "any")))
    if how == "equal":
        cand = SeedPair(init.loc_seed, init.rtt_seed)
    elif how == "rtt":
        cand = SeedPair(init.loc_seed, init.rtt_seed ^ 1)
    elif how == "bearing":
        cand = SeedPair(init.loc_seed - bearing + (bearing + 1) % 360, init.rtt_seed)
    elif how == "distance":
        cand = SeedPair(init.loc_seed ^ (1 << 32), init.rtt_seed)
    else:
        cand = draw(seed_pairs)
    return init, cand


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seeds=initiator_and_candidate_seeds(),
    initiator_id=st.integers(0, 2**64 - 1),
    j_max=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
def test_honest_verdict_is_friendly_iff_seeds_equal(seeds, initiator_id, j_max, seed):
    init, cand = seeds
    verdict = complete_verification(
        init,
        cand,
        initiator_id,
        j_max=j_max,
        candidate_honest=True,
        adversary=AdversaryModel(),
        n_keys=1,
        rng=np.random.default_rng(seed),
    )
    assert (verdict is Verdict.FRIENDLY) == (init == cand)
