"""Property test: blocked Monte Carlo draws equal one whole-array draw.

This includes the adversaries whose outcome is certain without draws.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectrack.protocol import MC_BLOCK_TRIALS, AdversaryModel, monte_carlo_detection  # noqa: E402
from sectrack.scenarios import DETECTION_GRID  # noqa: E402
from test_protocol import oracle_monte_carlo  # noqa: E402

# Exact multiples of 2**-53 are the values a draw can take, so they can tie.
dyadic = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
probability = st.one_of(st.sampled_from(DETECTION_GRID), st.floats(0.0, 1.0), dyadic)
# The three draws of seed 6's last trial with n = 1 and trials = B + 1525,
# in the second block: as the probabilities, each draw ties with its p.
# The p_r draw's word has its low 11 bits zero, so it equals its threshold.
TIE_TRIALS = MC_BLOCK_TRIALS + 1525
TIE = np.random.default_rng(6).random(TIE_TRIALS * 3)[-3:].tolist()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    p_wh=probability,
    p_i=probability,
    p_r=probability,
    n=st.integers(1, 16),
    trials=st.integers(1, 3 * MC_BLOCK_TRIALS),
    seed=st.integers(0, 2**64 - 1),
)
@example(p_wh=0.0, p_i=0.0, p_r=0.0, n=1, trials=1, seed=0)
@example(p_wh=1.0, p_i=1.0, p_r=1.0, n=10, trials=3 * MC_BLOCK_TRIALS, seed=1)
@example(p_wh=0.25, p_i=0.5, p_r=0.75, n=8, trials=MC_BLOCK_TRIALS + 1, seed=2)
@example(p_wh=0.25, p_i=1.0, p_r=0.0, n=3, trials=2 * MC_BLOCK_TRIALS + 5, seed=3)
@example(p_wh=0.0, p_i=0.0, p_r=0.0, n=7, trials=MC_BLOCK_TRIALS + 9, seed=4)
@example(p_wh=0.0, p_i=0.75, p_r=0.0, n=12, trials=MC_BLOCK_TRIALS + 3, seed=5)
@example(p_wh=TIE[0], p_i=TIE[1], p_r=TIE[2], n=1, trials=TIE_TRIALS, seed=6)
def test_blocked_draws_equal_whole_array_draw(p_wh, p_i, p_r, n, trials, seed):
    adv = AdversaryModel(p_wh, p_i, p_r)
    expected = oracle_monte_carlo(adv, n, trials, np.random.default_rng(seed))
    assert repr(monte_carlo_detection(adv, n, trials, seed)) == repr(expected)
