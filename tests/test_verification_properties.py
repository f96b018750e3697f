"""An honest candidate is friendly exactly when its seeds match.

A property test checks it call by call, and a run-level oracle checks it
over whole scenario runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectrack import protocol, scenarios  # noqa: E402
from sectrack.cipher import SeedPair  # noqa: E402
from sectrack.config import ScenarioConfig  # noqa: E402
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


# The run-level oracle: outside the cipher, an honest screen passes exactly
# when the two seed pairs are equal.  A rule that says so, and draws the
# same challenge words from the protocol stream, must leave every output
# byte as the cipher path leaves it.  The replay probabilities are nonzero
# so that dishonest screens read the protocol stream too: at the default
# probabilities of 0 every replay fails whatever is drawn, and a rule that
# skipped the draws would go unseen.
ORACLE_ADVERSARY = {"p_wh": 0.5, "p_i": 0.4, "p_r": 0.3}
ORACLE_RUNS = (
    ("switching", ScenarioConfig(master_seed=1, seeds=1, duration=200.0, **ORACLE_ADVERSARY)),
    ("switching", ScenarioConfig(master_seed=2, seeds=1, duration=200.0, **ORACLE_ADVERSARY)),
    ("friendliness", ScenarioConfig(**ORACLE_ADVERSARY)),
)


def _tree(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


@pytest.mark.parametrize(
    "scenario, cfg", ORACLE_RUNS, ids=[f"{name}-{cfg.master_seed}" for name, cfg in ORACLE_RUNS]
)
def test_seed_equality_rule_gives_the_cipher_path_tree(scenario, cfg, tmp_path, monkeypatch):
    assert scenarios.run(scenario, cfg, tmp_path / "cipher") == 0
    unequal = []

    def seed_equality(initiator_seeds, candidate_seeds, initiator_id, j_max, rng):
        protocol._challenge_payloads(j_max, rng)
        unequal.append(initiator_seeds != candidate_seeds)
        return initiator_seeds == candidate_seeds

    monkeypatch.setattr(protocol, "_run_honest_challenge", seed_equality)
    assert scenarios.run(scenario, cfg, tmp_path / "rule") == 0
    assert unequal, "the run made no honest screen"
    if scenario == "friendliness":
        # Its injected failures give honest screens with unequal seeds.
        assert any(unequal)
    assert _tree(tmp_path / "rule") == _tree(tmp_path / "cipher")
