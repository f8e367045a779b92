import itertools

import numpy as np
import pytest

from patchmux.pipeline import (
    CandidateSet,
    ContractViolation,
    EmptyCandidateSet,
    InvalidIndicatorError,
    SiteIndicators,
    complete_shot,
    form_candidate_set,
    select_candidate,
)


def test_candidate_set_from_indicators():
    ind = SiteIndicators((1, 0, 0, 1))
    assert form_candidate_set(ind).members == {1, 4}


def test_candidate_set_empty_and_full():
    assert form_candidate_set(SiteIndicators((0, 0, 0, 0))).members == frozenset()
    assert form_candidate_set(SiteIndicators((1, 1, 1, 1))).members == {1, 2, 3, 4}


def test_inconsistent_indicators_rejected():
    with pytest.raises(InvalidIndicatorError):
        SiteIndicators((2, 0))
    with pytest.raises(InvalidIndicatorError):
        SiteIndicators((1, -1))
    with pytest.raises(InvalidIndicatorError):
        SiteIndicators(())


def test_lowest_index_selection():
    candidates = CandidateSet(members=frozenset({2, 4}), k=4)
    assert select_candidate(candidates) == 2


def test_empty_selection_is_a_discard_signal():
    with pytest.raises(EmptyCandidateSet):
        select_candidate(CandidateSet(members=frozenset(), k=4))


def test_selection_always_returns_a_member():
    # exhaustive for k=4: every non-empty subset selects its lowest index
    subsets = [
        frozenset(c)
        for r in range(1, 5)
        for c in itertools.combinations(range(1, 5), r)
    ]
    assert len(subsets) == 15
    for members in subsets:
        assert select_candidate(CandidateSet(members=members, k=4)) == min(members)


def test_discarded_shot_outcome():
    ind = SiteIndicators((0, 0, 0, 0))
    outcome = complete_shot(ind)
    assert outcome.discarded
    assert outcome.selected is None
    assert outcome.continuation == (0, 0, 0, 0)
    assert outcome.escape_kept is None


def test_full_survival_lowest_index_kept():
    ind = SiteIndicators((1, 1, 1, 1))
    outcome = complete_shot(ind, escape_verdict=True)
    assert outcome.selected == 1
    assert outcome.continuation == (1, 0, 0, 0)
    assert outcome.escape_kept is True


def test_hand_traced_partial_survival():
    # only site 2 survives the early stages; kept fails
    ind = SiteIndicators((0, 1, 0, 0))
    outcome = complete_shot(ind, escape_verdict=False)
    assert outcome.candidates.members == {2}
    assert outcome.selected == 2
    assert outcome.escape_kept is False


def test_directly_built_outcome_must_select_a_candidate():
    from patchmux.pipeline import CandidateSet, ShotOutcome

    ind = SiteIndicators((0, 1))
    with pytest.raises(ContractViolation):
        ShotOutcome(
            indicators=ind,
            candidates=CandidateSet(members=frozenset({2}), k=2),
            selected=1,
            escape_kept=True,
        )


def test_continuation_is_derived_from_the_selected_site():
    from patchmux.pipeline import CandidateSet, ShotOutcome

    ind = SiteIndicators((0, 1, 1))
    candidates = CandidateSet(members=frozenset({2, 3}), k=3)
    outcome = ShotOutcome(indicators=ind, candidates=candidates, selected=3, escape_kept=True)
    assert outcome.continuation == (0, 0, 1)
    with pytest.raises(TypeError):  # no longer a stored field
        ShotOutcome(
            indicators=ind,
            candidates=candidates,
            selected=2,
            continuation=(0, 1, 0),
            escape_kept=True,
        )


def test_verdict_contract_enforced():
    dead = SiteIndicators((0, 0))
    live = SiteIndicators((1, 0))
    with pytest.raises(ContractViolation):
        complete_shot(dead, escape_verdict=True)
    with pytest.raises(ContractViolation):
        complete_shot(live)


def test_exactly_one_continuation_bit():
    rng = np.random.default_rng(29)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        ind = SiteIndicators(bits)
        verdict = bool(rng.integers(0, 2)) if any(bits) else None
        outcome = complete_shot(ind, verdict)
        assert sum(outcome.continuation) == (1 if any(bits) else 0)
        if any(bits):
            assert outcome.continuation[outcome.selected - 1] == 1
        assert len(outcome.candidates) == k - bits.count(0)


def test_single_site_degeneration():
    # with k=1 the shot is discarded exactly when the lone site fails
    dead = complete_shot(SiteIndicators((0,)))
    assert dead.discarded
    live = complete_shot(SiteIndicators((1,)), escape_verdict=True)
    assert not live.discarded and live.selected == 1
