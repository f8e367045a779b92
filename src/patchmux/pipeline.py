"""Deterministic single-shot semantics for site-wise postselection.

One shot runs k local trials in parallel. Each trial carries one survival
bit: whether its site passed the early stages (injection and cultivation
together). Surviving sites form the candidate set, the lowest-index
survivor is the one candidate that continues, and the continuation either
passes or fails its final acceptance check. Everything here is pure;
randomness and any notion of a decoder live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass


class InvalidIndicatorError(ValueError):
    """Survival bits are malformed (a bit other than 0 or 1, or no site)."""


class EmptyCandidateSet(Exception):
    """Shot-discard signal: no site survived, nothing to select."""


class ContractViolation(ValueError):
    """Caller broke an operation contract (not a statistics event)."""


@dataclass(frozen=True)
class SiteIndicators:
    """Per-site early-stage survival bits, checked on construction."""

    survival: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.survival:
            raise InvalidIndicatorError("need at least one site")
        for i, bit in enumerate(self.survival, start=1):
            if bit not in (0, 1):
                raise InvalidIndicatorError(f"site {i}: bits must be 0 or 1")

    @property
    def k(self) -> int:
        return len(self.survival)


@dataclass(frozen=True)
class CandidateSet:
    """Indices (1-based) of the sites that survived the early stages."""

    members: frozenset[int]
    k: int

    def __post_init__(self) -> None:
        if not self.members <= set(range(1, self.k + 1)):
            raise ValueError(f"members {sorted(self.members)} outside 1..{self.k}")

    def __bool__(self) -> bool:
        return bool(self.members)

    def __len__(self) -> int:
        return len(self.members)


def form_candidate_set(indicators: SiteIndicators) -> CandidateSet:
    """Surviving indices: exactly the sites whose survival bit is 1."""
    members = frozenset(
        i for i, bit in enumerate(indicators.survival, start=1) if bit
    )
    return CandidateSet(members=members, k=indicators.k)


def select_candidate(candidates: CandidateSet) -> int:
    """The lowest surviving index; raises EmptyCandidateSet on a dead shot."""
    if not candidates:
        raise EmptyCandidateSet("no surviving site in this shot")
    return min(candidates.members)


@dataclass(frozen=True)
class ShotOutcome:
    """Everything one shot decided: survivors, the chosen site, the verdict."""

    indicators: SiteIndicators
    candidates: CandidateSet
    selected: int | None
    escape_kept: bool | None

    def __post_init__(self) -> None:
        if bool(self.candidates) != (self.selected is not None):
            raise ContractViolation("selected site must exist iff candidates do")
        if self.selected is not None and self.selected not in self.candidates.members:
            raise ContractViolation(f"selected site {self.selected} is not a candidate")
        if (self.selected is None) != (self.escape_kept is None):
            raise ContractViolation("escape verdict must exist iff a site was selected")

    @property
    def continuation(self) -> tuple[int, ...]:
        """One bit per site, set only at the selected site."""
        return tuple(int(i == self.selected) for i in range(1, self.indicators.k + 1))

    @property
    def discarded(self) -> bool:
        """True when the shot died before its continuation stage."""
        return self.selected is None


def complete_shot(
    indicators: SiteIndicators, escape_verdict: bool | None = None
) -> ShotOutcome:
    """Run one shot end to end from survival bits and an injected verdict.

    The verdict must be supplied exactly when some site survives; supplying
    it for a dead shot (or omitting it for a live one) is a contract error.
    """
    candidates = form_candidate_set(indicators)
    if not candidates:
        if escape_verdict is not None:
            raise ContractViolation("escape verdict supplied for a discarded shot")
        return ShotOutcome(
            indicators=indicators,
            candidates=candidates,
            selected=None,
            escape_kept=None,
        )
    if escape_verdict is None:
        raise ContractViolation("escape verdict missing for a surviving shot")
    return ShotOutcome(
        indicators=indicators,
        candidates=candidates,
        selected=select_candidate(candidates),
        escape_kept=bool(escape_verdict),
    )
