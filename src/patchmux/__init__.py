"""patchmux: yield analytics and seeded simulation for multiplexed in-patch
magic-state cultivation.

Submodules: geometry and layout_io (patch/footprint lattice work), pipeline
(single-shot postselection semantics), analytics (closed-form retry costs
and failure models), montecarlo (deterministic shot sampling), gap_analysis
(threshold sweeps over kept-shot records), cli (batch entry points).
"""

__version__ = "0.1.0"

from .analytics import (
    CommonMode,
    ExplicitJoint,
    FailureModel,
    Independent,
    StageStats,
    attempt_reduction,
    expected_attempts,
    iid_multiplex_discard,
    multiplex_pass_probability,
)
from .gap_analysis import RecordSet, SweepCurve, find_crossing, sweep
from .geometry import CellSet, FootprintSpec, PatchLayout, Rotation, Stage, pack_sites, rotate_footprint, validate_layout
from .montecarlo import EscapeModel, SimConfig, SimSummary, run_simulation, sample_shot
from .pipeline import CandidateSet, SelectionRule, ShotOutcome, SiteIndicators, complete_shot, form_candidate_set, select_candidate

__all__ = [
    "__version__",
    "CellSet",
    "FootprintSpec",
    "PatchLayout",
    "Rotation",
    "Stage",
    "pack_sites",
    "rotate_footprint",
    "validate_layout",
    "CandidateSet",
    "SelectionRule",
    "ShotOutcome",
    "SiteIndicators",
    "complete_shot",
    "form_candidate_set",
    "select_candidate",
    "CommonMode",
    "ExplicitJoint",
    "FailureModel",
    "Independent",
    "StageStats",
    "attempt_reduction",
    "expected_attempts",
    "iid_multiplex_discard",
    "multiplex_pass_probability",
    "EscapeModel",
    "SimConfig",
    "SimSummary",
    "run_simulation",
    "sample_shot",
    "RecordSet",
    "SweepCurve",
    "find_crossing",
    "sweep",
]
