"""patchmux: yield analytics and seeded simulation for multiplexed in-patch
magic-state cultivation.

Submodules: geometry and layout_io (patch/footprint lattice work), analytics
(closed-form retry costs and failure models), montecarlo (deterministic shot
sampling), gap_analysis (kept-shot records and their files), curves (threshold
sweeps over records), parts (the fork helper the sampler and the record files
split their work with), cli (batch entry points, one cli_* module a command).
"""

__version__ = "0.1.0"

import importlib

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
    "CommonMode",
    "ExplicitJoint",
    "FailureModel",
    "Independent",
    "attempt_reduction",
    "expected_attempts",
    "iid_multiplex_discard",
    "multiplex_pass_probability",
    "EscapeModel",
    "SimConfig",
    "SimSummary",
    "run_simulation",
    "RecordSet",
    "SweepCurve",
    "find_crossing",
    "sweep",
]

# Each exported name loads its module on first use (PEP 562), so importing
# the package, or only the CLI, loads none of the layout modules.
_EXPORTS = {
    "analytics": "CommonMode ExplicitJoint FailureModel Independent attempt_reduction "
    "expected_attempts iid_multiplex_discard multiplex_pass_probability",
    "curves": "SweepCurve find_crossing sweep",
    "gap_analysis": "RecordSet",
    "geometry": "CellSet FootprintSpec PatchLayout Rotation Stage pack_sites rotate_footprint "
    "validate_layout",
    "montecarlo": "EscapeModel SimConfig SimSummary run_simulation",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
