"""Built-in demonstration values for one-command reproduction.

Two preset tables ship with the package: the early-stage discard/attempt
table for the single-site baseline versus the four-site layout ("table2"),
and the full-cycle expected-attempt table at threshold zero ("table3").
Values are stored verbatim at their source precision (4 decimal digits;
percentages as printed).
"""

from __future__ import annotations

from .analytics import AttemptRow

# Early-stage (injection + cultivation) discard rates and expected attempts:
# single-site baseline vs four-site layout, plus the printed reduction.
EARLY_STAGE_TABLE: tuple[AttemptRow, ...] = (
    AttemptRow(d1=3, p=5e-4, discard_single=0.1560, discard_multi=0.0006,
               attempts_single=1.1849, attempts_multi=1.0006, reduction_pct=15.55),
    AttemptRow(d1=3, p=1e-3, discard_single=0.2873, discard_multi=0.0076,
               attempts_single=1.4031, attempts_multi=1.0077, reduction_pct=28.18),
    AttemptRow(d1=3, p=2e-3, discard_single=0.4903, discard_multi=0.0656,
               attempts_single=1.9620, attempts_multi=1.0702, reduction_pct=45.46),
    AttemptRow(d1=5, p=5e-4, discard_single=0.5931, discard_multi=0.1269,
               attempts_single=2.4575, attempts_multi=1.1453, reduction_pct=53.40),
    AttemptRow(d1=5, p=1e-3, discard_single=0.8344, discard_multi=0.4897,
               attempts_single=6.0397, attempts_multi=1.9595, reduction_pct=67.56),
    AttemptRow(d1=5, p=2e-3, discard_single=0.9720, discard_multi=0.8968,
               attempts_single=35.7590, attempts_multi=9.6876, reduction_pct=72.91),
)

# Full-cycle expected attempts per kept output at gap threshold zero.
FULL_CYCLE_TABLE: tuple[AttemptRow, ...] = (
    AttemptRow(d1=3, p=5e-4, attempts_single=1.3632, attempts_multi=1.1332,
               reduction_pct=16.87),
    AttemptRow(d1=3, p=1e-3, attempts_single=1.8562, attempts_multi=1.2911,
               reduction_pct=30.44),
    AttemptRow(d1=3, p=2e-3, attempts_single=3.4288, attempts_multi=1.7473,
               reduction_pct=49.04),
    AttemptRow(d1=5, p=5e-4, attempts_single=4.4014, attempts_multi=1.9503,
               reduction_pct=55.69),
    AttemptRow(d1=5, p=1e-3, attempts_single=19.2822, attempts_multi=5.6465,
               reduction_pct=70.72),
    AttemptRow(d1=5, p=2e-3, attempts_single=364.7853, attempts_multi=77.7446,
               reduction_pct=78.69),
)

ANALYTIC_PRESETS: dict[str, tuple[AttemptRow, ...]] = {
    "table2": EARLY_STAGE_TABLE,
    "table3": FULL_CYCLE_TABLE,
}


def simulation_presets() -> dict[str, dict]:
    """Calibrated simulation setups keyed like 'd3-p0.0005'.

    Each preset is a four-site independent model at the single-site discard
    rate of the matching early-stage table row.
    """
    out: dict[str, dict] = {}
    for row in EARLY_STAGE_TABLE:
        name = f"d{row.d1}-p{row.p:g}"
        out[name] = {
            "k": 4,
            "failure": {"kind": "independent", "calibrate_discard": row.discard_single},
            "labels": {"d1": row.d1, "p": row.p},
        }
    return out
