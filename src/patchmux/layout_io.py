"""Layout definition files, the shipped canonical layout, and layout reports.

The definition format is line oriented: stanza headers in square brackets,
then one ``x y`` cell per line. Recognized headers:

    [stage cultivation]            growth stage in effect (no cell lines)
    [patch]                        cells of the enclosing patch
    [footprint injection]          canonical-frame cells of a stage footprint
    [footprint cultivation]
    [site R90 12 0]                rotation and anchor of one site (no cells)

Sites are numbered 1..n in file order. Site anchors refer to the placed
cultivation footprint; injection-stage placements are derived by co-rotating
the injection shape inside the cultivation frame, which keeps the nesting of
the two stages intact under every orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .geometry import (
    Cell,
    CellSet,
    FootprintSpec,
    PatchLayout,
    PlacedSite,
    Rotation,
    Stage,
    rotate_in_frame,
    validate_layout,
)


class LayoutParseError(ValueError):
    """Malformed layout definition text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class LayoutDocument:
    """Parsed content of a layout definition file."""

    patch: CellSet | None
    footprints: dict[Stage, CellSet]
    site_specs: tuple[tuple[Rotation, Cell], ...]
    stage: Stage

    def footprint_spec(self, stage: Stage) -> FootprintSpec:
        if stage not in self.footprints:
            raise ValueError(f"document defines no {stage.value} footprint")
        return FootprintSpec(stage, self.footprints[stage])

    def to_layout(self, stage: Stage | None = None) -> PatchLayout:
        """Build the placed layout at the requested stage."""
        stage = stage or self.stage
        if self.patch is None:
            raise ValueError("document defines no patch")
        if stage not in self.footprints:
            raise ValueError(f"document defines no {stage.value} footprint")

        sites: list[PlacedSite] = []
        if stage is Stage.CULTIVATION:
            spec = self.footprint_spec(stage)
            for rot, (ax, ay) in self.site_specs:
                sites.append(PlacedSite((ax, ay), rot, spec))
        else:
            # Anchor adjustment: rotate the injection shape inside the
            # cultivation frame, then split the result into a re-anchored
            # shape (what PlacedSite stores) plus an anchor offset.
            if Stage.CULTIVATION not in self.footprints:
                raise ValueError(
                    "injection placement requires the cultivation footprint frame"
                )
            inj = self.footprints[Stage.INJECTION]
            frame = self.footprints[Stage.CULTIVATION]
            fw, fh = frame.width, frame.height
            spec = self.footprint_spec(Stage.INJECTION)
            for rot, (ax, ay) in self.site_specs:
                in_frame = rotate_in_frame(inj, rot, fw, fh)
                ox, oy, _, _ = in_frame.bounding_box()
                sites.append(PlacedSite((ax + ox, ay + oy), rot, spec))
        return PatchLayout(self.patch, tuple(sites), stage)


def parse_layout_text(text: str) -> LayoutDocument:
    patch: set[Cell] | None = None
    footprints: dict[Stage, set[Cell]] = {}
    site_specs: list[tuple[Rotation, Cell]] = []
    stage = Stage.CULTIVATION

    current: set[Cell] | None = None  # active cell-collecting stanza
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise LayoutParseError(line_no, f"unterminated header {line!r}")
            fields = line[1:-1].split()
            if not fields:
                raise LayoutParseError(line_no, "empty stanza header")
            kind = fields[0].lower()
            if kind == "patch":
                if patch is not None:
                    raise LayoutParseError(line_no, "duplicate [patch] stanza")
                patch = set()
                current = patch
            elif kind == "footprint":
                if len(fields) != 2:
                    raise LayoutParseError(line_no, "expected [footprint <stage>]")
                try:
                    st = Stage.parse(fields[1])
                except ValueError as exc:
                    raise LayoutParseError(line_no, str(exc)) from None
                if st in footprints:
                    raise LayoutParseError(line_no, f"duplicate footprint {st.value}")
                footprints[st] = set()
                current = footprints[st]
            elif kind == "site":
                if len(fields) != 4:
                    raise LayoutParseError(line_no, "expected [site <rotation> <x> <y>]")
                try:
                    rot = Rotation.parse(fields[1])
                    anchor = (int(fields[2]), int(fields[3]))
                except ValueError as exc:
                    raise LayoutParseError(line_no, str(exc)) from None
                site_specs.append((rot, anchor))
                current = None
            elif kind == "stage":
                if len(fields) != 2:
                    raise LayoutParseError(line_no, "expected [stage <name>]")
                try:
                    stage = Stage.parse(fields[1])
                except ValueError as exc:
                    raise LayoutParseError(line_no, str(exc)) from None
                current = None
            else:
                raise LayoutParseError(line_no, f"unknown stanza {kind!r}")
            continue
        # cell line
        if current is None:
            raise LayoutParseError(
                line_no, "cell coordinates outside a patch/footprint stanza"
            )
        parts = line.split()
        if len(parts) != 2:
            raise LayoutParseError(line_no, f"expected 'x y', got {line!r}")
        try:
            cell = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise LayoutParseError(line_no, f"non-integer cell {line!r}") from None
        if cell in current:
            raise LayoutParseError(line_no, f"duplicate cell {cell}")
        current.add(cell)

    return LayoutDocument(
        patch=CellSet(frozenset(patch)) if patch is not None else None,
        footprints={st: CellSet(frozenset(cs)) for st, cs in footprints.items()},
        site_specs=tuple(site_specs),
        stage=stage,
    )


def load_layout_file(path: str | Path) -> LayoutDocument:
    return parse_layout_text(Path(path).read_text(encoding="utf-8-sig"))  # a leading BOM is skipped


def write_layout_text(doc: LayoutDocument) -> str:
    """Serialize a document back to definition text (round-trip safe)."""
    out: list[str] = [f"[stage {doc.stage.value}]", ""]
    if doc.patch is not None:
        out.append("[patch]")
        out.extend(f"{x} {y}" for x, y in doc.patch)
        out.append("")
    for st in (Stage.INJECTION, Stage.CULTIVATION):
        if st in doc.footprints:
            out.append(f"[footprint {st.value}]")
            out.extend(f"{x} {y}" for x, y in doc.footprints[st])
            out.append("")
    for rot, (ax, ay) in doc.site_specs:
        out.append(f"[site {rot.name} {ax} {ay}]")
    out.append("")
    return "\n".join(out)


_CANONICAL_CACHE: LayoutDocument | None = None


def canonical_document() -> LayoutDocument:
    """The shipped four-corner layout (editable data file, validated in tests)."""
    global _CANONICAL_CACHE
    if _CANONICAL_CACHE is None:
        text = (
            resources.files("patchmux")
            .joinpath("data/canonical_layout.txt")
            .read_text(encoding="utf-8")
        )
        doc = parse_layout_text(text)
        for st in (Stage.INJECTION, Stage.CULTIVATION):
            shape = doc.footprints.get(st)
            if shape is None or len(shape) != st.default_cell_count:
                raise ValueError(
                    f"canonical {st.value} footprint must have "
                    f"{st.default_cell_count} cells"
                )
        if not doc.footprints[Stage.INJECTION].issubset(doc.footprints[Stage.CULTIVATION]):
            raise ValueError(
                "canonical injection footprint must nest inside the cultivation footprint"
            )
        _CANONICAL_CACHE = doc
    return _CANONICAL_CACHE


def canonical_layout(stage: Stage = Stage.CULTIVATION) -> PatchLayout:
    return canonical_document().to_layout(stage)


def canonical_footprint(stage: Stage) -> FootprintSpec:
    return canonical_document().footprint_spec(stage)


def canonical_patch() -> CellSet:
    patch = canonical_document().patch
    assert patch is not None
    return patch


_SITE_GLYPHS = "123456789abcdefghijklmnopqrstuvwxyz"


def ascii_map(layout: PatchLayout) -> str:
    """One character per grid position over the patch bounding box.

    Site cells get the 1-based site glyph, idle patch cells '.', positions
    outside the patch ' ', and cells claimed by more than one site '*'.
    Rows are printed top (largest y) first.
    """
    x0, y0, x1, y1 = layout.patch.bounding_box()
    grid = {cell: "." for cell in layout.patch.cells}
    for idx, cs in enumerate(layout.site_cells()):
        glyph = _SITE_GLYPHS[idx] if idx < len(_SITE_GLYPHS) else "?"
        for cell in cs.cells:
            grid[cell] = "*" if cell in grid and grid[cell] not in (".",) else glyph
    lines = []
    for y in range(y1, y0 - 1, -1):
        lines.append("".join(grid.get((x, y), " ") for x in range(x0, x1 + 1)))
    return "\n".join(lines)


def layout_report(layout: PatchLayout) -> dict:
    """JSON-ready description of a layout and, if it has sites, its validation result."""
    report = validate_layout(layout) if layout.sites else None
    doc: dict = {
        "stage": layout.stage.value,
        "patch_cells": len(layout.patch),
        "site_count": len(layout.sites),
        "sites": [
            {
                "index": i,
                "anchor": list(site.anchor),
                "rotation": site.rotation.name,
                "cells": len(site.footprint.shape),
            }
            for i, site in enumerate(layout.sites, start=1)
        ],
    }
    if report is not None:
        doc["containment_ok"] = report.containment_ok
        doc["nonoverlap_ok"] = report.nonoverlap_ok
        doc["idle_count"] = report.idle_count
        doc["violations"] = [
            {
                "kind": v.kind,
                "sites": list(v.sites),
                "cells": [list(c) for c in v.cells],
            }
            for v in report.violations
        ]
    else:
        doc["idle_count"] = len(layout.patch)
        doc["violations"] = []
    return doc
