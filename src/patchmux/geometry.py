"""Integer-lattice geometry for a logical patch hosting local growth sites.

Everything here is plain set arithmetic on unit cells. A footprint is the
cell set occupied by one local site at a given growth stage; a layout embeds
rotated copies of a footprint at anchor offsets inside a larger patch. The
checks that matter downstream are containment (every placed cell belongs to
the patch), pairwise nonoverlap between sites, and the size of the leftover
idle region.

Cells carry no stabilizer or boundary information; the shapes are opaque
regions whose cardinalities feed the yield statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

Cell = tuple[int, int]


class Rotation(Enum):
    """Quarter-turn rotations, counterclockwise."""

    R0 = 0
    R90 = 1
    R180 = 2
    R270 = 3

    @property
    def quarter_turns(self) -> int:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Rotation":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown rotation {text!r}") from None


class Stage(Enum):
    """Growth stage of a local site."""

    INJECTION = "injection"
    CULTIVATION = "cultivation"

    @property
    def default_cell_count(self) -> int:
        return 24 if self is Stage.INJECTION else 53

    @classmethod
    def parse(cls, text: str) -> "Stage":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown stage {text!r}") from None


@dataclass(frozen=True)
class CellSet:
    """A finite set of 2-D integer lattice cells."""

    cells: frozenset[Cell]

    @classmethod
    def of(cls, cells: Iterable[Cell]) -> "CellSet":
        return cls(frozenset((int(x), int(y)) for x, y in cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(sorted(self.cells))

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(xmin, ymin, xmax, ymax); raises on an empty set."""
        if not self.cells:
            raise ValueError("empty cell set has no bounding box")
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        return min(xs), min(ys), max(xs), max(ys)

    @property
    def width(self) -> int:
        x0, _, x1, _ = self.bounding_box()
        return x1 - x0 + 1

    @property
    def height(self) -> int:
        _, y0, _, y1 = self.bounding_box()
        return y1 - y0 + 1

    def translate(self, dx: int, dy: int) -> "CellSet":
        return CellSet(frozenset((x + dx, y + dy) for x, y in self.cells))

    def issubset(self, other: "CellSet") -> bool:
        return self.cells <= other.cells

    def isdisjoint(self, other: "CellSet") -> bool:
        return self.cells.isdisjoint(other.cells)

    def intersection(self, other: "CellSet") -> "CellSet":
        return CellSet(self.cells & other.cells)

    def difference(self, other: "CellSet") -> "CellSet":
        return CellSet(self.cells - other.cells)


def rotate_footprint(shape: CellSet, rotation: Rotation) -> CellSet:
    """Rotate a footprint by a quarter turn and re-anchor it at the origin.

    The identity rotation returns the shape unchanged. For the other three
    turns the shape is moved to start at (0, 0) and rotated inside its own
    bounding box (:func:`rotate_in_frame`), so the result's bounding box
    starts at (0, 0) too.
    """
    if rotation is Rotation.R0:
        return shape
    x0, y0, _, _ = shape.bounding_box()
    return rotate_in_frame(shape.translate(-x0, -y0), rotation, shape.width, shape.height)


def rotate_in_frame(
    shape: CellSet, rotation: Rotation, frame_width: int, frame_height: int
) -> CellSet:
    """Rotate cells inside an enclosing frame anchored at (0, 0).

    Unlike :func:`rotate_footprint` the result is not re-anchored: a shape
    occupying part of the frame keeps its position relative to the rotated
    frame. Used to co-rotate a nested inner footprint with its outer one.
    """
    cells = shape.cells
    w, h = frame_width, frame_height
    for _ in range(rotation.quarter_turns):
        cells = frozenset((h - 1 - y, x) for x, y in cells)
        w, h = h, w
    return CellSet(cells)


@dataclass(frozen=True)
class FootprintSpec:
    """A local-site footprint at one growth stage, in its canonical frame."""

    stage: Stage
    shape: CellSet

    def __post_init__(self) -> None:
        if not len(self.shape):
            raise ValueError(f"{self.stage.value} footprint has no cells")


@dataclass(frozen=True)
class PlacedSite:
    """One footprint embedded at an anchor with a quarter-turn orientation."""

    anchor: Cell
    rotation: Rotation
    footprint: FootprintSpec

    def cells(self) -> CellSet:
        ax, ay = self.anchor
        return rotate_footprint(self.footprint.shape, self.rotation).translate(ax, ay)


@dataclass(frozen=True)
class PatchLayout:
    """A patch together with the sites placed in it at one growth stage."""

    patch: CellSet
    sites: tuple[PlacedSite, ...]
    stage: Stage

    def site_cells(self) -> list[CellSet]:
        return [site.cells() for site in self.sites]

    def idle_cells(self) -> CellSet:
        occupied: set[Cell] = set()
        for cs in self.site_cells():
            occupied |= cs.cells
        return CellSet(self.patch.cells - occupied)


@dataclass(frozen=True)
class Violation:
    kind: str  # "containment" or "overlap"
    sites: tuple[int, ...]  # 1-based site indices involved
    cells: tuple[Cell, ...]  # offending cells, sorted


@dataclass(frozen=True)
class ValidationReport:
    containment_ok: bool
    nonoverlap_ok: bool
    idle_count: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.containment_ok and self.nonoverlap_ok


def validate_layout(layout: PatchLayout) -> ValidationReport:
    """Check containment and pairwise nonoverlap of the placed sites.

    Violations are reported, never raised. ``idle_count`` is the number of
    patch cells covered by no site; for a valid layout this equals
    ``len(patch) - sum(len(site))``.
    """
    if not layout.sites:
        raise ValueError("layout has no sites to validate")
    site_cells = layout.site_cells()
    violations: list[Violation] = []

    containment_ok = True
    for i, cs in enumerate(site_cells, start=1):
        outside = cs.difference(layout.patch)
        if len(outside):
            containment_ok = False
            violations.append(Violation("containment", (i,), tuple(outside)))

    nonoverlap_ok = True
    for (i, a), (j, b) in itertools.combinations(enumerate(site_cells, start=1), 2):
        shared = a.intersection(b)
        if len(shared):
            nonoverlap_ok = False
            violations.append(Violation("overlap", (i, j), tuple(shared)))

    return ValidationReport(
        containment_ok=containment_ok,
        nonoverlap_ok=nonoverlap_ok,
        idle_count=len(layout.idle_cells()),
        violations=tuple(violations),
    )


_ROTATION_ORDER = (Rotation.R0, Rotation.R90, Rotation.R180, Rotation.R270)


def pack_sites(patch: CellSet, footprint: FootprintSpec, k_max: int) -> PatchLayout:
    """Greedily place up to ``k_max`` rotated copies of a footprint.

    Deterministic scan: the four bounding-box corners are tried first, then
    anchors in row-major order, each with rotation preference R0, R90, R180,
    R270. A placement must be contained in the patch and disjoint from all
    earlier placements. Zero feasible placements yields an empty layout, not
    an error.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if not len(patch):
        return PatchLayout(patch, (), footprint.stage)

    rotated = {rot: rotate_footprint(footprint.shape, rot) for rot in _ROTATION_ORDER}
    x0, y0, x1, y1 = patch.bounding_box()

    def candidates() -> Iterator[tuple[Cell, Rotation]]:
        for corner_x, corner_y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            for rot in _ROTATION_ORDER:
                w, h = rotated[rot].width, rotated[rot].height
                ax = corner_x if corner_x == x0 else corner_x - w + 1
                ay = corner_y if corner_y == y0 else corner_y - h + 1
                if ax >= x0 and ay >= y0:
                    yield (ax, ay), rot
        for ay in range(y0, y1 + 1):
            for ax in range(x0, x1 + 1):
                for rot in _ROTATION_ORDER:
                    if ax + rotated[rot].width - 1 <= x1 and ay + rotated[rot].height - 1 <= y1:
                        yield (ax, ay), rot

    placed: list[PlacedSite] = []
    occupied: set[Cell] = set()
    for (ax, ay), rot in candidates():
        if len(placed) >= k_max:
            break
        cells = rotated[rot].translate(ax, ay)
        if not cells.cells <= patch.cells:
            continue
        if not cells.cells.isdisjoint(occupied):
            continue
        placed.append(PlacedSite((ax, ay), rot, footprint))
        occupied |= cells.cells

    return PatchLayout(patch, tuple(placed), footprint.stage)
