import numpy as np
import pytest

from patchmux.geometry import (
    CellSet,
    FootprintSpec,
    PatchLayout,
    PlacedSite,
    Rotation,
    Stage,
    pack_sites,
    rotate_footprint,
    validate_layout,
)
from patchmux.layout_io import (
    canonical_document,
    canonical_footprint,
    canonical_layout,
    canonical_patch,
)


def random_shape(rng, max_dim=9):
    """Non-empty anchored (bbox min at origin) random cell set."""
    w = int(rng.integers(1, max_dim))
    h = int(rng.integers(1, max_dim))
    mask = rng.random((w, h)) < 0.5
    cells = {(x, y) for x in range(w) for y in range(h) if mask[x, y]}
    if not cells:
        cells = {(0, 0)}
    x0 = min(c[0] for c in cells)
    y0 = min(c[1] for c in cells)
    return CellSet.of((x - x0, y - y0) for x, y in cells)


def test_rotation_identity_returns_same_shape():
    rng = np.random.default_rng(5)
    for _ in range(20):
        shape = random_shape(rng)
        assert rotate_footprint(shape, Rotation.R0) == shape
    # identity holds even for shapes away from the origin
    shifted = CellSet.of([(5, 7), (6, 7), (5, 8)])
    assert rotate_footprint(shifted, Rotation.R0) == shifted


def test_rotation_group_properties_on_random_shapes():
    rng = np.random.default_rng(17)
    for _ in range(100):
        shape = random_shape(rng)
        once = rotate_footprint(shape, Rotation.R90)
        twice = rotate_footprint(once, Rotation.R90)
        assert twice == rotate_footprint(shape, Rotation.R180)
        four = rotate_footprint(twice, Rotation.R180)
        assert four == shape
        for rot in Rotation:
            assert len(rotate_footprint(shape, rot)) == len(shape)


def test_rotation_preserves_canonical_footprint_cardinality():
    cult = canonical_footprint(Stage.CULTIVATION)
    assert len(rotate_footprint(cult.shape, Rotation.R180)) == 53


def test_rotation_turns_counterclockwise_and_re_anchors():
    # the group properties above hold for a clockwise turn too; these cells do not
    expected = {
        Rotation.R90: {(1, 0), (1, 1), (0, 2)},
        Rotation.R180: {(0, 0), (1, 1), (2, 1)},
        Rotation.R270: {(1, 0), (0, 1), (0, 2)},
    }
    for dx, dy in ((0, 0), (5, -3)):
        shape = CellSet.of([(0, 0), (1, 0), (2, 1)]).translate(dx, dy)
        for rotation, cells in expected.items():
            assert rotate_footprint(shape, rotation).cells == cells


def test_canonical_counts_and_nesting():
    doc = canonical_document()
    assert len(canonical_patch()) == 453
    assert len(doc.footprints[Stage.CULTIVATION]) == 53
    assert len(doc.footprints[Stage.INJECTION]) == 24
    assert doc.footprints[Stage.INJECTION].issubset(doc.footprints[Stage.CULTIVATION])


def test_canonical_cultivation_layout_valid_with_expected_idle():
    layout = canonical_layout(Stage.CULTIVATION)
    assert len(layout.sites) == 4
    rotations = {site.rotation for site in layout.sites}
    assert rotations == set(Rotation)
    report = validate_layout(layout)
    assert report.ok
    assert report.idle_count == 453 - 4 * 53 == 241
    assert not report.violations


def test_canonical_injection_layout_valid_with_expected_idle():
    layout = canonical_layout(Stage.INJECTION)
    report = validate_layout(layout)
    assert report.ok
    assert report.idle_count == 453 - 4 * 24 == 357


def test_single_injection_site_idle_count():
    layout = canonical_layout(Stage.INJECTION)
    single = PatchLayout(layout.patch, layout.sites[:1], Stage.INJECTION)
    report = validate_layout(single)
    assert report.ok
    assert report.idle_count == 453 - 24 == 429


def test_stage_nesting_per_site():
    cult = canonical_layout(Stage.CULTIVATION)
    inj = canonical_layout(Stage.INJECTION)
    patch = canonical_patch()
    for site_small, site_big in zip(inj.sites, cult.sites):
        small = site_small.cells()
        big = site_big.cells()
        assert small.issubset(big)
        assert big.issubset(patch)


def test_self_collision_reported():
    cult = canonical_footprint(Stage.CULTIVATION)
    site = PlacedSite((0, 0), Rotation.R0, cult)
    layout = PatchLayout(canonical_patch(), (site, site), Stage.CULTIVATION)
    report = validate_layout(layout)
    assert not report.nonoverlap_ok
    overlap = [v for v in report.violations if v.kind == "overlap"]
    assert overlap and overlap[0].sites == (1, 2)
    assert len(overlap[0].cells) == 53  # identical placement collides everywhere


def test_containment_violation_lists_outside_cells():
    patch = CellSet.of((x, y) for x in range(4) for y in range(4))
    foot = FootprintSpec(Stage.INJECTION, CellSet.of([(0, 0), (1, 0), (2, 0)]))
    layout = PatchLayout(patch, (PlacedSite((2, 0), Rotation.R0, foot),), Stage.INJECTION)
    report = validate_layout(layout)
    assert not report.containment_ok
    assert report.violations[0].cells == ((4, 0),)


def test_validate_requires_a_site():
    with pytest.raises(ValueError):
        validate_layout(PatchLayout(canonical_patch(), (), Stage.CULTIVATION))


def test_pack_four_corners_on_canonical_patch():
    layout = pack_sites(canonical_patch(), canonical_footprint(Stage.CULTIVATION), 4)
    assert len(layout.sites) == 4
    assert validate_layout(layout).ok


def test_pack_respects_k_max():
    layout = pack_sites(canonical_patch(), canonical_footprint(Stage.CULTIVATION), 1)
    assert len(layout.sites) == 1


def test_pack_on_too_small_patch_places_nothing():
    patch = CellSet.of((x, y) for x in range(3) for y in range(3))
    layout = pack_sites(patch, canonical_footprint(Stage.CULTIVATION), 4)
    assert layout.sites == ()


def test_pack_is_deterministic():
    a = pack_sites(canonical_patch(), canonical_footprint(Stage.CULTIVATION), 4)
    b = pack_sites(canonical_patch(), canonical_footprint(Stage.CULTIVATION), 4)
    assert a == b


def test_pack_results_always_validate():
    rng = np.random.default_rng(23)
    for _ in range(25):
        patch = random_shape(rng, max_dim=16)
        shape = random_shape(rng, max_dim=5)
        foot = FootprintSpec(Stage.INJECTION, shape)
        layout = pack_sites(patch, foot, int(rng.integers(1, 6)))
        if layout.sites:
            report = validate_layout(layout)
            assert report.ok
            placed = sum(len(s.cells()) for s in layout.sites)
            assert report.idle_count + placed == len(patch)

