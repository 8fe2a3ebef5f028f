"""Raster region algebra: unions, intersections, kernels, accessibility."""

import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import bool_canvas
import probes
from diskmap import regions
from diskmap.errors import EmptyIntersectionError, InvalidSequenceError
from diskmap.regions import RasterRegion

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
SHAPE = (128, 128)
BASE = (64, 64)


def disk_mask(shape, center, radius):
    """The boolean canvas of regions._disk, which paints packed rows."""
    return regions._unpack(regions._disk(shape, center, radius), shape[1])


def disk_region(radius, center=BASE, basepoint=BASE, shape=SHAPE):
    return RasterRegion(disk_mask(shape, center, radius), basepoint)


def disk_with_int_canvas(shape, center, radius):
    """The earlier `_disk` predicate, which builds an int64 canvas of squared
    distances; the reference for the bool-only form."""
    rr, cc = np.ogrid[: shape[0], : shape[1]]
    return (rr - center[0]) ** 2 + (cc - center[1]) ** 2 <= radius * radius


def dilate(mask):
    """The packed one-cell dilation of a boolean mask, unpacked."""
    return regions._unpack(regions._dilate(regions._pack(mask), mask.shape[1]), mask.shape[1])


def erode(mask):
    """The packed one-cell erosion of a boolean mask, unpacked."""
    return regions._unpack(regions._erode(regions._pack(mask)), mask.shape[1])


def fill_holes(mask):
    """The packed hole filling of a boolean mask: its extended union alone."""
    return regions.extended_union(RasterRegion(mask, (0, 0))).mask


def assert_padding_unset(bits, w):
    """Packed rows of w cells whose padding bits are all unset."""
    assert bits.dtype == np.uint8 and bits.shape[1] == (w + 7) // 8
    assert not np.unpackbits(bits, axis=1)[:, w:].any()


def random_region(rng):
    """Union of a few overlapping disks around the basepoint; always valid."""
    mask = disk_mask(SHAPE, BASE, int(rng.integers(6, 14)))
    for _ in range(int(rng.integers(1, 6))):
        dr, dc = rng.integers(-28, 29, size=2)
        radius = int(rng.integers(8, 26))
        mask = mask | disk_mask(SHAPE, (BASE[0] + int(dr), BASE[1] + int(dc)), radius)
    labels, _ = ndimage.label(mask, structure=CROSS)
    return RasterRegion(labels == labels[BASE], BASE)


# ---------------------------------------------------------------------------
# structure and validation

def test_validate_accepts_disk():
    probes.validate(disk_region(30))


def test_validate_rejects_bad_basepoints():
    with pytest.raises(ValueError, match="outside the canvas"):
        probes.validate(RasterRegion(disk_mask(SHAPE, BASE, 10), (-1, 5)))
    with pytest.raises(ValueError, match="not inside"):
        probes.validate(RasterRegion(disk_mask(SHAPE, BASE, 10), (5, 5)))


def test_validate_rejects_margin_contact():
    mask = np.zeros(SHAPE, dtype=bool)
    mask[0:20, 30:40] = True
    with pytest.raises(ValueError, match="margin"):
        probes.validate(RasterRegion(mask, (5, 35)))


def test_validate_rejects_disconnected():
    mask = disk_mask(SHAPE, (40, 40), 10) | disk_mask(SHAPE, (90, 90), 10)
    with pytest.raises(ValueError, match="components"):
        probes.validate(RasterRegion(mask, (40, 40)))


def test_simple_connectivity():
    assert disk_region(30).is_simply_connected()
    annulus = disk_mask(SHAPE, BASE, 40) & ~disk_mask(SHAPE, BASE, 20)
    assert not RasterRegion(annulus, (64, 94)).is_simply_connected()


def test_same_frame_needs_shape_and_basepoint():
    a = disk_region(10)
    assert a.same_frame(disk_region(20))
    assert not a.same_frame(disk_region(10, basepoint=(64, 65)))
    assert not a.same_frame(disk_region(10, shape=(256, 256), center=(64, 64)))


def test_a_region_owns_its_cells():
    # a region used to keep the caller's array without a copy, so writing
    # to that array later changed the region
    mask = np.zeros(SHAPE, dtype=bool)
    mask[50:80, 50:80] = True
    region = RasterRegion(mask, BASE)
    mask[BASE] = False
    assert region.mask[BASE] and region.area() == 900
    probes.validate(region)
    with pytest.raises(ValueError, match="read-only"):
        region.mask[BASE] = False
    assert region.mask[BASE]


def test_fill_holes_closes_ring():
    ring = disk_mask(SHAPE, BASE, 30) & ~disk_mask(SHAPE, BASE, 15)
    filled = fill_holes(ring)
    assert bool(filled[BASE])
    assert filled.sum() == disk_mask(SHAPE, BASE, 30).sum()


# ---------------------------------------------------------------------------
# random battery: algebraic laws of the two constructions

@pytest.mark.parametrize("seed", range(60))
def test_region_algebra_laws(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_region(rng) for _ in range(3))

    eu = regions.extended_union(a, b)
    ri = regions.reduced_intersection(a, b)

    # commutative, both exactly
    assert (eu.mask == regions.extended_union(b, a).mask).all()
    assert (ri.mask == regions.reduced_intersection(b, a).mask).all()

    # associative, exactly, and the n-ary calls agree with folding
    left = regions.extended_union(regions.extended_union(a, b), c)
    right = regions.extended_union(a, regions.extended_union(b, c))
    nary = regions.extended_union(a, b, c)
    assert (left.mask == right.mask).all()
    assert (left.mask == nary.mask).all()
    ileft = regions.reduced_intersection(regions.reduced_intersection(a, b), c)
    iright = regions.reduced_intersection(a, regions.reduced_intersection(b, c))
    inary = regions.reduced_intersection(a, b, c)
    assert (ileft.mask == iright.mask).all()
    assert (ileft.mask == inary.mask).all()

    # idempotent
    assert (regions.extended_union(a, a).mask == bool_canvas.fill_holes(a.mask)).all()
    assert (regions.reduced_intersection(a, a).mask == a.mask).all()

    # containment
    assert not (a.mask & ~eu.mask).any()
    assert not (b.mask & ~eu.mask).any()
    assert not (ri.mask & ~(a.mask & b.mask)).any()

    # the union construction leaves no holes and stays valid
    assert eu.is_simply_connected()
    probes.validate(eu)
    probes.validate(ri)

    # independent routes: union plus its bounded complement components;
    # intersection's basepoint component
    union = a.mask | b.mask
    comp_labels, _ = ndimage.label(~union, structure=np.ones((3, 3), bool))
    border = np.unique(
        np.concatenate([comp_labels[0], comp_labels[-1], comp_labels[:, 0], comp_labels[:, -1]])
    )
    holes = ~union & ~np.isin(comp_labels, border[border != 0])
    assert (eu.mask == (union | holes)).all()
    inter_labels, _ = ndimage.label(a.mask & b.mask, structure=CROSS)
    assert (ri.mask == (inter_labels == inter_labels[BASE])).all()

    # monotonicity: growing one argument can only grow the results
    grown = RasterRegion(b.mask | c.mask, BASE)
    assert not (eu.mask & ~regions.extended_union(a, grown).mask).any()
    assert not (ri.mask & ~regions.reduced_intersection(a, grown).mask).any()


def test_frame_mismatch_rejected():
    a = disk_region(20)
    with pytest.raises(ValueError, match="frames"):
        regions.extended_union(a, disk_region(20, basepoint=(64, 65)))
    with pytest.raises(ValueError, match="frames"):
        regions.reduced_intersection(a, a, disk_region(20, basepoint=(64, 65)))


def test_empty_intersection_raises():
    a = disk_region(15, center=(40, 40), basepoint=(40, 40))
    b = RasterRegion(disk_mask(SHAPE, (90, 90), 15), (40, 40))
    with pytest.raises(EmptyIntersectionError):
        regions.reduced_intersection(a, b)


def test_nary_forms_need_input():
    with pytest.raises(ValueError, match="at least one region"):
        regions.extended_union()
    with pytest.raises(ValueError, match="at least one region"):
        regions.reduced_intersection()
    with pytest.raises(ValueError, match="at least one region"):
        regions.kernel_of_shrinking([])


@settings(max_examples=40, deadline=None)
@given(count=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1))
def test_nary_folds_match_the_stacked_reduce(count, seed):
    # the folds work in place on one canvas, which must be a copy: every
    # input mask is unchanged afterwards
    rng = np.random.default_rng(seed)
    terms = [random_region(rng) for _ in range(count)]
    # successive erosions of one region shrink strictly (an opening lies
    # inside its region) and keep the basepoint, whose disk has radius 6 or more
    family = [terms[0]]
    for _ in range(count - 1):
        family.append(RasterRegion(bool_canvas.erode(family[-1].mask), BASE))
    before = [r.mask.copy() for r in terms + family]

    union = np.logical_or.reduce([r.mask for r in terms])
    assert np.array_equal(regions.extended_union(*terms).mask, bool_canvas.fill_holes(union))
    labels, _ = ndimage.label(np.logical_and.reduce([r.mask for r in terms]), structure=CROSS)
    assert np.array_equal(regions.reduced_intersection(*terms).mask, labels == labels[BASE])
    inter = np.logical_and.reduce([r.mask for r in family])
    labels, _ = ndimage.label(bool_canvas.erode(bool_canvas.erode(bool_canvas.dilate(inter))), structure=CROSS)
    assert np.array_equal(regions.kernel_of_shrinking(family).mask, labels == labels[BASE])
    for r, mask in zip(terms + family, before):
        assert np.array_equal(r.mask, mask)


# ---------------------------------------------------------------------------
# kernels of shrinking families

def test_kernel_of_nested_disks_is_eroded_core():
    fam = [disk_region(r) for r in (40, 30, 20)]
    ker = regions.kernel_of_shrinking(fam)
    want = ndimage.binary_erosion(disk_mask(SHAPE, BASE, 20), structure=CROSS)
    assert ker.area() == 1145
    assert (ker.mask == want).all()


def test_kernel_rejects_growing_family():
    with pytest.raises(InvalidSequenceError) as err:
        regions.kernel_of_shrinking([disk_region(20), disk_region(30)])
    assert err.value.index == 0


def test_kernel_of_single_region():
    ker = regions.kernel_of_shrinking([disk_region(40)])
    want = ndimage.binary_erosion(disk_mask(SHAPE, BASE, 40), structure=CROSS)
    assert (ker.mask == want).all()


# ---------------------------------------------------------------------------
# boundary accessibility

def test_schoenfliess_disk_passes():
    assert regions.schoenfliess_test(disk_region(40))


@pytest.mark.parametrize("width,verdict", [(2, False), (3, True), (4, True), (9, True)])
def test_schoenfliess_open_slit_width_threshold(width, verdict):
    mask = disk_mask(SHAPE, BASE, 40).copy()
    mask[24:65, 64 : 64 + width] = False
    reg = RasterRegion(mask, (80, 64))
    probes.validate(reg)
    assert reg.is_simply_connected()
    assert regions.schoenfliess_test(reg) is verdict


def test_schoenfliess_buried_slot_fails():
    mask = disk_mask(SHAPE, BASE, 40).copy()
    mask[30:60, 64:66] = False
    reg = RasterRegion(mask, (80, 64))
    probes.validate(reg)
    assert not reg.is_simply_connected()
    assert not regions.schoenfliess_test(reg)


def test_schoenfliess_annulus_fails():
    annulus = disk_mask(SHAPE, BASE, 40) & ~disk_mask(SHAPE, BASE, 20)
    assert not regions.schoenfliess_test(RasterRegion(annulus, (64, 94)))


@pytest.mark.parametrize("seed", range(40))
def test_schoenfliess_matches_ndimage(seed):
    # Omega = ~closure as one 8-connected component, and every boundary cell
    # within three cross-dilations of it; regions with carved slits and
    # pockets reach both clauses
    rng = np.random.default_rng(seed)
    mask = random_region(rng).mask.copy()
    for _ in range(int(rng.integers(0, 6))):
        r, c = rng.integers(20, 108, size=2)
        mask[r : r + int(rng.integers(1, 4)), c : c + int(rng.integers(1, 30))] = False
    omega = ~ndimage.binary_dilation(mask, structure=CROSS)
    near = ndimage.binary_dilation(omega, structure=CROSS, iterations=3)
    boundary = mask & ~ndimage.binary_erosion(mask, structure=CROSS)
    want = ndimage.label(omega, structure=BOX)[1] == 1 and not (boundary & ~near).any()
    assert regions.schoenfliess_test(RasterRegion(mask, BASE)) == want


# ---------------------------------------------------------------------------
# demo family

def test_demo_family_terms_are_clean():
    # the builder does not validate its terms: one component, the basepoint
    # and the empty margin hold by construction at every canvas size
    for size in (512, 1000, 1024):
        for f in regions.build_shrinking_spiral_family(size=size):
            probes.validate(f)
            assert f.is_simply_connected()
    fam = regions.build_shrinking_spiral_family(size=256)
    assert [f.area() for f in fam] == [34567, 33211, 31642]
    for f in fam:
        probes.validate(f)
        assert f.is_simply_connected()
    # the first two corridors are wide enough to stay raster-accessible; the
    # last term's two-cell throat sits exactly at the sealing width, so the
    # closure-based test already reports it sealed
    assert regions.schoenfliess_test(fam[0])
    assert regions.schoenfliess_test(fam[1])
    assert not regions.schoenfliess_test(fam[2])


def test_demo_family_kernel_walls_off_cavity():
    fam = regions.build_shrinking_spiral_family(size=256)
    ker = regions.kernel_of_shrinking(fam)
    assert not ker.is_simply_connected()
    assert not regions.schoenfliess_test(ker)


def traced(fn):
    """fn() and its tracemalloc peak above the memory held before the call, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - start) / 2**20


def test_demo_family_is_built_one_level_at_a_time():
    # at size 1024 a boolean canvas is 1 MiB: 14.02 MiB with every level's
    # corridor, body and the full-canvas cavity and throat held until the
    # end, 6.05 with the three outputs and one level's temporaries, 5.01
    # with each level's basepoint component painted back onto its carved
    # canvas, 1.02 on packed rows (128 KiB a canvas)
    fam, peak = traced(lambda: regions.build_shrinking_spiral_family(size=1024))
    assert peak < 1.3
    assert [f.area() for f in fam] == [555160, 544529, 533789]


@pytest.fixture(scope="module")
def demo_family():
    """The benchmark's 1024 x 1024 demo family: three 1 MiB masks."""
    return regions.build_shrinking_spiral_family(size=1024)


# each operation holds its outputs, a few packed canvases of temporaries
# (128 KiB each at size 1024) and row blocks of at most regions._BLOCK_CELLS
# elements (64 KiB); each bound is the peak measured on packed rows plus
# 0.25 MiB, two packed canvases, rounded up to 0.05 MiB


def test_a_union_reduce_holds_one_canvas_of_temporaries(demo_family):
    # 5.04 MiB with the fold canvas, the complement, its run canvas and
    # the painted holes each a full canvas; 2.31 with the holes painted in
    # row blocks onto the fold canvas (the first union is held by the
    # second); 0.59 on packed rows
    union, peak = traced(lambda: functools.reduce(regions.extended_union, demo_family))
    assert peak < 0.85
    assert np.array_equal(union.mask, demo_family[0].mask)


def test_an_intersection_reduce_holds_one_canvas_of_temporaries(demo_family):
    # 4.03 MiB with the run canvas, its edge test and the painted component
    # each a full canvas; 2.27 with the component painted back onto the
    # fold canvas; 0.57 on packed rows
    inter, peak = traced(lambda: functools.reduce(regions.reduced_intersection, demo_family))
    assert peak < 0.85
    assert np.array_equal(inter.mask, demo_family[-1].mask)


def test_a_kernel_holds_one_canvas_of_temporaries(demo_family):
    # 4.03 MiB with the intersection held through closing and eroding; 2.01
    # with each step freeing the canvas it read; 0.52 on packed rows
    kernel, peak = traced(lambda: regions.kernel_of_shrinking(demo_family))
    assert peak < 0.8
    assert not kernel.is_simply_connected()


def test_the_schoenfliess_test_holds_one_canvas_of_temporaries(kernel_pbm):
    # 4.05 MiB with the closure, its complement, the run canvas and its edge
    # test; 1.37 counting the complement's components in row blocks; 0.50
    # on packed rows
    kernel, _ = kernel_pbm
    verdict, peak = traced(lambda: regions.schoenfliess_test(kernel))
    assert peak < 0.75
    assert verdict is False


def test_an_accessible_region_is_tested_on_two_canvases(demo_family):
    # the accepting path goes on past the count: 5.0 MiB with Omega, the
    # closure and every dilation held; 2.01 dropping each after its use,
    # where dilate needs its input and output canvas at once; 0.52 on
    # packed rows
    verdict, peak = traced(lambda: regions.schoenfliess_test(demo_family[0]))
    assert peak < 0.8
    assert verdict is True


def test_a_demo_round_holds_packed_regions(tmp_path):
    # the benchmark's round: 7.32 MiB at its peak and 7.01 held at its end
    # with one 1 MiB boolean canvas for each of the seven regions it keeps
    # (three levels, the kernel, the union, the intersection, the loaded
    # kernel); 1.26 and 0.88 on packed rows, 1.21 and 0.89 saved and
    # loaded as raw PBM (P4)
    def round_():
        family = regions.build_shrinking_spiral_family(size=1024)
        kernel = regions.kernel_of_shrinking(family)
        verdict = regions.schoenfliess_test(kernel)
        union = functools.reduce(regions.extended_union, family)
        inter = functools.reduce(regions.reduced_intersection, family)
        regions.save_region(kernel, tmp_path / "kernel.pbm")
        return family, kernel, verdict, union, inter, regions.load_region(tmp_path / "kernel.pbm")

    tracemalloc.start()
    try:
        out = round_()
        held, peak = (m / 2**20 for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1.55 and held < 1.0
    family, kernel, verdict, union, inter, loaded = out
    assert verdict is False and np.array_equal(loaded.bits, kernel.bits)
    assert np.array_equal(union.bits, family[0].bits) and np.array_equal(inter.bits, family[-1].bits)


@pytest.mark.parametrize("size", [256, 512, 1000, 1024])
def test_disk_matches_int_canvas_on_the_demo_radii(size):
    # the body radii 212 * size / 512 - k, e.g. 414.0625 at size 1000
    shape, center = (size, size), (size // 2, size // 2)
    for radius in (212.0 * size / 512.0 - k for k in range(3)):
        got = disk_mask(shape, center, radius)
        assert_padding_unset(regions._disk(shape, center, radius), size)
        assert got.dtype == bool
        assert np.array_equal(got, disk_with_int_canvas(shape, center, radius))


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    center=st.tuples(st.integers(-8, 48), st.integers(-8, 48)),
    radius=st.one_of(
        st.integers(0, 50), st.integers(0, 800).map(lambda k: k / 16.0), st.floats(0, 60)
    ),
)
@example(h=40, w=40, center=(0, 39), radius=12.0625)
@example(h=40, w=40, center=(39, 40), radius=0.0)
# Pythagorean rows, where r^2 - dy^2 is a perfect square and the row's
# half-chord must round neither up nor down: 3-4-5, 5-12-13, 7-24-25 and 15-20-25
@example(h=40, w=40, center=(20, 20), radius=5)
@example(h=40, w=40, center=(20, 20), radius=5.0)
@example(h=40, w=40, center=(20, 20), radius=13)
@example(h=40, w=40, center=(20, 20), radius=13.0)
@example(h=40, w=40, center=(20, 20), radius=25)
@example(h=40, w=40, center=(20, 20), radius=25.0)
# r^2 - 1 is the double just below 81, whose square root rounds up to 9.0
@example(h=40, w=40, center=(20, 20), radius=9.055385138137416)
def test_disk_matches_int_canvas_near_the_edges(h, w, center, radius):
    assert_padding_unset(regions._disk((h, w), center, radius), w)
    got = disk_mask((h, w), center, radius)
    assert np.array_equal(got, disk_with_int_canvas((h, w), center, radius))


def edt_paint_curve(shape, points, half_width):
    """The distance-transform painter that _paint_curve replaced, kept as its oracle."""
    canvas = np.zeros(shape, dtype=bool)
    ij = np.rint(points).astype(int)
    keep = (
        (ij[:, 0] >= 0) & (ij[:, 0] < shape[0]) & (ij[:, 1] >= 0) & (ij[:, 1] < shape[1])
    )
    canvas[ij[keep, 0], ij[keep, 1]] = True
    if not canvas.any():
        return canvas
    dist = ndimage.distance_transform_edt(~canvas)
    return dist <= half_width


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    points=st.lists(st.tuples(st.floats(-12.0, 52.0), st.floats(-12.0, 52.0)), max_size=25),
    repeats=st.integers(0, 5),
    half_width=st.sampled_from([0.5, 2.0, 2.5, 7.8125, 8.0]),
)
def test_paint_curve_matches_distance_transform(shape, points, repeats, half_width):
    # duplicates, points off the canvas and the empty cloud are all drawn
    cloud = np.array(points + points[:repeats], dtype=np.float64).reshape(-1, 2)
    bits = regions._paint_curve(shape, cloud, half_width)
    assert_padding_unset(bits, shape[1])
    got = regions._unpack(bits, shape[1])
    assert got.shape == shape
    assert np.array_equal(got, edt_paint_curve(shape, cloud, half_width))


# ---------------------------------------------------------------------------
# run-based components and shift morphology against scipy.ndimage

BOX = np.ones((3, 3), dtype=bool)


def run_labels(mask, diagonal):
    """Label image from regions._runs, components numbered 1.. by first run."""
    h, w = mask.shape
    start, stop, root = regions._runs(regions._pack(mask), w, diagonal)
    number = np.unique(root, return_inverse=True)[1] + 1
    bounds = np.concatenate([[0], np.stack([start, stop], axis=1).ravel(), [h * (w + 1)]])
    values = np.zeros(bounds.size - 1, dtype=np.int64)
    values[1::2] = number
    return np.repeat(values, np.diff(bounds)).reshape(h, w + 1)[:, 1:]


def assert_matches_ndimage(mask):
    w = mask.shape[1]
    for diagonal, structure in ((False, CROSS), (True, BOX)):
        want, count = ndimage.label(mask, structure=structure)
        assert np.array_equal(run_labels(mask, diagonal), want)
        assert regions._component_count(regions._pack(mask), w, diagonal) == count
    # the basepoint component at the first, middle and last set cell
    labels, _ = ndimage.label(mask, structure=CROSS)
    cells = np.argwhere(mask)
    for bp in map(tuple, cells[[0, len(cells) // 2, -1]] if len(cells) else []):
        got = regions._basepoint_component(regions._pack(mask), w, bp, RuntimeError("unreachable")).mask
        assert np.array_equal(got, labels == labels[bp])
    # holes: complement components that do not reach the canvas border
    labels, _ = ndimage.label(~mask, structure=BOX)
    border = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    assert np.array_equal(fill_holes(mask), mask | ((labels > 0) & ~np.isin(labels, border)))
    assert np.array_equal(dilate(mask), ndimage.binary_dilation(mask, structure=CROSS))
    assert np.array_equal(erode(mask), ndimage.binary_erosion(mask, structure=CROSS))


def test_a_basepoint_component_is_painted_contiguous_and_kept():
    # the component is painted back onto the packed rows handed in
    mask = disk_mask(SHAPE, BASE, 20.0) | disk_mask(SHAPE, (20, 20), 5.0)
    got = regions._basepoint_component(regions._pack(mask), SHAPE[1], BASE, RuntimeError("unreachable")).mask
    assert np.array_equal(got, disk_mask(SHAPE, BASE, 20.0))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    density=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.3, 0.6)),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 40), density=0.45, seed=1)
@example(shape=(40, 1), density=0.45, seed=2)
@example(shape=(30, 30), density=0.0, seed=0)
@example(shape=(30, 30), density=1.0, seed=0)
def test_runs_and_morphology_match_ndimage(shape, density, seed):
    # random masks touch the canvas border on every side
    assert_matches_ndimage(np.random.default_rng(seed).random(shape) < density)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    density=st.floats(0.3, 0.7),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(9, 1), density=0.5, seed=3)
@example(shape=(9, 2), density=0.5, seed=4)
@example(shape=(1, 9), density=0.5, seed=5)
@example(shape=(2, 9), density=0.5, seed=6)
@example(shape=(1, 1), density=0.5, seed=7)
def test_morphology_matches_ndimage_on_any_layout(shape, density, seed):
    # the flat shifts need a C-contiguous canvas: a transposed mask, a strided
    # view and a Fortran-ordered copy must come out the same and stay unchanged
    mask = np.random.default_rng(seed).random(shape) < density
    for layout in (mask, mask.T, mask[::2, ::3], np.asfortranarray(mask)):
        before = layout.copy()
        assert np.array_equal(dilate(layout), ndimage.binary_dilation(layout, structure=CROSS))
        assert np.array_equal(erode(layout), ndimage.binary_erosion(layout, structure=CROSS))
        assert np.array_equal(layout, before)


def shifted_by_unpacking(bits, right):
    """Packed rows shifted one cell by unpacking all 8 * nb bits of each row,
    padding bits too, shifting them with unset cells coming in at the row
    ends, and packing them again."""
    cells = np.unpackbits(np.ascontiguousarray(bits), axis=1)
    out = np.zeros_like(cells)
    if right:
        out[:, 1:] = cells[:, :-1]
    else:
        out[:, :-1] = cells[:, 1:]
    return np.packbits(out, axis=1)


def row_end_rows(rng, h, w):
    """A random h x w boolean mask whose rows alternate a set last cell with
    a set first cell, so carries meet every row end."""
    mask = rng.random((h, w)) < 0.5
    mask[::2, -1] = True
    mask[1::2, 0] = True
    return mask


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_shift_matches_the_unpacked_shift(right):
    # widths 1-70 pack to whole bytes (w % 8 == 0) and to padded rows; the
    # raw-byte rows also set every padding bit, and the last byte's low bit
    # and the first byte's high bit carry across the row ends
    rng = np.random.default_rng(7)
    for w in range(1, 71):
        for h in (1, 2, 5, 16):
            masks = regions._pack(row_end_rows(rng, h, w)), rng.integers(0, 256, (h, (w + 7) // 8), dtype=np.uint8)
            for bits in masks:
                tall = np.ascontiguousarray(np.concatenate([bits, bits[::-1]]).T)
                for layout in (bits, tall.T, np.repeat(bits, 2, axis=1)[:, ::2], np.asfortranarray(bits)):
                    before = layout.copy()
                    got = regions._shift(layout, right)
                    assert got.dtype == np.uint8 and np.array_equal(got, shifted_by_unpacking(layout, right))
                    assert np.array_equal(layout, before)
    # a canvas of no rows or of no columns shifts to itself
    for shape in ((0, 3), (3, 0)):
        assert regions._shift(np.zeros(shape, dtype=np.uint8), right).shape == shape


def test_run_edges_at_the_row_ends_match_the_bool_canvas():
    # a run ending on a row's last cell and one starting on the next row's
    # first cell, at every width from 1 to 70 and in blocks of a row or more
    rng = np.random.default_rng(11)
    for w in range(1, 71):
        for h in (1, 2, 5, 16):
            mask = row_end_rows(rng, h, w)
            for block, diagonal, complement in itertools.product((1, 20, 1 << 16), (False, True), (False, True)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(regions, "_BLOCK_CELLS", block)
                    got = regions._runs(regions._pack(mask), w, diagonal, complement)
                for g, want in zip(got, bool_canvas.runs(mask, diagonal, complement)):
                    assert np.array_equal(g, want)


@pytest.mark.parametrize("size", [256, 512, 1024])
def test_runs_and_morphology_match_ndimage_on_the_demo_family(size):
    for level in regions.build_shrinking_spiral_family(size=size):
        for mask in (level.mask, ~level.mask, ~bool_canvas.dilate(level.mask)):
            assert_matches_ndimage(mask)


@pytest.mark.parametrize("basepoint", [(-6, 3), (3, -6), (128, 3), (3, 200)])
def test_off_canvas_basepoint_rejected(basepoint):
    # a negative basepoint used to wrap to the far side of the canvas and
    # come back on the result, a large one to fail with a bare IndexError
    a = RasterRegion(np.ones(SHAPE, dtype=bool), basepoint)
    with pytest.raises(ValueError, match="outside the canvas"):
        regions.reduced_intersection(a, a)
    with pytest.raises(ValueError, match="outside the canvas"):
        regions.kernel_of_shrinking([a])


def test_demo_family_input_validation():
    with pytest.raises(ValueError, match="256"):
        regions.build_shrinking_spiral_family(size=128)


# ---------------------------------------------------------------------------
# persistence

def p4(mask):
    """The raw PBM (P4) bytes of a boolean mask: its header, then its packed rows."""
    mask = np.asarray(mask, dtype=bool)
    return b"P4\n%d %d\n" % (mask.shape[1], mask.shape[0]) + np.packbits(mask, axis=1).tobytes()


TWO_BY_TWO = p4([[0, 1], [1, 0]])


@settings(max_examples=100, deadline=None)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)))
def test_save_region_bytes_match_per_cell_writer(tmp_path_factory, mask):
    # the file is its header and the packed rows; the cells read back are
    # the ones the per-cell P1 writer wrote
    path = tmp_path_factory.mktemp("pbm") / "region.pbm"
    for m in (mask, mask[:1, :1], mask[:1], mask[:, :1]):
        regions.save_region(RasterRegion(m, (0, 0)), path)
        assert path.read_bytes() == p4(m)
        back = regions.load_region(path)
        assert_padding_unset(back.bits, m.shape[1])
        assert bool_canvas.per_cell_pbm(back.mask) == bool_canvas.per_cell_pbm(m)


def test_pbm_round_trip(tmp_path):
    reg = random_region(np.random.default_rng(11))
    path = tmp_path / "region.pbm"
    regions.save_region(reg, path)
    assert path.read_bytes().startswith(b"P4\n128 128\n")
    assert (tmp_path / "region.pbm.json").exists()
    back = regions.load_region(path)
    assert back.basepoint == reg.basepoint
    assert (back.mask == reg.mask).all()


@pytest.fixture(scope="module")
def kernel_pbm(tmp_path_factory, demo_family):
    """The 1024 x 1024 demo kernel, saved: a 128 KiB raster."""
    kernel = regions.kernel_of_shrinking(demo_family)
    path = tmp_path_factory.mktemp("kernel") / "kernel.pbm"
    regions.save_region(kernel, path)
    return kernel, path


def test_save_region_holds_one_raster_of_temporaries(kernel_pbm, tmp_path):
    # 6.0 MiB with the text built in memory and then joined to its header,
    # 2.01 with the whole raster filled in place, 0.14 a row block at a
    # time, 0.16 with half the rows to a block, looked up a packed byte at
    # a time; 0.07 writing the packed rows as they are (area() counting a
    # row block of cells, or eight bytes to a count in blocks of bytes)
    kernel, path = kernel_pbm
    _, peak = traced(lambda: regions.save_region(kernel, tmp_path / "kernel.pbm"))
    assert peak < 0.12
    assert (tmp_path / "kernel.pbm").read_bytes() == path.read_bytes()


def test_load_region_holds_about_one_raster_of_temporaries(kernel_pbm):
    # 6.0 MiB with the raster split off the text and cast twice, 3.18 with
    # the whole text and its packed form held, 1.32 with the mask and one
    # chunk, 0.51 with packed rows, a row block of cells and one chunk;
    # 0.13 reading the raster straight into the region's rows
    kernel, path = kernel_pbm
    back, peak = traced(lambda: regions.load_region(path))
    assert peak < 0.19
    assert np.array_equal(back.mask, kernel.mask) and back.basepoint == kernel.basepoint


def test_load_rejects_non_pbm(tmp_path):
    path = tmp_path / "bad.pbm"
    path.write_text("P5\n2 2\n0 1 1 0\n")
    with pytest.raises(ValueError, match="PBM"):
        regions.load_region(path)


@pytest.mark.parametrize(
    "text",
    [
        # plain PBM (P1), the format regions were once saved in
        b"P1\n2 x\n0 1\n",
        b"P1\n-2 -2\n0 1 1 0\n",
        b"P1\n2.0 2\n0 1 1 0\n",
        b"P1\n2\n",
        b"P1\n2 2\n0 1 1 0\n",
        b"P5\n2 2\n" + TWO_BY_TWO[-2:],
        b"P4\n2 x\n" + TWO_BY_TWO[-2:],
        b"P4\n-2 -2\n" + TWO_BY_TWO[-2:],
        b"P4\n2.0 2\n" + TWO_BY_TWO[-2:],
        b"P4\n2\n",
        b"P4 2 2",
        b" P4\n2 2\n" + TWO_BY_TWO[-2:],
    ],
)
def test_load_rejects_bad_header_naming_the_file(tmp_path, text):
    with pytest.raises(ValueError, match=r"plain\.pbm is not a raw PBM \(P4\) file"):
        regions.load_region(write_pbm(tmp_path, text))


def write_pbm(tmp_path, text, basepoint=(0, 0)):
    path = tmp_path / "plain.pbm"
    path.write_bytes(text)
    (tmp_path / "plain.pbm.json").write_text(json.dumps({"basepoint": list(basepoint)}))
    return path


@pytest.mark.parametrize(
    "header",
    [
        b"P4\n# two rows\n4 2\n",
        b"P4 4 2 ",
        b"P4#magic\n4#width\n2\n",
        b"P4\r\n# two rows\r\n4\t2\r",
        b"P4\n# one\n\n# two\n4 2\n",
    ],
)
def test_load_accepts_header_whitespace_and_comments(tmp_path, header):
    back = regions.load_region(write_pbm(tmp_path, header + bytes([0x60, 0x90])))
    assert np.array_equal(back.mask, [[False, True, True, False], [True, False, False, True]])


def test_load_unsets_padding_bits(tmp_path):
    # padding bits carry no meaning in the format: a width of 3 with every
    # bit of both bytes set holds six cells, and no complement run or count
    # sees the five padding bits of a row
    back = regions.load_region(write_pbm(tmp_path, b"P4\n3 2\n\xff\xff"))
    assert_clean(back, np.ones((2, 3), dtype=bool))
    assert regions._runs(back.bits, 3, complement=True)[0].size == 0
    assert regions.extended_union(back).area() == 6


@pytest.mark.parametrize("raster", [TWO_BY_TWO[-2:-1], TWO_BY_TWO[-2:] + b"\x00", b""], ids=["0 1 1", "0 1 1 0 1", ""])
def test_load_rejects_wrong_raster_size(tmp_path, raster):
    # a byte short, a byte long and no raster (ids: the P1 rasters these
    # cases were first written for)
    with pytest.raises(ValueError, match=r"plain\.pbm holds \d raster bytes, not the 2 of 2 x 2"):
        regions.load_region(write_pbm(tmp_path, b"P4\n2 2\n" + raster))


@pytest.mark.parametrize("basepoint", [[99, 99], [-16, -16], [2, 0], [0, -1]], ids=["far", "negative", "row", "col"])
def test_load_rejects_basepoint_off_the_raster(tmp_path, basepoint):
    # a negative index used to wrap to the far side, a large one to pass
    # unchecked until a later index failed
    with pytest.raises(ValueError, match=r"plain\.pbm has its sidecar basepoint .* off the 2 x 2 raster"):
        regions.load_region(write_pbm(tmp_path, TWO_BY_TWO, basepoint))


@pytest.mark.parametrize(
    "meta",
    [{}, {"basepoint": ["a", 1]}, {"basepoint": [1, 1, 1]}, {"basepoint": 1}, []],
    ids=["missing", "text", "three", "scalar", "list"],
)
def test_load_rejects_malformed_sidecar_basepoint(tmp_path, meta):
    path = write_pbm(tmp_path, TWO_BY_TWO)
    (tmp_path / "plain.pbm.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"plain\.pbm has no sidecar basepoint of two integers"):
        regions.load_region(path)


@pytest.mark.parametrize("raster", [TWO_BY_TWO[-2:], b"\xff\xff", TWO_BY_TWO[-2:-1]], ids=["good", "bad-bit", "too-few"])
def test_load_rejects_a_missing_sidecar_naming_the_file(tmp_path, raster):
    # it used to be a FileNotFoundError, and was looked for only once the
    # raster had been read (and checked); bad-bit sets the padding bits
    path = write_pbm(tmp_path, b"P4\n2 2\n" + raster)
    (tmp_path / "plain.pbm.json").unlink()
    with pytest.raises(ValueError, match=r"plain\.pbm has no sidecar plain\.pbm\.json"):
        regions.load_region(path)


def test_load_keeps_basepoint_on_the_raster(tmp_path):
    assert regions.load_region(write_pbm(tmp_path, TWO_BY_TWO, (1, 1))).basepoint == (1, 1)


@pytest.mark.parametrize("text", [b"{basepoint: [0, 0]}", b"\x80"], ids=["syntax", "encoding"])
def test_load_rejects_sidecar_that_is_not_json_naming_the_file(tmp_path, text):
    path = write_pbm(tmp_path, TWO_BY_TWO)
    (tmp_path / "plain.pbm.json").write_bytes(text)
    with pytest.raises(ValueError, match=r"plain\.pbm has a sidecar that is not JSON"):
        regions.load_region(path)


@pytest.mark.parametrize("shape", [[3, 3], [3, 2], [2], "2 x 3"])
def test_load_rejects_sidecar_shape_other_than_the_raster(tmp_path, shape):
    # rows then columns, as save_region writes it: [2, 3] for this raster
    path = write_pbm(tmp_path, p4([[0, 1, 1], [0, 1, 1]]))
    (tmp_path / "plain.pbm.json").write_text(json.dumps({"basepoint": [0, 1], "shape": shape}))
    with pytest.raises(ValueError, match=r"plain\.pbm has its sidecar shape .* not the raster's \[2, 3\]"):
        regions.load_region(path)
    (tmp_path / "plain.pbm.json").write_text(json.dumps({"basepoint": [0, 1], "shape": [2, 3]}))
    assert regions.load_region(path).mask.shape == (2, 3)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data[:-1], r"holds 131071 raster bytes, not the 131072 of 1024 x 1024"),
        (lambda data: data + b"\x00", r"holds 131073 raster bytes, not the 131072 of 1024 x 1024"),
        (
            lambda data: data.replace(b"1024 1024", b"99999999 99999999", 1),
            r"holds 131072 raster bytes, not the 1249999987500000 of 99999999 x 99999999",
        ),
    ],
    ids=["too-few", "too-many", "larger-than-the-file"],
)
def test_a_kernel_with_a_bad_tail_fails_as_the_whole_file(kernel_pbm, tmp_path, edit, message):
    # the whole file's size is checked against the header's raster before
    # the raster is allocated, so no refusal allocates it
    _, path = kernel_pbm
    path = write_pbm(tmp_path, edit(path.read_bytes()))
    refused, peak = traced(lambda: pytest.raises(ValueError, regions.load_region, path))
    assert re.search(message, str(refused.value)) and str(path) in str(refused.value)
    assert peak < 0.05


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    density=st.floats(0.3, 0.7),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 60),
)
def test_runs_and_painting_match_ndimage_in_row_blocks_of_any_size(shape, density, seed, block):
    # blocks of one row, of a row and a part, and of several rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regions, "_BLOCK_CELLS", block)
        assert_matches_ndimage(np.random.default_rng(seed).random(shape) < density)


# ---------------------------------------------------------------------------
# packed rows against the boolean canvases they replaced


def outcome(fn):
    """fn()'s boolean canvas, or its exception's type and message."""
    try:
        return np.asarray(fn())
    except (ValueError, EmptyIntersectionError, InvalidSequenceError) as e:
        return type(e), str(e), getattr(e, "index", None)


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got == want


def assert_clean(region, mask):
    """The region's packed rows have unset padding and hold mask's cells."""
    assert_padding_unset(region.bits, mask.shape[1])
    assert np.array_equal(region.mask, mask) and region.area() == np.count_nonzero(mask)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    density=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.2, 0.9)),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 1), density=1.0, seed=0)
@example(shape=(40, 1), density=0.5, seed=1)
@example(shape=(3, 8), density=1.0, seed=2)
@example(shape=(16, 33), density=0.7, seed=3)
def test_packed_regions_match_the_bool_canvas(tmp_path_factory, shape, density, seed):
    # widths 1-40: the padding bits of a row's last byte must never leak
    # into area(), the complement runs or the PBM raster
    h, w = shape
    rng = np.random.default_rng(seed)
    a, b = (rng.random(shape) < density for _ in range(2))
    bp = (int(rng.integers(h)), int(rng.integers(w)))
    ra, rb = RasterRegion(a, bp), RasterRegion(b, bp)
    assert_clean(ra, a)
    for diagonal, complement in itertools.product((False, True), repeat=2):
        got = regions._runs(ra.bits, w, diagonal, complement)
        for g, want in zip(got, bool_canvas.runs(a, diagonal, complement)):
            assert np.array_equal(g, want)
    assert np.array_equal(fill_holes(a), bool_canvas.fill_holes(a))
    assert np.array_equal(dilate(a), bool_canvas.dilate(a))
    assert np.array_equal(erode(a), bool_canvas.erode(a))
    union = regions.extended_union(ra, rb)
    assert_clean(union, bool_canvas.extended_union(a, b))
    assert union.is_simply_connected()
    inter = outcome(lambda: regions.reduced_intersection(ra, rb).mask)
    assert_same(inter, outcome(lambda: bool_canvas.reduced_intersection([a, b], bp)))
    # a shrinking pair (a's dilation, then a) and a pair that need not shrink
    grown = bool_canvas.dilate(a)
    for family in ([grown, a], [a, b], [a]):
        got = outcome(lambda: regions.kernel_of_shrinking([RasterRegion(m, bp) for m in family]).mask)
        assert_same(got, outcome(lambda: bool_canvas.kernel_of_shrinking(family, bp)))
    for m in (a, grown):
        assert regions.schoenfliess_test(RasterRegion(m, bp)) is bool_canvas.schoenfliess_test(m)
    # save then load, compared as bytes
    path = tmp_path_factory.mktemp("packed") / "region.pbm"
    regions.save_region(union, path)
    text = path.read_bytes()
    assert text == p4(union.mask)
    assert json.loads(path.with_suffix(".pbm.json").read_text())["area"] == union.area()
    back = regions.load_region(path)
    assert_clean(back, union.mask)
    regions.save_region(back, path)
    assert path.read_bytes() == text
