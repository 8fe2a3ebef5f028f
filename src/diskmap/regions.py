"""Raster region algebra for image-domain bookkeeping.

Regions are rasters with a marked basepoint, 4-connected material,
8-connected complement, and an empty margin ring.  The algebra mirrors the
set operations used when comparing image domains of solved maps:

* extended_union: union with its holes filled (smallest simply connected
  raster region containing them all);
* reduced_intersection: basepoint component of the intersection;
* kernel_of_shrinking: limit region of a strictly shrinking family --
  basepoint component of the interior of the raster-closed intersection;
* schoenfliess_test: does the complement of the closure form a single
  region, with every boundary cell reachable from it?

A region keeps its cells as packed rows, `np.packbits(mask, axis=1)`: one
bit a cell, a row's first cell in its first byte's most significant bit,
each row padded with unset bits to a whole byte (128 KiB at 1024 x 1024).
Every kernel works on that storage and keeps the padding bits unset; the
`mask` property unpacks a read-only boolean canvas for callers that want
one.  On disk a region is raw PBM (P4), whose raster is its packed rows
byte for byte, with a JSON sidecar for its basepoint.

* Folds combine the rows bytewise (OR for unions, AND for intersections).
* The one-cell morphology combines each row with the rows above and below
  and with itself shifted one cell either way, each byte taking the bit
  that its neighbour byte shifts out.
* Components are found on the rows' runs of set cells with a vectorised
  union-find.  Run edges are the set bits of each row XOR its one-cell
  shift, found a row block at a time in one reused buffer.
* Runs are painted a row block at a time: the bytes a run covers whole
  are filled with np.repeat, and its first and last bytes take masks.
  Disks, the demo's corridors, filled holes and basepoint components are
  all painted so.

An operation holds its output, at most four packed canvases of temporaries
(a dilation or erosion holds its input, its output and two shifted
copies; the demo build also holds its levels and the running corridor)
and a row block of at most _BLOCK_CELLS elements: bytes in a pass over
packed rows, cells where area() counts them.  No operation unpacks a whole
canvas.
"""

import json
import re
from pathlib import Path

import numpy as np

from .errors import EmptyIntersectionError, InvalidSequenceError


_BLOCK_CELLS = 1 << 16  # elements in one row block of a canvas-wide pass

# The tables are built in Python: numpy kernels run at import would map
# pages of numpy's code into every process that imports the package.
# a column's bit in its byte, the first column most significant
_BIT = np.array([0x80 >> k for k in range(8)], dtype=np.uint8)
# the bits of a byte from column k on
_FROM = np.array([0xFF >> k for k in range(8)], dtype=np.uint8)


def _row_blocks(h, width):
    """The rows in a block of at most _BLOCK_CELLS elements, width to a row
    (one row when a row alone is longer), and the [r0, r1) blocks of h rows."""
    rows = max(1, _BLOCK_CELLS // max(width, 1))
    return min(rows, h), [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]


def _canvas(h, w):
    """Packed rows of an empty h x w canvas."""
    return np.zeros((h, (w + 7) // 8), dtype=np.uint8)


def _pack(mask):
    """Packed rows of a boolean canvas."""
    return np.packbits(np.asarray(mask, dtype=bool), axis=1)


def _unpack(bits, w):
    """The boolean canvas of packed rows of w cells."""
    return np.unpackbits(bits, axis=1, count=w).view(bool)


def _shift(bits, right):
    """Packed rows shifted one cell right (each cell taking its left
    neighbour) or left, each byte taking the bit that its neighbour byte
    shifts out, and unset bits shifted in at the row ends.

    The left shifts are multiplications, which wrap the same bits out of a
    byte: numpy's uint8 left shift has no SIMD loop (46-49 us on 1024 x 128
    bytes on a 2-core Xeon, numpy 2.4) where `* 2` and `* 128` take 6-8 us.
    The carries go in one pass over the flat rows, not a strided one over
    all but a column, and the one carry bit that crosses each row end is
    then cleared through a column slice, which a canvas of no columns has
    too."""
    bits = np.ascontiguousarray(bits)
    flat = bits.reshape(-1)
    if right:
        out = bits >> 1
        out.reshape(-1)[1:] |= flat[:-1] * 128
        out[1:, :1] &= 0x7F
    else:
        out = bits * 2
        out.reshape(-1)[:-1] |= flat[1:] >> 7
        out[:-1, -1:] &= 0xFE
    return out


def _clear_padding(bits, w):
    """Unset the padding bits of packed rows of w cells, in place."""
    if w % 8:
        bits[:, -1] &= ~_FROM[w % 8]


def _runs(bits, w, diagonal=False, complement=False):
    """Row runs of packed rows of w cells (of their complement with
    complement) and the component each run belongs to.

    A run is a maximal stretch of set cells in one row, given as flat
    [start, stop) offsets into the canvas laid out with one empty column in
    front of every row (row r, column c sits at r * (w + 1) + c + 1), so no
    run reaches into the next row.  Runs in consecutive rows join when their
    columns overlap, and with diagonal (8-connectivity) also when they only
    touch at a corner.  Returns (start, stop, root): root[i] is the index of
    the first run, in raster order, of run i's component, so the components
    are the distinct roots and `root == arange` marks one run of each.  The
    run edges are found a row block at a time in one reused buffer, where
    every row is followed by an empty byte: an edge is a set bit of the
    rows XOR their shift by one cell.
    """
    h, nb = bits.shape
    width, stride = w + 1, nb + 1
    rows, blocks = _row_blocks(h, stride)
    buf = np.zeros((rows, stride), dtype=np.uint8)
    edges = [np.zeros(0, dtype=np.intp)]
    for r0, r1 in blocks:
        cells = buf[: r1 - r0, :nb]
        if complement:
            np.invert(bits[r0:r1], out=cells)
            _clear_padding(cells, w)
        else:
            cells[...] = bits[r0:r1]
        # each cell against the one before it; a row's carry out of its last
        # byte lands in the empty byte after it, so no carry crosses rows
        x = buf[: r1 - r0].reshape(-1)
        step = x >> 1
        step ^= x
        step[1:] ^= x[:-1] * 128
        # (flatnonzero is several times faster on booleans than on bytes)
        at = np.flatnonzero(step != 0)
        i = np.flatnonzero(np.unpackbits(step[at]).view(bool))
        # the offset of each byte's first cell, then of each set bit
        at = at * 8 + at // stride * (width - 8 * stride) + (r0 * width + 1)
        edges.append(at[i >> 3] + (i & 7))
    edges = np.concatenate(edges)
    start, stop = edges[0::2], edges[1::2]
    # the runs of the row above that overlap run i (widened by one cell for
    # corner contact) are the consecutive runs lo[i] .. hi[i] - 1
    reach = int(diagonal)
    lo = np.searchsorted(stop, start - width - reach, side="right")
    hi = np.searchsorted(start, stop - width + reach, side="left")
    count = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(start.size), count)
    above = np.arange(below.size) + np.repeat(lo - np.cumsum(count) + count, count)
    # each run starts hooked onto the first run above that it meets; then
    # compress to roots and hook each root onto the smallest root it meets,
    # until no pair is split.  A root only ever hooks onto a smaller one, so
    # a component's root stays its first run
    root = np.where(count > 0, lo, np.arange(start.size))
    while True:
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        ra, rb = root[above], root[below]
        split = ra != rb
        if not split.any():
            break
        above, below, ra, rb = above[split], below[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
    return start, stop, root


def _component_count(bits, w, diagonal=False, complement=False):
    """Number of 4-connected (8-connected with diagonal) components of packed
    rows of w cells (of their complement with complement)."""
    _, _, root = _runs(bits, w, diagonal, complement)
    return int(np.count_nonzero(root == np.arange(root.size)))


def _paint_onto(bits, w, start, stop):
    """Set the cells of the given runs of `_runs` (disjoint, in raster order)
    on packed rows of w cells, in place, a row block at a time: the bytes
    after a run's first byte up to its stop byte are set whole, then the
    first byte gains the bits from the run's start on and the stop byte
    loses those from its stop on.  Taken in raster order, a start adds bits
    that are unset and a stop takes away bits that are set, so each byte's
    total lies in 0..255; uint8 wraps, so the adds and subtracts may come
    in any order.  On numpy 2.4, np.add.at and np.subtract.at run 2-4 times
    faster than np.bitwise_xor.at."""
    h, nb = bits.shape
    width = w + 1
    for r0, r1 in _row_blocks(h, nb)[1]:
        lo, hi = np.searchsorted(start, (r0 * width, r1 * width))
        if lo == hi:
            continue
        # offsets to bits of the block's rows; a stop at the end of the
        # block's last row falls in the byte past them
        back = start[lo:hi] // width * (width - 8 * nb) + (1 + r0 * 8 * nb)
        first, end = start[lo:hi] - back, stop[lo:hi] - back
        bounds = np.empty(2 * (hi - lo) + 2, dtype=np.intp)
        bounds[0], bounds[-1] = 0, (r1 - r0) * nb + 1
        np.add(first >> 3, 1, out=bounds[1:-1:2])
        np.add(end >> 3, 1, out=bounds[2:-1:2])
        fill = np.zeros(bounds.size - 1, dtype=np.uint8)
        fill[1::2] = 0xFF
        cells = np.repeat(fill, bounds[1:] - bounds[:-1])
        np.add.at(cells, first >> 3, _FROM[first & 7])
        np.subtract.at(cells, end >> 3, _FROM[end & 7])
        bits[r0:r1] |= cells[:-1].reshape(r1 - r0, nb)


def _cross(bits, op):
    """Packed rows combined by op with each cell's 4-neighbours: the rows
    above and below, and the rows shifted one cell either way."""
    out = bits.copy()
    op(out[1:], bits[:-1], out=out[1:])
    op(out[:-1], bits[1:], out=out[:-1])
    for right in (True, False):
        op(out, _shift(bits, right), out=out)
    return out


def _dilate(bits, w):
    """One-cell dilation of packed rows of w cells by the cross stencil."""
    out = _cross(bits, np.bitwise_or)
    # a row's last cell spills into its padding
    _clear_padding(out, w)
    return out


def _erode(bits):
    """One-cell erosion of packed rows by the cross stencil; cells off the
    canvas count as unset (the shifts bring unset bits in at the sides)."""
    out = _cross(bits, np.bitwise_and)
    out[[0, -1]] = 0
    return out


def _dilation_leaves(inner, outer, w):
    """Whether the one-cell dilation of packed rows inner reaches a cell
    outside outer."""
    out = _dilate(inner, w)
    # the dilation leaves outer iff it adds a cell to it
    out |= outer
    out ^= outer
    return bool(out.any())


class RasterRegion:
    """A raster region: its cells as packed rows (`bits`, read-only; see the
    module docstring), its canvas `shape` (rows, columns) and its
    `basepoint` (row, column).  Built from a boolean mask, which is packed,
    so the region owns its cells."""

    def __init__(self, mask, basepoint):
        mask = np.asarray(mask, dtype=bool)
        self._own(_pack(mask), mask.shape[1], basepoint)

    @classmethod
    def _from_bits(cls, bits, w, basepoint):
        """The region of packed rows of w cells, taken over without a copy."""
        region = cls.__new__(cls)
        region._own(bits, w, basepoint)
        return region

    def _own(self, bits, w, basepoint):
        bits.flags.writeable = False
        self.bits = bits
        self.shape = (bits.shape[0], w)
        self.basepoint = (int(basepoint[0]), int(basepoint[1]))

    @property
    def mask(self):
        """The cells as a read-only boolean canvas, unpacked on each call."""
        mask = _unpack(self.bits, self.shape[1])
        mask.flags.writeable = False
        return mask

    def is_simply_connected(self):
        """No bounded complement component (complement taken 8-connected)."""
        return not _bounded_complement(self.bits, self.shape[1])[0].size

    def area(self):
        # the set bits of the packed rows, whose padding bits are unset:
        # eight bytes to a count in blocks of _BLOCK_CELLS bytes, then the
        # bytes left over
        flat = self.bits.reshape(-1)
        whole = flat.size - flat.size % 8
        words = [flat[a : min(a + _BLOCK_CELLS, whole)].view(np.uint64) for a in range(0, whole, _BLOCK_CELLS)]
        return sum(int(np.bitwise_count(part).sum()) for part in words + [flat[whole:]])

    def same_frame(self, other):
        return self.shape == other.shape and self.basepoint == other.basepoint


def _bounded_complement(bits, w):
    """The runs (start, stop) of `_runs` of the 8-connected complement of
    packed rows of w cells that the canvas border does not reach."""
    h = bits.shape[0]
    start, stop, root = _runs(bits, w, diagonal=True, complement=True)
    # a run on the first or last row, or one starting in the first column or
    # ending in the last, touches the border
    border = (start < w + 1) | (start >= (h - 1) * (w + 1)) | (start % (w + 1) == 1) | (stop % (w + 1) == 0)
    bounded = np.ones(root.size, dtype=bool)
    bounded[root[border]] = False
    keep = bounded[root]
    return start[keep], stop[keep]


def _one_frame(regions):
    """The regions as a list, checked non-empty and on one frame."""
    regions = list(regions)
    if not regions:
        raise ValueError("need at least one region")
    if not all(regions[0].same_frame(r) for r in regions[1:]):
        raise ValueError("regions live on different frames")
    return regions


def _at(bits, w, basepoint):
    """The cell at basepoint of packed rows of w cells; ValueError when the
    basepoint is off the canvas, where a negative index would wrap to the
    far side."""
    r, c = basepoint
    shape = (bits.shape[0], w)
    if not (0 <= r < shape[0] and 0 <= c < w):
        raise ValueError(f"basepoint {basepoint} outside the canvas of shape {shape}")
    return bool(bits[r, c >> 3] & _BIT[c & 7])


def _basepoint_component(bits, w, basepoint, missing):
    """The region of the 4-connected component at basepoint of packed rows
    of w cells, painted back onto bits itself (a canvas the caller gives
    up); raises `missing` when the basepoint is not set."""
    if not _at(bits, w, basepoint):
        raise missing
    r, c = basepoint
    start, stop, root = _runs(bits, w)
    here = root[np.searchsorted(start, r * (w + 1) + c + 1, side="right") - 1]
    keep = root == here
    # a canvas of one component is already its basepoint component
    if not keep.all():
        bits[...] = 0
        _paint_onto(bits, w, start[keep], stop[keep])
    return RasterRegion._from_bits(bits, w, basepoint)


def _fold(op, regions):
    """The regions' packed rows combined bytewise by op, in place on one
    fresh canvas."""
    out = regions[0].bits.copy()
    for r in regions[1:]:
        op(out, r.bits, out=out)
    return out


def extended_union(*regions):
    """Union of the regions with all holes filled."""
    regions = _one_frame(regions)
    w = regions[0].shape[1]
    out = _fold(np.bitwise_or, regions)
    _paint_onto(out, w, *_bounded_complement(out, w))
    return RasterRegion._from_bits(out, w, regions[0].basepoint)


def reduced_intersection(*regions):
    """Basepoint component of the intersection of the regions."""
    regions = _one_frame(regions)
    inter = _fold(np.bitwise_and, regions)
    return _basepoint_component(
        inter, regions[0].shape[1], regions[0].basepoint, EmptyIntersectionError("intersection misses the basepoint")
    )


def schoenfliess_test(region):
    """Boundary accessibility of the region's raster closure.

    Omega = complement of the one-cell dilation (the raster closure).  True
    iff Omega has exactly one 8-connected component and every boundary cell
    of the region lies within three cross-dilations of Omega.  A region whose
    closure walls off an inner cavity (annulus with a sealed slit) fails the
    first clause; a region with a deep sealed slot fails the second.
    """
    bits, w = region.bits, region.shape[1]
    # the closure, counted as its complement and then turned into Omega in place
    omega = _dilate(bits, w)
    if _component_count(omega, w, diagonal=True, complement=True) != 1:
        return False
    np.invert(omega, out=omega)
    _clear_padding(omega, w)
    # three cross-dilations: the closure retreats Omega one cell from every
    # wall and one more from a slit tip, so even the tip corners of an open
    # slit sit at 4-distance three from Omega
    near = _dilate(omega, w)
    del omega
    near = _dilate(near, w)
    near = _dilate(near, w)
    # a boundary cell of the region outside near: bits & ~(erode(bits) | near)
    out = _erode(bits)
    out |= near
    del near
    np.invert(out, out=out)
    out &= bits
    return not out.any()


def kernel_of_shrinking(regions):
    """Kernel of a strictly shrinking family of regions.

    Precondition (checked): dilate(D_{k+1}) inside D_k for every consecutive
    pair.  The kernel is the basepoint component of the one-cell interior of
    the raster closure of the intersection; closing first matches the
    continuum kernel of a decreasing sequence (interior of the intersection
    of closures) and is what lets a two-cell access throat seal in the
    limit.  On families without such throats the closing is a no-op and the
    kernel is plain erode(intersection) at the basepoint.
    """
    regions = _one_frame(regions)
    w = regions[0].shape[1]
    for i in range(len(regions) - 1):
        if _dilation_leaves(regions[i + 1].bits, regions[i].bits, w):
            raise InvalidSequenceError(
                f"family is not strictly shrinking at step {i} -> {i + 1}", index=i
            )
    inter = _fold(np.bitwise_and, regions)
    bp = regions[0].basepoint
    if not _at(inter, w, bp):
        raise EmptyIntersectionError("intersection misses the basepoint")
    # each step frees the canvas it read
    inter = _dilate(inter, w)
    inter = _erode(inter)
    inter = _erode(inter)
    return _basepoint_component(
        inter, w, bp, EmptyIntersectionError("kernel interior misses the basepoint")
    )


# ---------------------------------------------------------------------------
# demo family: spiral corridor into a pendant cavity

def _paint_curve(shape, points, half_width):
    """Packed rows of the cells within Euclidean distance half_width of the
    sampled curve: every offset with sqrt(dy^2 + dx^2) <= half_width around
    each rounded cell.  Each row of that stencil is one span around a cell;
    the spans, clipped to the canvas, are merged into runs and painted."""
    h, w = shape
    ij = np.rint(points).astype(int)
    ij = ij[(ij[:, 0] >= 0) & (ij[:, 0] < h) & (ij[:, 1] >= 0) & (ij[:, 1] < w)]
    reach = max(int(half_width), 0)
    dy, dx = np.mgrid[-reach : reach + 1, -reach : reach + 1]
    # each stencil row's half-chord; the cell itself is always painted
    half = np.count_nonzero(np.sqrt(dy * dy + dx * dx) <= half_width, axis=1)[:, None] // 2
    row = ij[:, 0] + dy[:, :1]
    inside = (row >= 0) & (row < h)
    offset = row * (w + 1) + 1
    start = (offset + np.maximum(ij[:, 1] - half, 0))[inside]
    stop = (offset + np.minimum(ij[:, 1] + half + 1, w))[inside]
    out = _canvas(h, w)
    if start.size:
        # with the starts and the stops sorted apart, a run ends at stop[k]
        # when stop[k] < start[k + 1]: no span is empty, so the k + 1 spans
        # that start first have all stopped by then
        start, stop = np.sort(start), np.sort(stop)
        first = np.flatnonzero(np.concatenate(([True], start[1:] > stop[:-1])))
        _paint_onto(out, w, start[first], stop[np.append(first[1:], start.size) - 1])
    return out


def _disk(shape, center, radius):
    """Packed rows of the cells with dx^2 <= radius^2 - dy^2, painted as one
    span per row."""
    h, w = shape
    rows = np.arange(h)
    room = radius * radius - (rows - center[0]) ** 2
    # the half-chord is the largest m with m^2 <= room, the comparison each
    # cell would make; a correctly rounded sqrt may overshoot it by one, never undershoot
    m = np.floor(np.sqrt(np.maximum(room, 0))).astype(np.int64)
    m -= m * m > room
    # clipped to the canvas; a row the disk misses paints nothing
    lo = np.clip(center[1] - m, 0, w)
    hi = np.clip(center[1] + m + 1, lo, w)
    keep = lo < hi
    offset = rows[keep] * (w + 1) + 1
    out = _canvas(h, w)
    _paint_onto(out, w, offset + lo[keep], offset + hi[keep])
    return out


def _spiral_points(center, a_from, a_to, r_at, step_deg=0.2):
    angles = np.arange(a_from, a_to + step_deg, step_deg)
    rad = np.deg2rad(angles)
    r = r_at(angles)
    return np.stack([center[0] + r * np.sin(rad), center[1] + r * np.cos(rad)], axis=1)


def build_shrinking_spiral_family(size=512):
    """Strictly shrinking simply connected family whose kernel walls off a cavity.

    Each level carves deeper: a spiral corridor from outside the disk wraps
    further inward with a narrower live tip (half-widths 4 -> 3 -> 2 cells),
    and the final level adds a two-cell throat into a freshly carved pendant
    cavity.  Intersecting, closing, and eroding seals the throat, so the
    kernel encircles the cavity and fails schoenfliess_test while every term
    passes the simple-connectivity invariant.  The levels are built and
    checked to shrink one at a time, keeping only the running corridor.
    """
    if size < 256:
        raise ValueError("demo needs at least a 256-cell canvas")
    s = size / 512.0
    center = (size // 2, size // 2)
    body_r0 = 212.0 * s
    # spiral runs from angle -30 deg (radius just outside the body, so the
    # corridor breaches the rim) and ends pointing straight up at 270 deg,
    # which keeps the final throat axis-aligned and exactly two cells wide
    spiral_start_r = 218.0 * s
    spiral_slope = (218.0 - 104.0) * s / 300.0
    r_at = lambda a: spiral_start_r - spiral_slope * (a + 30.0)
    tips = (70.0, 170.0, 270.0)
    half_widths = (4.0 * s, 3.0 * s, 2.0 * s)
    levels = len(tips)  # the demo is calibrated for these three

    shape = (size, size)
    bp_angle = np.deg2rad(330.0)
    bp = (
        int(round(center[0] + 160.0 * s * np.sin(bp_angle))),
        int(round(center[1] + 160.0 * s * np.cos(bp_angle))),
    )
    regions = []
    corridor = _canvas(size, size)
    for k in range(levels):
        a_from = -30.0 if k == 0 else tips[k - 1] - 6.0
        corridor = _dilate(corridor, size)
        corridor |= _paint_curve(shape, _spiral_points(center, a_from, tips[k], r_at), half_widths[k])
        mask = _disk(shape, center, body_r0 - k)
        mask &= ~corridor
        if k == levels - 1:
            # pendant cavity past the spiral end, reached only through a
            # two-column throat; the gap between corridor tip and cavity rim
            # leaves enough sealed length to survive closing, eroding, and the
            # test's dilation; both are painted as runs and cut out together
            tip_r = r_at(tips[-1])
            radius = round(14.0 * s)
            top = center[0] - round(tip_r - 12.0 * s)
            cut = _disk(shape, (top + radius, center[1]), radius)
            throat = np.arange(center[0] - int(round(tip_r)), top + 2) * (size + 1) + center[1] + 1
            _paint_onto(cut, size, throat, throat + 2)
            mask &= ~cut
        # one component holding the basepoint by construction, and the body
        # disk keeps a margin of about 44 * size / 512 cells; every carving
        # opens onto the corridor, which breaches the rim, so no level has a hole
        region = _basepoint_component(mask, size, bp, RuntimeError("demo basepoint fell outside the carved body"))
        if k and _dilation_leaves(region.bits, regions[-1].bits, size):
            raise RuntimeError(f"demo family not strictly shrinking at level {k - 1}")
        regions.append(region)
    return regions


# ---------------------------------------------------------------------------
# raster IO: raw portable bitmap plus a JSON sidecar for the basepoint

def save_region(region, path):
    """Write the region as raw PBM (P4), whose raster is its packed rows byte
    for byte, and its basepoint metadata alongside."""
    path = Path(path)
    h, w = region.shape
    meta = {"basepoint": list(region.basepoint), "shape": [h, w], "area": region.area()}
    with path.open("wb") as f:
        f.write(f"P4\n{w} {h}\n".encode())
        f.write(region.bits)
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2))
    return path


# the magic number, the width and the height, separated by whitespace and
# `#` comments that run to their line end, then one whitespace byte
_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_HEADER = re.compile(rb"P4" + _GAP + rb"(\d+)" + _GAP + rb"(\d+)\s")
_HEADER_BYTES = 1 << 12  # the longest header read


def load_region(path):
    """Read a raw PBM (P4) and its sidecar: a header with `#` comments, then
    exactly height rows of ceil(width / 8) bytes, and a JSON sidecar whose
    basepoint lies on the raster and whose shape, when given, is the
    raster's.  Every rejection is a ValueError naming the file; a missing
    sidecar is found past the header, and the raster's size is checked
    against the file's before the raster is allocated.  The raster is read
    straight into the region's rows, whose padding bits are then unset
    (they carry no meaning in the format)."""
    path = Path(path)
    with path.open("rb") as f:
        header = _HEADER.match(f.read(_HEADER_BYTES))
        if header is None:
            raise ValueError(f"{path} is not a raw PBM (P4) file")
        width, height = int(header[1]), int(header[2])
        sidecar = path.with_suffix(path.suffix + ".json")
        try:
            meta = sidecar.read_bytes()
        except FileNotFoundError:
            raise ValueError(f"{path} has no sidecar {sidecar.name}") from None
        held, size = path.stat().st_size - header.end(), height * ((width + 7) // 8)
        if held != size:
            raise ValueError(f"{path} holds {held} raster bytes, not the {size} of {width} x {height}")
        bits = _canvas(height, width)
        f.seek(header.end())
        f.readinto(bits)
    _clear_padding(bits, width)
    try:
        meta = json.loads(meta)
    except ValueError:
        raise ValueError(f"{path} has a sidecar that is not JSON") from None
    try:
        row, col = (int(i) for i in meta["basepoint"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path} has no sidecar basepoint of two integers") from None
    if meta.get("shape", [height, width]) != [height, width]:
        raise ValueError(f"{path} has its sidecar shape {meta['shape']}, not the raster's [{height}, {width}]")
    if not (0 <= row < height and 0 <= col < width):
        raise ValueError(f"{path} has its sidecar basepoint {meta['basepoint']} off the {width} x {height} raster")
    return RasterRegion._from_bits(bits, width, (row, col))
