"""Raster region algebra for image-domain bookkeeping.

Regions are boolean rasters with a marked basepoint, 4-connected material,
8-connected complement, and an empty margin ring.  The algebra mirrors the
set operations used when comparing image domains of solved maps:

* extended_union: union with its holes filled (smallest simply connected
  raster region containing them all);
* reduced_intersection: basepoint component of the intersection;
* kernel_of_shrinking: limit region of a strictly shrinking family --
  basepoint component of the interior of the raster-closed intersection;
* schoenfliess_test: does the complement of the closure form a single
  region, with every boundary cell reachable from it?

Components are found on the rows' runs of set cells with a vectorised
union-find, the one-cell morphology is four contiguous shifts of the flat
canvas, and disks are painted one span per row, so the module needs numpy alone.
Each operation holds one canvas of temporaries (schoenfliess_test, past its
component count, two) plus a row block of at most _BLOCK_CELLS cells: run
edges are found, runs painted onto a canvas the operation owns, and PBM text
written and read a row block or chunk at a time.
"""

import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyIntersectionError, InvalidSequenceError


_BLOCK_CELLS = 1 << 16  # cells in one row block of a canvas-wide pass


def _row_blocks(h, width):
    """The rows in a block of at most _BLOCK_CELLS cells, width to a row (one
    row when a row alone is longer), and the [r0, r1) blocks of h rows."""
    rows = max(1, _BLOCK_CELLS // max(width, 1))
    return min(rows, h), [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]


def _runs(mask, diagonal=False, complement=False):
    """Row runs of mask (of ~mask with complement) and the component each run
    belongs to.

    A run is a maximal stretch of set cells in one row, given as flat
    [start, stop) offsets into the mask laid out with one empty column in
    front of every row (row r, column c sits at r * (w + 1) + c + 1), so no
    run reaches into the next row.  Runs in consecutive rows join when their
    columns overlap, and with diagonal (8-connectivity) also when they only
    touch at a corner.  Returns (start, stop, root): root[i] is the index of
    the first run, in raster order, of run i's component, so the components
    are the distinct roots and `root == arange` marks one run of each.  The
    run edges are found a row block at a time in one reused buffer.
    """
    h, w = mask.shape
    width = w + 1
    # a block of rows in that layout, closed by the next row's empty column
    rows, blocks = _row_blocks(h, width)
    buf = np.zeros(rows * width + 1, dtype=bool)
    edges = [np.zeros(0, dtype=np.intp)]
    for r0, r1 in blocks:
        flat = buf[: (r1 - r0) * width + 1]
        cells = flat[:-1].reshape(r1 - r0, width)[:, 1:]
        if complement:
            np.logical_not(mask[r0:r1], out=cells)
        else:
            cells[...] = mask[r0:r1]
        edges.append(np.flatnonzero(flat[1:] != flat[:-1]) + (r0 * width + 1))
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
    # hook each root onto the smallest root it meets, then compress to roots;
    # a root only ever hooks onto a smaller one, so a component's root stays
    # its first run
    root = np.arange(start.size)
    while True:
        ra, rb = root[above], root[below]
        split = ra != rb
        if not split.any():
            break
        above, below, ra, rb = above[split], below[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return start, stop, root


def _component_count(mask, diagonal=False, complement=False):
    """Number of 4-connected (8-connected with diagonal) components of mask
    (of ~mask with complement)."""
    _, _, root = _runs(mask, diagonal, complement)
    return int(np.count_nonzero(root == np.arange(root.size)))


def _paint(shape, start, stop):
    """The C-contiguous boolean mask whose set cells are the given runs of
    `_runs`."""
    h, w = shape
    # a run in row r moves back r + 1 cells, out of the layout with an empty
    # column in front of every row; the canvas alternates unset and set
    # stretches between the offsets
    back = start // (w + 1) + 1
    bounds = np.empty(2 * start.size + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, h * w
    np.subtract(start, back, out=bounds[1:-1:2])
    np.subtract(stop, back, out=bounds[2:-1:2])
    fill = np.zeros(bounds.size - 1, dtype=bool)
    fill[1::2] = True
    return np.repeat(fill, bounds[1:] - bounds[:-1]).reshape(h, w)


def _paint_onto(canvas, start, stop):
    """Set the cells of the given runs of `_runs` on canvas, in place, one
    `_paint` of a row block at a time."""
    h, w = canvas.shape
    width = w + 1
    for r0, r1 in _row_blocks(h, width)[1]:
        lo, hi = np.searchsorted(start, (r0 * width, r1 * width))
        if lo < hi:
            shift = r0 * width
            canvas[r0:r1] |= _paint((r1 - r0, w), start[lo:hi] - shift, stop[lo:hi] - shift)


def _cross(mask, op):
    """mask combined by op with its 4-neighbours, each a contiguous shift of
    the flat canvas; a horizontal shift wraps a row's last cell onto the next
    row's first, so the caller mends the two edge columns."""
    w = mask.shape[1]
    src = np.ascontiguousarray(mask).reshape(-1)
    out = src.copy()
    for k in (w, 1):
        op(out[k:], src[:-k], out=out[k:])
        op(out[:-k], src[k:], out=out[:-k])
    return out.reshape(mask.shape)


def dilate(mask):
    """One-cell dilation of a boolean mask by its 4-neighbours (the cross stencil)."""
    out = _cross(mask, np.logical_or)
    # redo each edge column as its own (one column wide, purely vertical)
    # dilation plus its inner neighbour
    if mask.shape[1] > 1:
        for c, beside in ((0, 1), (-1, -2)):
            out[:, c] = dilate(mask[:, [c]])[:, 0] | mask[:, beside]
    return out


def _dilation_leaves(inner, outer):
    """Whether the one-cell dilation of inner reaches a cell outside outer;
    one canvas of temporaries."""
    out = dilate(inner)
    np.greater(out, outer, out=out)
    return bool(out.any())


def erode(mask):
    """One-cell erosion of a boolean mask by its 4-neighbours (the cross
    stencil); cells off the canvas count as unset, so the border always erodes
    (which also clears what the flat shifts wrapped into the edge columns)."""
    out = _cross(mask, np.logical_and)
    out[[0, -1], :] = False
    out[:, [0, -1]] = False
    return out


@dataclass
class RasterRegion:
    mask: np.ndarray
    basepoint: tuple

    def __post_init__(self):
        self.mask = np.ascontiguousarray(self.mask, dtype=bool)
        self.basepoint = (int(self.basepoint[0]), int(self.basepoint[1]))

    def validate(self):
        """Basepoint inside, one 4-connected component, empty margin ring."""
        if not _at(self.mask, self.basepoint):
            raise ValueError("basepoint not inside the region")
        if self.mask[0, :].any() or self.mask[-1, :].any() or self.mask[:, 0].any() or self.mask[:, -1].any():
            raise ValueError("region touches the canvas margin")
        count = _component_count(self.mask)
        if count != 1:
            raise ValueError(f"region has {count} 4-connected components")
        return self

    def is_simply_connected(self):
        """No bounded complement component (complement taken 8-connected)."""
        return not _bounded_complement(self.mask)[0].size

    def area(self):
        return int(np.count_nonzero(self.mask))

    def same_frame(self, other):
        return self.mask.shape == other.mask.shape and self.basepoint == other.basepoint


def _bounded_complement(mask):
    """The runs (start, stop) of `_runs` of the 8-connected complement that
    the canvas border does not reach."""
    h, w = mask.shape
    start, stop, root = _runs(mask, diagonal=True, complement=True)
    # a run on the first or last row, or one starting in the first column or
    # ending in the last, touches the border
    border = (start < w + 1) | (start >= (h - 1) * (w + 1)) | (start % (w + 1) == 1) | (stop % (w + 1) == 0)
    bounded = np.ones(root.size, dtype=bool)
    bounded[root[border]] = False
    keep = bounded[root]
    return start[keep], stop[keep]


def fill_holes(mask):
    """Fill bounded complement components (8-connected complement)."""
    out = mask.copy()
    _paint_onto(out, *_bounded_complement(mask))
    return out


def _one_frame(regions):
    """The regions as a list, checked non-empty and on one frame."""
    regions = list(regions)
    if not regions:
        raise ValueError("need at least one region")
    if not all(regions[0].same_frame(r) for r in regions[1:]):
        raise ValueError("regions live on different frames")
    return regions


def _at(mask, basepoint):
    """The mask's cell at basepoint; ValueError when the basepoint is off
    the canvas, where a negative index would wrap to the far side."""
    r, c = basepoint
    if not (0 <= r < mask.shape[0] and 0 <= c < mask.shape[1]):
        raise ValueError(f"basepoint {basepoint} outside the canvas of shape {mask.shape}")
    return bool(mask[r, c])


def _basepoint_component(mask, basepoint, missing):
    """The 4-connected component of mask at basepoint, painted back onto mask
    itself (a C-contiguous canvas the caller gives up); raises `missing`
    when the basepoint is not in the mask."""
    if not _at(mask, basepoint):
        raise missing
    r, c = basepoint
    start, stop, root = _runs(mask)
    here = root[np.searchsorted(start, r * (mask.shape[1] + 1) + c + 1, side="right") - 1]
    keep = root == here
    # a mask of one component is already its basepoint component
    if not keep.all():
        mask[...] = False
        _paint_onto(mask, start[keep], stop[keep])
    return RasterRegion(mask, basepoint)


def _fold(op, regions):
    """The regions' masks combined by op, in place on one fresh canvas."""
    out = regions[0].mask.copy()
    for r in regions[1:]:
        op(out, r.mask, out=out)
    return out


def extended_union(*regions):
    """Union of the regions with all holes filled."""
    regions = _one_frame(regions)
    out = _fold(np.logical_or, regions)
    _paint_onto(out, *_bounded_complement(out))
    return RasterRegion(out, regions[0].basepoint)


def reduced_intersection(*regions):
    """Basepoint component of the intersection of the regions."""
    regions = _one_frame(regions)
    inter = _fold(np.logical_and, regions)
    return _basepoint_component(
        inter, regions[0].basepoint, EmptyIntersectionError("intersection misses the basepoint")
    )


def boundary_cells(mask):
    """Cells of the region with a 4-neighbor outside it."""
    return mask & ~erode(mask)


def schoenfliess_test(region):
    """Boundary accessibility of the region's raster closure.

    Omega = complement of the one-cell dilation (the raster closure).  True
    iff Omega has exactly one 8-connected component and every boundary cell
    of the region lies within three cross-dilations of Omega.  A region whose
    closure walls off an inner cavity (annulus with a sealed slit) fails the
    first clause; a region with a deep sealed slot fails the second.
    """
    mask = region.mask
    # the closure, counted as its complement and then turned into Omega in place
    omega = dilate(mask)
    if _component_count(omega, diagonal=True, complement=True) != 1:
        return False
    np.logical_not(omega, out=omega)
    # three cross-dilations: the closure retreats Omega one cell from every
    # wall and one more from a slit tip, so even the tip corners of an open
    # slit sit at 4-distance three from Omega
    near = dilate(omega)
    del omega
    near = dilate(near)
    near = dilate(near)
    # a boundary cell of the region outside near: mask > (erode(mask) | near)
    out = erode(mask)
    out |= near
    del near
    np.greater(mask, out, out=out)
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
    for i in range(len(regions) - 1):
        if _dilation_leaves(regions[i + 1].mask, regions[i].mask):
            raise InvalidSequenceError(
                f"family is not strictly shrinking at step {i} -> {i + 1}", index=i
            )
    inter = _fold(np.logical_and, regions)
    bp = regions[0].basepoint
    if not _at(inter, bp):
        raise EmptyIntersectionError("intersection misses the basepoint")
    # each step frees the canvas it read
    inter = dilate(inter)
    inter = erode(inter)
    inter = erode(inter)
    return _basepoint_component(
        inter, bp, EmptyIntersectionError("kernel interior misses the basepoint")
    )


# ---------------------------------------------------------------------------
# demo family: spiral corridor into a pendant cavity

def _paint_curve(shape, points, half_width):
    """Cells within Euclidean distance half_width of the sampled curve: every
    offset with sqrt(dy^2 + dx^2) <= half_width around each rounded cell."""
    ij = np.rint(points).astype(int)
    keep = (ij[:, 0] >= 0) & (ij[:, 0] < shape[0]) & (ij[:, 1] >= 0) & (ij[:, 1] < shape[1])
    reach = max(int(half_width), 0)
    dy, dx = np.mgrid[-reach : reach + 1, -reach : reach + 1]
    disk = np.sqrt(dy * dy + dx * dx) <= half_width
    padded = np.zeros((shape[0] + 2 * reach, shape[1] + 2 * reach), dtype=bool)
    flat, width = padded.reshape(-1), padded.shape[1]
    flat[(ij[keep, 0] + reach) * width + ij[keep, 1] + reach] = True
    cells = np.flatnonzero(flat)
    for offset in dy[disk] * width + dx[disk]:
        flat[cells + offset] = True
    return padded[reach : reach + shape[0], reach : reach + shape[1]]


def _disk(shape, center, radius):
    """Cells with dx^2 <= radius^2 - dy^2, painted as one span per row."""
    rows = np.arange(shape[0])
    room = radius * radius - (rows - center[0]) ** 2
    # the half-chord is the largest m with m^2 <= room, the comparison each
    # cell would make; a correctly rounded sqrt may overshoot it by one, never undershoot
    m = np.floor(np.sqrt(np.maximum(room, 0))).astype(np.int64)
    m -= m * m > room
    # clipped to the canvas, a row the disk misses keeps an empty span
    lo = np.clip(center[1] - m, 0, shape[1])
    offset = rows * (shape[1] + 1) + 1
    return _paint(shape, offset + lo, offset + np.clip(center[1] + m + 1, lo, shape[1]))


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
    corridor = np.zeros(shape, dtype=bool)
    for k in range(levels):
        a_from = -30.0 if k == 0 else tips[k - 1] - 6.0
        corridor = dilate(corridor)
        corridor |= _paint_curve(shape, _spiral_points(center, a_from, tips[k], r_at), half_widths[k])
        mask = _disk(shape, center, body_r0 - k)
        np.greater(mask, corridor, out=mask)
        if k == levels - 1:
            # pendant cavity past the spiral end, reached only through a
            # two-column throat; the gap between corridor tip and cavity rim
            # leaves enough sealed length to survive closing, eroding, and the
            # test's dilation; both are carved on their bounding boxes
            tip_r = r_at(tips[-1])
            radius = round(14.0 * s)
            top = center[0] - round(tip_r - 12.0 * s)
            box = mask[top : top + 2 * radius + 1, center[1] - radius : center[1] + radius + 1]
            np.greater(box, _disk(box.shape, (radius, radius), radius), out=box)
            mask[center[0] - int(round(tip_r)) : top + 2, center[1] : center[1] + 2] = False
        # one component holding the basepoint by construction, and the body
        # disk keeps a margin of about 44 * size / 512 cells; every carving
        # opens onto the corridor, which breaches the rim, so no level has a hole
        region = _basepoint_component(mask, bp, RuntimeError("demo basepoint fell outside the carved body"))
        if k and _dilation_leaves(region.mask, regions[-1].mask):
            raise RuntimeError(f"demo family not strictly shrinking at level {k - 1}")
        regions.append(region)
    return regions


# ---------------------------------------------------------------------------
# raster IO: portable bitmap plus a JSON sidecar for the basepoint

def save_region(region, path):
    """Write mask as ASCII PBM (P1) and basepoint metadata alongside; the
    raster of a row block of the mask (two bytes a cell) is filled in place
    and written, a block at a time."""
    path = Path(path)
    mask = region.mask
    h, w = mask.shape
    rows, blocks = _row_blocks(h, w)
    raster = np.full((rows, 2 * w), ord(" "), dtype=np.uint8)
    raster[:, -1] = ord("\n")
    with path.open("wb") as f:
        f.write(f"P1\n{w} {h}\n".encode())
        for r0, r1 in blocks:
            np.add(mask[r0:r1].view(np.uint8), ord("0"), out=raster[: r1 - r0, ::2])
            f.write(raster[: r1 - r0])
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(
        json.dumps(
            {
                "basepoint": list(region.basepoint),
                "shape": list(mask.shape),
                "area": region.area(),
            },
            indent=2,
        )
    )
    return path


_HEADER = re.compile(rb"\s*P1\s+(\d+)\s+(\d+)(?!\S)")
# what a header cut short by a chunk's end may look like so far
_HEADER_START = re.compile(rb"\s*(?:P(?:1(?:\s+(?:\d+(?:\s+\d*)?)?)?)?)?")
_LINE_END = re.compile(rb"[\r\n]")


def _uncommented(f):
    """The file's bytes a chunk at a time, each `#` comment cut out up to
    its line end; a comment that a chunk's end cuts runs on into the next."""
    in_comment = False
    while chunk := f.read(_BLOCK_CELLS):
        if in_comment:
            end = _LINE_END.search(chunk)
            if end is None:
                continue
            chunk = chunk[end.start() :]
        last = chunk.rfind(b"#")
        in_comment = last >= 0 and _LINE_END.search(chunk, last) is None
        if last >= 0:
            chunk = re.sub(rb"#[^\r\n]*", b"", chunk)
        yield chunk


def load_region(path):
    """Read a plain PBM (P1) and its sidecar: `#` comments, optional whitespace
    between bits, exactly width x height bits, each `0` or `1`, and a JSON
    sidecar whose basepoint lies on the raster and whose shape, when given,
    is the raster's.  Every rejection is a ValueError naming the file.  The
    file is read a chunk at a time into the mask, so loading holds a few
    chunks of temporaries beyond the mask."""
    path = Path(path)
    with path.open("rb") as f:
        chunks = _uncommented(f)
        head = b""
        for chunk in chunks:
            head += chunk
            header = _HEADER.match(head)
            if header and header.end() < len(head) or not _HEADER_START.fullmatch(head):
                break
        header = _HEADER.match(head)
        if header is None:
            raise ValueError(f"{path} is not an ASCII PBM file")
        width, height = int(header[1]), int(header[2])
        # a file holds at most one bit per byte, so a raster larger than the
        # file is refused for its count below without being allocated
        mask = np.empty(width * height if width * height <= path.stat().st_size else 0, dtype=bool)
        count = 0
        for chunk in itertools.chain([head[header.end() :]], chunks):
            bits = np.frombuffer(chunk.translate(None, b" \t\n\v\f\r"), dtype=np.uint8)
            ones = bits == ord("1")
            if np.count_nonzero(ones) + np.count_nonzero(bits == ord("0")) != bits.size:
                raise ValueError(f"{path} has a raster bit other than 0 or 1")
            room = max(min(bits.size, mask.size - count), 0)
            mask[count : count + room] = ones[:room]
            count += bits.size
    if count != width * height:
        raise ValueError(f"{path} holds {count} raster bits, not {width} x {height}")
    sidecar = path.with_suffix(path.suffix + ".json")
    try:
        meta = json.loads(sidecar.read_bytes())
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
    return RasterRegion(mask.reshape(height, width), (row, col))
