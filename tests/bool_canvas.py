"""The region kernels on boolean canvases, one byte a cell, that the packed
rows of `diskmap.regions` replaced; kept as the oracle of the packed kernels.
The per-cell plain PBM (P1) writer that regions were once saved with is
kept too, as the oracle of the cells behind the recorded P1 hashes.

Each function takes and returns boolean masks (a basepoint where one is
needed) and computes what the packed kernel of the same name computes, by
the bool-canvas code it replaced: runs found on a (h, w + 1) layout, the
morphology as flat shifts of the canvas, runs painted with np.repeat.
"""

import numpy as np

from diskmap.errors import EmptyIntersectionError, InvalidSequenceError

BLOCK_CELLS = 1 << 16


def _row_blocks(h, width):
    rows = max(1, BLOCK_CELLS // max(width, 1))
    return min(rows, h), [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]


def runs(mask, diagonal=False, complement=False):
    """(start, stop, root) of the row runs of mask (of ~mask with complement)."""
    h, w = mask.shape
    width = w + 1
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
    reach = int(diagonal)
    lo = np.searchsorted(stop, start - width - reach, side="right")
    hi = np.searchsorted(start, stop - width + reach, side="left")
    count = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(start.size), count)
    above = np.arange(below.size) + np.repeat(lo - np.cumsum(count) + count, count)
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


def component_count(mask, diagonal=False, complement=False):
    _, _, root = runs(mask, diagonal, complement)
    return int(np.count_nonzero(root == np.arange(root.size)))


def paint(shape, start, stop):
    """The boolean mask whose set cells are the given runs."""
    h, w = shape
    back = start // (w + 1) + 1
    bounds = np.empty(2 * start.size + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, h * w
    np.subtract(start, back, out=bounds[1:-1:2])
    np.subtract(stop, back, out=bounds[2:-1:2])
    fill = np.zeros(bounds.size - 1, dtype=bool)
    fill[1::2] = True
    return np.repeat(fill, bounds[1:] - bounds[:-1]).reshape(h, w)


def _cross(mask, op):
    w = mask.shape[1]
    src = np.ascontiguousarray(mask).reshape(-1)
    out = src.copy()
    for k in (w, 1):
        op(out[k:], src[:-k], out=out[k:])
        op(out[:-k], src[k:], out=out[:-k])
    return out.reshape(mask.shape)


def dilate(mask):
    out = _cross(mask, np.logical_or)
    if mask.shape[1] > 1:
        for c, beside in ((0, 1), (-1, -2)):
            out[:, c] = dilate(mask[:, [c]])[:, 0] | mask[:, beside]
    return out


def erode(mask):
    out = _cross(mask, np.logical_and)
    out[[0, -1], :] = False
    out[:, [0, -1]] = False
    return out


def bounded_complement(mask):
    h, w = mask.shape
    start, stop, root = runs(mask, diagonal=True, complement=True)
    border = (start < w + 1) | (start >= (h - 1) * (w + 1)) | (start % (w + 1) == 1) | (stop % (w + 1) == 0)
    bounded = np.ones(root.size, dtype=bool)
    bounded[root[border]] = False
    keep = bounded[root]
    return start[keep], stop[keep]


def fill_holes(mask):
    return mask | paint(mask.shape, *bounded_complement(mask))


def _at(mask, basepoint):
    r, c = basepoint
    if not (0 <= r < mask.shape[0] and 0 <= c < mask.shape[1]):
        raise ValueError(f"basepoint {basepoint} outside the canvas of shape {mask.shape}")
    return bool(mask[r, c])


def basepoint_component(mask, basepoint, missing):
    if not _at(mask, basepoint):
        raise missing
    r, c = basepoint
    start, stop, root = runs(mask)
    here = root[np.searchsorted(start, r * (mask.shape[1] + 1) + c + 1, side="right") - 1]
    keep = root == here
    return paint(mask.shape, start[keep], stop[keep])


def extended_union(*masks):
    return fill_holes(np.logical_or.reduce(masks))


def reduced_intersection(masks, basepoint):
    inter = np.logical_and.reduce(masks)
    return basepoint_component(inter, basepoint, EmptyIntersectionError("intersection misses the basepoint"))


def schoenfliess_test(mask):
    closure = dilate(mask)
    if component_count(closure, diagonal=True, complement=True) != 1:
        return False
    near = dilate(dilate(dilate(~closure)))
    return not (mask & ~(erode(mask) | near)).any()


def kernel_of_shrinking(masks, basepoint):
    for i in range(len(masks) - 1):
        if (dilate(masks[i + 1]) & ~masks[i]).any():
            raise InvalidSequenceError(f"family is not strictly shrinking at step {i} -> {i + 1}", index=i)
    inter = np.logical_and.reduce(masks)
    if not _at(inter, basepoint):
        raise EmptyIntersectionError("intersection misses the basepoint")
    interior = erode(erode(dilate(inter)))
    return basepoint_component(interior, basepoint, EmptyIntersectionError("kernel interior misses the basepoint"))


def per_cell_pbm(mask):
    """The plain PBM (P1) text of a boolean mask, written a cell at a time."""
    lines = ["P1", f"{mask.shape[1]} {mask.shape[0]}"]
    for row in mask:
        lines.append(" ".join("1" if v else "0" for v in row))
    return ("\n".join(lines) + "\n").encode()
