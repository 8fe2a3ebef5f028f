"""Probes that only tests read: the update operator applied once, the
invariants of a region, and the empirical contraction rate.

The solve and the probes run the same operator step, `solver._plan` and
`solver._operator_step`; the probes look at it from outside the solve, as
`bool_canvas` keeps the old mask kernels as the oracles of the packed ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from diskmap import blaschke, regions, solver
from diskmap.spectral import DiskFunction, tail_ratio

RATE_FRACTIONS = (0.2, 0.5, 0.9)  # contraction_rate starts, as shares of the certified ball


def apply_operator(f, fld, b, n):
    """One application of the update operator at grid size n.

    Returns (U(f), U(f)', tail_ratio of U(f)').  The derivative is
    truncated to degree n-2 so that it is exactly the derivative of the
    returned primitive.
    """
    plan = solver._plan(b, n)
    prim, fprime = solver._operator_step(plan, fld, f.trace(plan.n))
    return DiskFunction(prim), DiskFunction(fprime), tail_ratio(fprime)


def validate(region):
    """Basepoint inside, one 4-connected component, empty margin ring;
    returns the region."""
    bits, w = region.bits, region.shape[1]
    if not regions._at(bits, w, region.basepoint):
        raise ValueError("basepoint not inside the region")
    sides = bits[:, [0, (w - 1) >> 3]] & regions._BIT[[0, (w - 1) & 7]]
    if bits[[0, -1]].any() or sides.any():
        raise ValueError("region touches the canvas margin")
    count = regions._component_count(bits, w)
    if count != 1:
        raise ValueError(f"region has {count} 4-connected components")
    return region


def picard(fld, start, max_iters):
    """Plain undamped steps x <- U(x) with no zeros, from the coefficients
    start and on the grid of their count alone.

    With r = U(x) - x each step records |r|_2 and takes x += r; the run
    stops once the sup over the grid of |r'| falls below solver.TOL_UPDATE,
    or after max_iters steps.  Returns the last x and the recorded norms.
    The arithmetic is the solve's with ANDERSON_DEPTH 0.
    """
    plan = solver._plan(blaschke.construct([]), start.size)
    x = start.copy()
    norms = []
    for _ in range(max_iters):
        r, _ = solver._operator_step(plan, fld, np.fft.ifft(x, norm="forward"))
        r -= x
        norms.append(math.sqrt(np.vdot(r, r).real))
        x += r
        if float(np.abs(np.fft.ifft(plan.k * r, norm="forward")).max()) < solver.TOL_UPDATE:
            break
    return x, norms


@dataclass
class RateReport:
    observed_rate: float
    certified_ratio: float
    limit: DiskFunction
    limit_gap: float
    runs: int


def contraction_rate(fld, certificate, options=None):
    """Empirical contraction rate against a valid certificate.

    Runs `picard` from scaled identities inside the certified ball,
    zero-padded to options.n so that every step runs on options.n: the rate
    is a property of one operator.  The certificate bounds every
    consecutive update ratio by its `ratio`, so the observed maximum should
    not exceed it (plus discretization slack).  options.initial_map is not
    read.
    """
    if not certificate.valid:
        raise ValueError("contraction_rate needs a valid contraction certificate")
    options = options or solver.SolveOptions()
    runs = []
    for frac in RATE_FRACTIONS:
        start = solver.scaled_identity(float(frac) * certificate.sup_solution_bound).coeffs
        runs.append(picard(fld, solver._pad_coeffs(start, options.n), options.max_iters))

    rate = 0.0
    for _, h in runs:
        for a, bb in zip(h[:-1], h[1:]):
            if a > 1e-11 and bb > 0.0:
                rate = max(rate, bb / a)

    limits = [DiskFunction(x) for x, _ in runs]
    gap = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            diff = np.abs(limits[i].trace(options.n) - limits[j].trace(options.n)).max()
            gap = max(gap, float(diff))

    return RateReport(
        observed_rate=float(rate),
        certified_ratio=float(certificate.ratio),
        limit=limits[0],
        limit_gap=gap,
        runs=len(runs),
    )
