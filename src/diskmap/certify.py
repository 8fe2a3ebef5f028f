"""Certificates for solved or candidate disk maps.

The fences compare log|f'| against the harmonic extension u of
log Phi(., f(.)) on circles filling the disk; the other two certificates
read the unit circle:

* subsolution:   log|f'| <= u everywhere inside (margin = u - log|f'|);
* supersolution: log|f'| >= u, and the map must be univalent;
* starlike:      Re(z f'(z)/f(z)) >= 0 on the boundary;
* free boundary: |f'| = Phi(xi, f) on the circle, the largest gap at the
  grid nodes and the half-step midpoints at most the tolerance; the map
  must be univalent.

All margins share the certificate tolerance 1e-8.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundaryError, NotUnivalentError
from .solver import boundary_weight, univalence
from .spectral import check_grid_size, grid_angles, grid_points, next_power_of_two, schwarz_integral
from .weight import LATTICE_BLOCK

TOL_CERT = 1e-8
DERIVATIVE_FLOOR = 1e-14
FENCE_RADII = 16  # circles of the fence lattice, from r = 0.1 to 0.999


@dataclass
class Certificate:
    kind: str
    passed: bool
    worst_margin: float
    worst_location: dict
    lattice: dict
    skipped: int = 0
    details: dict = None

    def as_dict(self):
        out = {
            "kind": self.kind,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "worst_location": self.worst_location,
            "tolerance": TOL_CERT,
            "lattice": self.lattice,
            "skipped": self.skipped,
        }
        if self.details:
            out["details"] = self.details
        return out


def _lattice(f, fld, n):
    """Extremes of the margin u - log|f'| over the (FENCE_RADII, n) lattice.

    Returns ((lowest, r, t), (highest, r, t), skipped).  Each extreme sits at
    its first cell in row-major order; cells where |f'| < DERIVATIVE_FLOOR
    are left out and counted, so a lowest of inf means all were skipped.
    u is the real part of one schwarz_integral of log Phi along f (radii at
    most 0.999).  Rows go through in blocks, each one batched circle trace
    of it and one of f' read from f's own coefficients.  _fence caches the
    scalars on f per (fld, n), so both fences read one pass.
    """
    n = check_grid_size(n)
    radii = np.linspace(0.1, 0.999, FENCE_RADII)
    # a row is as long as the larger of n and f''s coefficient count: the
    # default 16 x 512 lattice is one batched transform, and rows of
    # LATTICE_BLOCK or more go one circle at a time
    rows = max(1, LATTICE_BLOCK // max(n, f.coeffs.size - 1))
    harmonic = schwarz_integral(np.log(boundary_weight(f, fld, n)))
    lows, highs, skipped = [], [], 0
    for start in range(0, FENCE_RADII, rows):
        block = radii[start : start + rows]
        u = harmonic.circle_trace(block, n).real
        margin = np.abs(f.circle_trace(block, n, 1))
        skip = margin < DERIVATIVE_FLOOR
        skipped += int(skip.sum())
        with np.errstate(divide="ignore"):
            np.log(margin, out=margin)
        np.subtract(u, margin, out=margin)
        margin[skip] = np.inf
        i = int(np.argmin(margin))
        lows.append((margin.flat[i], start * n + i))
        margin[skip] = -np.inf
        i = int(np.argmax(margin))
        highs.append((margin.flat[i], start * n + i))
    angles = grid_angles(n)

    def first(extremes, pick):
        value, cell = extremes[int(pick([v for v, _ in extremes]))]
        return float(value), float(radii[cell // n]), float(angles[cell % n])

    return first(lows, np.argmin), first(highs, np.argmax), skipped


def _require_univalent(f, n, name):
    """Raise NotUnivalentError unless f is univalent on the n-point grid or,
    when f has more coefficients than n, on the grid of its own size, where
    a fold too fine for n shows."""
    n = max(check_grid_size(n), next_power_of_two(f.coeffs.size))
    if not univalence(f, n):
        raise NotUnivalentError(f"{name} certificate needs a univalent map")


def _fence(kind, sign, f, fld, n):
    """The lowest of sign * (u - log|f'|) over the lattice, as a certificate;
    negation is exact, so the supersolution's is minus the highest margin."""
    lowest, highest, skipped = f.memo(("fence", fld, n), lambda: _lattice(f, fld, n))
    value, r, t = lowest if sign > 0 else highest
    worst = sign * value
    return Certificate(
        kind=kind,
        passed=bool(worst >= -TOL_CERT) and skipped < n * FENCE_RADII,
        worst_margin=worst,
        worst_location={} if worst == np.inf else {"r": r, "t": t},
        lattice={"n": n, "radii": FENCE_RADII},
        skipped=skipped,
    )


def check_subsolution(f, fld, n=512):
    """f is a subsolution when |f'| never exceeds the harmonic majorant of
    Phi along f; lattice points where f' vanishes are skipped and counted,
    and a lattice with none left fails."""
    return _fence("subsolution", 1.0, f, fld, n)


def check_supersolution(f, fld, n=512):
    """Supersolutions must be univalent and keep |f'| above the harmonic
    minorant; folded boundaries are rejected outright."""
    _require_univalent(f, n, "supersolution")
    return _fence("supersolution", -1.0, f, fld, n)


def check_starlike(f, n=512):
    """Boundary starlikeness Re(z f'/f) >= 0 for a univalent map."""
    _require_univalent(f, n, "starlike")
    n = check_grid_size(n)
    xi = grid_points(n)
    fvals = f.trace(n)
    scale = np.abs(fvals).max()
    if np.abs(fvals).min() < 1e-12 * max(scale, 1.0):
        raise DegenerateBoundaryError("boundary trace passes through 0; starlike quotient undefined")
    quotient = (xi * f.trace(n, 1) / fvals).real
    i = int(np.argmin(quotient))
    worst = float(quotient[i])
    return Certificate(
        kind="starlike",
        passed=bool(worst >= -TOL_CERT),
        worst_margin=worst,
        worst_location={"t": float(grid_angles(n)[i])},
        lattice={"n": n},
    )


def free_boundary_check(f, fld, n=512):
    """Beurling's free boundary condition |f'| = Phi(xi, f) on the circle,
    read at the n grid nodes and at the n half-step midpoints between them,
    which no solve looks at.  The nodes reuse f's cached traces and weight;
    the midpoints are one n-point trace turned by e^{i pi/n}.  Passes when
    the largest gap is at most TOL_CERT (a NaN gap fails); the location is
    the angle pi i / n of the worst of the interleaved node and midpoint
    indices i.
    """
    _require_univalent(f, n, "free boundary")
    n = check_grid_size(n)
    turn = np.exp(1j * np.pi / n)
    node = np.abs(np.abs(f.trace(n, 1)) - boundary_weight(f, fld, n))
    phi = fld.evaluate(turn * grid_points(n), f.circle_trace(turn, n))
    mid = np.abs(np.abs(f.circle_trace(turn, n, 1)) - phi)
    gap = np.stack([node, mid], axis=1).ravel()
    i = int(np.argmax(gap))
    return Certificate(
        kind="free_boundary",
        passed=bool(gap[i] <= TOL_CERT),
        worst_margin=float(TOL_CERT - gap[i]),
        worst_location={"t": float(np.pi * i / n)},
        lattice={"n": n},
        details={"node_residual": float(node.max()), "midpoint_residual": float(mid.max())},
    )
