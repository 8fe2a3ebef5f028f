"""Interior lattice certificates for solved or candidate disk maps.

Certificates compare log|f'| against the harmonic extension u of
log Phi(., f(.)) on circles filling the disk:

* subsolution:   log|f'| <= u everywhere inside (margin = u - log|f'|);
* supersolution: log|f'| >= u, and the map must be univalent;
* starlike:      Re(z f'(z)/f(z)) >= 0 on the boundary;
* free boundary: 1/|f'| matches 1/Phi on the boundary within a residual
  budget, plus finite-difference spot checks of |grad log|f^{-1}|| around
  interior image points.

All margins share the certificate tolerance 1e-8.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundaryError, NotUnivalentError
from .solver import boundary_weight, residual_sup, univalence
from .spectral import check_grid_size, derivative, grid_angles, grid_points, next_power_of_two, schwarz_integral
from .weight import LATTICE_BLOCK

TOL_CERT = 1e-8
DERIVATIVE_FLOOR = 1e-14
FD_STEP = 1e-6
FD_TOL = 1e-4
NEWTON_TOL = 1e-13
NEWTON_STEPS = 60
FENCE_RADII = 16  # circles of the fence lattice, from r = 0.1 to 0.999
FB_SPOTS = 8  # interior points of the free boundary gradient check
FB_DELTA = 1e-3  # their distance inside the unit circle


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


def _newton_inverse(f, fp, w, z0):
    """Newton inversion f(z) = w from z0, for 1-d arrays of probes at once.

    Each probe is frozen once |f(z) - w| < NEWTON_TOL; f is analytic so few
    steps suffice.
    """
    z = np.array(z0, dtype=np.complex128)
    active = np.arange(z.size)
    for _ in range(NEWTON_STEPS):
        gap = f(z[active]) - w[active]
        moving = ~(np.abs(gap) < NEWTON_TOL)
        active, gap = active[moving], gap[moving]
        if active.size == 0:
            return z
        dz = fp(z[active])
        if np.any(dz == 0.0):
            raise DegenerateBoundaryError("Newton inversion hit a critical point")
        z[active] -= gap / dz
    raise DegenerateBoundaryError("Newton inversion failed to converge")


def free_boundary_check(f, fld, n=512):
    """Check the free boundary identity along the solved boundary.

    Boundary part: |1/|f'| - 1/Phi(., f)| stays under a threshold derived
    from the solve residual.  Interior part: at FB_SPOTS points FB_DELTA
    inside the boundary, the gradient of u = log|f^{-1}| (finite differences
    around the image point, one vectorized Newton inversion of all probes)
    matches 1/(|f'(z)| |z|) to a documented 1e-4 relative tolerance.
    """
    _require_univalent(f, n, "free boundary")
    n = check_grid_size(n)
    fpvals = f.trace(n, 1)
    phi = boundary_weight(f, fld, n)
    m1 = float(np.abs(fpvals).min())
    m2 = float(phi.min())
    if m1 < 1e-12 or m2 < 1e-12:
        raise DegenerateBoundaryError("boundary derivative or weight vanishes; identity undefined")
    residual = residual_sup(f, fld, n)
    threshold = residual / (m1 * m2) + TOL_CERT
    gap = np.abs(1.0 / np.abs(fpvals) - 1.0 / phi)
    i = int(np.argmax(gap))
    boundary_worst = float(gap[i])
    boundary_ok = boundary_worst <= threshold

    h = FD_STEP
    z0 = (1.0 - FB_DELTA) * np.exp(1j * (2.0 * np.pi * np.arange(FB_SPOTS) / FB_SPOTS))
    w = f(z0)[:, None] + np.array([h, -h, 1j * h, -1j * h])
    fp = derivative(f)
    probes = np.log(np.abs(_newton_inverse(f, fp, w.ravel(), np.repeat(z0, 4)))).reshape(FB_SPOTS, 4)
    gx = (probes[:, 0] - probes[:, 1]) / (2.0 * h)
    gy = (probes[:, 2] - probes[:, 3]) / (2.0 * h)
    grad = np.hypot(gx, gy)
    target = 1.0 / (np.abs(fp(z0)) * np.abs(z0))
    grad_worst = float(np.max(np.abs(grad - target) / target, initial=0.0))
    grad_ok = grad_worst <= FD_TOL

    passed = bool(boundary_ok and grad_ok)
    margin = float(min(threshold - boundary_worst, FD_TOL - grad_worst))
    return Certificate(
        kind="free_boundary",
        passed=passed,
        worst_margin=margin,
        worst_location={"t": float(grid_angles(n)[i])},
        lattice={"n": n, "spots": FB_SPOTS, "delta": FB_DELTA},
        details={
            "boundary_gap": boundary_worst,
            "boundary_threshold": threshold,
            "gradient_relative_error": grad_worst,
            "gradient_tolerance": FD_TOL,
            "residual": residual,
        },
    )
