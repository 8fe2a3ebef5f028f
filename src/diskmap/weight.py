"""Boundary weight fields Phi(xi, w) and their analytic certificates.

A weight field prescribes the boundary modulus |f'(xi)| = Phi(xi, f(xi)) that
solved disk maps must attain.  Fields are strictly positive, continuous, and
carry an explicit finite sup bound.  Alongside evaluation this module holds
the lattice certificates that decide, before any solve, whether the update
operator contracts, whether the field obeys the radial scale condition that
forces starlike solutions, and whether log Phi is superharmonic.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteWeightError

TABULATED_FLOOR = 1e-9
CONTINUITY_TOL = 1e-12
SUPERHARMONIC_N = 128  # superharmonic_check lattice: 2n + 1 points a side
SUPERHARMONIC_XI = 16  # and this many xi for a xi-dependent field
CONTRACTION_LATTICE = (1024, 256, 64)  # contraction_certificate: radial steps, angles, xi
SCALE_LATTICE = (64, 512, 128, 32)  # radial_scale_check: rho, radial steps, angles, xi
# values per block of each lattice above and of certify's fence: every
# lattice goes through in blocks, so none holds more than a block's
# temporaries at once, whatever its size
LATTICE_BLOCK = 1 << 13


class WeightField:
    """Positive boundary weight Phi(xi, w) with a finite sup bound.

    It is given by fn(xi, w), or by fn None and a radial_profile, from which
    Phi(xi, w) = radial_profile(|w|).  evaluate broadcasts xi and w
    together, so fn always gets complex arrays of one shape.
    """

    __slots__ = ("name", "sup_bound", "xi_dependent", "radial_profile", "_fn")

    def __init__(self, fn, sup_bound, xi_dependent=False, radial_profile=None, name=None):
        if not np.isfinite(sup_bound) or sup_bound <= 0.0:
            raise ValueError("sup bound must be finite and positive")
        if (fn is None) == (radial_profile is None):
            raise ValueError("a field is given by fn or by its radial profile, exactly one")
        if fn is None:
            fn = lambda xi, w: radial_profile(np.abs(w))
        self._fn = fn
        self.sup_bound = float(sup_bound)
        self.xi_dependent = bool(xi_dependent)
        self.radial_profile = radial_profile
        self.name = name or "callable"

    def evaluate(self, xi, w):
        """Phi at unimodular xi and image points w, broadcast together.

        Raises NonFiniteWeightError, a ValueError, on any NaN or infinite
        value, and ValueError on a value that is not strictly positive.
        """
        xi = np.asarray(xi, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        if xi.shape != w.shape:
            xi, w = np.broadcast_arrays(xi, w)
        out = np.asarray(self._fn(xi, w), dtype=np.float64)
        if not np.isfinite(out).all():
            raise NonFiniteWeightError(f"weight field {self.name!r} is not finite")
        if out.size and out.min() <= 0.0:
            raise ValueError(f"weight field {self.name!r} is not strictly positive")
        return out


def constant_field(c):
    c = float(c)
    return WeightField(
        None,
        sup_bound=c,
        radial_profile=lambda r: np.full_like(np.asarray(r, dtype=np.float64), c),
        name=f"constant({c})",
    )


def radial_piecewise_field(breakpoints, pieces, sup_bound, name=None):
    """Rotation-invariant field from radial pieces on [0,b1], (b1,b2], ..., (bm, inf).

    Adjacent pieces must agree at the breakpoints to 1e-12; the profile must
    stay positive on a dense sample out to twice the sup bound.
    """
    breaks = np.asarray(breakpoints, dtype=np.float64)
    if breaks.ndim != 1 or len(pieces) != breaks.size + 1:
        raise ValueError("need exactly one more piece than breakpoints")
    if breaks.size and (np.any(np.diff(breaks) <= 0) or breaks[0] <= 0):
        raise ValueError("breakpoints must be positive and strictly increasing")
    for i, b in enumerate(breaks):
        left = float(pieces[i](np.asarray([b]))[0])
        right = float(pieces[i + 1](np.asarray([b]))[0])
        if abs(left - right) > CONTINUITY_TOL * max(1.0, abs(left)):
            raise ValueError(f"pieces {i} and {i + 1} disagree at breakpoint {b}: {left} vs {right}")

    def profile(r):
        # np.piecewise without its wrapper: every point lies in one piece,
        # and a piece is called only on the points it holds, never on none
        r = np.asarray(r, dtype=np.float64)
        idx = np.searchsorted(breaks, r, side="left")
        out = np.empty_like(r)
        for i, piece in enumerate(pieces):
            mask = idx == i
            vals = r[mask]
            if vals.size:
                out[mask] = piece(vals)
        return out

    sample = profile(np.linspace(0.0, 2.0 * sup_bound, 4097))
    if sample.min() <= 0.0:
        raise ValueError("radial profile must stay strictly positive")

    return WeightField(None, sup_bound, radial_profile=profile, name=name or "radial_piecewise")


def tabulated_field(path):
    """Bilinear interpolant of a CSV table.

    Header `r,theta,phi` gives a polar grid in the image variable (theta wraps
    periodically); header `x,y,phi` gives a cartesian grid clamped at its
    edges.  A polar table with one theta is a radial field, Phi(xi, w) =
    profile(|w|), its profile linear in r between the rows.  Values are
    clamped below at 1e-9 with a warning.  The sup bound is the table maximum.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty table: {path}")
    header = [h.strip().lower() for h in rows[0]]
    data = np.asarray([[float(v) for v in row] for row in rows[1:] if row], dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("tabulated weight needs three columns")
    cols = {h: data[:, i] for i, h in enumerate(header)}
    if "phi" not in cols:
        raise ValueError("tabulated weight needs a 'phi' column")
    name = f"tabulated({path})"
    nonfinite = np.flatnonzero(~np.isfinite(cols["phi"]))
    if nonfinite.size:
        raise ValueError(f"{name} has a non-finite phi in data row {nonfinite[0] + 1}")

    def finite(wb):
        # np.clip keeps NaN, which would fall outside every grid cell
        if not np.isfinite(wb).all():
            raise NonFiniteWeightError(f"weight field {name!r} evaluated at a non-finite image point")
        return wb

    fn = profile = None
    if "r" in cols and "theta" in cols:
        ur, ut = np.unique(cols["r"]), np.unique(cols["theta"])
        grid = _pivot(cols["r"], cols["theta"], cols["phi"], ur, ut)
        if ut.size == 1:
            def profile(r):
                r = np.clip(finite(np.asarray(r, np.float64)), ur[0], ur[-1])
                return _floored(np.interp(r, ur, grid[:, 0]))
        else:
            ut_ext = np.concatenate([ut, [ut[0] + 2.0 * np.pi]])
            interp = _bilinear(ur, ut_ext, np.concatenate([grid, grid[:, :1]], axis=1))
            coords = lambda wb: (np.clip(np.abs(wb), ur[0], ur[-1]), np.mod(np.angle(wb) - ut[0], 2.0 * np.pi) + ut[0])
    elif "x" in cols and "y" in cols:
        ux, uy = np.unique(cols["x"]), np.unique(cols["y"])
        interp = _bilinear(ux, uy, _pivot(cols["x"], cols["y"], cols["phi"], ux, uy))
        coords = lambda wb: (np.clip(wb.real, ux[0], ux[-1]), np.clip(wb.imag, uy[0], uy[-1]))
    else:
        raise ValueError("tabulated weight needs columns r,theta,phi or x,y,phi")
    if profile is None:
        fn = lambda xi, w: _floored(interp(*coords(finite(w))))

    sup = float(cols["phi"].max())
    if sup <= 0.0:
        raise ValueError("tabulated weight has no positive values")
    return WeightField(fn, sup, radial_profile=profile, name=name)


def _floored(out):
    """Tabulated values clamped below at TABULATED_FLOOR, with a warning when
    any was not positive."""
    if out.size and out.min() <= 0.0:
        warnings.warn("tabulated weight clamped at positivity floor")
        out = np.maximum(out, TABULATED_FLOOR)
    return out


def _bilinear(ga, gb, table):
    """Bilinear interpolant of table[i, j] at the nodes (ga[i], gb[j]), for
    points on the grid's rectangle.  An axis with one node gets a second one
    holding the same values, so the interpolant is constant along it."""
    if ga.size == 1:
        ga, table = np.append(ga, ga[0] + 1.0), np.repeat(table, 2, axis=0)
    if gb.size == 1:
        gb, table = np.append(gb, gb[0] + 1.0), np.repeat(table, 2, axis=1)

    def cell(grid, x):
        # the cell [grid[i], grid[i + 1]) holding x, the last one closed, and
        # x's weight within it
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
        return i, (x - grid[i]) / (grid[i + 1] - grid[i])

    def interp(a, b):
        (i, s), (j, t) = cell(ga, a), cell(gb, b)
        return (
            table[i, j] * (1.0 - s) * (1.0 - t)
            + table[i, j + 1] * (1.0 - s) * t
            + table[i + 1, j] * s * (1.0 - t)
            + table[i + 1, j + 1] * s * t
        )

    return interp


def _pivot(a, b, v, ua, ub):
    if a.size != ua.size * ub.size:
        raise ValueError("tabulated weight grid is incomplete")
    grid = np.full((ua.size, ub.size), np.nan)
    ia = np.searchsorted(ua, a)
    ib = np.searchsorted(ub, b)
    grid[ia, ib] = v
    if np.isnan(grid).any():
        raise ValueError("tabulated weight grid has duplicate or missing nodes")
    return grid


# ---------------------------------------------------------------------------
# built-in fields

def staircase_field():
    """Four-piece radial benchmark: sqrt(2r^2+1), then 3, then r, then 6.

    Scaled identity maps r*z solve the boundary problem for exactly
    3 <= r <= 6; z^2 + z is a branched solution.
    """
    return radial_piecewise_field(
        [2.0, 3.0, 6.0],
        [
            lambda r: np.sqrt(2.0 * r * r + 1.0),
            lambda r: np.full_like(r, 3.0),
            lambda r: r,
            lambda r: np.full_like(r, 6.0),
        ],
        sup_bound=6.0,
        name="staircase",
    )


def gauss_radial_field(c=1.0, a=0.1):
    """Phi(w) = c * exp(-a |w|^2): log-concave radial weight, contracting for small c*a."""
    c, a = float(c), float(a)
    return WeightField(
        None,
        sup_bound=c,
        radial_profile=lambda r: c * np.exp(-a * np.square(np.asarray(r, np.float64))),
        name=f"gauss_radial(c={c},a={a})",
    )


def cosine_radial_field(c=1.0, eps=0.2, gamma=1.0):
    """Phi(w) = c * (1 + eps cos(gamma |w|)); global Lipschitz constant c*eps*gamma."""
    c, eps, gamma = float(c), float(eps), float(gamma)
    if not 0.0 <= eps < 1.0:
        raise ValueError("need 0 <= eps < 1 for positivity")
    return WeightField(
        None,
        sup_bound=c * (1.0 + eps),
        radial_profile=lambda r: c * (1.0 + eps * np.cos(gamma * np.asarray(r, np.float64))),
        name=f"cosine_radial(c={c},eps={eps},gamma={gamma})",
    )


def bounded_parabola_field():
    """Phi(w) = 1 + min(|w|, 2)^2: grows too fast near w=2, fails the scale condition."""
    return WeightField(
        None,
        sup_bound=5.0,
        radial_profile=lambda r: 1.0 + np.square(np.minimum(np.asarray(r, np.float64), 2.0)),
        name="bounded_parabola",
    )


def plateau_reciprocal_field():
    """Phi(w) = 1/(2 - min(|w|, 1)): r - Phi(r) has a double root at r = 1."""
    return WeightField(
        None,
        sup_bound=1.0,
        radial_profile=lambda r: 1.0 / (2.0 - np.minimum(np.asarray(r, np.float64), 1.0)),
        name="plateau_reciprocal",
    )


def ripple_field(smooth=True):
    """Phi(w) = 2 + cos(Re w) * exp(-|w|^2), or the |cos| kink variant.

    The smooth version is real-analytic in w, so solved maps inherit
    geometrically decaying spectra; the kink variant loses smoothness along
    Re w = pi/2 + k pi and drops the decay to algebraic.
    """

    def fn(xi, w):
        osc = np.cos(w.real)
        if not smooth:
            osc = np.abs(osc)
        return 2.0 + osc * np.exp(-np.square(np.abs(w)))

    name = "ripple_analytic" if smooth else "ripple_kink"
    return WeightField(fn, sup_bound=3.0, name=name)


BUILTIN_FIELDS = {
    "constant": constant_field,
    "staircase": staircase_field,
    "gauss_radial": gauss_radial_field,
    "cosine_radial": cosine_radial_field,
    "bounded_parabola": bounded_parabola_field,
    "plateau_reciprocal": plateau_reciprocal_field,
    "ripple_analytic": lambda: ripple_field(smooth=True),
    "ripple_kink": lambda: ripple_field(smooth=False),
}


def make_builtin(name, **params):
    try:
        factory = BUILTIN_FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown builtin field {name!r}; known: {sorted(BUILTIN_FIELDS)}") from None
    return factory(**params)


def random_smooth_field(rng):
    """Seeded draw from a family of smooth xi-dependent fields.

    Phi(xi, w) = c exp(alpha cos(t - t0)) exp(beta cos(gamma |w|^2 + delta));
    |w|^2 keeps the w-dependence smooth at the origin and the sup bound
    c exp(alpha + beta) is exact.
    """
    c = rng.uniform(0.9, 1.8)
    alpha = rng.uniform(0.0, 0.25)
    beta = rng.uniform(0.0, 0.12)
    gamma = rng.uniform(0.4, 1.2)
    t0 = rng.uniform(0.0, 2.0 * np.pi)
    delta = rng.uniform(0.0, 2.0 * np.pi)

    def fn(xi, w):
        ang = np.exp(alpha * np.cos(np.angle(xi) - t0))
        rad = np.exp(beta * np.cos(gamma * np.square(np.abs(w)) + delta))
        return c * ang * rad

    return WeightField(
        fn,
        sup_bound=c * np.exp(alpha + beta),
        xi_dependent=True,
        name="random_smooth",
    )


# ---------------------------------------------------------------------------
# lattice certificates

def _xi_lattice(field, n_xi):
    if field.xi_dependent:
        return np.exp(2j * np.pi * np.arange(n_xi) / n_xi)
    return np.ones(1, dtype=np.complex128)


@dataclass
class ContractionCertificate:
    """Lattice a-priori contraction bound for the update operator.

    ratio = lipschitz * (1 + sup_solution_bound / inf_weight_bound); the
    operator is certified contracting on the ball of radius
    sup_solution_bound only when ratio < 1 and the supplied Lipschitz
    constant survives the lattice spot check.
    """

    lipschitz: float
    sup_solution_bound: float
    inf_weight_bound: float
    ratio: float
    valid: bool
    lipschitz_verified: bool
    sampled_lipschitz: float
    lattice: tuple


def contraction_certificate(field, lipschitz):
    """Certify contraction of the update operator from lattice bounds.

    Finds the smallest lattice radius M0 with max Phi over {|w| <= M0} <= M0
    (solution a-priori bound), the lattice min m0 of Phi over that ball, and
    reports ratio = L (1 + M0/m0).  The caller supplies the Lipschitz
    constant L of Phi in w; the lattice difference quotients spot-check it.
    It goes through CONTRACTION_LATTICE in blocks of angle rows, each with
    the next row as a halo for the angular differences, one xi at a time;
    max and min are exact and dividing by a positive gap is monotone, so
    the numbers are those of the whole lattice.
    """
    lipschitz = float(lipschitz)
    if lipschitz < 0.0:
        raise ValueError("Lipschitz constant must be nonnegative")
    n_radial, n_angular, n_xi = CONTRACTION_LATTICE
    radii = np.linspace(0.0, field.sup_bound, n_radial + 1)
    angles = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    xi = _xi_lattice(field, n_xi)
    by_radius_max = np.full(radii.size, -np.inf)
    by_radius_min = np.full(radii.size, np.inf)
    radial_step = angular_step = 0.0
    rows = max(1, LATTICE_BLOCK // radii.size)
    for a in range(0, n_angular - 1, rows):
        w = radii[None, :] * angles[a : a + rows + 1, None]
        gap = np.abs(w[1:, 1:] - w[:-1, 1:])
        for x in xi[:, None, None]:
            vals = field.evaluate(x, w)
            np.maximum(by_radius_max, vals.max(axis=0), out=by_radius_max)
            np.minimum(by_radius_min, vals.min(axis=0), out=by_radius_min)
            radial_step = np.maximum(radial_step, np.abs(np.diff(vals, axis=1)).max())
            angular_step = np.maximum(angular_step, (np.abs(np.diff(vals[:, 1:], axis=0)) / gap).max())

    running_max = np.maximum.accumulate(by_radius_max)
    ok = running_max <= radii
    if not ok.any():
        raise ValueError("no lattice radius bounds the weight; sup bound inconsistent")
    i0 = int(np.argmax(ok))
    M0 = float(radii[i0])
    m0 = float(np.minimum.accumulate(by_radius_min)[i0])

    sampled = float(max(radial_step / (radii[1] - radii[0]), angular_step))
    verified = sampled <= lipschitz * (1.0 + 1e-9) + 1e-9

    ratio = lipschitz * (1.0 + M0 / m0)
    return ContractionCertificate(
        lipschitz=lipschitz,
        sup_solution_bound=M0,
        inf_weight_bound=m0,
        ratio=float(ratio),
        valid=bool(ratio < 1.0 and verified),
        lipschitz_verified=bool(verified),
        sampled_lipschitz=sampled,
        lattice=(len(xi), n_angular, n_radial + 1),
    )


@dataclass
class ScaleCheckResult:
    passed: bool
    margin: float
    strict_passed: bool
    strict_margin: float
    worst_radius: float
    worst_rho: float


def radial_scale_check(field):
    """Check the scale condition Phi(xi, w) <= Phi(xi, rho w)/rho, 0 < rho < 1.

    margin = min over the lattice of Phi(xi, rho w)/rho - Phi(xi, w); the
    non-strict verdict allows -1e-10 of lattice noise.  The strict verdict
    looks away from rho = 1 (rho <= 15/16) and wants margin > 1e-6, which is
    what the starlikeness upgrade needs.  The lattice is SCALE_LATTICE: rho
    by the radii for a radial profile, else rho by (xi, angle, radius).  It
    goes through in blocks of at most LATTICE_BLOCK values, each a stretch
    of one xi's row of w for as many rho as fit; a rho keeps its first lowest
    cell, as on the whole lattice.
    """
    n_rho, n_radial, n_angular, n_xi = SCALE_LATTICE
    rho = np.arange(1, n_rho + 1) / (n_rho + 1.0)
    r = np.linspace(0.0, field.sup_bound, n_radial + 1)[1:]
    xi = _xi_lattice(field, n_xi)[:, None]
    if field.radial_profile is not None:
        w, phi = r, lambda x, z: field.radial_profile(z)
    else:
        w = (r[None, :] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)[:, None]).ravel()
        phi = field.evaluate
    cols = min(w.size, LATTICE_BLOCK)
    rows = max(1, LATTICE_BLOCK // cols)
    lows, cells = np.full(n_rho, np.inf), np.zeros(n_rho, dtype=np.intp)
    for j in range(len(xi)):
        for c in range(0, w.size, cols):
            z = w[c : c + cols]
            base = phi(xi[j], z[None, :])
            for a in range(0, n_rho, rows):
                p = rho[a : a + rows, None, None]
                block = (phi(xi[j], p * z) / p - base).reshape(p.shape[0], -1)
                i = block.argmin(axis=1)
                low = block[np.arange(i.size), i]
                lower = low < lows[a : a + rows]  # blocks go in raster order
                np.copyto(lows[a : a + rows], low, where=lower)
                np.copyto(cells[a : a + rows], j * w.size + c + i, where=lower)

    irho = int(np.argmin(lows))  # the first lowest row at its first lowest cell
    iw = cells[irho]
    margin = float(lows[irho])
    strict_margin = float(lows[rho <= 15.0 / 16.0].min())
    return ScaleCheckResult(
        passed=bool(margin >= -1e-10),
        margin=margin,
        strict_passed=bool(strict_margin > 1e-6),
        strict_margin=strict_margin,
        worst_radius=float(np.abs(w)[iw % w.size]),
        worst_rho=float(rho[irho]),
    )


@dataclass
class SuperharmonicResult:
    passed: bool
    worst: float
    tolerance: float
    worst_point: complex


def superharmonic_check(field):
    """Five-point discrete Laplacian test of log Phi on the disk |w| <= sup bound.

    Passes when the discrete Laplacian never exceeds 10*h (h = M/SUPERHARMONIC_N),
    the discretization allowance for genuinely superharmonic weights.  Each
    xi takes the lattice in blocks of LATTICE_BLOCK // (2n + 1) rows of
    Laplacians, read with one halo row on either side; the worst is the
    first highest in xi order, then raster order, as on the whole lattice.

    A field with a radial profile is read on the rows Re w <= 0 alone.  It
    is the same to the bit at w and -conj(w): |w| is hypot(Re w, Im w),
    even in each argument, and the lattice's coordinates are k*h, so row -k
    is row k negated exactly.  Its Laplacian keeps that symmetry bit for
    bit, since the two row neighbours are added first and a + b == b + a.
    Rows Re w <= 0 come first in raster order, so they hold the whole
    lattice's first highest value at the same point.
    """
    M = field.sup_bound
    h = M / SUPERHARMONIC_N
    coords = np.arange(-SUPERHARMONIC_N, SUPERHARMONIC_N + 1) * h
    iy, inner = 1j * coords, coords[1:-1]
    rows = max(1, LATTICE_BLOCK // coords.size)
    # Laplacian rows inner[:last]; a radial field's stop at Re w = 0
    last = SUPERHARMONIC_N if field.radial_profile is not None else inner.size
    worst = -np.inf
    worst_point = 0.0 + 0.0j
    tol = 10.0 * h
    for x in _xi_lattice(field, SUPERHARMONIC_XI):
        for a in range(0, last, rows):
            b = min(a + rows, last)
            W = coords[a : b + 2, None] + iy
            logv = np.log(field.evaluate(x, W))
            lap = (
                logv[2:, 1:-1] + logv[:-2, 1:-1] + logv[1:-1, 2:] + logv[1:-1, :-2] - 4.0 * logv[1:-1, 1:-1]
            ) / (h * h)
            lap[np.hypot(inner[a:b, None], inner[None, :]) > M] = -np.inf
            i, j = np.unravel_index(np.argmax(lap), lap.shape)
            if lap[i, j] > worst:
                worst = float(lap[i, j])
                worst_point = complex(W[i + 1, j + 1])
    return SuperharmonicResult(passed=bool(worst <= tol), worst=worst, tolerance=tol, worst_point=worst_point)
