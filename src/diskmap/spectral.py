"""Spectral boundary calculus on the unit circle.

Conventions used throughout the package:

* boundary grids have n = 2**m >= 8 equispaced nodes t_j = 2*pi*j/n;
* an analytic disk function is stored by Taylor coefficients c_k,
  f(z) = sum_k c_k z**k, and its boundary trace is recovered by zero-padded
  inverse FFT, which is exact for polynomials of degree < n;
* real boundary data u determines an analytic completion F with
  Re F = (harmonic extension of u) and Im F(0) = 0 (Schwarz integral).
"""

import functools

import numpy as np

MIN_GRID = 8
MAX_GRID = 1 << 15
RESOLVED_RATIO = 1e-10


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n):
    p = 1
    while p < n:
        p <<= 1
    return p


def check_grid_size(n):
    """Validate a boundary grid size; returns n as an int."""
    n = int(n)
    if not is_power_of_two(n) or n < MIN_GRID:
        raise ValueError(f"grid size must be a power of two >= {MIN_GRID}, got {n}")
    return n


def grid_angles(n):
    """Angles t_j = 2*pi*j/n of the boundary grid."""
    n = check_grid_size(n)
    return np.arange(n) * (2.0 * np.pi / n)


def grid_points(n):
    """Unimodular nodes exp(i t_j) of the boundary grid: one read-only array
    per n, built on the first call and shared by every caller in the
    process.  A table holds 16 n bytes, so the tables of every grid up to
    MAX_GRID hold less than 1 MiB together."""
    return _grid_table(check_grid_size(n))


@functools.lru_cache(maxsize=None)
def _grid_table(n):
    t = 1j * grid_angles(n)
    np.exp(t, out=t)
    t.flags.writeable = False
    return t


# keyed by check_grid_size's int, so np.int64(n) and n share one table; the
# cache's controls stay on grid_points
grid_points.cache_clear, grid_points.cache_info = _grid_table.cache_clear, _grid_table.cache_info


def tail_ratio(coeffs):
    """Largest of the last max(1, m // 8) of m moduli over the peak (0.0 if all
    vanish).  A window, not one index: a map with m-fold symmetry has a
    spectrum that is zero off multiples of m."""
    mags = np.abs(coeffs)
    peak = mags.max()
    return float(mags[-max(1, mags.size // 8) :].max() / peak) if peak else 0.0


def resolved(coeffs):
    """The one resolution rule: the spectral tail is negligible next to the
    peak, tail_ratio(coeffs) < RESOLVED_RATIO."""
    return tail_ratio(coeffs) < RESOLVED_RATIO


def _values(u):
    """Real nodal values (the real part of complex input) on a valid grid."""
    v = np.asarray(u)
    check_grid_size(v.shape[-1] if v.ndim else 0)
    return v.real if np.iscomplexobj(v) else np.asarray(v, dtype=np.float64)


class DiskFunction:
    """Analytic function on the unit disk held as Taylor coefficients.

    What is derived from the map once is cached on it through memo(key,
    build): the boundary traces of f and f' (trace(n, order), one per
    (n, order)), the univalence verdicts, the weight along f and the fence
    lattice extremes.  f' is cached only as its traces, never as a second
    copy of the coefficients.  The contract is stated here once:
    coefficients, and fields used in a key, are not mutated after use, and
    cached arrays are read-only because every caller shares them.
    """

    __slots__ = ("coeffs", "_memo")

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        self.coeffs = c
        self._memo = {}

    def memo(self, key, build):
        """The value cached under key, from build() on first use; an array
        is made read-only before it is shared."""
        if key not in self._memo:
            got = self._memo[key] = build()
            if isinstance(got, np.ndarray):
                got.flags.writeable = False
        return self._memo[key]

    def trace(self, n, order=0):
        """Boundary values of f (order 0) or f' (order 1) at the n-point grid,
        cached per (n, order) (read-only); order 1 has the bits of
        derivative(f).trace(n), with no f' kept."""
        n = check_grid_size(n)
        return self.memo(("trace", n, order), lambda: self._circle_values(1.0, n, order))

    def circle_trace(self, r, n, order=0):
        """Values of f (order 0) or f' (order 1) on the circle of radius r at
        n equispaced angles.  For an array of radii, one batched transform
        gives shape r.shape + (n,).  A unimodular complex r reads the grid
        turned by its angle: r = e^{i pi/n} gives the half-step midpoints."""
        r = np.asarray(r, dtype=np.complex128 if np.iscomplexobj(r) else np.float64)
        return self._circle_values(r, check_grid_size(n), order)

    def _circle_values(self, r, n, order):
        """One zero-padded inverse FFT of the coefficients of f, or with
        order 1 of f' (k c_k, formed straight into the padded buffer),
        scaled in place by r**k unless r is the scalar 1."""
        if order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {order}")
        r = np.asarray(r)
        c = self.coeffs
        m = max(c.size - order, 1)
        size = max(n, next_power_of_two(m))
        padded = np.zeros(r.shape + (size,), dtype=np.complex128)
        if order:
            np.multiply(np.arange(1, c.size), c[1:], out=padded[..., : c.size - 1])
        else:
            padded[..., :m] = c
        if r.ndim or r != 1.0:
            padded[..., :m] *= np.power(r[..., None], np.arange(m))
        got = np.fft.ifft(padded, axis=-1, norm="forward")
        del padded
        # a copy, so that a cached trace does not pin the big-point transform
        return got if size == n else got[..., :: size // n].copy()

    def __call__(self, z):
        """Evaluate at z (a scalar or any complex array) by Horner's rule,
        highest coefficient first.  The result has the shape of z."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros(z.shape, dtype=np.complex128)
        for c in self.coeffs[::-1]:
            out *= z
            out += c
        return out


def derivative(f):
    """f'(z) as a new DiskFunction: c_k -> (k+1) c_{k+1}, built on each call.
    Only a caller that needs f''s coefficients or its Horner evaluation
    builds it; traces of f' come from f.trace(n, 1) and
    f.circle_trace(r, n, 1)."""
    c = f.coeffs
    return DiskFunction(np.arange(1, c.size) * c[1:] if c.size > 1 else [0.0])


def conjugate_periodic(u):
    """Periodic Hilbert conjugate of real nodal data, on the grid only.

    Multiplier -i*sign(k) with the mean and the Nyquist mode annihilated;
    conjugate(conjugate(u)) == -(u - mean(u)) up to the dropped Nyquist mode.
    The operator's grid path: its real transforms fix the solve's bits.
    """
    v = _values(u)
    n = v.size
    spec = np.fft.rfft(v)
    spec[0] = 0.0
    spec[n // 2] = 0.0
    spec *= -1j
    return np.fft.irfft(spec, n)


def schwarz_integral(u):
    """Analytic completion of real nodal data u, the one source of harmonic
    data off the grid: the Poisson extension of u is Re F.

    Returns F as a DiskFunction with Re F|_circle interpolating u and
    Im F(0) = 0: c_0 = Re u-hat_0, c_k = 2 u-hat_k for 0 < k < n/2, and the
    Nyquist coefficient kept once (real for real input).
    """
    v = _values(u)
    n = v.size
    spec = np.fft.fft(v, norm="forward")
    c = np.zeros(n // 2 + 1, dtype=np.complex128)
    c[0] = spec[0].real
    c[1 : n // 2] = 2.0 * spec[1 : n // 2]
    c[n // 2] = spec[n // 2].real
    return DiskFunction(c)


def poisson_extend(u, z):
    """Harmonic extension of real nodal data at points z, |z| <= 1: the real
    part of schwarz_integral(u), evaluated by DiskFunction's Horner rule.
    """
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("poisson_extend needs |z| <= 1")
    return schwarz_integral(u)(z).real


def hp_boundary_distance(f, g, p):
    """Trapezoid rule for the H^p-style gap integral(|f-g|^p dt), 0 < p < 1/2.

    Traces are taken on the finer of the two functions' natural grids, so
    mixed resolutions resample automatically.
    """
    p = float(p)
    if not 0.0 < p < 0.5:
        raise ValueError("exponent must satisfy 0 < p < 1/2")
    n = max(
        next_power_of_two(max(f.coeffs.size, MIN_GRID)),
        next_power_of_two(max(g.coeffs.size, MIN_GRID)),
    )
    diff = np.abs(f.trace(n) - g.trace(n))
    return (2.0 * np.pi / n) * np.power(diff, p).sum()
