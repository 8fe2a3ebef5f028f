"""Finite Blaschke products with a positive value at the origin.

B(z) = eta * prod_j (z - z_j) / (1 - conj(z_j) z) with |z_j| < 1 and the
unimodular constant eta = conj(u)/|u|, u = prod_j (-z_j), so that B(0) > 0.
These carry the prescribed interior critical points of the solved maps:
|B| = 1 on the circle, B vanishes exactly at the z_j.  A product is its
array of zeros, as construct returns it; the empty array is B == 1.
"""

import numpy as np

from .errors import DegenerateBoundaryError

DENOM_GUARD = 1e-14


def construct(zeros):
    """The checked complex array of the given interior zeros (empty -> B == 1)."""
    zeros = np.atleast_1d(np.asarray(zeros, dtype=np.complex128)) if len(zeros) else np.zeros(0, np.complex128)
    mags = np.abs(zeros)
    if zeros.size and not (mags.min() > 0.0 and mags.max() < 1.0):  # a NaN fails too
        raise ValueError("Blaschke zeros must satisfy 0 < |z_j| < 1")
    return zeros


def evaluate(zeros, z):
    """B(z), vectorized over z; guards the unit-circle denominators."""
    z = np.asarray(z, dtype=np.complex128)
    if zeros.size == 0:
        return np.ones(z.shape, dtype=np.complex128)
    u = np.prod(-zeros)
    eta = np.conj(u) / abs(u)
    zz = z[..., None]
    denom = 1.0 - np.conj(zeros) * zz
    if np.abs(denom).min() < DENOM_GUARD:
        raise DegenerateBoundaryError("evaluation point collides with a reflected Blaschke pole")
    return eta * np.prod((zz - zeros) / denom, axis=-1)


def log_derivative(zeros, z):
    """B'(z)/B(z) = sum_j [1/(z - z_j) + conj(z_j)/(1 - conj(z_j) z)].

    Valid away from the zeros themselves; on the unit circle the zeros are
    strictly inside, so boundary traces are safe.  The terms are summed one
    zero at a time into the output, in two reused z-sized buffers.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.complex128)
    first, second = np.empty_like(out), np.empty_like(out)
    for cj, zj in zip(np.conj(zeros), zeros):
        np.divide(1.0, np.subtract(z, zj, out=first), out=first)
        np.divide(cj, np.subtract(1.0, np.multiply(cj, z, out=second), out=second), out=second)
        first += second
        out += first
    return out
