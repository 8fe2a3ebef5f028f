"""Finite Blaschke products with a positive value at the origin.

B(z) = eta * prod_j (z - z_j) / (1 - conj(z_j) z) with |z_j| < 1 and the
unimodular constant eta chosen so that B(0) > 0.  These carry the prescribed
interior critical points of the solved maps: |B| = 1 on the circle, B vanishes
exactly at the z_j.
"""

import numpy as np

from .errors import DegenerateBoundaryError

DENOM_GUARD = 1e-14


class BlaschkeProduct:
    __slots__ = ("zeros", "eta")

    def __init__(self, zeros, eta):
        self.zeros = np.asarray(zeros, dtype=np.complex128)
        self.eta = complex(eta)


def construct(zeros):
    """Build the product for the given interior zeros (empty list -> B == 1)."""
    zeros = np.atleast_1d(np.asarray(zeros, dtype=np.complex128)) if len(zeros) else np.zeros(0, np.complex128)
    mags = np.abs(zeros)
    if zeros.size and not (mags.min() > 0.0 and mags.max() < 1.0):  # a NaN fails too
        raise ValueError("Blaschke zeros must satisfy 0 < |z_j| < 1")
    if zeros.size == 0:
        return BlaschkeProduct(zeros, 1.0)
    u = np.prod(-zeros)
    eta = np.conj(u) / abs(u)
    return BlaschkeProduct(zeros, eta)


def evaluate(b, z):
    """B(z), vectorized over z; guards the unit-circle denominators."""
    z = np.asarray(z, dtype=np.complex128)
    if b.zeros.size == 0:
        return np.full(z.shape, b.eta)
    zz = z[..., None]
    denom = 1.0 - np.conj(b.zeros) * zz
    if np.abs(denom).min() < DENOM_GUARD:
        raise DegenerateBoundaryError("evaluation point collides with a reflected Blaschke pole")
    return b.eta * np.prod((zz - b.zeros) / denom, axis=-1)


def log_derivative(b, z):
    """B'(z)/B(z) = sum_j [1/(z - z_j) + conj(z_j)/(1 - conj(z_j) z)].

    Valid away from the zeros themselves; on the unit circle the zeros are
    strictly inside, so boundary traces are safe.  The terms are summed one
    zero at a time into the output, in two reused z-sized buffers.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.complex128)
    first, second = np.empty_like(out), np.empty_like(out)
    for cj, zj in zip(np.conj(b.zeros), b.zeros):
        np.divide(1.0, np.subtract(z, zj, out=first), out=first)
        np.divide(cj, np.subtract(1.0, np.multiply(cj, z, out=second), out=second), out=second)
        first += second
        out += first
    return out
