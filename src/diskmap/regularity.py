"""Boundary regularity diagnostics for solved maps.

Two tools: a spectral decay classifier for f' (geometric decay is the
footprint of an analytic boundary extension, algebraic decay of finite
smoothness), and a direct boundary formula for f'' obtained by
differentiating the representation f' = B exp(S[log Phi(., f)]) along the
circle, cross-checked against the spectral second derivative.
"""

from dataclasses import dataclass

import numpy as np

from . import blaschke as blaschke_mod
from .solver import boundary_weight
from .spectral import check_grid_size, derivative, grid_points, resolved, schwarz_integral

NOISE_FLOOR_RATIO = 1e-13
MIN_FIT_POINTS = 8


@dataclass
class SpectrumReport:
    decay: str  # "geometric" | "algebraic" | "undetermined"
    rate: float
    fit_rms: float
    window: tuple
    points_used: int
    claim: str


def spectrum_report(f):
    """Classify the tail decay of the coefficients of f'.

    Fits log|d_k| against k (geometric, ratio rho) and against log k
    (algebraic, exponent s) over the window k in [m/8, m/2) and keeps the
    better-fitting admissible model.  Windows at the FFT noise floor or with
    too few usable coefficients come back undetermined; the classifier only
    ever claims consistency, never proof.
    """
    d = np.abs(derivative(f).coeffs)
    global_peak = d.max()
    if global_peak == 0.0:
        return SpectrumReport("undetermined", 0.0, 0.0, (0, 0), 0, "undetermined: empty spectral window")
    # stored coefficient vectors keep trailing rounding noise from the solve
    # grid; trim it so the window frames the actual signal range
    floor = NOISE_FLOOR_RATIO * global_peak
    m = int(np.nonzero(d > floor)[0][-1]) + 1
    lo, hi = max(1, m // 8), max(2, m // 2)
    window = d[lo:hi]
    k = np.arange(lo, hi, dtype=np.float64)
    if window.size == 0:
        return SpectrumReport("undetermined", 0.0, 0.0, (lo, hi), 0, "undetermined: empty spectral window")
    if window.max() < floor:
        return SpectrumReport(
            "undetermined", 0.0, 0.0, (lo, hi), 0,
            "undetermined: spectral window at the rounding noise floor (finite expansion)",
        )
    usable = window > floor
    if usable.sum() < MIN_FIT_POINTS:
        return SpectrumReport(
            "undetermined", 0.0, 0.0, (lo, hi), int(usable.sum()),
            "undetermined: too few usable coefficients in the window",
        )
    y = np.log(window[usable])
    kk = k[usable]

    def fit(x):
        A = np.stack([np.ones_like(x), x], axis=1)
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        res = y - A @ sol
        return sol[1], float(np.sqrt(np.mean(res * res)))

    slope_g, rms_g = fit(kk)
    slope_a, rms_a = fit(np.log(kk))
    rho = float(np.exp(slope_g))
    s = float(-slope_a)
    geometric_ok = 0.0 < rho < 1.0
    algebraic_ok = s > 0.0

    if geometric_ok and (rms_g <= rms_a or not algebraic_ok):
        claim = f"consistent with an analytic boundary extension (geometric decay, ratio ~{rho:.3f})"
        return SpectrumReport("geometric", rho, rms_g, (lo, hi), int(usable.sum()), claim)
    if algebraic_ok:
        claim = f"consistent with finite boundary smoothness (algebraic decay, exponent ~{s:.2f})"
        return SpectrumReport("algebraic", s, rms_a, (lo, hi), int(usable.sum()), claim)
    return SpectrumReport(
        "undetermined", 0.0, min(rms_g, rms_a), (lo, hi), int(usable.sum()),
        "undetermined: no admissible decay model fits the window",
    )


@dataclass
class SecondDerivativeResult:
    values: np.ndarray
    n: int
    spectral_gap: float
    used_spectral_angle_derivative: bool


def second_derivative(f, fld, zeros=(), n=512):
    """Boundary values of f'' from the differentiated representation.

    f''/f' = B'/B + S[d/dt log Phi(., f)] / (i z) on |z| = 1.  The angular
    derivative of log Phi(., f) is spectral when its trace is resolved and
    falls back to centered differences otherwise (flagged in the result).
    The result carries the sup gap against the spectral f'', built for the
    call, which doubles as an a-posteriori error indicator.
    """
    n = check_grid_size(n)
    xi = grid_points(n)
    fpvals = f.trace(n, 1)
    g = np.log(boundary_weight(f, fld, n))
    ghat = np.fft.fft(g)
    spectral_ok = resolved(ghat[: n // 2 + 1])  # g is real: one side suffices
    if spectral_ok:
        del g
        kk = np.fft.fftfreq(n, d=1.0 / n)
        kk[n // 2] = 0.0
        np.multiply(1j * kk, ghat, out=ghat)
        del kk
        dgdt = np.fft.ifft(ghat).real
    else:
        step = 2.0 * np.pi / n
        dgdt = (np.roll(g, -1) - np.roll(g, 1)) / (2.0 * step)
        del g
    del ghat

    # f2 = log_deriv * fpvals + fpvals * svals / (1j * xi), formed in place
    # in that order of operations
    svals = fpvals * schwarz_integral(dgdt).trace(n)
    del dgdt
    svals /= 1j * xi
    f2 = blaschke_mod.log_derivative(blaschke_mod.construct(zeros), xi)
    f2 *= fpvals
    f2 += svals
    del svals

    spectral_f2 = derivative(f).trace(n, 1)
    gap = float(np.abs(f2 - spectral_f2).max())
    return SecondDerivativeResult(
        values=f2,
        n=n,
        spectral_gap=gap,
        used_spectral_angle_derivative=bool(spectral_ok),
    )
