"""Spectral decay classification and the boundary second derivative."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from diskmap import blaschke, regularity, solver, spectral, weight
from diskmap.spectral import DiskFunction


def map_with_derivative_decay(target, m=512):
    """DiskFunction whose derivative coefficients follow target(k), k >= 0."""
    c = np.zeros(m, dtype=np.complex128)
    k = np.arange(1, m, dtype=np.float64)
    c[1:] = target(k - 1.0) / k
    return DiskFunction(c)


# ---------------------------------------------------------------------------
# synthetic spectra with known decay

@pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
def test_geometric_decay_recovered_exactly(rho):
    f = map_with_derivative_decay(lambda k: rho**k)
    rep = regularity.spectrum_report(f)
    assert rep.decay == "geometric"
    assert abs(rep.rate - rho) < 1e-6
    assert rep.fit_rms < 1e-10
    assert "analytic" in rep.claim


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_algebraic_decay_recovered(s):
    f = map_with_derivative_decay(lambda k: (k + 1.0) ** (-s))
    rep = regularity.spectrum_report(f)
    assert rep.decay == "algebraic"
    assert abs(rep.rate - s) < 0.05
    assert "finite boundary smoothness" in rep.claim


def test_finite_expansion_is_undetermined():
    rep = regularity.spectrum_report(DiskFunction([0.0, 6.0]))
    assert rep.decay == "undetermined"
    rep2 = regularity.spectrum_report(DiskFunction([0.0, 1.0, 1.0]))
    assert rep2.decay == "undetermined"


def test_zero_map_is_undetermined():
    rep = regularity.spectrum_report(DiskFunction([0.0, 0.0, 0.0, 0.0]))
    assert rep.decay == "undetermined"
    assert "empty" in rep.claim


@pytest.mark.parametrize("coeffs,reason", [
    ([0.0, 0.0, 0.0, 0.0], "empty spectral window"),
    ([0.0, 6.0], "empty spectral window"),
    (np.concatenate([[0.0, 1.0], np.zeros(30), [1e-3]]), "at the rounding noise floor"),
    ([0.0, 1.0, 1.0], "too few usable coefficients"),
    # f' = 1 + 2z + 3z^2 + ...: |d_k| grows, which neither decay model admits
    (np.ones(64), "no admissible decay model"),
], ids=["zero", "linear", "noise_floor", "few_points", "growing"])
def test_an_undetermined_spectrum_names_its_reason(coeffs, reason):
    rep = regularity.spectrum_report(DiskFunction(coeffs))
    assert rep.decay == "undetermined" and rep.rate == 0.0
    assert rep.claim.startswith("undetermined: ") and reason in rep.claim


def test_report_as_dict_round_trips():
    rep = regularity.spectrum_report(map_with_derivative_decay(lambda k: 0.7**k))
    d = dataclasses.asdict(rep)
    assert d["decay"] == rep.decay
    assert d["rate"] == rep.rate
    assert list(d["window"]) == list(rep.window)


# ---------------------------------------------------------------------------
# solved maps: smooth/kink contrast

@pytest.fixture(scope="module")
def pole_pair():
    """Matched weight pair differing only by a kink in the image factor."""

    def build(smooth):
        def fn(xi, w):
            xb, wb = np.broadcast_arrays(xi, w)
            angular = 0.2 / (1.0 - 0.94 * np.cos(np.angle(xb)))
            osc = np.cos(4.0 * wb.real)
            if not smooth:
                osc = np.abs(osc)
            return angular * (1.0 + 0.1 * osc)

        name = "pole_smooth" if smooth else "pole_kink"
        return weight.WeightField(
            fn, sup_bound=(0.2 / 0.06) * 1.1, xi_dependent=True, name=name
        )

    return build(True), build(False)


def test_smooth_weight_solves_to_geometric_decay(pole_pair):
    smooth, _ = pole_pair
    rep = solver.solve(smooth)
    assert rep.converged
    sr = regularity.spectrum_report(rep.f)
    assert sr.decay == "geometric"
    assert 0.5 < sr.rate < 0.95


def test_kink_weight_drops_decay_to_algebraic(pole_pair):
    _, kink = pole_pair
    rep = solver.solve(kink)
    assert rep.converged
    sr = regularity.spectrum_report(rep.f)
    assert sr.decay == "algebraic"
    assert 1.0 < sr.rate < 3.5


def test_ripple_kink_solve_is_algebraic():
    rep = solver.solve(weight.ripple_field(smooth=False))
    assert rep.converged
    sr = regularity.spectrum_report(rep.f)
    assert sr.decay == "algebraic"


def test_ripple_analytic_solve_super_smooth():
    # the solved spectrum collapses below the noise floor within a few modes,
    # leaving too few usable points for either model
    rep = solver.solve(weight.ripple_field(smooth=True))
    sr = regularity.spectrum_report(rep.f)
    assert sr.decay == "undetermined"


# ---------------------------------------------------------------------------
# boundary second derivative

def test_second_derivative_vanishes_for_scaled_identity(staircase, maximal_report):
    res = regularity.second_derivative(maximal_report.f, staircase)
    assert np.abs(res.values).max() < 1e-6
    assert res.spectral_gap < 1e-6


def test_second_derivative_of_branched_solution(staircase, branched_report):
    res = regularity.second_derivative(branched_report.f, staircase, zeros=[-0.5])
    assert np.abs(res.values - 2.0).max() < 1e-6
    assert res.spectral_gap < 1e-6
    assert res.used_spectral_angle_derivative


@pytest.mark.parametrize("fld,zeros,options,spectral", [
    pytest.param(weight.staircase_field(), [], solver.SolveOptions(initial_map=6.5), True, id="6z"),
    pytest.param(weight.staircase_field(), [-0.5], solver.SolveOptions(initial_map=1.0), True, id="z^2+z"),
    pytest.param(
        weight.staircase_field(), [0.995], solver.SolveOptions(n=8192, initial_map=1.0), True, id="zero at 0.995"
    ),
    pytest.param(weight.ripple_field(smooth=True), [], solver.SolveOptions(), True, id="ripple_analytic"),
    pytest.param(weight.ripple_field(smooth=False), [], solver.SolveOptions(), False, id="ripple_kink"),
])
def test_second_derivative_angle_derivative_verdicts(fld, zeros, options, spectral):
    rep = solver.solve(fld, zeros=zeros, options=options)
    res = regularity.second_derivative(rep.f, fld, zeros=zeros, n=rep.n)
    assert res.used_spectral_angle_derivative == spectral
    if spectral:
        assert res.spectral_gap < 1e-8


@pytest.mark.parametrize("n", [512, 8192])
def test_near_boundary_zero_settles_on_the_derivative(n):
    # the update is measured on f', so the solve that refines from 512 does
    # not stop while f' still moves; settling on |U(f) - f| left its
    # second-derivative gap at 7.5e-6
    fld = weight.staircase_field()
    rep = solver.solve(fld, zeros=[0.995], options=solver.SolveOptions(n=n, initial_map=1.0))
    assert rep.converged and rep.n == 8192
    res = regularity.second_derivative(rep.f, fld, zeros=[0.995], n=rep.n)
    assert res.spectral_gap < 1e-8


@pytest.fixture(scope="module")
def near_boundary():
    """The staircase field and its map with a critical point at 0.995,
    solved at 8192."""
    fld = weight.staircase_field()
    rep = solver.solve(fld, zeros=[0.995], options=solver.SolveOptions(n=8192, initial_map=1.0))
    assert rep.n == 8192
    return fld, rep.f


def _traced_second_derivative(fld, f):
    """The gap, and the MiB above what was held before the call: held after
    it, with its result dropped, and at its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = regularity.second_derivative(f, fld, zeros=[0.995], n=8192)
        gap = res.spectral_gap
        del res
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return gap, (held - start) / 2**20, (peak - start) / 2**20


def test_second_derivative_caches_nothing_on_the_map(near_boundary):
    # f'' and its n-point trace stayed cached on f' for the map's lifetime:
    # 0.251 MiB held after the call at n = 8192
    gap, held, _ = _traced_second_derivative(*near_boundary)
    assert held < 0.05
    assert gap < 1e-8


def test_second_derivative_drops_its_temporaries_once_spent(near_boundary):
    # 1.13 MiB at the peak while the log weight, its transform and its
    # angular derivative were all still held; 0.63 while the Blaschke log
    # derivative held four (n, zeros) temporaries, 0.56 summing it per zero
    gap, _, peak = _traced_second_derivative(*near_boundary)
    assert peak < 0.615
    assert gap < 1e-8


@pytest.mark.parametrize("smooth", [True, False], ids=["spectral", "differences"])
def test_second_derivative_keeps_the_order_of_operations(smooth):
    # the in-place f'' against the expression it replaced, bit for bit, on
    # a map where all three terms are nonzero: the sup norm and the gap that
    # spectrum.json pins are too coarse to see a reordering
    fld = weight.ripple_field(smooth=smooth)
    f = solver.solve(fld, zeros=[-0.5], options=solver.SolveOptions(initial_map=1.0)).f
    n = 512
    xi = spectral.grid_points(n)
    fpvals = spectral.derivative(f).trace(n)
    g = np.log(solver.boundary_weight(f, fld, n))
    if smooth:
        kk = np.fft.fftfreq(n, d=1.0 / n)
        kk[n // 2] = 0.0
        dgdt = np.fft.ifft(1j * kk * np.fft.fft(g)).real
    else:
        dgdt = (np.roll(g, -1) - np.roll(g, 1)) / (2.0 * (2.0 * np.pi / n))
    log_deriv = blaschke.log_derivative(blaschke.construct([-0.5]), xi)
    svals = spectral.schwarz_integral(dgdt).trace(n)
    want = log_deriv * fpvals + fpvals * svals / (1j * xi)
    res = regularity.second_derivative(f, fld, zeros=[-0.5], n=n)
    assert res.used_spectral_angle_derivative == smooth
    assert np.array_equal(res.values, want)


def test_second_derivative_as_function(staircase, branched_report):
    res = regularity.second_derivative(branched_report.f, staircase, zeros=[-0.5])
    g = DiskFunction(np.fft.fft(res.values) / res.n)
    assert abs(g.coeffs[0] - 2.0) < 1e-6
    assert np.abs(g.coeffs[1:]).max() < 1e-6
