"""Comparison certificates: sub/supersolutions, starlikeness, boundary identity."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from diskmap import certify, solver, spectral, weight
from diskmap.errors import DegenerateBoundaryError, NotUnivalentError
from diskmap.spectral import DiskFunction, derivative

LOG2 = float(np.log(2.0))


@pytest.fixture(scope="module")
def unit_field():
    return weight.constant_field(1.0)


# ---------------------------------------------------------------------------
# sub/supersolution margins against constant weights

def test_half_identity_is_strict_subsolution(unit_field):
    cert = certify.check_subsolution(solver.scaled_identity(0.5), unit_field)
    assert cert.passed
    assert abs(cert.worst_margin - LOG2) < 1e-12
    assert cert.skipped == 0


def test_double_identity_fails_subsolution(unit_field):
    cert = certify.check_subsolution(solver.scaled_identity(2.0), unit_field)
    assert not cert.passed
    assert abs(cert.worst_margin + LOG2) < 1e-12


def test_double_identity_is_strict_supersolution(unit_field):
    cert = certify.check_supersolution(solver.scaled_identity(2.0), unit_field)
    assert cert.passed
    assert abs(cert.worst_margin - LOG2) < 1e-12


def test_half_identity_fails_supersolution(unit_field):
    cert = certify.check_supersolution(solver.scaled_identity(0.5), unit_field)
    assert not cert.passed
    assert abs(cert.worst_margin + LOG2) < 1e-12


def test_staircase_margins_for_undersized_map(staircase):
    # |f'| = 2 against the weight 3 along |w| = 2: subsolution by log(3/2),
    # supersolution short by the same amount.
    two = solver.scaled_identity(2.0)
    sub = certify.check_subsolution(two, staircase)
    sup = certify.check_supersolution(two, staircase)
    assert sub.passed and abs(sub.worst_margin - np.log(1.5)) < 1e-12
    assert not sup.passed and abs(sup.worst_margin - np.log(2.0 / 3.0)) < 1e-12


@pytest.mark.parametrize("r", [3.0, 6.0])
def test_exact_solutions_sit_on_both_fences(staircase, r):
    f = solver.scaled_identity(r)
    sub = certify.check_subsolution(f, staircase)
    sup = certify.check_supersolution(f, staircase)
    assert sub.passed and abs(sub.worst_margin) <= 1e-6
    assert sup.passed and abs(sup.worst_margin) <= 1e-6


def test_fence_takes_one_log_phi_spectrum():
    # both fences read one lattice: log Phi is transformed once per map, and
    # the two extremes are bitwise those of one harmonic circle trace and
    # one circle_trace of f' per radius
    fld = weight.random_smooth_field(np.random.default_rng(2))
    f = DiskFunction([0.0, 1.0, 0.3, 0.05j])
    n = 256
    with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
        sub = certify.check_subsolution(f, fld, n=n)
        sup = certify.check_supersolution(f, fld, n=n)
    assert fft.call_count == 1
    log_phi = np.log(fld.evaluate(spectral.grid_points(n), f.trace(n)))
    fp = derivative(f)
    radii = np.linspace(0.1, 0.999, certify.FENCE_RADII)
    margins = np.array([
        spectral.schwarz_integral(log_phi).circle_trace(r, n).real - np.log(np.abs(fp.circle_trace(r, n)))
        for r in radii
    ])
    angles = spectral.grid_angles(n)
    lo = np.unravel_index(np.argmin(margins), margins.shape)
    hi = np.unravel_index(np.argmax(margins), margins.shape)
    assert sub.worst_margin.hex() == float(margins[lo]).hex()
    assert sup.worst_margin.hex() == float(-margins[hi]).hex()
    assert sub.worst_location == {"r": radii[lo[0]], "t": angles[lo[1]]}
    assert sup.worst_location == {"r": radii[hi[0]], "t": angles[hi[1]]}
    assert sub.skipped == sup.skipped == 0


def test_fence_reads_f_prime_from_the_map_itself():
    # circle traces of f' come from f's coefficients, with no copy of f' built
    fld = weight.random_smooth_field(np.random.default_rng(2))
    f = DiskFunction([0.0, 1.0, 0.3, 0.05j])
    assert not hasattr(certify, "derivative")
    with mock.patch.object(spectral, "derivative", wraps=spectral.derivative) as build:
        certify.check_subsolution(f, fld)
    assert not build.called


def _per_radius_fences(f, fld, n, n_radii):
    """The reference sub- and supersolution fences: one circle trace of the
    harmonic extension of log Phi and one of f' per radius, and each
    fence's worst cell kept on a strict < from row to row."""
    log_phi = np.log(fld.evaluate(spectral.grid_points(n), f.trace(n)))
    fp = derivative(f)
    angles = spectral.grid_angles(n)
    worst, where, skipped = [np.inf, np.inf], [{}, {}], 0
    for r in np.linspace(0.1, 0.999, n_radii):
        mod_fp = np.abs(fp.circle_trace(r, n))
        skip = mod_fp < certify.DERIVATIVE_FLOOR
        skipped += int(skip.sum())
        with np.errstate(divide="ignore"):
            margin = spectral.schwarz_integral(log_phi).circle_trace(r, n).real - np.log(mod_fp)
        for k, sign in enumerate((1.0, -1.0)):
            usable = np.where(skip, np.inf, sign * margin)
            i = int(np.argmin(usable))
            if usable[i] < worst[k]:
                worst[k] = float(usable[i])
                where[k] = {"r": float(r), "t": float(angles[i])}
    return [
        certify.Certificate(
            kind=kind,
            passed=bool(worst[k] >= -certify.TOL_CERT),
            worst_margin=worst[k],
            worst_location=where[k],
            lattice={"n": n, "radii": n_radii},
            skipped=skipped,
        )
        for k, kind in enumerate(("subsolution", "supersolution"))
    ]


def _oracle_maps():
    """(map, field) pairs: random polynomials, solved maps, maps with more
    coefficients than the grid, and f'(z) = z - r_3, which vanishes on the
    fourth circle of the 16-radius lattice."""
    rng = np.random.default_rng(13)
    fields = [weight.staircase_field(), weight.constant_field(1.0)]
    fields += [weight.random_smooth_field(np.random.default_rng(k)) for k in range(3)]
    maps = []
    for i in range(84):
        m = int(rng.integers(2, 42))
        c = (rng.normal(size=m) + 1j * rng.normal(size=m)) / np.arange(1, m + 1) ** 2
        c[1] += rng.uniform(0.5, 6.0)
        maps.append((DiskFunction(c), fields[i % len(fields)]))
    for m in np.geomspace(10, 5000, 10).astype(int):
        c = (rng.normal(size=m) + 1j * rng.normal(size=m)) * 0.9 ** np.arange(m)
        c[1] += 3.0
        maps.append((DiskFunction(c), fields[m % len(fields)]))
    stair = fields[0]
    maps.append((solver.solve(stair, options=solver.SolveOptions(n=64, initial_map=6.5)).f, stair))
    maps.append((solver.solve(stair, zeros=[-0.5], options=solver.SolveOptions(n=64, initial_map=1.0)).f, stair))
    for fld in fields[2:]:
        maps.append((solver.solve(fld, options=solver.SolveOptions(n=64)).f, fld))
    r3 = np.linspace(0.1, 0.999, 16)[3]
    maps.append((DiskFunction([0.0, -r3, 0.5]), stair))
    return maps


@pytest.fixture(scope="module")
def oracle_maps():
    return _oracle_maps()


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_lattice_fences_match_the_per_radius_fence(oracle_maps, n, monkeypatch):
    assert len(oracle_maps) >= 100
    skipped = 0
    for f, fld in oracle_maps:
        for n_radii in (1, 2, 16, 17):
            monkeypatch.setattr(certify, "FENCE_RADII", n_radii)
            f._memo.clear()  # a fresh lattice per n_radii
            with mock.patch.object(certify, "univalence", return_value=True):
                got = [
                    certify.check_subsolution(f, fld, n=n),
                    certify.check_supersolution(f, fld, n=n),
                ]
            want = _per_radius_fences(f, fld, n, n_radii)
            assert [repr(c.as_dict()) for c in got] == [repr(c.as_dict()) for c in want]
            skipped += got[0].skipped
    assert skipped == 1  # f'(z) = z - r_3 on the 16-radius lattice


def test_fence_needs_a_radius(staircase):
    # with no radius the lattice would be empty and the fence would pass at
    # inf; the FENCE_RADII circles fail it at -1.20
    f = DiskFunction([0.0, 20.0])
    assert certify.check_subsolution(f, staircase).worst_margin < -1.0


def test_fence_with_every_cell_skipped_fails(staircase):
    cert = certify.check_subsolution(DiskFunction([0.0, 0.0]), staircase)
    assert not cert.passed
    assert cert.worst_margin == np.inf
    assert cert.worst_location == {}
    assert cert.skipped == 16 * 512


def test_fence_fails_on_a_nan_margin(unit_field):
    # a NaN margin is the worst cell, not one that compares false and drops out
    cert = certify.check_subsolution(DiskFunction([0.0, np.nan]), unit_field)
    assert not cert.passed
    assert np.isnan(cert.worst_margin)
    assert cert.worst_location == {"r": 0.1, "t": 0.0}


def test_fence_memory_at_the_finest_grid(staircase):
    # one circle per row block from n = 8192 up: 4.04 MiB is the per-radius
    # fence's peak, with the grid table built inside the trace
    f = solver.scaled_identity(6.0)
    spectral.grid_points.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        certify.check_subsolution(f, staircase, n=32768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2**20 <= 4.04


def test_supersolution_requires_univalence(unit_field):
    with pytest.raises(NotUnivalentError):
        certify.check_supersolution(DiskFunction([0.0, 0.0, 1.0]), unit_field)


# ---------------------------------------------------------------------------
# starlikeness

def test_starlike_passes_for_scaled_identity():
    cert = certify.check_starlike(solver.scaled_identity(6.0))
    assert cert.passed
    assert abs(cert.worst_margin - 1.0) < 1e-10


def test_starlike_cardioid_touches_zero():
    cert = certify.check_starlike(DiskFunction([0.0, 1.0, 0.5]))
    assert cert.passed
    assert abs(cert.worst_margin) < 1e-12


def test_starlike_fails_for_shifted_cardioid():
    # univalent, but the image's dimple hides the origin outside
    cert = certify.check_starlike(DiskFunction([0.6, 1.0, 0.5]))
    assert not cert.passed
    assert cert.worst_margin < -1.0


def test_starlike_requires_univalence():
    with pytest.raises(NotUnivalentError):
        certify.check_starlike(DiskFunction([0.0, 0.0, 1.0]))


def test_starlike_rejects_boundary_through_origin():
    with pytest.raises(DegenerateBoundaryError):
        certify.check_starlike(DiskFunction([1.0, 1.0]))


# ---------------------------------------------------------------------------
# free boundary identity

def test_free_boundary_on_maximal_solution(staircase, maximal_report):
    # 6z against the weight 6 along |w| = 6: rounding at the nodes and at
    # the midpoints alike
    cert = certify.free_boundary_check(maximal_report.f, staircase)
    assert cert.passed
    assert cert.details["node_residual"] <= 1e-14 and cert.details["midpoint_residual"] <= 1e-14
    assert cert.worst_margin == certify.TOL_CERT - max(cert.details.values())


def test_free_boundary_on_constant_solution(unit_field):
    rep = solver.solve(unit_field)
    cert = certify.free_boundary_check(rep.f, unit_field)
    assert cert.passed


def test_free_boundary_requires_univalence(staircase, branched_report):
    with pytest.raises(NotUnivalentError):
        certify.free_boundary_check(branched_report.f, staircase)


def test_free_boundary_threshold_tracks_residual(staircase):
    # the certificate is the residual itself: |f'| = 2 against the weight 3
    # along |w| = 2 at every point of the circle, so 2z fails by the gap 1
    cert = certify.free_boundary_check(solver.scaled_identity(2.0), staircase)
    assert not cert.passed
    assert cert.details == {"node_residual": 1.0, "midpoint_residual": 1.0}
    assert cert.worst_margin == certify.TOL_CERT - 1.0


# the ids name the gradient errors and margins of the Newton-probe check
# this certificate replaced, so that each row keeps its test id
@pytest.mark.parametrize("which,node,midpoint,margin,t", [
    pytest.param(
        "maximal", 1.7763568394002505e-15, 8.881784197001252e-16, 9.99999822364316e-09, 1.533980787885641,
        id="maximal-1.4497662620475515e-10-1.000000000308395e-08",
    ),
    pytest.param(
        "double_identity", 1.0, 1.0, -0.99999999, 0.0,
        id="double_identity-8.247118787885198e-11-9.999999994736442e-09",
    ),
])
def test_free_boundary_details_pinned(staircase, maximal_report, which, node, midpoint, margin, t):
    f = maximal_report.f if which == "maximal" else solver.scaled_identity(2.0)
    cert = certify.free_boundary_check(f, staircase)
    assert cert.passed == (which == "maximal")
    assert abs(cert.details["node_residual"] - node) <= 1e-15
    assert abs(cert.details["midpoint_residual"] - midpoint) <= 1e-15
    assert abs(cert.worst_margin - margin) <= 1e-15
    assert cert.worst_location == {"t": t}
    assert cert.lattice == {"n": 512}


def _largest_root(profile, top):
    """The largest root of r = profile(r) on (0, top]: the last sign change
    of r - profile(r) on a dense grid, then bisection of its bracket."""
    r = np.linspace(1e-3, top, 400_001)
    sign = np.sign(r - profile(r))
    i = np.flatnonzero(sign[:-1] != sign[1:])[-1]
    lo, hi = r[i], r[i + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.sign(mid - profile(mid)) == sign[i]:
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_free_boundary_reads_the_condition_at_the_nodes_and_between_them(staircase):
    # 2z + (0.4 + 0.3i) z^2, with xi turned by 0.8 + 0.6i and s the cosine
    # of its angle: |f'| = sqrt(5 + 4s) and |f| = sqrt(4.25 + 2s) in
    # [1.5, 2.5], where the staircase is 3 for |f| >= 2 and sqrt(2|f|^2 + 1)
    # below.  The largest gap, sqrt(5.5) - 1 = 1.3452, sits at s = -1,
    # which the interleaved nodes and midpoints pass within pi/1024.
    cert = certify.free_boundary_check(DiskFunction([0.0, 2.0, 0.4 + 0.3j]), staircase)
    sup = np.sqrt(5.5) - 1.0
    assert not cert.passed
    assert sup - 1e-6 <= cert.details["midpoint_residual"] <= sup
    assert cert.worst_margin == certify.TOL_CERT - cert.details["midpoint_residual"]
    # a z on cosine_radial(2, 0.9, 4): the gap is |a - Phi(a)| everywhere,
    # 2.010 at a = 2.5 and 3.724 at a = 4.0, and 0 at the largest root
    # r* = 3.327 of r = Phi(r), whose map r* z is the maximal solution
    fld = weight.cosine_radial_field(2.0, 0.9, 4.0)
    for a, gap in ((2.5, 2.010), (4.0, 3.724)):
        cert = certify.free_boundary_check(solver.scaled_identity(a), fld)
        assert not cert.passed and abs(cert.worst_margin + gap) < 1e-3
        assert abs(cert.worst_margin - (certify.TOL_CERT - abs(a - fld.radial_profile(a)))) <= 1e-12
    root = _largest_root(fld.radial_profile, fld.sup_bound)
    assert abs(root - 3.327) < 1e-3
    cert = certify.free_boundary_check(solver.scaled_identity(root), fld)
    assert cert.passed and max(cert.details.values()) <= 1e-13
    # ripple_kink solved at 128 meets the condition at its nodes only: the
    # kink leaves a gap of 1.3e-4 between them
    fld = weight.make_builtin("ripple_kink")
    rep = solver.solve(fld, options=solver.SolveOptions(n=128))
    cert = certify.free_boundary_check(rep.f, fld, n=128)
    assert rep.converged and not cert.passed
    assert cert.details["node_residual"] <= 1e-12 and cert.details["midpoint_residual"] > 1e-4


# ---------------------------------------------------------------------------
# serialization

def test_certificate_json_round_trip(unit_field):
    cert = certify.check_subsolution(solver.scaled_identity(0.5), unit_field)
    back = json.loads(json.dumps(cert.as_dict()))
    assert back["kind"] == cert.kind
    assert back["pass"] == cert.passed
    assert back["worst_margin"] == cert.worst_margin
    assert back["worst_location"] == cert.worst_location
    assert back["lattice"] == cert.lattice
    assert back["skipped"] == cert.skipped


def test_free_boundary_json_keeps_details(staircase, maximal_report):
    cert = certify.free_boundary_check(maximal_report.f, staircase)
    back = json.loads(json.dumps(cert.as_dict()))
    assert back["details"] == cert.details
    assert set(back["details"]) == {"node_residual", "midpoint_residual"}
