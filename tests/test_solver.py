"""Fixed-point solver: stationarity, convergence, geometry, scans."""

import dataclasses
import inspect
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diskmap
import probes
from diskmap import blaschke, certify, regularity, solver, spectral, weight
from diskmap.errors import DivergenceError
from diskmap.solver import SolveOptions, scaled_identity
from diskmap.spectral import DiskFunction


# ---------------------------------------------------------------------------
# options and initial maps

def test_scaled_identity_coeffs():
    f = scaled_identity(2.5)
    assert f.coeffs.tolist() == [0.0, 2.5]


def test_resolve_init_variants(staircase):
    assert SolveOptions().resolve_init(staircase).coeffs[1] == 6.5
    assert SolveOptions(initial_map=2).resolve_init(staircase).coeffs[1] == 2.0
    g = DiskFunction([0.0, 1.0, 0.5])
    assert SolveOptions(initial_map=g).resolve_init(staircase) is g
    with pytest.raises(ValueError):
        SolveOptions(initial_map="big").resolve_init(staircase)
    for radius in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SolveOptions(initial_map=radius).resolve_init(staircase)


def test_solve_rejects_bad_grid(staircase):
    with pytest.raises(ValueError, match="power of two"):
        solver.solve(staircase, options=SolveOptions(n=12))


def test_solve_rejects_a_grid_above_the_largest(staircase, monkeypatch):
    # before any step: n = 65536 used to climb to 32768 and then report the
    # exactly resolved map 6z as "derivative tail unresolved"
    monkeypatch.setattr(solver, "_operator_step", None)
    with pytest.raises(ValueError, match="at most 32768, got 65536"):
        solver.solve(staircase, options=SolveOptions(n=1 << 16, initial_map=6.5))


def test_unresolved_tail_at_the_largest_grid_raises(monkeypatch):
    # the kinked ripple needs 128 points; with 64 the largest grid, the run
    # that settles on 64 cannot refine.  It used to raise
    # ResolutionExceededError; it now reports the settled map as unresolved
    monkeypatch.setattr(solver, "MAX_GRID", 64)
    rep = solver.solve(weight.ripple_field(smooth=False), options=SolveOptions(n=64))
    assert (rep.stop_reason, rep.converged, rep.n, rep.doublings) == ("unresolved", False, 64, 0)
    assert rep.update_history[-1] < 1e-10 and not spectral.resolved(spectral.derivative(rep.f).coeffs)


# ---------------------------------------------------------------------------
# operator stationarity and residuals

@pytest.mark.parametrize("r", [3.0, 4.5, 5.5, 6.0])
def test_scaled_identities_are_fixed_points(staircase, r):
    b = blaschke.construct([])
    f = scaled_identity(r)
    u, u_prime, tail = probes.apply_operator(f, staircase, b, 256)
    assert np.abs(u.coeffs[:2] - f.coeffs).max() < 1e-13
    assert np.abs(u.coeffs[2:]).max() < 1e-13
    assert np.abs(u_prime.coeffs[0] - r) < 1e-13
    assert tail == spectral.tail_ratio(u_prime.coeffs)


@pytest.mark.parametrize("r,want", [(6.0, 0.0), (5.0, 0.0), (2.0, 1.0)])
def test_residual_of_scaled_identities(staircase, r, want):
    got = solver.residual_sup(scaled_identity(r), staircase, 128)
    assert abs(got - want) < 1e-12


def _half_step_residual(f, fld, n):
    """sup of | |f'| - Phi | at the midpoints xi e^{i pi/n} between the n
    nodes: the n-point traces of f and f' with c_k turned by e^{i pi k/n}."""
    fp = spectral.derivative(f)
    def turned(g):
        return DiskFunction(g.coeffs * np.exp(1j * np.pi * np.arange(g.coeffs.size) / n)).trace(n)
    mid = spectral.grid_points(n) * np.exp(1j * np.pi / n)
    return float(np.abs(np.abs(turned(fp)) - fld.evaluate(mid, turned(f))).max())


def _check_between_the_nodes(name, zeros, n):
    fld = weight.make_builtin(name)
    rep = solver.solve(fld, zeros=zeros, options=SolveOptions(n=n))
    assert rep.converged and rep.stop_reason == "tolerance"
    mid = _half_step_residual(rep.f, fld, rep.n)
    assert mid <= max(rep.residual * 2.0, solver.TOL_RESIDUAL), (rep.residual, mid)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: converged is checked only at the grid nodes; these kinked or "
    "branched solves read 1.3e-4, 9.8e-6 and 1.5e-3 between the nodes against "
    "1.6e-13, 7.3e-13 and 8.3e-13 at them"
))
@pytest.mark.parametrize("name,zeros,n", [
    ("ripple_kink", [], 128),
    ("ripple_kink", [], 2048),
    ("bounded_parabola", [-0.5], 512),
])
def test_converged_solve_meets_the_residual_between_the_nodes(name, zeros, n):
    _check_between_the_nodes(name, zeros, n)


@pytest.mark.parametrize("name", ["staircase", "ripple_analytic"])
def test_smooth_solve_meets_the_residual_between_the_nodes(name):
    # controls: staircase reads 1.8e-15 at the nodes and 8.9e-16 between
    # them, ripple_analytic 1.3e-12 at both
    _check_between_the_nodes(name, [], 512)


# ---------------------------------------------------------------------------
# solve runs

def test_maximal_staircase_solution(maximal_report):
    rep = maximal_report
    assert rep.converged
    assert rep.residual <= 1e-8
    assert abs(rep.f.coeffs[1] - 6.0) <= 1e-8
    assert np.abs(rep.f.coeffs[2:]).max() <= 1e-8
    assert abs(rep.f.coeffs[0]) <= 1e-12
    assert rep.univalent
    assert rep.locally_univalent
    assert rep.zeros == ()
    assert rep.field_name == "staircase"


def test_branched_staircase_solution(branched_report):
    rep = branched_report
    assert rep.converged
    assert rep.residual <= 1e-8
    want = np.zeros(rep.f.coeffs.size, dtype=complex)
    want[1] = 1.0
    want[2] = 1.0
    assert np.abs(rep.f.coeffs - want).max() <= 1e-7
    assert not rep.univalent
    assert not rep.locally_univalent
    assert rep.zeros == (-0.5 + 0.0j,)


def test_constant_field_solves_to_scaled_identity():
    rep = solver.solve(weight.constant_field(2.0))
    assert rep.converged
    assert abs(rep.f.coeffs[1] - 2.0) < 1e-10
    assert np.abs(rep.f.coeffs[2:]).max() < 1e-10
    assert rep.univalent


def test_exact_start_converges_immediately(staircase):
    rep = solver.solve(staircase, options=SolveOptions(initial_map=scaled_identity(6.0)))
    assert rep.converged
    assert rep.iterations <= 2
    assert abs(rep.f.coeffs[1] - 6.0) < 1e-12


def test_grid_doubles_until_tail_resolves():
    rep = solver.solve(weight.ripple_field(smooth=True), options=SolveOptions(n=8))
    assert rep.converged
    assert rep.doublings >= 1
    assert rep.n >= 16
    assert spectral.resolved(spectral.derivative(rep.f).coeffs)


def test_nan_weight_fails_on_first_operator_step():
    calls = []

    def fn(xi, w):
        calls.append(1)
        out = np.full(np.broadcast(xi, w).shape, 3.0)
        out.flat[7] = np.nan  # one bad node among 512
        return out

    fld = weight.WeightField(fn, sup_bound=3.0, name="nan-node")
    with pytest.raises(ValueError, match="'nan-node' is not finite"):
        solver.solve(fld)
    assert len(calls) == 1


def test_update_history_recorded(maximal_report):
    assert len(maximal_report.update_history) == maximal_report.iterations
    assert maximal_report.update_history[-1] < 1e-10


def test_non_finite_update_raises_divergence_on_that_step():
    # Phi = 1e308 off the disk of radius 2: the first update overflows the
    # FFT, so its boundary norm is NaN
    def fn(xi, w):
        return np.where(np.abs(w) > 2.0, 1e308, 1.0)

    fld = weight.WeightField(fn, sup_bound=1e308, name="overflow")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite") as err:
        solver.solve(fld, options=SolveOptions(initial_map=3.0, n=64))
    assert len(err.value.history) == 1
    assert not np.isfinite(err.value.history[0])


def test_an_update_past_the_divergence_guard_raises():
    # Phi = exp(|w|) from 2z: the updates stay finite and below 1e6 times
    # the first one (5.389) for 13 steps, then the 14th reads 2.004e7, past
    # 1e6 times the larger of the first update and 1
    fld = weight.WeightField(None, 1.0, radial_profile=np.exp)
    with pytest.raises(DivergenceError, match="exceeded the divergence guard after 14 steps") as err:
        solver.solve(fld, options=SolveOptions(initial_map=2.0, n=64))
    history = err.value.history
    assert len(history) == 14 and np.isfinite(history).all()
    assert history[-1] > solver.DIVERGENCE_FACTOR * history[0] > max(history[:-1])


@pytest.mark.parametrize("zeros,kwargs,reason", [
    ([], {"initial_map": 6.5}, "tolerance"),
    ([-0.5], {"initial_map": 1.0, "max_iters": 5}, "max_iters"),
    # the update settles on 6z, whose residual (~1.8e-15) cannot meet a
    # TOL_RESIDUAL of 1e-20
    ([], {"initial_map": 6.5}, "residual"),
    # max_iters bounds the whole run: the budget runs out on the first grid,
    # before the update settles there on an unresolved tail
    ([0.995], {"initial_map": 1.0, "max_iters": 3}, "max_iters"),
])
def test_stop_reason(monkeypatch, staircase, zeros, kwargs, reason):
    if reason == "residual":
        monkeypatch.setattr(solver, "TOL_RESIDUAL", 1e-20)
    rep = solver.solve(staircase, zeros=zeros, options=SolveOptions(n=512, **kwargs))
    assert rep.stop_reason == reason
    assert rep.converged == (reason == "tolerance")
    assert rep.as_dict()["stop_reason"] == reason
    assert rep.n == 512
    if reason == "max_iters":
        assert rep.iterations == len(rep.update_history) == kwargs["max_iters"]
        assert rep.update_history[-1] >= 1e-10
    if reason == "residual":
        assert rep.update_history[-1] < 1e-10 and solver.TOL_RESIDUAL < rep.residual


def test_unresolved_tail_refines_whatever_the_stop_reason(staircase):
    # at n = 512 the update settles while the residual stays ~2.5e-3: the
    # tail of f' near the zero at 0.995 is unresolved, so the grid doubles
    # instead of the run stopping on "residual"
    rep = solver.solve(staircase, zeros=[0.995], options=SolveOptions(n=512, initial_map=1.0))
    assert (rep.n, rep.doublings, rep.stop_reason) == (8192, 4, "tolerance")
    assert spectral.resolved(spectral.derivative(rep.f).coeffs)
    # one loop, one report: 7 + 2 + 2 + 2 + 2 steps on the grids 512 .. 8192
    assert rep.iterations == len(rep.update_history) == 15


def test_symmetric_map_refines_on_its_windowed_tail():
    # Phi = 1 + 0.45 Re(w^4)/(1 + |w|^4) has a 4-fold symmetric solution, so
    # f' has coefficients only at multiples of 4: at n = 32 its last one is an
    # exact zero while the last n/8 reach ~3e-6 of the peak
    def fn(xi, w):
        w2 = w * w
        return 1.0 + 0.45 * (w2 * w2).real / (1.0 + np.abs(w2) ** 2)

    fld = weight.WeightField(fn, sup_bound=1.5, name="symmetric-4")
    rep = solver.solve(fld, options=SolveOptions(n=32, initial_map=1.0))
    assert rep.converged
    assert (rep.n, rep.doublings) == (64, 1)
    assert 0.0 < rep.tail_ratio < spectral.RESOLVED_RATIO


def _oracle_cases():
    stair = weight.staircase_field()
    yield "6z", stair, [], SolveOptions(initial_map=6.5)
    yield "z^2+z", stair, [-0.5], SolveOptions(initial_map=1.0)
    for seed in range(20):  # the seeded fields and zeros of acceptance criterion 6
        rng = np.random.default_rng(1000 + seed)
        fld = weight.random_smooth_field(rng)
        n_zeros = int(rng.integers(0, 3))
        zeros = [
            0.55 * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n_zeros)
        ]
        yield f"seed {seed}", fld, zeros, SolveOptions()


def test_report_tail_ratio_is_the_refinement_measure():
    for name, fld, zeros, opts in _oracle_cases():
        rep = solver.solve(fld, zeros=zeros, options=opts)
        assert rep.tail_ratio == spectral.tail_ratio(spectral.derivative(rep.f).coeffs), name


def test_anderson_matches_plain_damped_iteration_in_fewer_steps(monkeypatch):
    # the plain iteration takes the same undamped step; it needs as many
    # steps as mixing on 6z and on seeds 9, 13 and 16, and more elsewhere
    steps = {"mixed": 0, "plain": 0}
    for name, fld, zeros, opts in _oracle_cases():
        mixed = solver.solve(fld, zeros, opts)
        with monkeypatch.context() as m:
            m.setattr(solver, "ANDERSON_DEPTH", 0)
            plain = solver.solve(fld, zeros, opts)
        assert mixed.converged and plain.converged, name
        assert mixed.n == plain.n, name
        gap = np.abs(mixed.f.trace(mixed.n) - plain.f.trace(plain.n)).max()
        assert gap <= 1e-9, name
        assert mixed.iterations <= plain.iterations, name
        steps["mixed"] += mixed.iterations
        steps["plain"] += plain.iterations
    assert steps["mixed"] < steps["plain"]


def _growing_weight(k, mid):
    """Radial Phi(r) = 1 + 3 / (1 + exp(-k (r - mid))): r = Phi(r) has three
    roots, and the middle one repels the plain step."""
    def profile(r):
        return 1.0 + 3.0 / (1.0 + np.exp(-k * (np.asarray(r, np.float64) - mid)))
    return weight.WeightField(None, sup_bound=4.0, radial_profile=profile, name=f"growing({k},{mid})")


@pytest.mark.parametrize("k,mid,r_max", [(4, 2.5, 3.992352), (8, 3.0, 3.998986), (20, 2.5, 4.0)])
def test_default_start_descends_onto_the_maximal_fixed_point_of_a_growing_weight(k, mid, r_max):
    fld = _growing_weight(k, mid)
    rep = solver.solve(fld)
    r = rep.f.coeffs[1].real
    assert rep.converged and abs(r - fld.radial_profile(r)) < 1e-8
    assert r == pytest.approx(r_max, abs=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "every fixed point repels the plain step here (lambda = -4.9 at 3.327z), so mixing "
    "converges as a secant solve, and which fixed point it reaches depends on the start: "
    "the default start reaches 1.968z"
))
def test_default_solve_reaches_the_maximal_fixed_point_of_a_stiff_cosine_weight():
    rep = solver.solve(weight.cosine_radial_field(2.0, 0.9, 4.0))
    assert rep.converged
    assert rep.f.coeffs[1].real == pytest.approx(3.327045, abs=1e-5)


def _reference_weights(dR, r):
    """Real least squares on stacked real and imaginary parts."""
    A = np.concatenate([dR.real, dR.imag], axis=1).T
    y = np.concatenate([r.real, r.imag])
    return np.linalg.lstsq(A, y, rcond=None)[0]


@pytest.mark.parametrize("seed", range(5))
def test_mixing_weights_match_real_least_squares(seed):
    rng = np.random.default_rng(seed)
    dR = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    got = solver._mixing_weights(list(dR), r)
    want = _reference_weights(dR, r)
    assert np.abs(np.array(got) - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


def test_mixing_weights_drop_a_dependent_column():
    # both differences are multiples of z, as on the staircase's scaled
    # identities: the older column is dropped and the newer fits r exactly
    e = np.zeros(16, dtype=complex)
    e[1] = 1.0
    assert solver._mixing_weights([0.25 * e, -0.5 * e], -0.75 * e) == [-3.0, 0.0]


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_mixing_weights_reject_a_non_finite_system(bad):
    dR = np.ones((2, 8), dtype=complex)
    dR[0, 3] = bad  # 1e200 overflows the Gram entries
    with pytest.raises(DivergenceError, match="not finite"):
        solver._mixing_weights(list(dR), np.ones(8, dtype=complex))


def test_mixing_weights_reject_a_singular_system():
    # a history without an independent difference used to raise; it now
    # gives zero weights, the plain step
    assert solver._mixing_weights([np.zeros(8, dtype=complex)] * 2, np.ones(8, dtype=complex)) == [0.0, 0.0]


def test_mixing_weights_drop_a_column_of_rounding():
    # a difference of norm ~1e-17 against |r| = 3, as on bounded_parabola
    # from 1.0 at n = 64: a floor relative to its own norm kept it, at weight 3e17
    e = np.zeros(16, dtype=complex)
    e[1] = 1.0
    assert solver._mixing_weights([1e-17 * e], 3.0 * e) == [0.0]


@pytest.mark.parametrize("init,n,other", [(1.0, 64, 1.5), (1.0, 128, 1.5), (1.5, 16, 1.0)])
def test_mixing_converges_where_the_plain_step_does(init, n, other):
    # Phi = 1 + min(|w|, 2)^2: the plain step goes z -> 2z -> 5z in 3 steps.
    # Mixing used to fit r with a history column of pure rounding and leave
    # the divergence guard far behind (1.450e15 at n = 64)
    fld = weight.make_builtin("bounded_parabola")
    rep = solver.solve(fld, options=SolveOptions(n=n, initial_map=init))
    want = solver.solve(fld, options=SolveOptions(n=n, initial_map=other))
    assert rep.converged and want.converged
    assert np.array_equal(rep.f.coeffs, want.f.coeffs)


def test_fine_grid_solve_stays_within_the_plain_iteration_memory():
    # 7.38 MiB is the tracemalloc peak of the plain damped iteration on a
    # benchmark round that holds this solve; the history and the plan must
    # fit beneath it, with the grid tables built inside the trace
    fld = weight.random_smooth_field(np.random.default_rng(0))
    spectral.grid_points.cache_clear()
    tracemalloc.start()
    try:
        rep = solver.solve(fld, options=SolveOptions(n=32768))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.n == 32768
    assert peak / 2**20 < 7.38


def _solve_peak_mib(fld, zeros, opts):
    """The solve's tracemalloc peak above what was held before it, in MiB,
    with the grid tables built inside the trace."""
    spectral.grid_points.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = solver.solve(fld, zeros=zeros, options=opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.n == opts.n
    return (peak - start) / 2**20


def test_a_solve_settled_on_its_first_fine_step_holds_no_mixing_history():
    # the n = 32768 step settles at once: no history row is allocated, and
    # the starlike boundary skips the polygon sweep (5.13 MiB when both were
    # held, 3.63 MiB with a cached copy of f''s coefficients)
    fld = weight.random_smooth_field(np.random.default_rng(0))
    assert _solve_peak_mib(fld, (), SolveOptions(n=32768)) < 3.4


def _held_mib(value):
    """MiB of the arrays a cached value holds, through nested maps' memos."""
    if isinstance(value, np.ndarray):
        return value.nbytes / 2**20
    if isinstance(value, spectral.DiskFunction):
        return _held_mib(value.coeffs) + sum(map(_held_mib, value._memo.values()))
    return 0.0


def test_a_solved_map_holds_its_traces_and_no_second_copy_of_its_coefficients():
    # coefficients, the traces of f and f', Phi along f: 1.75 MiB at 32768;
    # a cached f' held its coefficients as well, 2.25 MiB
    fld = weight.random_smooth_field(np.random.default_rng(0))
    rep = solver.solve(fld, options=SolveOptions(n=32768))
    assert rep.n == 32768 and ("trace", 32768, 1) in rep.f._memo
    assert _held_mib(rep.f) < 1.8


def test_the_near_boundary_zero_solve_holds_only_the_history_it_fills(staircase):
    # 18 steps on 512 .. 8192, most of them mixed; near the critical point
    # the boundary turns back about 0, so the polygon sweep runs in pair
    # blocks (2.35 MiB with preallocated rows and 16k-pair blocks)
    assert _solve_peak_mib(staircase, [0.995], SolveOptions(n=8192, initial_map=1.0)) < 2.0


def test_a_fine_solve_and_its_checks_build_each_grid_once():
    # the plans at 512 and 32768 build the two tables; the residual, the
    # starlike certificate and f'' at 32768 read the one the plan built
    fld = weight.random_smooth_field(np.random.default_rng(0))
    spectral.grid_points.cache_clear()
    rep = solver.solve(fld, options=SolveOptions(n=32768))
    solver.residual_sup(rep.f, fld, rep.n)
    certify.check_starlike(rep.f, rep.n)
    regularity.second_derivative(rep.f, fld, n=rep.n)
    info = spectral.grid_points.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits >= 3


def _grids(monkeypatch):
    """The grid size of every operator step the solver takes from now on."""
    seen = []
    step = solver._operator_step

    def spy(plan, fld, fvals):
        seen.append(plan.n)
        return step(plan, fld, fvals)

    monkeypatch.setattr(solver, "_operator_step", spy)
    return seen


@pytest.mark.parametrize("seed", range(3))
def test_sequenced_solve_matches_the_solve_on_the_fine_grid_alone(seed, monkeypatch):
    fld = weight.random_smooth_field(np.random.default_rng(seed))
    opts = SolveOptions(n=32768)
    grids = _grids(monkeypatch)
    rep = solver.solve(fld, options=opts)
    # nested iteration: the coarse fixed point resolves f', so it is padded
    # straight to n, and the jump below n is not a refinement
    assert grids[0] == solver.COARSE_GRID and grids[-1] == 32768
    assert grids == sorted(grids) and set(grids) == {solver.COARSE_GRID, 32768}
    assert rep.doublings == 0
    grids.clear()
    # the same start zero-padded to n runs on the fine grid alone
    padded = DiskFunction(solver._pad_coeffs(opts.resolve_init(fld).coeffs, 32768))
    direct = solver.solve(fld, options=dataclasses.replace(opts, initial_map=padded))
    assert set(grids) == {32768}
    assert (rep.n, rep.converged, rep.stop_reason) == (direct.n, direct.converged, direct.stop_reason)
    assert rep.converged
    assert np.abs(rep.f.coeffs - direct.f.coeffs).max() <= 1e-10


def test_a_resolved_coarse_fixed_point_goes_straight_to_n(monkeypatch):
    # the 512-point fixed point resolves f': one confirming step on n, none
    # on the grids between
    fld = weight.random_smooth_field(np.random.default_rng(0))
    grids = _grids(monkeypatch)
    rep = solver.solve(fld, options=SolveOptions(n=32768))
    assert grids == [solver.COARSE_GRID] * 5 + [32768]
    assert (rep.n, rep.converged, rep.doublings, rep.iterations) == (32768, True, 0, 6)


def test_the_coarse_grids_double_only_while_f_prime_is_unresolved(monkeypatch):
    # the branched solve doubles until 4096 resolves f', then jumps to n
    grids = _grids(monkeypatch)
    rep = solver.solve(weight.bounded_parabola_field(), zeros=[-0.5], options=SolveOptions(n=32768))
    steps = [(n, len(list(run))) for n, run in itertools.groupby(grids)]
    assert steps == [(512, 21), (1024, 10), (2048, 8), (4096, 8), (32768, 7)]
    assert (rep.n, rep.converged, rep.doublings) == (32768, True, 0)


@pytest.mark.parametrize("field,zeros", [
    (weight.random_smooth_field(np.random.default_rng(0)), []),
    (weight.bounded_parabola_field(), [-0.5]),
])
def test_an_initial_map_with_n_coefficients_takes_every_step_on_n(field, zeros, monkeypatch):
    # the first grid is the initial map's own when that is finer than
    # COARSE_GRID: a cold start zero-padded to n never visits a coarse grid
    # (the warm start below is one or two steps)
    init = DiskFunction(solver._pad_coeffs(scaled_identity(field.sup_bound + 0.5).coeffs, 4096))
    grids = _grids(monkeypatch)
    rep = solver.solve(field, zeros=zeros, options=SolveOptions(n=4096, initial_map=init))
    assert (rep.n, rep.converged, rep.doublings) == (4096, True, 0)
    assert grids == [4096] * rep.iterations and rep.iterations > 1


def test_warm_start_begins_on_the_initial_maps_grid(monkeypatch):
    fld = weight.random_smooth_field(np.random.default_rng(0))
    solved = solver.solve(fld, options=SolveOptions(n=8192))
    assert solved.f.coeffs.size == 8192
    grids = _grids(monkeypatch)
    rep = solver.solve(fld, options=SolveOptions(n=8192, initial_map=solved.f))
    assert rep.converged and rep.n == 8192
    assert grids == [8192] * rep.iterations
    assert rep.iterations <= 2


def test_budget_spent_on_a_coarse_grid_reports_the_requested_grid(monkeypatch):
    fld = weight.random_smooth_field(np.random.default_rng(0))
    grids = _grids(monkeypatch)
    rep = solver.solve(fld, options=SolveOptions(n=4096, max_iters=3))
    assert grids == [solver.COARSE_GRID] * 3
    assert (rep.stop_reason, rep.n, rep.doublings) == ("max_iters", 4096, 0)
    assert rep.f.coeffs.size == 4096
    assert rep.residual == solver.residual_sup(rep.f, fld, 4096)


# ---------------------------------------------------------------------------
# univalence machinery

def test_polygon_simplicity():
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    assert solver.polygon_is_simple(square)
    bowtie = np.array([0.0, 1.0 + 1.0j, 1.0, 1.0j])
    assert not solver.polygon_is_simple(bowtie)


def _polygon_is_simple_reference(points):
    """The all-pairs O(m^2) predicate the pruned sweep replaced."""
    P = np.asarray(points, dtype=np.complex128)
    m = P.size
    A = P
    B = np.roll(P, -1)
    i = np.arange(m)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    candidate = jj > ii + 1
    candidate &= ~((ii == 0) & (jj == m - 1))
    d1 = solver._cross(B[ii] - A[ii], A[jj] - A[ii])
    d2 = solver._cross(B[ii] - A[ii], B[jj] - A[ii])
    d3 = solver._cross(B[jj] - A[jj], A[ii] - A[jj])
    d4 = solver._cross(B[jj] - A[jj], B[ii] - A[jj])
    crossing = candidate & (d1 * d2 < 0) & (d3 * d4 < 0)
    return not bool(crossing.any())


def _star_polygon(rng, m, spread):
    """Simple polygon: random radii around the origin, in angle order."""
    t = np.sort(rng.random(m)) * 2.0 * np.pi
    return (1.0 + spread * rng.random(m)) * np.exp(1j * t)


@given(
    st.integers(min_value=4, max_value=200),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.sampled_from([None, 7, 300]),
)
@settings(max_examples=60, deadline=None)
def test_polygon_is_simple_matches_all_pairs_reference(m, seed, block):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    Q = _star_polygon(rng, m, 0.5)
    # near-simple variants with one or two crossings: two neighbours
    # swapped, or one vertex pulled far out through the far side
    k = int(rng.integers(m))
    swapped = Q.copy()
    swapped[[k, (k + 1) % m]] = swapped[[(k + 1) % m, k]]
    spiked = Q.copy()
    spiked[k] *= -10.0
    # the stars again with 0 outside them
    stars = (Q, swapped, spiked)
    shifted = [poly + _clear_of_origin(poly) for poly in stars]
    with mock.patch.object(solver, "PAIR_BLOCK", block or solver.PAIR_BLOCK):
        for poly in (P, *stars, *shifted):
            assert solver.polygon_is_simple(poly) == _polygon_is_simple_reference(poly)


def _clear_of_origin(points):
    """A shift that takes the polygon off 0, so that it winds 0 times about
    0 and only the sweep can call it simple."""
    return 2.0 * np.abs(points).max() + 1.0


def _sweep_decides(points):
    """polygon_is_simple(points), asserting that the pair sweep ran."""
    with mock.patch.object(solver, "_pair_blocks", wraps=solver._pair_blocks) as sweep:
        got = solver.polygon_is_simple(points)
    assert sweep.called
    return got


@pytest.mark.parametrize("seed", range(3))
def test_polygon_is_simple_across_pair_blocks(seed):
    # a wide star has ~60k x-overlapping edge pairs at m = 800, about fifteen
    # default pair blocks; shifted off 0, only the sweep decides it
    rng = np.random.default_rng(seed)
    Q = _star_polygon(rng, 800, 4.0)
    spiked = Q.copy()
    spiked[500] *= -10.0  # a spike out through the far side crosses it
    shift = _clear_of_origin(spiked)
    assert solver.polygon_is_simple(Q) and _sweep_decides(Q + shift)
    assert _polygon_is_simple_reference(Q) and _polygon_is_simple_reference(Q + shift)
    assert not _sweep_decides(spiked) and not _sweep_decides(spiked + shift)
    assert not _polygon_is_simple_reference(spiked) and not _polygon_is_simple_reference(spiked + shift)


def _star_about_0(points):
    return solver._star_shaped(np.angle(solver._edge_ratios(points)))


def test_turn_test_refuses_what_is_not_star_shaped_about_0():
    rng = np.random.default_rng(0)
    Q = _star_polygon(rng, 64, 0.5)
    assert _star_about_0(Q)  # the star is decided in one pass
    # clockwise: every turn is negative, and the polygon is still simple
    assert not _star_about_0(Q[::-1]) and _sweep_decides(Q[::-1])
    # xi^2 on 64 nodes turns by less than pi at every edge but winds twice
    double = spectral.grid_points(64) ** 2
    assert not _star_about_0(double) and not _sweep_decides(double)
    # through 0, at a vertex (no turn there) or inside an edge (a turn of pi)
    notched = Q.copy()
    notched[10] = 0.0
    assert not _star_about_0(notched)
    assert _sweep_decides(notched) == _polygon_is_simple_reference(notched)
    edge = np.array([-1.0, 1.0, 1.0 + 1.0j, -1.0 + 1.0j])
    assert not _star_about_0(edge) and _sweep_decides(edge)


@pytest.mark.parametrize("n", [512, 4096])
def test_turn_test_agrees_with_the_sweep_on_solved_maps(n):
    fields = [
        weight.constant_field(2.0) if name == "constant" else weight.make_builtin(name)
        for name in sorted(weight.BUILTIN_FIELDS)
    ]
    cases = [(fld, zeros) for fld in fields for zeros in ([], [-0.5])]
    cases += [(weight.random_smooth_field(np.random.default_rng(seed)), []) for seed in range(20)]
    verdicts = set()
    for fld, zeros in cases:
        rep = solver.solve(fld, zeros=zeros, options=SolveOptions(n=n))
        P = rep.f.trace(rep.n)
        got = _star_about_0(P) or solver.polygon_is_simple(P)
        assert got == _sweep_decides(P + _clear_of_origin(P))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_collinear_disjoint_edges_are_not_a_crossing():
    # edges 0 and 3 both lie on x + y = -1.2 and do not touch; the all-pairs
    # predicate sees cross products of ~1e-18 with opposite signs there
    P = np.array([-1 - 0.2j, -0.9 - 0.3j, 0, -0.3 - 0.9j, -0.2 - 1j, -2 - 2j])
    assert solver.polygon_is_simple(P)
    assert not _polygon_is_simple_reference(P)


def test_univalence_sees_folds_finer_than_a_thousandth_of_the_circle():
    # f = z + z^2000 / 1000 has f' = 0 inside the disk, so it folds
    c = np.zeros(2001)
    c[1] = 1.0
    c[2000] = 1e-3
    assert not solver.univalence(DiskFunction(c), 4096)
    assert solver.univalence(DiskFunction([0.0, 1.0, 0.4]), 16384)


def _winding_number_reference(points, w):
    """Winding number of the closed polygon about w by the angle sum, or
    None within 1e-12 of a vertex."""
    P = np.asarray(points, dtype=np.complex128)
    rel = P - w
    if np.abs(rel).min() < 1e-12:
        return None
    turns = np.angle(np.roll(rel, -1) / rel).sum() / (2.0 * np.pi)
    return int(np.rint(turns))


def test_univalence_looks_once_at_each_map(staircase):
    # the solve checks 6z; the three certificates gated on univalence reuse
    # that verdict instead of reading the polygon again
    with mock.patch.object(solver, "_univalence", wraps=solver._univalence) as verdict:
        rep = solver.solve(staircase, options=SolveOptions(initial_map=6.5))
        certify.check_subsolution(rep.f, staircase)
        certify.check_supersolution(rep.f, staircase)
        certify.check_starlike(rep.f)
        certify.free_boundary_check(rep.f, staircase)
        assert verdict.call_count == 1
        # another grid is another verdict
        assert solver.univalence(rep.f, 256) and solver.univalence(rep.f, 1024)
        assert solver.univalence(rep.f, 256)
        assert verdict.call_count == 3
    f = DiskFunction([0.0, 1.0, 0.1])
    assert solver.univalence(f, 64)
    assert [key for key in f._memo if key[0] == "univalence"] == [("univalence", 64)]


def test_univalence_sweeps_through_polygon_is_simple(staircase, maximal_report):
    # a critical point at 0.95 loops the boundary once about f(0), so the
    # star test refuses it and polygon_is_simple finds the crossing; 6z is
    # star-shaped about f(0) and needs no sweep
    looped = solver.solve(staircase, zeros=[0.95], options=SolveOptions(initial_map=1.0))
    assert looped.n == 512
    for f, verdict, calls in ((looped.f, False, 1), (maximal_report.f, True, 0)):
        fresh = DiskFunction(f.coeffs)  # the solve's verdict is cached on f
        with mock.patch.object(solver, "polygon_is_simple", wraps=solver.polygon_is_simple) as sweep:
            assert solver.univalence(fresh, 512) is verdict
        assert sweep.call_count == calls


def test_univalence_detects_double_cover():
    # z^2 runs round its polygon twice and z + 2z^63 aliases onto the
    # clockwise ellipse z + 2 z-bar on 64 nodes: both polygons are simple
    # (coincident edges are no proper crossing), only the winding about f(0)
    # tells them apart from a univalent map
    double = DiskFunction([0.0, 0.0, 1.0])
    c = np.zeros(64)
    c[1], c[63] = 1.0, 2.0
    clockwise = DiskFunction(c)
    for f in (double, clockwise):
        assert solver.polygon_is_simple(f.trace(64))
        assert not solver.univalence(f, 64)
    assert solver.univalence(DiskFunction([0.0, 1.0]), 64)


def _two_pass_univalence(f, n):
    """The verdict as two passes over the polygon: the winding about f(0),
    then the sweep of polygon_is_simple."""
    P = f.trace(n)
    return _winding_number_reference(P, f.coeffs[0]) == 1 and solver.polygon_is_simple(P)


def _shifted(f, shift):
    c = f.coeffs.copy()
    c[0] += shift
    return DiskFunction(c)


def test_univalence_with_f0_off_the_origin(maximal_report, branched_report):
    # one angle pass about f(0) gives the winding count and the star test;
    # with f(0) = 0.3, or f(0) so far off that 0 lies outside the curve,
    # each verdict is the two-pass one
    maps = [maximal_report.f, branched_report.f]
    maps += [solver.solve(weight.random_smooth_field(np.random.default_rng(seed))).f for seed in range(3)]
    verdicts = set()
    for f in maps:
        for shift in (0.3, _clear_of_origin(f.trace(512))):
            got = solver.univalence(_shifted(f, shift), 512)
            assert got == _two_pass_univalence(_shifted(f, shift), 512)
            verdicts.add(got)
    assert verdicts == {True, False}
    # 6z moved clear of 0 is star-shaped about f(0): no sweep
    with mock.patch.object(solver, "_pair_blocks", wraps=solver._pair_blocks) as sweep:
        assert solver.univalence(_shifted(maximal_report.f, 13.0), 512)
    assert not sweep.called


def _oracle_map(seed, n):
    """A random map; a quarter of them fold onto z-bar on the n-point grid,
    where the polygon is simple but runs clockwise."""
    rng = np.random.default_rng(seed)
    c = np.zeros(2 * n + 1, dtype=complex)
    c[1] = 1.0
    k = rng.integers(1, 4)
    deg = rng.integers(2, 2 * n + 1, size=k)
    c[deg] += rng.uniform(0.0, 2.0, size=k) * np.exp(2j * np.pi * rng.random(k)) / deg
    if rng.random() < 0.25:
        c[n - 1] += rng.uniform(1.5, 3.0)
    return DiskFunction(c)


def _pcg64_univalence(f, n, seed):
    """The verdict of the sampled check the winding about f(0) replaced:
    unit winding about 50 targets drawn by numpy's PCG64; None when the
    polygon test alone decides it."""
    P = f.trace(n)
    if not solver.polygon_is_simple(P):
        return None
    rng = np.random.default_rng(seed)
    radii = 0.1 + 0.7 * rng.random(50)
    angles = 2.0 * np.pi * rng.random(50)
    return all(_winding_number_reference(P, w) in (None, 1) for w in f(radii * np.exp(1j * angles)))


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("seed", range(100))
def test_univalence_verdict_does_not_depend_on_the_sampler(n, seed):
    f = _oracle_map(seed, n)
    want = _pcg64_univalence(f, n, seed % 3)
    assert solver.univalence(f, n) is bool(want)


def test_sampler_oracle_maps_meet_every_verdict():
    # univalent maps, folds the polygon test sees, and clockwise polygons
    # that only a winding count rejects
    kinds = {_pcg64_univalence(_oracle_map(seed, n), n, seed % 3) for n in (64, 512) for seed in range(100)}
    assert kinds == {True, False, None}


def test_no_public_function_or_option_takes_a_seed():
    # the univalence verdict depends on the map and its grid alone
    for name, obj in vars(diskmap).items():
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            assert "seed" not in inspect.signature(obj).parameters, name


@pytest.mark.parametrize("coeffs,count", [
    ([0.0, 6.0], 0),
    ([0.0, 1.0, 1.0], 1),
    ([0.0, 0.0, 0.0, 1.0], 2),
    # f' = 0: every edge ratio of its trace is 0/0 and the angle sum is nan
    ([1.0], 1),
    # f' overflows on the circle: its angle sum is nan too
    ([0.0, 1e308, 1e308], 1),
])
def test_interior_critical_point_count(coeffs, count):
    with np.errstate(over="ignore", invalid="ignore"):
        assert solver.interior_critical_points(DiskFunction(coeffs), 256) == count


# ---------------------------------------------------------------------------
# radial scans

def test_scan_staircase_band(staircase):
    res = solver.radial_scan(staircase)
    assert len(res.intervals) == 1
    a, b = res.intervals[0]
    assert abs(a - 3.0) < 1e-3
    assert abs(b - 6.0) < 1e-3


def test_scan_plateau_double_root():
    res = solver.radial_scan(weight.plateau_reciprocal_field())
    assert len(res.intervals) == 1
    a, b = res.intervals[0]
    assert 0.985 < a < b < 1.001
    assert b - a < 0.05


def test_scan_constant_single_point():
    res = solver.radial_scan(weight.constant_field(2.0))
    assert len(res.intervals) == 1
    a, b = res.intervals[0]
    assert abs(a - 2.0) < 1e-3 and abs(b - 2.0) < 1e-3


# the stiff cosine sets: c * eps * gamma >= 2.4, where Phi is steep enough
# that r - Phi(r) crosses zero between two grid points of the scan
STIFF_COSINE = [
    (c, eps, gamma)
    for c in (1.0, 1.5, 2.0, 2.5, 3.0)
    for eps in (0.3, 0.5, 0.7, 0.9)
    for gamma in (1.0, 2.0, 3.0, 4.0, 6.0)
    if c * eps * gamma >= 2.4
]


def sign_scan_roots(fld, points=400_001):
    """The roots of r = Phi(r) on [0, 1.5 sup]: each sign change of
    r - Phi(r) on a dense grid, bisected 60 times."""
    r = np.linspace(0.0, 1.5 * fld.sup_bound, points)
    gap = r - fld.radial_profile(r)
    i = np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)
    lo, hi, below = r[i], r[i + 1], np.sign(gap[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(mid - fld.radial_profile(mid)) == below
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def test_scan_finds_every_root_of_the_stiff_cosine_sets():
    # a root crossed between two grid points, each more than tol off it, was
    # missed: 55 of the 59 sets lost a root, 40 their largest, and
    # cosine_radial(1, 0.9, 3) reported none
    assert len(STIFF_COSINE) == 59
    for params in STIFF_COSINE:
        fld = weight.cosine_radial_field(*params)
        roots = sign_scan_roots(fld)
        res = solver.radial_scan(fld)
        spacing = (res.r_max - res.r_min) / (res.steps - 1)
        a, b = np.array(res.intervals, dtype=float).reshape(-1, 2).T
        # every root within a grid step of one interval, and one root to each
        near = (a - spacing <= roots[:, None]) & (roots[:, None] <= b + spacing)
        assert near.sum(axis=1).tolist() == [1] * roots.size, (params, roots, res.intervals)
        assert near.sum(axis=0).tolist() == [1] * len(res.intervals), (params, roots, res.intervals)


def bisected_scan(fld):
    """The default scan with its crossings bisected alone, as radial_scan
    did before it multisected them: the oracle of where they land."""
    r = np.linspace(0.0, 1.5 * fld.sup_bound, 10000)
    tol = max(1e-4, 0.5 * (r[1] - r[0]))
    gap = r - fld.radial_profile(r)
    hit, sign = np.abs(gap) <= tol, np.sign(gap)
    i = np.flatnonzero((sign[:-1] * sign[1:] < 0) & ~hit[:-1] & ~hit[1:])
    lo, hi, below = r[i], r[i + 1], sign[i]
    while True:
        mid = 0.5 * (lo + hi)
        at = mid - fld.radial_profile(mid)
        if not ((lo < mid) & (mid < hi)).any():
            break
        left = np.sign(at) == below
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return sorted(loop_runs(r, hit) + [(float(x), float(x)) for x in mid[np.abs(at) <= tol]])


def test_scan_multisection_lands_where_bisection_does():
    # each bracket holds one root of the stiff cosine sets, so 63 points a
    # round find the adjacent floats that bisection alone finds
    for params in STIFF_COSINE:
        fld = weight.cosine_radial_field(*params)
        assert solver.radial_scan(fld).intervals == bisected_scan(fld), params


def test_scan_reports_a_crossed_root_as_a_point():
    res = solver.radial_scan(weight.cosine_radial_field(1.0, 0.9, 3.0))
    (a, b), = res.intervals
    assert a == b == pytest.approx(0.6548094, abs=1e-7)


def test_scan_takes_no_jump_of_the_profile_for_a_root():
    # r - Phi(r) changes sign at r = 1, where Phi jumps from 2 to 0.5
    fld = weight.WeightField(None, sup_bound=2.0, radial_profile=lambda r: np.where(r < 1.0, 2.0, 0.5))
    assert solver.radial_scan(fld).intervals == []


@pytest.mark.parametrize(
    "fld",
    [
        weight.staircase_field(),
        weight.gauss_radial_field(),
        weight.plateau_reciprocal_field(),
        weight.bounded_parabola_field(),
        weight.constant_field(2.0),
    ],
    ids=lambda fld: fld.name,
)
def test_scan_of_a_builtin_is_its_tolerance_runs(fld):
    # no builtin crosses a root between two grid points, each more than tol
    # off it, so the scan reports the tolerance runs alone, as it did before
    # it bisected crossings
    res = solver.radial_scan(fld)
    r = np.linspace(res.r_min, res.r_max, res.steps)
    assert res.intervals == loop_runs(r, np.abs(r - fld.radial_profile(r)) <= res.tolerance)


def test_scan_requires_radial_profile():
    f = weight.random_smooth_field(np.random.default_rng(0))
    with pytest.raises(ValueError, match="rotation-invariant"):
        solver.radial_scan(f)


def loop_runs(r, mask):
    """The per-step run loop radial_scan used before its run edges, as the oracle."""
    intervals = []
    start = None
    for i, hit in enumerate(mask):
        if hit and start is None:
            start = i
        elif not hit and start is not None:
            intervals.append((float(r[start]), float(r[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(r[start]), float(r[-1])))
    return intervals


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=2, max_size=64))
@example(mask=[True, True])
@example(mask=[False, False])
@example(mask=[True, False, True])
@example(mask=[False, True, True, False])
def test_scan_runs_match_the_loop(mask):
    # the profile sits on r exactly where the mask holds and 1 away
    # elsewhere; sup 2/3 puts the scan on [0, 1], at one point per entry
    hits = np.array(mask)
    fld = weight.WeightField(None, sup_bound=2.0 / 3.0, radial_profile=lambda r: r - np.where(hits, 0.0, 1.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "SCAN_STEPS", hits.size)
        res = solver.radial_scan(fld)
    assert (res.r_min, res.r_max, res.steps) == (0.0, 1.0, hits.size)
    assert res.intervals == loop_runs(np.linspace(0.0, 1.0, hits.size), hits)


# ---------------------------------------------------------------------------
# empirical contraction rate

def test_contraction_rate_respects_certificate():
    f = weight.gauss_radial_field(1.0, 0.1)
    L = np.sqrt(0.2) * np.exp(-0.5)
    cert = weight.contraction_certificate(f, L)
    rr = probes.contraction_rate(f, cert)
    assert rr.runs == 3
    assert rr.observed_rate <= cert.ratio + 0.05
    assert rr.limit_gap < 1e-8


def _picard_runs(monkeypatch):
    """Record (start, max_iters, (x, norms)) of each probes.picard run."""
    runs = []
    inner = probes.picard

    def spy(fld, start, max_iters):
        runs.append((start.copy(), max_iters, inner(fld, start, max_iters)))
        return runs[-1][2]

    monkeypatch.setattr(probes, "picard", spy)
    return runs


def test_contraction_rate_runs_plain_undamped_iteration(monkeypatch):
    fld = weight.gauss_radial_field(1.0, 0.1)
    cert = weight.contraction_certificate(fld, np.sqrt(0.2) * np.exp(-0.5))
    runs = _picard_runs(monkeypatch)
    probes.contraction_rate(fld, cert)
    assert len(runs) == 3
    b = blaschke.construct([])
    n = SolveOptions().n
    for start, _, (x, norms) in runs:
        assert x.size == n
        f = DiskFunction(start)
        want = []
        for _ in range(len(norms)):
            u, _, _ = probes.apply_operator(f, fld, b, n)
            delta = u.coeffs - f.coeffs
            want.append(float(np.sqrt(np.square(np.abs(delta)).sum())))
            f = DiskFunction(f.coeffs + 1.0 * delta)
        np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(x, f.coeffs, rtol=1e-12, atol=1e-15)


def test_contraction_rate_keeps_the_callers_other_options(monkeypatch):
    fld = weight.gauss_radial_field(1.0, 0.1)
    cert = weight.contraction_certificate(fld, np.sqrt(0.2) * np.exp(-0.5))
    runs = _picard_runs(monkeypatch)
    probes.contraction_rate(fld, cert, options=SolveOptions(n=64, max_iters=5))
    assert len(runs) == 3
    for (start, max_iters, (x, norms)), frac in zip(runs, (0.2, 0.5, 0.9)):
        # each start is the scaled identity zero-padded to n, and the budget
        # bounds the steps: five are too few to settle
        want = solver._pad_coeffs(scaled_identity(frac * cert.sup_solution_bound).coeffs, 64)
        assert np.array_equal(start, want)
        assert (max_iters, len(norms), x.size) == (5, 5, 64)


def test_contraction_rate_measures_one_grid(monkeypatch):
    # the ratios of consecutive updates are one operator's rate only if
    # every step runs on the requested grid
    fld = weight.gauss_radial_field(1.0, 0.1)
    cert = weight.contraction_certificate(fld, np.sqrt(0.2) * np.exp(-0.5))
    grids = _grids(monkeypatch)
    probes.contraction_rate(fld, cert, options=SolveOptions(n=4096))
    assert set(grids) == {4096}


@pytest.mark.parametrize("n", [512, 4096])
def test_contraction_rate_runs_the_solves_plain_iteration(n, monkeypatch):
    # the probe's Picard loop and the solve with no mixing are one iteration:
    # the same coefficients, bit for bit, in the same number of steps
    fld = weight.gauss_radial_field(1.0, 0.1)
    cert = weight.contraction_certificate(fld, np.sqrt(0.2) * np.exp(-0.5))
    monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
    for frac in probes.RATE_FRACTIONS:
        start = solver._pad_coeffs(scaled_identity(frac * cert.sup_solution_bound).coeffs, n)
        x, norms = probes.picard(fld, start, SolveOptions().max_iters)
        rep = solver.solve(fld, options=SolveOptions(n=n, initial_map=DiskFunction(start)))
        assert (rep.n, rep.stop_reason) == (n, "tolerance")
        assert rep.iterations == len(norms) > 1
        assert rep.f.coeffs.tobytes() == x.tobytes()


def test_contraction_rate_requires_valid_certificate(staircase):
    cert = weight.contraction_certificate(staircase, 4.0 / 3.0)
    with pytest.raises(ValueError, match="valid"):
        probes.contraction_rate(staircase, cert)
