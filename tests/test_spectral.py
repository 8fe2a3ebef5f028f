"""Spectral core: grids, coefficient transforms, harmonic machinery.

Frozen oracles: the analytic completion of log|2 + e^{it}| is log(2 + z)
whose Taylor coefficients are log 2 and -(-1/2)^k / k, and the p-metric
between z and z/2 integrates the constant (1/2)^p.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskmap import spectral
from diskmap.spectral import (
    DiskFunction,
    check_grid_size,
    conjugate_periodic,
    derivative,
    grid_angles,
    grid_points,
    hp_boundary_distance,
    is_power_of_two,
    next_power_of_two,
    poisson_extend,
    schwarz_integral,
)


def random_coeffs(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


@pytest.mark.parametrize("n,ok", [(8, True), (512, True), (1 << 15, True), (7, False), (12, False), (4, False), (0, False)])
def test_grid_size_validation(n, ok):
    if ok:
        assert check_grid_size(n) == n
    else:
        with pytest.raises(ValueError):
            check_grid_size(n)


@pytest.mark.parametrize("coeffs", [[], np.zeros((2, 3))], ids=["empty", "two_dimensional"])
def test_disk_function_rejects_coefficients_that_are_no_vector(coeffs):
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        DiskFunction(coeffs)


def test_power_of_two_helpers():
    assert is_power_of_two(8) and not is_power_of_two(12)
    assert next_power_of_two(5) == 8
    assert next_power_of_two(8) == 8
    assert next_power_of_two(9) == 16


def test_grid_points_and_angles():
    n = 16
    t = grid_angles(n)
    xi = grid_points(n)
    assert t[0] == 0.0 and len(t) == n
    assert np.abs(xi - np.exp(1j * t)).max() == 0.0


@pytest.mark.parametrize("n", [8, 512, 32768])
def test_grid_points_is_the_in_place_exponential_bit_for_bit(n):
    spectral.grid_points.cache_clear()
    t = 1j * grid_angles(n)
    np.exp(t, out=t)
    assert grid_points(n).tobytes() == t.tobytes()


def test_grid_points_is_one_read_only_table_per_n():
    xi = grid_points(64)
    assert grid_points(64) is xi and grid_points(128) is not xi
    with pytest.raises(ValueError, match="read-only"):
        xi[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        xi *= 2.0
    assert xi[0] == 1.0


def test_grid_points_keys_the_checked_size():
    # a numpy integer used to build and hold a second table
    assert grid_points(np.int64(512)) is grid_points(512)
    for bad in (500, np.int64(500), 4):
        with pytest.raises(ValueError, match="grid size"):
            grid_points(bad)


@pytest.mark.parametrize("seed", range(5))
def test_coefficient_boundary_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = 64
    f = DiskFunction(random_coeffs(rng, n // 4))
    back = DiskFunction(np.fft.fft(f.trace(n)) / n)
    m = f.coeffs.size
    assert np.abs(back.coeffs[:m] - f.coeffs).max() < 1e-13
    assert np.abs(back.coeffs[m:]).max() < 1e-13


@pytest.mark.parametrize("n", [8, 512, 32768])
def test_unnormalized_trace_matches_the_rescaled_inverse_transform_bit_for_bit(n):
    # scaling by the power of two n is exact, so dropping it changes no bit
    rng = np.random.default_rng(n)
    padded = np.zeros(n, dtype=np.complex128)
    padded[: n // 2] = random_coeffs(rng, n // 2)
    got = DiskFunction(padded[: n // 2]).trace(n)
    assert got.tobytes() == (np.fft.ifft(padded) * n).tobytes()


def test_trace_subsamples_unresolved_coefficients():
    rng = np.random.default_rng(3)
    f = DiskFunction(random_coeffs(rng, 21))
    vals = f.trace(8)
    direct = f(grid_points(8))
    assert np.abs(vals - direct).max() < 1e-12


def test_cached_trace_of_a_long_map_owns_its_values():
    # more coefficients than grid points: the trace subsamples a big-point
    # inverse FFT, and the cache keeps only the n values it serves
    rng = np.random.default_rng(5)
    f = DiskFunction(random_coeffs(rng, 8192))
    vals = f.trace(512)
    assert vals.base is None and vals.flags.c_contiguous and vals.size == 512
    padded = np.zeros(8192, dtype=np.complex128)
    padded[: f.coeffs.size] = f.coeffs
    assert np.array_equal(vals, (np.fft.ifft(padded) * 8192)[::16])


def test_cached_trace_is_read_only():
    f = DiskFunction([0.0, 1.0, 0.5j, -0.25])
    vals = f.trace(16)
    with pytest.raises(ValueError, match="read-only"):
        vals[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        vals *= 2.0
    assert f.trace(16) is vals
    assert np.array_equal(vals, DiskFunction(f.coeffs).trace(16))


def test_circle_trace_matches_direct_evaluation():
    rng = np.random.default_rng(4)
    f = DiskFunction(random_coeffs(rng, 12))
    r = 0.7
    vals = f.circle_trace(r, 32)
    direct = f(r * grid_points(32))
    assert np.abs(vals - direct).max() < 1e-12


@pytest.mark.parametrize("m,n", [(5, 8), (40, 64), (12, 512), (3000, 512)])
def test_circle_blocks_are_the_one_radius_rows(m, n):
    # one batched transform per block, each row bitwise the one-radius call,
    # also when f has more coefficients than n (the subsampled path)
    rng = np.random.default_rng(m)
    f = DiskFunction(random_coeffs(rng, m))
    radii = np.linspace(0.1, 0.999, 17)
    block = f.circle_trace(radii, n)
    assert block.shape == (17, n) and f.circle_trace(0.5, n).shape == (n,)
    assert block.tobytes() == b"".join(f.circle_trace(r, n).tobytes() for r in radii)


@pytest.mark.parametrize("m,n", [(1, 8), (5, 8), (40, 64), (12, 512), (3000, 512)])
@pytest.mark.parametrize("order", [0, 1])
def test_turned_trace_reads_the_midpoints(m, n, order):
    # the unimodular scale e^{i pi/n} turns the grid by half a step: the n
    # values are those of f, or of f', at the midpoints between the nodes,
    # also when f has more coefficients than n (the subsampled path)
    rng = np.random.default_rng(m)
    f = DiskFunction(random_coeffs(rng, m))
    turn = np.exp(1j * np.pi / n)
    g = derivative(f) if order else f
    got = f.circle_trace(turn, n, order)
    assert got.shape == (n,)
    assert np.abs(got - g(turn * grid_points(n))).max() <= 1e-12 * max(1.0, np.abs(g.coeffs).sum())
    # a real radius, given as an int or in a list, keeps the float bits
    assert f.circle_trace(1, n, order).tobytes() == f.trace(n, order).tobytes()
    assert f.circle_trace([0.5], n, order).tobytes() == f.circle_trace(0.5, n, order).tobytes()


def test_call_is_horner():
    f = DiskFunction([1.0, 2.0, 3.0])
    z = 0.5 + 0.25j
    assert abs(f(z) - (1.0 + 2.0 * z + 3.0 * z * z)) < 1e-15


def _horner_reference(coeffs, z):
    """Plain coefficient-by-coefficient Horner rule."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for ck in coeffs[-2::-1]:
        out = out * z + ck
    return out


def _assert_matches_horner(f, z):
    got = f(z)
    ref = _horner_reference(f.coeffs, z)
    assert got.shape == np.shape(z)
    # relative to the Horner error scale sum_k |c_k| |z|^k
    scale = _horner_reference(np.abs(f.coeffs), np.abs(z)).real
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_call_matches_horner_reference(degree, seed):
    rng = np.random.default_rng(seed)
    f = DiskFunction(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    angles = 2.0 * np.pi * rng.random(40)
    radii = np.concatenate([np.ones(10), rng.random(30)])  # |z| = 1 included
    _assert_matches_horner(f, radii * np.exp(1j * angles))


@pytest.mark.parametrize("degree", [0, 1, 7, 64, 3000])
def test_call_keeps_input_shape(degree):
    rng = np.random.default_rng(degree)
    f = DiskFunction(rng.standard_normal(degree + 1))
    z = np.exp(1j * rng.random((3, 5)) * 2.0 * np.pi) * rng.random((3, 5))
    z[0, 0] = 1.0
    _assert_matches_horner(f, z)
    _assert_matches_horner(f, np.array(-1.0j))
    scalar = f(0.3 - 0.4j)
    assert np.shape(scalar) == ()
    assert abs(scalar - _horner_reference(f.coeffs, 0.3 - 0.4j)) <= 1e-13 * np.abs(f.coeffs).sum()


def test_degree_and_resolved():
    assert DiskFunction([0.0, 1.0, 0.0, 0.0]).coeffs.size == 4  # trailing zeros are kept
    padded = np.zeros(512, dtype=complex)
    padded[1] = 6.0
    assert spectral.resolved(padded)
    slow = DiskFunction(0.999 ** np.arange(512, dtype=float) + 0j)
    assert not spectral.resolved(slow.coeffs)
    # 4-fold symmetric: the top coefficient is an exact zero, its window is not
    symmetric = np.where(np.arange(512) % 4 == 1, slow.coeffs, 0.0)
    assert symmetric[-1] == 0.0 and not spectral.resolved(symmetric)


@pytest.mark.parametrize("m", [*range(1, 10), 16, 17, 64, 100])
def test_tail_ratio_reads_the_last_eighth(m):
    window = max(1, m // 8)
    c = np.zeros(m, dtype=complex)
    assert spectral.tail_ratio(c) == 0.0
    c[0] = -4.0
    if m - window > 1:
        c[m - window - 1] = 2.0  # just outside the window: not counted
    c[m - window] = 1e-3j  # the window's first index
    want = 1.0 if m == 1 else 1e-3 / 4.0
    assert spectral.tail_ratio(c) == want
    assert spectral.resolved(c) == (want < spectral.RESOLVED_RATIO)


def test_derivative_is_built_once_and_shares_its_traces():
    # f' is cached on f only as its trace per n, never as coefficients;
    # derivative(f) builds a new map on each call
    f = DiskFunction([0.0, 1.0, 0.5, 0.25j])
    assert derivative(f).coeffs.tolist() == [1.0, 1.0, 0.75j]
    assert derivative(f) is not derivative(f)
    trace = f.trace(16, 1)
    assert f.trace(16, 1) is trace and not trace.flags.writeable
    assert f.trace(32, 1) is not trace and f.trace(16) is not trace
    assert ("trace", 16, 1) in f._memo
    assert "derivative" not in f._memo
    assert derivative(DiskFunction([2.0])).coeffs.tolist() == [0.0]


@pytest.mark.parametrize("m", [1, 5, 16, 17, 64], ids=["constant", "shorter", "equal", "one_longer", "strided"])
def test_derivative_trace_is_the_trace_of_the_derivative(m):
    # bit for bit, on the unit circle and on the batched circles inside it
    rng = np.random.default_rng(m)
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    f = DiskFunction(c)
    fp = DiskFunction(np.arange(1, m) * c[1:] if m > 1 else [0.0])
    assert np.array_equal(f.trace(16, 1), fp.trace(16))
    assert np.array_equal(f.circle_trace(0.999, 16, 1), fp.circle_trace(0.999, 16))
    assert np.array_equal(f.circle_trace([0.5, 0.999], 16, 1), fp.circle_trace([0.5, 0.999], 16))
    with pytest.raises(ValueError, match="order"):
        f.circle_trace(0.5, 16, 2)
    with pytest.raises(ValueError, match="order"):
        f.trace(16, 2)


def test_conjugate_of_cosine_is_sine():
    n = 64
    t = grid_angles(n)
    for k in (1, 3, 7):
        v = conjugate_periodic(np.cos(k * t))
        assert np.abs(v - np.sin(k * t)).max() < 1e-12


def test_conjugate_involution_and_mean():
    rng = np.random.default_rng(7)
    n = 128
    t = grid_angles(n)
    u = np.zeros(n)
    for k in range(1, n // 4):
        a, b = rng.standard_normal(2)
        u += a * np.cos(k * t) + b * np.sin(k * t)
    u += rng.standard_normal()
    v = conjugate_periodic(u)
    assert abs(v.mean()) < 1e-12
    w = conjugate_periodic(v)
    assert np.abs(w + (u - u.mean())).max() < 1e-10


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugate_involution_property(seed):
    rng = np.random.default_rng(seed)
    n = 64
    t = grid_angles(n)
    u = np.zeros(n)
    for k in range(1, n // 4):
        a, b = rng.standard_normal(2)
        u += a * np.cos(k * t) + b * np.sin(k * t)
    w = conjugate_periodic(conjugate_periodic(u))
    assert np.abs(w + (u - u.mean())).max() < 1e-9 * (1.0 + np.abs(u).max())


def test_schwarz_integral_log_oracle():
    n = 512
    t = grid_angles(n)
    u = np.log(np.abs(2.0 + np.exp(1j * t)))
    F = schwarz_integral(u)
    k = np.arange(1, 40)
    expect = -((-0.5) ** k) / k
    assert abs(F.coeffs[0] - np.log(2.0)) < 1e-12
    assert np.abs(F.coeffs[1:40] - expect).max() < 1e-12
    assert np.abs(F.coeffs[40:200]).max() < 1e-12


def test_schwarz_real_part_interpolates():
    rng = np.random.default_rng(11)
    n = 128
    t = grid_angles(n)
    u = 0.3 + sum(
        rng.standard_normal() * np.cos(k * t) + rng.standard_normal() * np.sin(k * t)
        for k in range(1, 10)
    )
    F = schwarz_integral(u)
    assert np.abs(F.trace(n).real - u).max() < 1e-11
    assert abs(F.coeffs[0].imag) < 1e-14


def test_poisson_reproduces_harmonic_polynomials():
    n = 512
    t = grid_angles(n)
    rng = np.random.default_rng(12)
    pts = 0.9 * rng.uniform(0.0, 1.0, 25) * np.exp(2j * np.pi * rng.uniform(size=25))
    for k in (1, 3, 5):
        u = np.cos(k * t)
        vals = poisson_extend(u, pts)
        expect = (np.abs(pts) ** k) * np.cos(k * np.angle(pts))
        assert np.abs(vals - expect).max() < 1e-12
    const = poisson_extend(np.full(n, 2.5), pts)
    assert np.abs(const - 2.5).max() < 1e-12


def test_poisson_circle_matches_pointwise_extension():
    rng = np.random.default_rng(13)
    n = 64
    t = grid_angles(n)
    u = sum(rng.standard_normal() * np.cos(k * t) for k in range(1, 8))
    r = 0.55
    circle = schwarz_integral(u).circle_trace(r, n).real
    pts = r * grid_points(n)
    assert np.abs(circle - poisson_extend(u, pts)).max() < 1e-12


def test_poisson_rejects_exterior_points():
    with pytest.raises(ValueError):
        poisson_extend(np.ones(8), np.array([1.5 + 0.0j]))


def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, (peak - start) / 2**20


def test_poisson_extend_reads_the_schwarz_integral_in_bounded_memory():
    # the dense points x n sum it replaced peaked at 11.09 MiB here; the
    # values are Re F(z) of the Schwarz integral F, within rounding of that
    # sum and of the oracle log|2 + z|
    n = 1024
    u = np.log(np.abs(2.0 + grid_points(n)))
    rng = np.random.default_rng(14)
    z = np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    z[:8] = grid_points(8)
    vals, peak = _traced_peak_mib(poisson_extend, u, z)
    assert peak < 1.0
    assert np.array_equal(vals, schwarz_integral(u)(z).real)
    k = np.fft.fftfreq(n, d=1.0 / n)
    spec = np.fft.fft(u) / n
    dense = (np.abs(z)[:, None] ** np.abs(k) * np.exp(1j * np.angle(z)[:, None] * k) * spec).sum(axis=-1).real
    assert np.abs(vals - dense).max() < 1e-14
    assert np.abs(vals - np.log(np.abs(2.0 + z))).max() < 1e-14


def test_circle_trace_scales_the_padded_coefficients_in_place():
    # 1.38 MiB with the r**k-scaled copy of the coefficients made before the
    # padded array is filled; 1.00 MiB on the unit circle
    rng = np.random.default_rng(15)
    f = DiskFunction(random_coeffs(rng, 1 << 15))
    vals, peak = _traced_peak_mib(f.circle_trace, 0.999, 1 << 15)
    assert peak < 1.15
    padded = f.coeffs * np.power(0.999, np.arange(f.coeffs.size))
    assert np.array_equal(vals, np.fft.ifft(padded) * (1 << 15))


def test_hp_distance_closed_form():
    f = DiskFunction([0.0, 1.0])
    g = DiskFunction([0.0, 0.5])
    for p in (0.1, 0.25, 0.4):
        expect = 2.0 * np.pi * 0.5 ** p
        assert abs(hp_boundary_distance(f, g, p) - expect) < 1e-12
    assert hp_boundary_distance(f, f, 0.25) == 0.0


@pytest.mark.parametrize("p", [-0.1, 0.0, 0.5, 0.9])
def test_hp_distance_rejects_bad_exponent(p):
    f = DiskFunction([0.0, 1.0])
    with pytest.raises(ValueError):
        hp_boundary_distance(f, f, p)


def test_boundary_grid_validates():
    with pytest.raises(ValueError, match="power of two"):
        DiskFunction([0.0, 1.0]).trace(12)
