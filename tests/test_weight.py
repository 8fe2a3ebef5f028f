"""Weight fields: builtins, tables, and the lattice certificates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskmap import weight


# ---------------------------------------------------------------------------
# field construction and evaluation

def test_staircase_profile_values(staircase):
    r = np.array([0.0, 1.0, 2.0, 2.5, 3.0, 4.5, 6.0, 7.0])
    want = np.array([1.0, np.sqrt(3.0), 3.0, 3.0, 3.0, 4.5, 6.0, 6.0])
    assert np.abs(staircase.radial_profile(r) - want).max() < 1e-12
    assert staircase.sup_bound == 6.0
    assert not staircase.xi_dependent


def test_staircase_is_rotation_invariant(staircase):
    w = 2.3 * np.exp(1j * np.linspace(0.0, 6.0, 17))
    vals = staircase.evaluate(1.0, w)
    assert np.abs(vals - vals[0]).max() < 1e-12


def loop_profile(breaks, pieces, r):
    """The per-piece loop that np.piecewise replaced, kept as its oracle."""
    r = np.asarray(r, dtype=np.float64)
    out = np.empty_like(r)
    idx = np.searchsorted(breaks, r, side="left")
    for i in range(len(pieces)):
        mask = idx == i
        if np.any(mask):
            out[mask] = pieces[i](r[mask])
    return out


@pytest.mark.parametrize("shape", [(), (1,), (257,), (16, 33)])
def test_piecewise_profile_matches_loop(shape):
    breaks = [2.0, 3.0, 6.0]
    pieces = [
        lambda r: np.sqrt(2.0 * r * r + 1.0),
        lambda r: np.full_like(r, 3.0),
        lambda r: r,
        lambda r: np.full_like(r, 6.0),
    ]
    f = weight.radial_piecewise_field(breaks, pieces, sup_bound=6.0)
    r = np.random.default_rng(len(shape)).uniform(0.0, 8.0, size=shape)
    if r.size > 8:
        r.flat[:8] = [0.0, 2.0, 3.0, 6.0, np.nextafter(2.0, 0.0), np.nextafter(6.0, 7.0), np.inf, np.nan]
    want = loop_profile(np.asarray(breaks), pieces, r)
    got = f.radial_profile(r)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.floats(0.05, 3.0), max_size=5),
    radii=st.lists(st.floats(0.0, 20.0), max_size=30),
    at_breaks=st.lists(st.integers(0, 4), max_size=6),
    scalar=st.booleans(),
)
def test_piecewise_profile_matches_np_piecewise(widths, radii, at_breaks, scalar):
    # the pieces meet at 2 on every breakpoint and differ between them; each
    # fails the test if it is called on no points, which np.piecewise never does
    breaks = np.cumsum(widths)
    edges = np.concatenate([[0.0], breaks, [np.inf]])

    def piece(i):
        def fn(r):
            assert r.size, f"piece {i} called on no points"
            if i == breaks.size:
                return 2.0 + 0.1 * (i + 1) * (r - edges[i])
            return 2.0 - 0.1 * (i + 1) * (r - edges[i]) * (r - edges[i + 1])

        return fn

    pieces = [piece(i) for i in range(breaks.size + 1)]
    f = weight.radial_piecewise_field(breaks, pieces, sup_bound=10.0)
    # exact breakpoints, 0 and a radius past the last breakpoint among them
    r = np.array(radii + [breaks[k % breaks.size] for k in at_breaks if breaks.size] + [0.0, edges[-2] + 1.0])
    if scalar:
        r = r[0]
    want = np.piecewise(r, [np.searchsorted(breaks, r, side="left") == i for i in range(len(pieces))], pieces)
    got = f.radial_profile(r)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_piecewise_rejects_jump():
    with pytest.raises(ValueError, match="disagree"):
        weight.radial_piecewise_field(
            [1.0], [lambda r: r, lambda r: r + 0.5], sup_bound=2.0
        )


def test_piecewise_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        weight.radial_piecewise_field(
            [2.0, 1.0],
            [lambda r: r + 1, lambda r: r + 1, lambda r: r + 1],
            sup_bound=4.0,
        )


@pytest.mark.parametrize("build,match", [
    (lambda tmp: weight.WeightField(None, 0.0, radial_profile=np.exp), "sup bound must be finite and positive"),
    (lambda tmp: weight.WeightField(None, np.inf, radial_profile=np.exp), "sup bound must be finite and positive"),
    (lambda tmp: weight.WeightField(None, np.nan, radial_profile=np.exp), "sup bound must be finite and positive"),
    (lambda tmp: weight.radial_piecewise_field([1.0], [np.exp], sup_bound=3.0), "one more piece than breakpoints"),
    (lambda tmp: weight.cosine_radial_field(eps=1.0), "0 <= eps < 1"),
    (lambda tmp: weight.tabulated_field(_table(tmp, "")), "empty table"),
    (lambda tmp: weight.tabulated_field(_table(tmp, "r,theta,psi\n1.0,0.0,2.0\n")), "needs a 'phi' column"),
    (lambda tmp: weight.tabulated_field(_table(tmp, "r,theta,phi\n1.0,0.0,-1.0\n2.0,0.0,0.0\n")), "no positive values"),
], ids=["sup_zero", "sup_inf", "sup_nan", "pieces", "eps_one", "empty_table", "no_phi", "no_positive"])
def test_field_constructors_reject_bad_input(tmp_path, build, match):
    with pytest.raises(ValueError, match=match):
        build(tmp_path)


def _table(tmp, text):
    path = tmp / "table.csv"
    path.write_text(text)
    return path


def test_piecewise_rejects_nonpositive_profile():
    with pytest.raises(ValueError, match="positive"):
        weight.radial_piecewise_field([], [lambda r: 1.0 - r], sup_bound=1.0)


def test_constant_field_everywhere():
    f = weight.constant_field(2.5)
    w = np.array([0.0, 1.0 + 1.0j, -3.0])
    assert np.abs(f.evaluate(1.0, w) - 2.5).max() == 0.0
    assert f.radial_profile(np.array([0.0, 5.0])).tolist() == [2.5, 2.5]


def test_positivity_enforced_on_callables():
    f = weight.WeightField(
        lambda xi, w: np.cos(np.abs(np.broadcast_arrays(w, xi)[0])), sup_bound=1.0
    )
    with pytest.raises(ValueError, match="positive"):
        f.evaluate(1.0, np.array([0.0, 3.0]))


@pytest.mark.parametrize("kind", ["callable", "radial"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(kind, bad):
    if kind == "callable":
        f = weight.WeightField(lambda xi, w: np.where(np.abs(w) > 1.0, bad, 2.0), sup_bound=2.0, name="holey")
    else:
        f = weight.WeightField(None, 2.0, radial_profile=lambda r: np.where(r > 1.0, bad, 2.0), name="holey")
    with pytest.raises(ValueError, match="'holey' is not finite"):
        f.evaluate(1.0, np.array([0.5, 3.0]))


def test_radial_field_evaluates_its_profile_at_the_modulus():
    f = weight.WeightField(None, 3.0, radial_profile=lambda r: 1.0 + r, name="cone")
    xi = np.exp(1j * np.array([0.0, 1.0, 2.0]))
    w = np.array([[0.0, 1.0j, -2.0], [0.6 + 0.8j, 1.5, -0.3j]])
    assert np.array_equal(f.evaluate(xi, w), 1.0 + np.abs(w))
    assert f.evaluate(xi[:, None], np.array([0.5, 2.0])).shape == (3, 2)


def test_evaluate_hands_fn_xi_and_w_of_one_shape():
    # evaluate broadcasts xi and w when their shapes differ, and passes
    # complex arrays of one shape through as they are
    seen = []

    def fn(xi, w):
        seen.append((xi, w))
        return np.ones(w.shape)

    f = weight.WeightField(fn, 1.0)
    w = np.zeros((3, 4), dtype=np.complex128)
    for xi in (1.0, np.ones((3, 1)), np.ones(4)):
        assert f.evaluate(xi, w).shape == (3, 4)
    xi = np.ones((3, 4), dtype=np.complex128)
    f.evaluate(xi, w)
    assert [(a.shape, b.shape, a.dtype, b.dtype) for a, b in seen] == [((3, 4), (3, 4), np.complex128, np.complex128)] * 4
    assert seen[-1][0] is xi and seen[-1][1] is w


def test_a_field_is_given_by_fn_or_by_its_radial_profile():
    # a radial profile is read as the field's own, by scan and the lattice
    # checks, so a field may not carry one beside a fn
    with pytest.raises(ValueError, match="exactly one"):
        weight.WeightField(lambda xi, w: np.ones(np.shape(w)), 1.0, radial_profile=lambda r: np.ones_like(r))
    with pytest.raises(ValueError, match="exactly one"):
        weight.WeightField(None, 1.0)


def test_random_smooth_field_sup_is_attained():
    for seed in range(6):
        f = weight.random_smooth_field(np.random.default_rng(seed))
        # the field's six draws replayed from the seed: c, alpha, beta, then
        # the three that place its peak
        draws = np.random.default_rng(seed)
        draws.uniform(0.9, 1.8), draws.uniform(0.0, 0.25), draws.uniform(0.0, 0.12)
        gamma, t0, delta = draws.uniform(0.4, 1.2), draws.uniform(0.0, 2.0 * np.pi), draws.uniform(0.0, 2.0 * np.pi)
        xi0 = np.exp(1j * t0)
        w0 = np.sqrt((2.0 * np.pi - delta) / gamma)
        peak = float(f.evaluate(xi0, np.array(w0 + 0.0j)))
        assert abs(peak - f.sup_bound) < 1e-12 * f.sup_bound
        rng = np.random.default_rng(100 + seed)
        cloud = rng.normal(size=64) + 1j * rng.normal(size=64)
        angles = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=64))
        assert f.evaluate(angles, cloud).max() <= f.sup_bound * (1.0 + 1e-12)


def test_make_builtin_dispatch(staircase):
    f = weight.make_builtin("gauss_radial", c=1.5, a=0.2)
    assert abs(f.evaluate(1.0, np.array(0.0j)) - 1.5) < 1e-15
    assert abs(weight.make_builtin("staircase").sup_bound - staircase.sup_bound) == 0.0
    with pytest.raises(ValueError, match="unknown builtin"):
        weight.make_builtin("nope")


def test_ripple_variants_differ_only_on_negative_lobe():
    smooth = weight.ripple_field(smooth=True)
    kink = weight.ripple_field(smooth=False)
    w_pos = np.array(0.3 + 0.2j)
    w_neg = np.array(2.0 + 0.0j)  # cos(2) < 0
    assert abs(smooth.evaluate(1.0, w_pos) - kink.evaluate(1.0, w_pos)) < 1e-15
    assert kink.evaluate(1.0, w_neg) > smooth.evaluate(1.0, w_neg)


# ---------------------------------------------------------------------------
# tabulated fields

def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_tabulated_polar_interpolates(tmp_path):
    path = tmp_path / "polar.csv"
    thetas = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    rows = [(r, t, 2.0 + r) for r in (0.0, 1.0, 2.0) for t in thetas]
    _write_csv(path, ["r", "theta", "phi"], rows)
    f = weight.tabulated_field(path)
    assert f.sup_bound == 4.0
    got = f.evaluate(1.0, np.array(1.5 * np.exp(0.7j)))
    assert abs(got - 3.5) < 1e-12
    # radius clamps outside the table
    assert abs(f.evaluate(1.0, np.array(5.0 + 0.0j)) - 4.0) < 1e-12


def test_tabulated_polar_wraps_in_angle(tmp_path):
    path = tmp_path / "polar.csv"
    thetas = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    rows = [(r, t, 2.0 + np.cos(t)) for r in (0.0, 2.0) for t in thetas]
    _write_csv(path, ["r", "theta", "phi"], rows)
    f = weight.tabulated_field(path)
    just_below = f.evaluate(1.0, np.array(1.0 * np.exp(-1e-9j)))
    at_zero = f.evaluate(1.0, np.array(1.0 + 0.0j))
    assert abs(just_below - at_zero) < 1e-6


def test_tabulated_cartesian_clamps_at_edges(tmp_path):
    path = tmp_path / "cart.csv"
    rows = [(x, y, 2.0 + x) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    _write_csv(path, ["x", "y", "phi"], rows)
    f = weight.tabulated_field(path)
    assert abs(f.evaluate(1.0, np.array(0.5 + 0.0j)) - 2.5) < 1e-12
    assert abs(f.evaluate(1.0, np.array(7.0 + 0.2j)) - 3.0) < 1e-12


def test_tabulated_clamp_warns(tmp_path):
    path = tmp_path / "neg.csv"
    rows = [(x, y, -1.0 if (x, y) == (0.0, 0.0) else 2.0) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    _write_csv(path, ["x", "y", "phi"], rows)
    f = weight.tabulated_field(path)
    with pytest.warns(UserWarning, match="clamped"):
        got = f.evaluate(1.0, np.array(0.0 + 0.0j))
    assert float(got) == 1e-9


@pytest.mark.parametrize("header", [["r", "theta", "phi"], ["x", "y", "phi"]])
def test_tabulated_clamp_between_nodes(tmp_path, header):
    # phi = -1 on the first row of nodes and 2 on the others: bilinear
    # interpolation is -1 + 3a along the first axis, so a = 0.25 falls below
    # zero between the nodes and is clamped, while a = 0.5 reads 0.5
    path = tmp_path / "neg.csv"
    _write_csv(path, header, [(a, b, -1.0 if a == 0.0 else 2.0) for a in (0.0, 1.0, 2.0) for b in (0.0, 1.0, 2.0)])
    f = weight.tabulated_field(path)
    w = np.array([0.25, 0.5, 0.25j]) if header[0] == "r" else np.array([0.25 + 0.5j, 0.5 + 0.5j, 0.25 + 1.5j])
    with pytest.warns(UserWarning, match="clamped"):
        got = f.evaluate(1.0, w)
    assert got[0] == weight.TABULATED_FLOOR and got[2] == weight.TABULATED_FLOOR
    assert abs(got[1] - 0.5) < 1e-12


def test_tabulated_radial_profile_applies_the_floor(tmp_path):
    # one theta makes the field radial, and scan judges it by its profile:
    # the profile must read what evaluate reads, floor and warning included
    path = tmp_path / "radial.csv"
    radii = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    _write_csv(path, ["r", "theta", "phi"], [(r, 0.0, -0.5 if r == 1.0 else 1.0) for r in radii])
    f = weight.tabulated_field(path)
    r = np.array([0.9, 1.0, 1.1])
    w = r * np.exp(0.3j)
    with pytest.warns(UserWarning, match="clamped"):
        profile = f.radial_profile(r)
    with pytest.warns(UserWarning, match="clamped"):
        field = f.evaluate(1.0, w)
    with pytest.warns(UserWarning, match="clamped"):
        at_modulus = f.radial_profile(np.abs(w))
    assert np.allclose(profile, [0.25, weight.TABULATED_FLOOR, 0.25], rtol=0.0, atol=1e-12)
    assert np.array_equal(field, at_modulus)


def one_theta_table(path, rows=40):
    """A radial table of `rows` radii on [0, 3] at theta 0, and its field."""
    _write_csv(path, ["r", "theta", "phi"], [(r, 0.0, 2.0 + np.cos(3.0 * r)) for r in np.linspace(0.0, 3.0, rows)])
    return weight.tabulated_field(path)


def test_a_one_theta_table_is_its_profile_at_the_modulus(tmp_path):
    # the solve reads the Phi that scan and the scale check read, and Phi is
    # the same to the bit at w and -conj(w), as the superharmonic check's
    # half lattice needs
    f = one_theta_table(tmp_path / "radial.csv")
    rng = np.random.default_rng(5)
    w = rng.uniform(-4.0, 4.0, 100_000) + 1j * rng.uniform(-4.0, 4.0, 100_000)
    got = f.evaluate(rng.uniform(-1.0, 1.0, w.size), w)
    assert np.array_equal(got, f.radial_profile(np.abs(w)))
    assert np.array_equal(got, f.evaluate(1.0, -np.conj(w)))


def rgi_tabulated(header, a, b, phi, w):
    """The RegularGridInterpolator evaluator the numpy bilinear one replaced,
    kept as its oracle."""
    from scipy.interpolate import RegularGridInterpolator

    if header[0] == "r":
        rgi = RegularGridInterpolator((a, np.append(b, b[0] + 2.0 * np.pi)), np.concatenate([phi, phi[:, :1]], axis=1))
        pa, pb = np.clip(np.abs(w), a[0], a[-1]), np.mod(np.angle(w) - b[0], 2.0 * np.pi) + b[0]
    else:
        rgi = RegularGridInterpolator((a, b), phi)
        pa, pb = np.clip(w.real, a[0], a[-1]), np.clip(w.imag, b[0], b[-1])
    return rgi(np.stack([pa, pb], axis=-1))


@settings(max_examples=100, deadline=None)
@given(
    header=st.sampled_from([["r", "theta", "phi"], ["x", "y", "phi"]]),
    na=st.integers(1, 6),
    nb=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tabulated_bilinear_matches_regular_grid_interpolator(tmp_path_factory, header, na, nb, seed):
    rng = np.random.default_rng(seed)
    if header[0] == "r":
        a = np.sort(rng.choice(40, na, replace=False)) * 0.1
        b = np.sort(rng.choice(64, nb, replace=False)) * (2.0 * np.pi / 64) - np.pi
    else:
        a, b = (np.sort(rng.choice(40, n, replace=False)) * 0.1 - 2.0 for n in (na, nb))
    phi = rng.uniform(0.5, 3.0, (na, nb))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    _write_csv(path, header, [(a[i], b[j], phi[i, j]) for i in range(na) for j in range(nb)])
    # points inside and outside the table, and every node
    w = rng.normal(scale=2.0, size=60) + 1j * rng.normal(scale=2.0, size=60)
    nodes = (a[:, None] * np.exp(1j * b) if header[0] == "r" else a[:, None] + 1j * b).ravel()
    w = np.concatenate([w, nodes])
    got = weight.tabulated_field(path).evaluate(1.0, w)
    assert np.allclose(got, rgi_tabulated(header, a, b, phi, w), rtol=0.0, atol=1e-12)


def test_tabulated_rejects_bad_tables(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["a", "b", "phi"], [(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError, match="columns"):
        weight.tabulated_field(path)
    path2 = tmp_path / "short.csv"
    path2.write_text("x,y,phi\n0.0,0.0\n")
    with pytest.raises(ValueError):
        weight.tabulated_field(path2)
    path3 = tmp_path / "holes.csv"
    _write_csv(path3, ["x", "y", "phi"], [(0.0, 0.0, 1.0), (1.0, 1.0, 2.0)])
    with pytest.raises(ValueError):
        weight.tabulated_field(path3)


def test_tabulated_rejects_nan_phi(tmp_path):
    path = tmp_path / "nan.csv"
    rows = [(x, y, np.nan if (x, y) == (0.0, 1.0) else 2.0) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    _write_csv(path, ["x", "y", "phi"], rows)
    with pytest.raises(ValueError, match="non-finite phi in data row 6"):
        weight.tabulated_field(path)


@pytest.mark.parametrize(
    "header,bs",
    # polar, cartesian, and a polar table with one theta, a radial field
    [(["r", "theta", "phi"], (0.0, 1.0, 2.0)), (["x", "y", "phi"], (0.0, 1.0, 2.0)), (["r", "theta", "phi"], (0.0,))],
    ids=["header0", "header1", "header2"],
)
def test_tabulated_rejects_nan_image_point(tmp_path, header, bs):
    path = tmp_path / "table.csv"
    _write_csv(path, header, [(a, b, 2.0 + a) for a in (0.0, 1.0, 2.0) for b in bs])
    f = weight.tabulated_field(path)
    assert np.isfinite(f.evaluate(1.0, np.array([0.5 + 0.5j]))).all()
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0)):
        with pytest.raises(ValueError, match=r"'tabulated\(.*table\.csv\)' evaluated at a non-finite image point"):
            f.evaluate(1.0, np.array([0.5 + 0.5j, bad]))


# ---------------------------------------------------------------------------
# contraction certificate

def test_contraction_staircase_fails(staircase):
    cert = weight.contraction_certificate(staircase, 4.0 / 3.0)
    assert not cert.valid
    assert cert.lipschitz_verified
    assert cert.sup_solution_bound == 6.0
    assert cert.inf_weight_bound == 1.0
    assert abs(cert.ratio - 28.0 / 3.0) < 1e-9


def test_contraction_gauss_succeeds():
    f = weight.gauss_radial_field(1.0, 0.1)
    L = np.sqrt(0.2) * np.exp(-0.5)
    cert = weight.contraction_certificate(f, L)
    assert cert.valid
    assert cert.lipschitz_verified
    assert abs(cert.sup_solution_bound - 1.0) < 1e-12
    assert abs(cert.inf_weight_bound - np.exp(-0.1)) < 1e-6
    assert abs(cert.ratio - L * (1.0 + 1.0 / cert.inf_weight_bound)) < 1e-12
    assert cert.ratio < 0.58


def test_contraction_undersized_lipschitz_flagged(staircase):
    cert = weight.contraction_certificate(staircase, 0.5)
    assert not cert.lipschitz_verified
    assert not cert.valid
    assert cert.sampled_lipschitz > 1.0


def test_contraction_rejects_negative_lipschitz(staircase):
    with pytest.raises(ValueError):
        weight.contraction_certificate(staircase, -1.0)


@pytest.mark.parametrize("fld", [
    weight.random_smooth_field(np.random.default_rng(7)),
    weight.random_smooth_field(np.random.default_rng(8)),
    weight.ripple_field(smooth=False),
    weight.gauss_radial_field(1.0, 0.1),
])
def test_contraction_certificate_goes_one_xi_row_at_a_time(fld, monkeypatch):
    # 3.37 MiB for the random field with the whole (xi, angle, radius)
    # lattice and both difference arrays at once; the certificate is that of
    # the broadcast, which is copied here
    n_radial, n_angular, n_xi = 256, 64, 8
    monkeypatch.setattr(weight, "CONTRACTION_LATTICE", (n_radial, n_angular, n_xi))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cert = weight.contraction_certificate(fld, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2**20 < 1.5
    radii = np.linspace(0.0, fld.sup_bound, n_radial + 1)
    w = radii[None, :] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)[:, None]
    xi = weight._xi_lattice(fld, n_xi)
    vals = fld.evaluate(xi[:, None, None], w[None, :, :])
    i0 = int(np.argmax(np.maximum.accumulate(vals.max(axis=(0, 1))) <= radii))
    m0 = float(np.minimum.accumulate(vals.min(axis=(0, 1)))[i0])
    gap = np.abs(w[1:, 1:] - w[:-1, 1:])
    sampled = max(
        float(np.abs(np.diff(vals, axis=2)).max() / (radii[1] - radii[0])),
        float((np.abs(np.diff(vals, axis=1)).max(axis=0)[:, 1:] / gap).max()),
    )
    assert cert.sup_solution_bound == radii[i0] and cert.inf_weight_bound == m0
    assert cert.sampled_lipschitz == sampled and cert.ratio == 0.7 * (1.0 + radii[i0] / m0)
    assert cert.lipschitz_verified == (sampled <= 0.7 * (1.0 + 1e-9) + 1e-9)
    assert cert.valid == (cert.ratio < 1.0 and cert.lipschitz_verified)
    assert cert.lattice == (xi.size, n_angular, n_radial + 1)


def _peak_mib(fn):
    """fn()'s tracemalloc peak above the memory held before the call, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def test_contraction_certificate_goes_in_angle_row_blocks(staircase):
    # 16.0 MiB with the whole (256, 1025) lattice, its differences and the
    # angular step held at once
    assert _peak_mib(lambda: weight.contraction_certificate(staircase, 4.0 / 3.0)) < 1.0


def test_contraction_as_dict_round_trips(staircase):
    cert = weight.contraction_certificate(staircase, 4.0 / 3.0)
    d = dataclasses.asdict(cert)
    assert d["valid"] == cert.valid
    assert d["ratio"] == cert.ratio


# ---------------------------------------------------------------------------
# radial scale check

def test_scale_staircase_passes_loosely(staircase):
    res = weight.radial_scale_check(staircase)
    assert res.passed
    assert res.margin > -1e-10
    assert not res.strict_passed


def test_scale_bounded_parabola_fails():
    res = weight.radial_scale_check(weight.bounded_parabola_field())
    assert not res.passed
    assert res.margin < -0.9
    assert 1.9 < res.worst_radius < 2.1


def test_scale_gauss_strictly_passes():
    res = weight.radial_scale_check(weight.gauss_radial_field(1.0, 0.1))
    assert res.passed
    assert res.strict_passed
    assert res.strict_margin > 0.08


def test_scale_check_xi_dependent_route(monkeypatch):
    monkeypatch.setattr(weight, "SCALE_LATTICE", (16, 64, 32, 8))
    f = weight.random_smooth_field(np.random.default_rng(7))
    res = weight.radial_scale_check(f)
    assert isinstance(res.passed, bool)
    assert np.isfinite(res.margin)


@pytest.mark.parametrize("fld", [
    weight.random_smooth_field(np.random.default_rng(7)),
    weight.random_smooth_field(np.random.default_rng(8)),
    weight.ripple_field(smooth=True),
    weight.ripple_field(smooth=False),
])
def test_scale_check_goes_one_rho_row_at_a_time(fld, monkeypatch):
    # 3.33 MiB for the random field with the whole (rho, xi, w) lattice at
    # once; the results are those of that broadcast, which is copied here
    n_rho, n_radial, n_angular, n_xi = 16, 64, 16, 8
    monkeypatch.setattr(weight, "SCALE_LATTICE", (n_rho, n_radial, n_angular, n_xi))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = weight.radial_scale_check(fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2**20 < 1.0
    rho = np.arange(1, n_rho + 1) / (n_rho + 1.0)
    r = np.linspace(0.0, fld.sup_bound, n_radial + 1)[1:]
    xi = weight._xi_lattice(fld, n_xi)
    w = (r[None, :] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)[:, None]).ravel()
    base = fld.evaluate(xi[:, None], w[None, :])
    scaled = fld.evaluate(xi[None, :, None], rho[:, None, None] * w[None, None, :])
    margins = (scaled / rho[:, None, None] - base[None, :, :]).reshape(n_rho, -1)
    irho, iw = np.unravel_index(np.argmin(margins), margins.shape)
    assert res.margin == margins[irho, iw] and res.worst_rho == rho[irho]
    assert res.worst_radius == np.tile(np.abs(w), xi.size)[iw]
    assert res.strict_margin == margins[rho <= 15.0 / 16.0].min()


def test_scale_check_of_a_radial_profile_goes_in_rho_blocks(staircase):
    # 1.54 MiB with the whole (rho, radius) lattice and its margins at once
    assert _peak_mib(lambda: weight.radial_scale_check(staircase)) < 0.5


def test_scale_check_takes_a_long_row_in_blocks(monkeypatch):
    # each rho row of (xi, w) is 2 x 16384 values, four blocks; 1.76 MiB when
    # a whole row and the base row were held at once
    fld = weight.random_smooth_field(np.random.default_rng(7))
    n_rho, n_radial, n_angular, n_xi = 4, 128, 128, 2
    monkeypatch.setattr(weight, "SCALE_LATTICE", (n_rho, n_radial, n_angular, n_xi))
    assert n_radial * n_angular > weight.LATTICE_BLOCK
    got = []
    assert _peak_mib(lambda: got.append(weight.radial_scale_check(fld))) < 1.0
    rho = np.arange(1, n_rho + 1) / (n_rho + 1.0)
    r = np.linspace(0.0, fld.sup_bound, n_radial + 1)[1:]
    xi = weight._xi_lattice(fld, n_xi)
    w = (r[None, :] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)[:, None]).ravel()
    base = fld.evaluate(xi[:, None], w[None, :]).ravel()
    margins = np.stack([fld.evaluate(xi[:, None], p * w[None, :]).ravel() / p - base for p in rho])
    irho, iw = np.unravel_index(np.argmin(margins), margins.shape)
    res = got[0]
    assert res.margin == margins[irho, iw] and res.worst_rho == rho[irho]
    assert res.worst_radius == np.abs(w)[iw % w.size]
    assert res.strict_margin == margins[rho <= 15.0 / 16.0].min()


# ---------------------------------------------------------------------------
# superharmonic check

def test_superharmonic_gauss_passes():
    res = weight.superharmonic_check(weight.gauss_radial_field(1.0, 0.1))
    assert res.passed
    assert abs(res.worst + 0.4) < 1e-6  # laplacian of -a|w|^2 is exactly -4a


def test_superharmonic_constant_passes():
    res = weight.superharmonic_check(weight.constant_field(2.0))
    assert res.passed
    assert res.worst == 0.0


@pytest.mark.parametrize("field,passed,worst,point", [
    (weight.staircase_field(), False, "0x1.31af7740a7d55p+3", ("-0x1.5p+1", "0x1.74p+0")),
    (weight.gauss_radial_field(), True, "-0x1.9999999978p-2", ("-0x1p-1", "-0x1.a4p-1")),
])
def test_superharmonic_check_values_are_pinned(field, passed, worst, point):
    # bitwise the results of the meshgrid lattice the broadcasts replaced
    res = weight.superharmonic_check(field)
    assert res.passed is passed
    assert res.worst == float.fromhex(worst)
    assert res.worst_point == complex(*map(float.fromhex, point))


def test_superharmonic_check_holds_no_coordinate_grids():
    # 4.57 MiB with the two 257 x 257 meshgrid arrays alive through the loop,
    # 3.50 MiB with the whole lattice of one xi
    assert _peak_mib(lambda: weight.superharmonic_check(weight.staircase_field())) < 1.0


def whole_lattice_superharmonic(fld):
    """The worst Laplacian and its point on every xi's whole lattice at once,
    in the check's order: the oracle of its blocks."""
    n, h = weight.SUPERHARMONIC_N, fld.sup_bound / weight.SUPERHARMONIC_N
    coords = np.arange(-n, n + 1) * h
    W = coords[:, None] + 1j * coords[None, :]
    logv = np.log(fld.evaluate(weight._xi_lattice(fld, weight.SUPERHARMONIC_XI)[:, None, None], W[None]))
    lap = (
        logv[:, 2:, 1:-1] + logv[:, :-2, 1:-1] + logv[:, 1:-1, 2:] + logv[:, 1:-1, :-2] - 4.0 * logv[:, 1:-1, 1:-1]
    ) / (h * h)
    lap[:, np.hypot(coords[1:-1, None], coords[None, 1:-1]) > fld.sup_bound] = -np.inf
    k, i, j = np.unravel_index(np.argmax(lap), lap.shape)
    return lap[k, i, j], W[i + 1, j + 1]


def test_superharmonic_check_of_a_xi_dependent_field_goes_in_row_blocks(monkeypatch):
    # 3.59 MiB with the whole lattice of one xi; the result is that of the
    # whole lattice, which is computed here
    fld = weight.random_smooth_field(np.random.default_rng(7))
    got = []
    assert _peak_mib(lambda: got.append(weight.superharmonic_check(fld))) < 1.0
    worst, point = whole_lattice_superharmonic(fld)
    assert got[0].worst == worst and got[0].worst_point == point


RADIAL_FIELDS = {
    "staircase": lambda tmp: weight.staircase_field(),
    "gauss_radial": lambda tmp: weight.gauss_radial_field(),
    "cosine_radial": lambda tmp: weight.cosine_radial_field(2.0, 0.9, 4.0),
    "bounded_parabola": lambda tmp: weight.bounded_parabola_field(),
    "plateau_reciprocal": lambda tmp: weight.plateau_reciprocal_field(),
    "constant": lambda tmp: weight.constant_field(2.0),
    "one_theta_table": lambda tmp: one_theta_table(tmp / "radial.csv"),
    "user_profile": lambda tmp: weight.WeightField(None, 2.5, radial_profile=lambda r: 2.0 + np.sin(r) * np.exp(-r)),
}


@pytest.mark.parametrize("name", list(RADIAL_FIELDS))
def test_superharmonic_check_of_a_radial_field_reads_half_its_lattice(name, tmp_path, monkeypatch):
    # a radial field is read on the rows Re w <= 0 and their halo row at
    # Re w = h, in blocks; its result is the whole lattice's to the bit
    fld = RADIAL_FIELDS[name](tmp_path)
    got = []
    assert _peak_mib(lambda: got.append(weight.superharmonic_check(fld))) < 1.0
    worst, point = whole_lattice_superharmonic(fld)
    assert got[0].worst == worst and got[0].worst_point == point
    reads = []
    evaluate = weight.WeightField.evaluate
    monkeypatch.setattr(weight.WeightField, "evaluate", lambda self, xi, w: reads.append(w) or evaluate(self, xi, w))
    assert weight.superharmonic_check(fld) == got[0]
    assert max(float(np.max(w.real)) for w in reads) == fld.sup_bound / weight.SUPERHARMONIC_N


def test_superharmonic_bump_fails():
    f = weight.WeightField(
        lambda xi, w: np.exp(np.square(np.minimum(np.abs(np.broadcast_arrays(w, xi)[0]), 1.0))),
        sup_bound=float(np.e),
        name="subharmonic_bump",
    )
    res = weight.superharmonic_check(f)
    assert not res.passed
    assert abs(res.worst - 4.0) < 1e-6  # laplacian of +|w|^2 is exactly 4
    assert abs(res.worst_point) < 1.0
