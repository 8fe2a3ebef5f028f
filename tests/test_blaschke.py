"""Blaschke product construction, boundary modulus, and derivatives."""

import numpy as np
import pytest

from diskmap import blaschke
from diskmap.errors import DegenerateBoundaryError
from diskmap.spectral import grid_points


def test_empty_product_is_one():
    b = blaschke.construct([])
    assert blaschke.evaluate(b, 0.0) == 1.0
    z = np.array([0.0, 0.3 + 0.4j, 1.0])
    assert np.abs(blaschke.evaluate(b, z) - 1.0).max() == 0.0
    assert np.abs(blaschke.log_derivative(b, z)).max() == 0.0


@pytest.mark.parametrize("zeros", [
    [0.5],
    [-0.5],
    [0.3 + 0.4j],
    [0.5, -0.25j, 0.1 + 0.6j],
])
def test_unimodular_on_circle_and_positive_at_origin(zeros):
    b = blaschke.construct(zeros)
    trace = blaschke.evaluate(b, grid_points(64))
    assert np.abs(np.abs(trace) - 1.0).max() < 1e-13
    v = blaschke.evaluate(b, np.array(0.0 + 0.0j))
    assert abs(v.imag) < 1e-15
    assert v.real > 0.0
    # eta = conj(u)/|u| with u = prod(-z_j), so B(0) = eta * u = |u|
    assert abs(abs(np.prod(-b)) - v) < 1e-15


def test_vanishes_exactly_at_zeros():
    zeros = [0.5, -0.25j]
    b = blaschke.construct(zeros)
    assert np.abs(blaschke.evaluate(b, np.asarray(zeros))).max() < 1e-15


@pytest.mark.parametrize("bad", [[0.0], [1.0], [1.5], [0.5, 1.0 + 0.0j], [np.nan], [complex(0.5, np.nan)]])
def test_zero_validation(bad):
    with pytest.raises(ValueError):
        blaschke.construct(bad)


def test_single_zero_half_closed_form():
    # The zero at -1/2 normalizes to B(z) = (z + 1/2)/(1 + z/2), so on the
    # circle B(xi) * (2 + xi) = 2 xi + 1.
    b = blaschke.construct([-0.5])
    xi = grid_points(32)
    lhs = blaschke.evaluate(b, xi) * (2.0 + xi)
    rhs = 2.0 * xi + 1.0
    assert np.abs(lhs - rhs).max() < 1e-14


def test_log_derivative_matches_finite_differences():
    b = blaschke.construct([0.3 + 0.4j, -0.5])
    z = 0.9 * grid_points(16)
    h = 1e-6
    fd = (blaschke.evaluate(b, z + h) - blaschke.evaluate(b, z - h)) / (2.0 * h)
    got = blaschke.evaluate(b, z) * blaschke.log_derivative(b, z)
    assert np.abs(got - fd).max() < 1e-8


def stacked_log_derivative(b, z):
    """The (n, zeros) broadcast form that log_derivative replaced, kept as
    its oracle."""
    zz = np.asarray(z, dtype=np.complex128)[..., None]
    first = 1.0 / (zz - b)
    second = np.conj(b) / (1.0 - np.conj(b) * zz)
    return (first + second).sum(axis=-1)


@pytest.mark.parametrize("zeros", [[0.995], [-0.5], [0.3 + 0.4j], [0.3 + 0.4j, -0.5], [0.995, -0.25j]])
@pytest.mark.parametrize("points", [grid_points(8192), 0.9 * grid_points(64)], ids=["circle", "inside"])
def test_log_derivative_per_zero_is_the_stacked_sum_bit_for_bit(zeros, points):
    b = blaschke.construct(zeros)
    assert blaschke.log_derivative(b, points).tobytes() == stacked_log_derivative(b, points).tobytes()


@pytest.mark.parametrize("count", [3, 5, 7])
def test_log_derivative_per_zero_agrees_with_the_stacked_sum(count):
    # with three or more zeros the stacked sum may add its terms in another
    # order, so only agreement to rounding is asserted
    rng = np.random.default_rng(count)
    b = blaschke.construct(0.95 * rng.random(count) * np.exp(2j * np.pi * rng.random(count)) + 0.01)
    points = grid_points(4096)
    want = stacked_log_derivative(b, points)
    assert np.abs(blaschke.log_derivative(b, points) - want).max() <= 1e-15 * np.abs(want).max()


def test_derivative_trace_consistent():
    # B' = B * B'/B against closed forms on the circle and inside it
    pts = np.concatenate([grid_points(64), 0.9 * grid_points(64)])

    def factor(a, z):
        # the normalized factor of one zero a and its derivative
        eta = np.conj(-a) / abs(a)
        return eta * (z - a) / (1.0 - np.conj(a) * z), eta * (1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2

    def derivative(b):
        return blaschke.evaluate(b, pts) * blaschke.log_derivative(b, pts)

    # one zero at -1/2: B(z) = (z + 1/2)/(1 + z/2), so B'(z) = (3/4)/(1 + z/2)^2
    assert np.abs(derivative(blaschke.construct([-0.5])) - 0.75 / (1.0 + 0.5 * pts) ** 2).max() <= 1e-13
    # two zeros: the product rule over the normalized factors of each
    (b1, d1), (b2, d2) = factor(0.4, pts), factor(0.2 - 0.3j, pts)
    want = d1 * b2 + b1 * d2
    assert np.abs(derivative(blaschke.construct([0.4, 0.2 - 0.3j])) - want).max() <= 1e-13


def test_pole_collision_guard():
    b = blaschke.construct([0.5])
    with pytest.raises(DegenerateBoundaryError):
        blaschke.evaluate(b, np.array(2.0 + 0.0j))
