"""The numpy piecewise cubics against the scipy interpolants they reproduce."""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from blochsteer._cubic import (cubic_derivative, cubic_value, hermite_coefficients,
                               not_a_knot_slopes, pieces, uniform_pieces)
from blochsteer.controls import ControlSchedule
from blochsteer.errors import InvalidInputError

TOL = 1e-13


def knots(kind, n, rng):
    if kind == "uniform":
        return np.linspace(0.0, 9.25, n)
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, 9.25, n - 2)), [9.25]])


def relative_error(ours, reference):
    return np.max(np.abs(ours - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 17, 2001])
def test_not_a_knot_spline_matches_scipy(n, columns, kind, rng):
    x = knots(kind, n, rng)
    y = rng.normal(size=n if columns is None else (columns, n))
    reference = CubicSpline(x, y, axis=-1)
    slopes = not_a_knot_slopes(x, y)
    assert slopes.shape == y.shape
    assert relative_error(slopes, reference(x, 1)) <= TOL
    c = hermite_coefficients(x, y, slopes)
    t = np.sort(rng.uniform(x[0], x[-1], 5000))
    i = pieces(x, t)
    for j, cj in enumerate(c.reshape(-1, 4, n - 1)):
        ref = reference(t) if columns is None else reference(t)[j]
        ref_d = reference(t, 1) if columns is None else reference(t, 1)[j]
        assert relative_error(cubic_value(cj, x, t, i), ref) <= TOL
        assert relative_error(cubic_derivative(cj, x, t, i), ref_d) <= TOL


@pytest.mark.parametrize("n", [2, 4, 30])
def test_hermite_cubic_matches_scipy(n, rng):
    x = knots("random", n, rng)
    y, dydx = rng.normal(size=n), rng.normal(size=n)
    reference = CubicHermiteSpline(x, y, dydx)
    c = hermite_coefficients(x, y, dydx)
    t = np.concatenate([x, rng.uniform(x[0], x[-1], 5000)])
    i = pieces(x, t)
    assert relative_error(cubic_value(c, x, t, i), reference(t)) <= TOL
    assert relative_error(cubic_derivative(c, x, t, i), reference(t, 1)) <= TOL


def test_uniform_pieces_hold_their_times():
    x = np.linspace(0.0, 9.25, 2001)
    t = np.linspace(0.0, 9.25, 40001)
    i, p = uniform_pieces(x, t), pieces(x, t)
    # where the two lookups differ, t lies within rounding of the knot between the pieces
    differ = i != p
    assert np.all(np.abs(i - p) <= 1)
    assert np.all(np.abs(t[differ] - x[np.maximum(i, p)[differ]]) < 1e-12)
    assert i.min() == 0 and i.max() == len(x) - 2


def test_schedule_values_match_scipy_on_the_fine_grid(rng):
    times = np.linspace(0.0, 9.25, 2001)
    fields = {name: np.cumsum(rng.normal(size=len(times)))
              for name in ("omega_x", "omega_y", "excitation")}
    schedule = ControlSchedule(times=times, **fields)
    fine = np.linspace(0.0, 9.25, 40001)
    values_fine = schedule.value(fine, np.empty((3, len(fine))))
    for row, values in zip(values_fine, fields.values()):
        reference = CubicSpline(times, values)(fine)
        assert relative_error(row, reference) <= TOL
    clamped = schedule.value(np.array([20.0]), np.empty((3, 1)))
    assert clamped[0, 0] == pytest.approx(fields["omega_x"][-1], abs=1e-12)


def test_schedule_value_equals_cubic_value_field_by_field(rng):
    # one clip and one piece lookup for all fields give each field's bits
    times = np.linspace(0.0, 9.25, 2001)
    fields = np.cumsum(rng.normal(size=(3, len(times))), axis=1)
    schedule = ControlSchedule(times, *fields)
    fine = np.linspace(0.0, 9.25, 40001)
    i = uniform_pieces(times, fine)
    expected = [cubic_value(hermite_coefficients(times, y, not_a_knot_slopes(times, y)),
                            times, fine, i) for y in fields]
    rows = np.empty((3, len(fine)))
    assert schedule.value(fine, rows) is rows
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 2.0, 3.0]),
    ([0.0], [1.0]),
], ids=["repeated", "decreasing", "nan-knot", "inf-value", "one-knot"])
def test_bad_knots_and_values_are_rejected(x, y):
    with pytest.raises(InvalidInputError):
        not_a_knot_slopes(x, y)
    with pytest.raises(InvalidInputError):
        hermite_coefficients(x, y, np.zeros(len(y)))


def test_non_finite_slopes_and_overflowing_coefficients_are_rejected():
    with pytest.raises(InvalidInputError, match="slopes"):
        hermite_coefficients([0.0, 1.0], [0.0, 1.0], [0.0, np.nan])
    with pytest.raises(InvalidInputError, match="overflow"):
        hermite_coefficients([0.0, 1e-300, 1.0], [0.0, 0.12, 0.0], [0.0, 0.0, 0.0])


def test_schedule_rejects_non_uniform_times():
    with pytest.raises(InvalidInputError, match="uniformly spaced"):
        ControlSchedule(times=np.array([0.0, 1.0, 3.0]), omega_x=np.zeros(3),
                        omega_y=np.zeros(3), excitation=np.zeros(3))


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0, 3.0], [0.0, np.inf]])
def test_schedule_rejects_non_finite_times_without_a_warning(times):
    n = len(times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite, uniformly spaced"):
            ControlSchedule(times=np.array(times), omega_x=np.zeros(n), omega_y=np.zeros(n),
                            excitation=np.zeros(n))
