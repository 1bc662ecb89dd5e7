"""The numpy piecewise cubics against the scipy interpolants they reproduce."""

import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from blochsteer import _cubic, controls
from blochsteer._cubic import (_offsets, cubic_derivative, cubic_value, hermite_coefficients,
                               not_a_knot_slopes, pieces, require_uniform, uniform_pieces)
from blochsteer.controls import ControlSchedule
from blochsteer.errors import InvalidInputError
from blochsteer.simulator import _homogeneous, _table_run

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
    s = _offsets(x, t, i)
    for j, cj in enumerate(c.reshape(-1, 4, n - 1)):
        ref = reference(t) if columns is None else reference(t)[j]
        ref_d = reference(t, 1) if columns is None else reference(t, 1)[j]
        assert relative_error(cubic_value(cj, s, i), ref) <= TOL
        assert relative_error(cubic_derivative(cj, s, i), ref_d) <= TOL


@pytest.mark.parametrize("n", [2, 4, 30])
def test_hermite_cubic_matches_scipy(n, rng):
    x = knots("random", n, rng)
    y, dydx = rng.normal(size=n), rng.normal(size=n)
    reference = CubicHermiteSpline(x, y, dydx)
    c = hermite_coefficients(x, y, dydx)
    t = np.concatenate([x, rng.uniform(x[0], x[-1], 5000)])
    i = pieces(x, t)
    s = _offsets(x, t, i)
    assert relative_error(cubic_value(c, s, i), reference(t)) <= TOL
    assert relative_error(cubic_derivative(c, s, i), reference(t, 1)) <= TOL


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
    s = _offsets(times, fine, i)
    expected = [cubic_value(hermite_coefficients(times, y, not_a_knot_slopes(times, y)), s, i)
                for y in fields]
    rows = np.empty((3, len(fine)))
    assert schedule.value(fine, rows) is rows
    assert np.array_equal(rows, expected)


def test_schedule_value_forms_the_offsets_once_for_all_fields(rng, monkeypatch):
    # counted wherever they are formed: in the schedule or in an evaluator
    times = np.linspace(0.0, 9.25, 201)
    schedule = ControlSchedule(times, *np.cumsum(rng.normal(size=(3, len(times))), axis=1))
    calls = []

    def counted(x, t, i):
        calls.append(len(t))
        return _offsets(x, t, i)
    for module in (controls, _cubic):
        monkeypatch.setattr(module, "_offsets", counted)
    schedule.value(np.linspace(0.0, 9.25, 4001), np.empty((3, 4001)))
    assert calls == [4001]


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


def test_infinite_times_are_refused_before_any_step_is_taken():
    # inf - inf would warn "invalid value encountered in subtract"
    times = np.array([np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite, uniformly spaced"):
            ControlSchedule(times=times, omega_x=np.zeros(2), omega_y=np.zeros(2),
                            excitation=np.zeros(2))
        with pytest.raises(InvalidInputError, match="finite, uniformly spaced"):
            _table_run(lambda t: np.ones(1), _homogeneous(-np.eye(1), np.zeros(1))[None],
                       np.ones(2), times, 10, np.ones(1))


@pytest.mark.parametrize("times, message", [
    ([0.0, 1.0, np.inf], "got 3 with steps 1.0 .. inf"),
    ([0.0, 1.0, 3.0], "got 3 with steps 1.0 .. 2.0"),
    ([0.0, 0.5, 1.5, 1.75], "got 4 with steps 0.25 .. 1.0"),
    ([2.0], "got 1"),
])
def test_uniformity_message_gives_the_real_step_range(times, message):
    rule = "output times must be two or more finite, uniformly spaced; "
    with pytest.raises(InvalidInputError, match=f"^{re.escape(rule + message)}$"):
        require_uniform(np.array(times), "output times")
