"""Piecewise cubics in numpy: Hermite power coefficients and not-a-knot slopes.

A piecewise cubic on knots x holds, on piece i (x[i] <= t <= x[i+1]), the
power coefficients c[:, i] of

    c[0] s^3 + c[1] s^2 + c[2] s + c[3],    s = t - x[i].

``hermite_coefficients`` builds them from knot values and slopes with the
formulas of scipy's ``CubicHermiteSpline``; ``not_a_knot_slopes`` solves the
slopes of the not-a-knot cubic spline (de Boor, A Practical Guide to
Splines, ch. IV) from the tridiagonal system of scipy's ``CubicSpline``, row
for row, so the two together reproduce that spline to rounding.  Both take
values of shape (n,) or (k, n), knots on the last axis; k curves on the
same knots share one solve, and curve j's coefficients are the contiguous
block ``c[j]`` of shape (4, n - 1).

The checks scipy makes are kept: knots finite and strictly increasing,
values and slopes finite, else ``InvalidInputError``; so are coefficients
that overflow.
"""

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "require_uniform",
    "hermite_coefficients",
    "not_a_knot_slopes",
    "pieces",
    "uniform_pieces",
    "cubic_value",
    "cubic_derivative",
]


def require_uniform(times: np.ndarray, what: str) -> None:
    """Raise unless ``times`` holds two or more finite points whose steps
    differ by at most 1e-9 of the span."""
    steps = np.diff(times)
    if (len(times) < 2 or not np.isfinite(times).all()
            or np.ptp(steps) > 1e-9 * abs(times[-1] - times[0])):
        raise InvalidInputError(f"{what} must be two or more finite, uniformly spaced; got "
                                f"{len(times)} with steps {steps.min(initial=0.0)} .. "
                                f"{steps.max(initial=0.0)}")


def _check_knots(x: np.ndarray, **data: np.ndarray) -> None:
    if x.ndim != 1 or len(x) < 2:
        raise InvalidInputError("a piecewise cubic needs a 1-D array of two or more knots")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("knots must contain only finite values")
    if np.any(np.diff(x) <= 0):
        raise InvalidInputError("knots must be strictly increasing")
    for name, values in data.items():
        if values.shape[-1] != len(x):
            raise InvalidInputError(f"{name} must hold one entry per knot on the last axis")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError(f"{name} must contain only finite values")


def hermite_coefficients(x, y, dydx) -> np.ndarray:
    """Power coefficients, shape y.shape[:-1] + (4, n - 1), of the cubic
    Hermite interpolant through values ``y`` and slopes ``dydx`` at ``x``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dydx = np.asarray(dydx, dtype=float)
    _check_knots(x, values=y, slopes=dydx)
    dx = np.diff(x)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.diff(y) / dx
        t = (dydx[..., :-1] + dydx[..., 1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - dydx[..., :-1]) / dx - t, dydx[..., :-1], y[..., :-1]),
                     axis=-2)
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("cubic coefficients overflow: the knots are too close "
                                "for these values and slopes")
    return c


def not_a_knot_slopes(x, y) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through ``y`` at ``x``.

    Two knots give the chord's line, three the parabola through them, as in
    scipy; more give the tridiagonal system with not-a-knot end rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_knots(x, values=y)
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if n == 2:
        return np.concatenate([slope, slope], axis=-1)
    lower, diag, upper = np.zeros(n), np.empty(n), np.zeros(n)
    rhs = np.empty_like(y)
    if n == 3:
        diag[0] = upper[0] = 1.0
        lower[1], diag[1], upper[1] = dx[1], 2 * (dx[0] + dx[1]), dx[0]
        lower[2] = diag[2] = 1.0
        rhs[..., 0] = 2 * slope[..., 0]
        rhs[..., 1] = 3 * (dx[0] * slope[..., 1] + dx[1] * slope[..., 0])
        rhs[..., 2] = 2 * slope[..., 1]
    else:
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        lower[1:-1] = dx[1:]
        rhs[..., 1:-1] = 3 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[..., 0] = ((dx[0] + 2 * d) * dx[1] * slope[..., 0]
                       + dx[0] ** 2 * slope[..., 1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        rhs[..., -1] = (dx[-1] ** 2 * slope[..., -2]
                        + (2 * d + dx[-1]) * dx[-2] * slope[..., -1]) / d
    return _solve_tridiagonal(lower, diag, upper, rhs)


# Dropping couplings below this fraction of their row's diagonal moves the
# solution by less than 2^-64 of its largest entry, far below rounding.
_DECOUPLED = 2.0 ** -64


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[..., i]
    by parallel cyclic reduction.

    Each round eliminates, in all rows at once, the couplings to the rows
    ``stride`` away and doubles the stride.  The rows stand alone after
    ceil(log2 n) rounds at most; a diagonally dominant system decouples to
    rounding in far fewer, and the reduction stops there.
    """
    a, b, c, d = lower, diag, upper, rhs
    n = len(b)
    stride = 1
    while stride < n:
        alpha = -a[stride:]
        alpha /= b[:-stride]
        gamma = -c[:-stride]
        gamma /= b[stride:]
        b_next, d_next = b.copy(), d.copy()
        b_next[stride:] += alpha * c[:-stride]
        b_next[:-stride] += gamma * a[stride:]
        d_next[..., stride:] += alpha * d[..., :-stride]
        d_next[..., :-stride] += gamma * d[..., stride:]
        a_next, c_next = np.zeros(n), np.zeros(n)
        np.multiply(alpha, a[:-stride], out=a_next[stride:])
        np.multiply(gamma, c[stride:], out=c_next[:-stride])
        a, b, c, d = a_next, b_next, c_next, d_next
        stride *= 2
        if np.all(np.abs(a) + np.abs(c) <= _DECOUPLED * np.abs(b)):
            break
    return d / b


def pieces(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piece of each t: x[i] <= t < x[i+1], the last piece from x[-2] on and
    the first one below x[0]."""
    return np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)


def uniform_pieces(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``pieces`` by index arithmetic, for uniform knots (see ``require_uniform``)
    and t inside [x[0], x[-1]]; a t within rounding of a knot may take the
    neighbouring piece, where the two cubics agree to rounding."""
    n = len(x)
    u = t - x[0]
    u *= (n - 1) / (x[-1] - x[0])
    i = u.astype(np.intp)
    return np.minimum(i, n - 2, out=i)


# The evaluators take 1-D t and gather one coefficient row at a time into a
# reused buffer: on a fine grid of tens of thousands of points every fresh
# temporary array costs about as much as the arithmetic, and gathering rows
# with ``take`` is several times faster than fancy indexing of the block.
# The pieces are in range by construction; ``mode="clip"`` lets ``take``
# write into ``out`` directly, where the default mode copies through a buffer.

def _offsets(x: np.ndarray, t: np.ndarray, i: np.ndarray):
    """s = t - x[i], and a buffer of its size."""
    s = x.take(i)
    np.subtract(t, s, out=s)
    return s, np.empty_like(s)


def cubic_value(c: np.ndarray, x: np.ndarray, t: np.ndarray, i: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Value at t on pieces i of the coefficients c (4, n - 1), by Horner's
    rule; written into ``out``, a contiguous float array of t's shape, when given."""
    s, row = _offsets(x, t, i)
    v = c[0].take(i, out=out, mode="clip")
    for k in (1, 2, 3):
        v *= s
        v += c[k].take(i, out=row, mode="clip")
    return v


def cubic_derivative(c: np.ndarray, x: np.ndarray, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """First derivative at t on pieces i, by Horner's rule."""
    s, row = _offsets(x, t, i)
    v = c[0].take(i)
    v *= 3
    v *= s
    c[1].take(i, out=row, mode="clip")
    row *= 2
    v += row
    v *= s
    v += c[2].take(i, out=row, mode="clip")
    return v
