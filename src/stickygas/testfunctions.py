"""Compactly supported C^1 test functions for weak-form residuals.

Both built-ins are C^2, accept scalars or numpy arrays, and vanish together
with their derivative outside the stated support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    """A test function f with its derivative df, both accepting arrays.

    The weak-form residuals integrate in time with a fixed 8-node
    Gauss-Legendre rule, split wherever a trajectory crosses a knot.  When
    f is a polynomial of degree <= 6 between consecutive knots, every
    integrand is a polynomial of degree <= 12 in t, which both the 8-node
    rule (exact to degree 15) and the 7-node rule (degree 13) integrate
    exactly: the integrals are exact up to rounding and `quad_error` is
    rounding-level.  Otherwise `quad_error` reports the gap between the
    two rules."""

    __test__ = False  # not a pytest collection target

    name: str
    f: Callable
    df: Callable
    support: tuple[float, float]
    # locations where f or a derivative changes formula; quadrature splits
    # where a trajectory crosses one
    knots: tuple[float, ...] = ()

    def __call__(self, x):
        return self.f(x)

    def prime(self, x):
        return self.df(x)


def bump(center: float = 0.0, halfwidth: float = 1.0) -> TestFunction:
    """(1 - u^2)^3 on |u| < 1 with u = (x - center)/halfwidth."""

    def f(x):
        u = (np.asarray(x, dtype=float) - center) / halfwidth
        inside = np.abs(u) < 1.0
        core = np.where(inside, 1.0 - u * u, 0.0)
        return core ** 3

    def df(x):
        u = (np.asarray(x, dtype=float) - center) / halfwidth
        inside = np.abs(u) < 1.0
        core = np.where(inside, 1.0 - u * u, 0.0)
        return -6.0 * u * core ** 2 / halfwidth

    return TestFunction(
        f"bump({center:g}:{halfwidth:g})", f, df,
        (center - halfwidth, center + halfwidth),
        (center - halfwidth, center + halfwidth))


def cubic_bspline(center: float = 0.0, halfwidth: float = 1.0) -> TestFunction:
    """Cubic B-spline scaled so its support is [center - hw, center + hw]."""

    def f(x):
        s = np.abs(2.0 * (np.asarray(x, dtype=float) - center) / halfwidth)
        inner = 2.0 / 3.0 - s * s + 0.5 * s ** 3
        outer = (2.0 - s) ** 3 / 6.0
        return np.where(s <= 1.0, inner, np.where(s <= 2.0, outer, 0.0))

    def df(x):
        u = 2.0 * (np.asarray(x, dtype=float) - center) / halfwidth
        s = np.abs(u)
        sign = np.sign(u)
        inner = -2.0 * u + 1.5 * u * s
        outer = -sign * 0.5 * (2.0 - s) ** 2
        return np.where(s <= 1.0, inner, np.where(s <= 2.0, outer, 0.0)) * (2.0 / halfwidth)

    return TestFunction(
        f"bspline({center:g}:{halfwidth:g})", f, df,
        (center - halfwidth, center + halfwidth),
        tuple(center + k * halfwidth / 2.0 for k in (-2, -1, 0, 1, 2)))


def covering_test_functions(values: Sequence[float], pad: float = 0.5) -> list[TestFunction]:
    """Three built-ins whose supports jointly and individually probe `values`."""
    lo = float(min(values)) - pad
    hi = float(max(values)) + pad
    center = 0.5 * (lo + hi)
    halfwidth = 0.5 * (hi - lo)
    return [
        bump(center, halfwidth),
        bump(center - 0.4 * halfwidth, 0.8 * halfwidth),
        cubic_bspline(center, halfwidth),
    ]
