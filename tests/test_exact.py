"""Exact solutions for the source ``f = exp(-u)``, at every alpha.

With ``w(t) = (t**alpha - a**alpha) / alpha`` the conformable derivative is
``u^(alpha) = t**(1 - alpha) * u' = du/dw``, so the equation
``u^(alpha) = (lam / D**2) * exp(-u)`` integrates to
``exp(u) = exp(u_a) + c * w(t)`` with ``c = lam / D**2``.  The whole problem
is then one scalar equation for the integral ``D`` of ``f``:

    D = Phi(D) = integral_a^T dt / (exp(u_a) + c * w(t)).

At alpha = 1 the integral is ``log(1 + c * (T - a) * exp(-u_a)) / c``; at other
alpha a 120-point Gauss-Legendre rule takes it to rounding.  On a = 1,
T = 2, u_a = 0.1 and alpha = 1 the roots fold: two solutions below
``lam* ~ 0.586`` and none above.
"""

import math

import numpy as np
import pytest

import thermistor as th
from thermistor.conformable import trapezoid

A, T, U_A = 1.0, 2.0, 0.1
EXP_SOURCE = th.parse_expr("exp(-u)")

_X, _W = np.polynomial.legendre.leggauss(120)
_T_QUAD = A + (T - A) * (_X + 1.0) / 2.0
_W_QUAD = _W * (T - A) / 2.0
# D runs over (0, 3]: Phi(D) < D below 1e-3 and above (T - a) * exp(-u_a)
_SCAN = np.linspace(1e-3, 3.0, 30001)


def exp_problem(lam, alpha):
    return th.ThermistorProblem(A, T, lam, th.Alpha(alpha), U_A, EXP_SOURCE)


def weight(t, alpha):
    return (t**alpha - A**alpha) / alpha


def phi_quadrature(d, lam, alpha):
    """Phi at each D of ``d`` by the 120-point Gauss-Legendre rule."""
    c = lam / np.asarray(d, dtype=float) ** 2
    return (_W_QUAD / (math.exp(U_A) + c[..., None] * weight(_T_QUAD, alpha))).sum(axis=-1)


def phi(d, lam, alpha):
    """Phi at each D of ``d``: the closed form at alpha = 1, else the rule."""
    if alpha != 1.0:
        return phi_quadrature(d, lam, alpha)
    c = lam / np.asarray(d, dtype=float) ** 2
    return np.log1p(c * (T - A) * math.exp(-U_A)) / c


def roots(lam, alpha):
    """The roots of ``Phi(D) - D`` on (0, 3], ascending: one per sign change
    of a 30001-point scan, each bisected 60 times."""
    gap = phi(_SCAN, lam, alpha) - _SCAN
    found = []
    for i in np.flatnonzero(np.signbit(gap[:-1]) != np.signbit(gap[1:])):
        lo, hi = _SCAN[i], _SCAN[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (phi(mid, lam, alpha) - mid > 0.0) == (gap[i] > 0.0):
                lo = mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    return found


def exact_solution(lam, alpha, d, grid):
    return np.log(math.exp(U_A) + lam / d**2 * weight(grid.nodes, alpha))


@pytest.mark.parametrize("lam", [0.3, 0.6])
def test_the_rule_reproduces_the_closed_form_at_alpha_one(lam):
    # from the lower root at lam = 0.3 up; at smaller D the integrand peaks
    # too sharply at t = a for 120 points
    d = np.array([0.0791, 0.2, 0.5, 1.0, 3.0])
    assert np.allclose(phi_quadrature(d, lam, 1.0), phi(d, lam, 1.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam, alpha", [(0.3, 1.0), (0.5, 0.3)])
def test_each_root_is_a_solution_whose_source_integrates_to_it(lam, alpha):
    # the trapezoid rule of exp(-u) tends to D at second order
    for d in roots(lam, alpha):
        gaps = []
        for n in (2001, 20001):
            grid = th.Grid(A, T, n)
            u = exact_solution(lam, alpha, d, grid)
            assert u[0] == pytest.approx(U_A, abs=1e-15)
            gaps.append(abs(trapezoid(np.exp(-u), grid.h) / d - 1.0))
        assert gaps[1] < 2e-7
        assert 1.99 <= math.log10(gaps[0] / gaps[1]) <= 2.01


@pytest.mark.parametrize(
    "lam, expected",
    [(0.3, [0.07909, 0.73206]), (0.5, [0.19695, 0.56045]), (0.58, [0.320259, 0.41666]), (0.586, []), (0.6, [])],
)
def test_two_solutions_below_the_fold_and_none_above(lam, expected):
    found = roots(lam, 1.0)
    assert found == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("lam, largest", [(0.586, -5.7e-6), (0.6, -9.8e-4)])
def test_above_the_fold_phi_stays_below_d(lam, largest):
    assert np.max(phi(_SCAN, lam, 1.0) - _SCAN) == pytest.approx(largest, rel=0.02)


@pytest.mark.parametrize("lam, alpha", [(0.3, 1.0), (0.3, 0.3), (0.3, 0.05), (0.5, 0.3), (0.5, 0.7)])
def test_both_solvers_reach_the_upper_root_at_second_order(lam, alpha):
    # started from the closed-form center in the tube of radius exp(t - 1)
    problem = exp_problem(lam, alpha)
    lower, upper = roots(lam, alpha)
    assert upper - lower > 0.3
    errors = {"picard": [], "oracle": []}
    for n in (201, 2001):
        grid = problem.grid(n)
        exact = exact_solution(lam, alpha, upper, grid)
        tube = th.Tube(th.closed_form_center(problem, grid), th.GridFunction(grid, np.exp(grid.nodes - 1.0)))
        report = th.picard_solve(problem, tube, th.SolveOptions(grid_n=n))
        assert report.converged and report.member_of_tube
        oracle = th.oracle_solve(problem, th.SolveOptions(grid_n=n))
        for name, u in (("picard", report.u.values), ("oracle", oracle.values)):
            error = float(np.max(np.abs(u - exact)))
            assert error <= 0.5 * grid.h**2
            errors[name].append(error)
    for coarse, fine in errors.values():
        assert 1.9 <= math.log10(coarse / fine) <= 2.1


def test_above_the_fold_the_oracle_names_the_zero_sample():
    # with no solution to settle on, the first pass from u = u_a climbs until
    # exp(-u) underflows to 0 at the first node after a
    with pytest.raises(th.SourcePositivityError) as exc:
        th.oracle_solve(exp_problem(0.6, 1.0), th.SolveOptions(grid_n=2001))
    assert (exc.value.node, exc.value.iteration) == (1, None)
    assert str(exc.value) == (
        "H1 violated: f(t, u) is zero or underflowed, got f(1.0005, 1415.6880959989098) = 0.0 at node 1"
    )
