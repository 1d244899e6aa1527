import math
from dataclasses import dataclass
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import eval_jacobi

from solvstate import DomainError, specfun
from solvstate.specfun import (
    IntegralResult,
    hyper_pfq,
    integrate,
    jacobi_poly,
    jacobi_table,
    log_gamma,
    log_pochhammer,
    signed_log_sum,
)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                               rel=1e-14)

    def test_recurrence(self):
        for x in np.linspace(0.5, 50.0, 120):
            assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(
                math.log(x), rel=1e-12, abs=1e-12)

    def test_duplication_formula(self):
        # ln G(2x) = ln G(x) + ln G(x+1/2) + (2x-1) ln 2 - ln sqrt(pi)
        for x in (0.5, 1.3, 4.75, 20.0):
            lhs = log_gamma(2.0 * x)
            rhs = (log_gamma(x) + log_gamma(x + 0.5)
                   + (2.0 * x - 1.0) * math.log(2.0)
                   - 0.5 * math.log(math.pi))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)
        assert math.isfinite(log_gamma(1e300))
        for x in (1e306, 1e308):  # math.lgamma overflows
            with pytest.raises(DomainError, match="overflows"):
                log_gamma(x)


class TestPochhammer:
    def test_empty_product(self):
        assert log_pochhammer(3.7, 0) == 0.0

    def test_one_base_gives_factorial(self):
        for n in range(1, 12):
            assert log_pochhammer(1.0, n) == pytest.approx(
                math.lgamma(n + 1.0), rel=1e-14)

    def test_direct_value(self):
        assert log_pochhammer(5.0, 2) == pytest.approx(math.log(30.0), rel=1e-14)


def finite_terms_2f1(m, b, c, x):
    """Terms of the terminating 2F1(-m, b; c; x) (independent oracle)."""
    terms = []
    for n in range(m + 1):
        term = x ** n / math.factorial(n)
        for j in range(n):
            term *= (-m + j) * (b + j) / (c + j)
        terms.append(term)
    return terms


class TestHyperPfq:
    def test_zero_argument(self):
        res = hyper_pfq([], [5.0], 0.0)
        assert res.value == 1.0
        assert res.converged

    def test_zero_upper_parameter_terminates_immediately(self):
        res = hyper_pfq([0.0, 2.0], [3.0], 0.7)
        assert res.value == 1.0
        assert res.achieved_tol == 0.0

    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("x", [0.1, 0.5])
    def test_binomial_identity(self, a, x):
        # 2F1(a, b; b; x) = (1-x)^(-a)
        res = hyper_pfq([a, 3.3], [3.3], x)
        assert res.value.real == pytest.approx((1.0 - x) ** (-a), rel=1e-13)

    @pytest.mark.parametrize("lam", [1.0, 4.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0])
    def test_2f3_reduces_to_0f1(self, lam, x):
        full = hyper_pfq([1.0, lam + 1.0], [1.0, lam + 1.0, lam + 1.0], x)
        reduced = hyper_pfq([], [lam + 1.0], x)
        assert full.value.real == pytest.approx(reduced.value.real, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 7, 10])
    def test_terminating_2f1_vs_finite_sum(self, m):
        # a finite sum is complete but still rounds: its achieved_tol is the
        # cancellation bound eps max|term| / |sum|, and converged follows it
        b, c = 2.4, 1.7
        for x in (0.6, -0.6, 0.05):
            terms = finite_terms_2f1(m, b, c, x)
            total = math.fsum(terms)
            rounding = np.finfo(float).eps * max(map(abs, terms)) / abs(total)
            res = hyper_pfq([-float(m), b], [c], x)
            assert res.value.real == pytest.approx(total, rel=max(1e-13, 10 * rounding))
            assert res.achieved_tol == pytest.approx(rounding, rel=1e-6)
            assert res.converged == (res.achieved_tol <= 1e-15)  # the default rel_tol

    def test_cancelling_terminating_sum_is_flagged(self):
        # largest term 13,510 times the sum: off by 2.2e-13 relative, which
        # a terminating sum reported as exact hid
        res = hyper_pfq([-10.0, 2.4], [1.7], 0.6)
        assert not res.converged
        assert res.achieved_tol == pytest.approx(13510 * np.finfo(float).eps, rel=1e-3)
        assert hyper_pfq([-10.0, 2.4], [1.7], 0.6, rel_tol=1e-11).converged
        # one term is summed without rounding
        assert hyper_pfq([-10.0, 2.4], [1.7], 0.0).achieved_tol == 0.0

    def test_against_mpmath(self):
        cases = [
            ([2.0, 6.0], [1.0, 5.0, 5.0], 2.5),
            ([1.5], [2.25, 3.5], 7.0),
            ([3.0, 2.0], [4.0], 0.35),
            ([], [5.0], 12.0),
        ]
        for a, b, x in cases:
            mine = hyper_pfq(a, b, x).value.real
            ref = float(mp.hyper(a, b, x))
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_against_scipy_compiled_kernels(self):
        from scipy.special import hyp0f1, hyp2f1
        for b in (1.5, 5.0):
            for x in (0.2, 3.0, 20.0):
                assert hyper_pfq([], [b], x).value.real == pytest.approx(
                    float(hyp0f1(b, x)), rel=1e-12)
        for a, b, c in ((0.5, 2.5, 1.0), (3.0, 1.0, 4.5)):
            for x in (0.1, 0.6, 0.9):
                assert hyper_pfq([a, b], [c], x).value.real == pytest.approx(
                    float(hyp2f1(a, b, c, x)), rel=1e-11)

    def test_complex_argument_against_mpmath(self):
        z = 0.4 + 0.3j
        mine = hyper_pfq([2.0, 6.0], [1.0, 5.0, 5.0], z).value
        ref = complex(mp.hyper([2.0, 6.0], [1.0, 5.0, 5.0], mp.mpc(z)))
        assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_huge_parameters_stay_finite(self):
        # (n+k)!-type growth must not overflow the accumulation
        res = hyper_pfq([40.0, 120.0], [1.0, 80.0, 80.0], 3.0)
        assert res.converged
        assert math.isfinite(res.log_abs)

    def test_nonconvergence_is_flagged(self):
        res = hyper_pfq([0.5, 1.5], [1.0], 0.999, max_terms=10, rel_tol=1e-15)
        assert not res.converged
        assert res.terms_used == 11

    def test_2f1_domain_error_on_unit_disk_edge(self):
        with pytest.raises(DomainError):
            hyper_pfq([0.5, 1.5], [1.0], 1.0)

    def test_nonpositive_lower_parameter_rejected(self):
        with pytest.raises(DomainError):
            hyper_pfq([1.0], [-2.0], 0.3)

    def test_diverging_order_rejected(self):
        with pytest.raises(DomainError):
            hyper_pfq([1.0, 2.0, 3.0], [4.0], 0.5)


def binomial_sum_jacobi(n, alpha, beta_, x):
    """Jacobi polynomial by the explicit binomial double sum (test oracle)."""
    total = 0.0
    for s in range(n + 1):
        c1 = math.exp(math.lgamma(n + alpha + 1.0)
                      - math.lgamma(s + 1.0)
                      - math.lgamma(n + alpha - s + 1.0))
        c2 = math.exp(math.lgamma(n + beta_ + 1.0)
                      - math.lgamma(n - s + 1.0)
                      - math.lgamma(beta_ + s + 1.0))
        total += c1 * c2 * ((x - 1.0) / 2.0) ** (n - s) * ((x + 1.0) / 2.0) ** s
    return total


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, 1.5, -0.5, 0.3) == 1.0

    def test_degree_one(self):
        alpha, beta_, x = 1.5, 2.5, 0.4
        expected = (alpha + 1.0) + (alpha + beta_ + 2.0) * (x - 1.0) / 2.0
        assert jacobi_poly(1, alpha, beta_, x) == pytest.approx(expected,
                                                                rel=1e-14)

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_vs_binomial_sum(self, n):
        alpha, beta_ = 1.5, 0.7
        for x in (-0.9, -0.3, 0.0, 0.45, 0.98):
            mine = jacobi_poly(n, alpha, beta_, x)
            oracle = binomial_sum_jacobi(n, alpha, beta_, x)
            assert mine == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_against_scipy(self):
        x = np.linspace(-1.0, 1.0, 41)
        for n in range(9):
            mine = jacobi_poly(n, 2.2, 0.9, x)
            ref = eval_jacobi(n, 2.2, 0.9, x)
            assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_orthogonality_by_quadrature(self):
        alpha, beta_ = 1.5, 1.5
        rule = Rule(nodes=32, panels=4, rel_tol=1e-13,
                    left_exponent=beta_, right_exponent=alpha)
        for n in range(9):
            for m in range(n + 1, 9):
                val = integrate_by(
                    lambda x: (1.0 - x) ** alpha * (1.0 + x) ** beta_
                    * jacobi_poly(n, alpha, beta_, x)
                    * jacobi_poly(m, alpha, beta_, x),
                    -1.0, 1.0, rule)
                assert abs(val.value) < 1e-10

    def test_derivative_identity_vs_finite_difference(self):
        h = 1e-6
        for n in (1, 4, 7):
            for x in (-0.5, 0.1, 0.8):
                # dP_n/dx = ((n+alpha+beta+1)/2) P_{n-1}^(alpha+1, beta+1)
                analytic = 0.5 * (n + 3.0) * jacobi_table(n - 1, 2.2, 1.8, x)[n - 1]
                fd = (jacobi_poly(n, 1.2, 0.8, x + h)
                      - jacobi_poly(n, 1.2, 0.8, x - h)) / (2.0 * h)
                assert analytic == pytest.approx(fd, rel=1e-8, abs=1e-8)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            jacobi_poly(-1, 0.5, 0.5, 0.0)


class TestIntegrate:
    def test_linear(self):
        res = integrate(lambda x: x, 0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-14)
        assert res.converged

    @pytest.mark.parametrize("n,lam", [(1, 0.6), (2, 0.6), (3, 2.5), (5, 0.75)])
    def test_beta_integral_with_endpoint_singularity(self, n, lam):
        res = integrate(lambda x: x ** (n - 1) * (1.0 - x) ** (lam - 1.0),
                        0.0, 1.0, float(n - 1), lam - 1.0)
        exact = math.exp(math.lgamma(n) + math.lgamma(lam) - math.lgamma(n + lam))
        assert res.value == pytest.approx(exact, rel=1e-11)

    def test_sine_squared(self):
        a = 1.7
        res = integrate(lambda x: np.sin(x / (2.0 * a)) ** 2, 0.0, math.pi * a)
        assert res.value == pytest.approx(math.pi * a / 2.0, rel=1e-12)

    def test_integral_cancelling_to_zero_converges(self):
        # the rounding floor: sin's four top panels cancel to about eps, far
        # below the 1e-16 absolute tolerance, and the first halving settles it
        res = integrate(np.sin, 0.0, 2.0 * math.pi)
        assert res.converged
        assert res.evaluations < 1000
        assert abs(res.value) <= 1e-14

    def test_polynomial_exactness_per_panel(self):
        # an 8-node Gauss panel is exact through degree 15
        rule = Rule(nodes=8, panels=1, max_depth=0)
        res = integrate(lambda x: 16.0 * x ** 15 - 3.0 * x ** 7 + x, 0.0, 1.0)
        exact = 1.0 - 3.0 / 8.0 + 0.5
        assert res.value == pytest.approx(exact, abs=1e-13)
        res = integrate_by(lambda x: x ** 15, 0.0, 1.0, rule)
        assert res.value == pytest.approx(1.0 / 16.0, abs=1e-13)

    def test_unconverged_flag(self):
        rule = Rule(nodes=2, panels=1, max_depth=1, rel_tol=1e-15, abs_tol=1e-16)
        res = integrate_by(lambda x: np.exp(-1000.0 * (x - 0.123) ** 2), 0.0, 1.0,
                           rule)
        assert isinstance(res, IntegralResult)
        assert not res.converged

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, left_exponent=-1.5)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, right_exponent=-1.0)


@dataclass(frozen=True)
class Rule:
    """A quadrature layout for `integrate_by`. The defaults are the looser
    tolerances these engine tests were written against, not the library's."""

    nodes: int = 24
    panels: int = 4
    max_depth: int = 14
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    left_exponent: float | None = None
    right_exponent: float | None = None


def integrate_by(f, a, b, rule):
    """`integrate` with the rule's layout in place of specfun's constants."""
    with mock.patch.multiple(specfun, _QUAD_NODES=rule.nodes, _QUAD_PANELS=rule.panels,
                             _QUAD_MAX_DEPTH=rule.max_depth, _QUAD_REL_TOL=rule.rel_tol,
                             _QUAD_ABS_TOL=rule.abs_tol):
        return integrate(f, a, b, rule.left_exponent, rule.right_exponent)


def _reference_integrate(f, a, b, rule):
    """Depth-first adaptive Gauss-Legendre with the panel layout, tolerance
    shares (rounding floor included) and power substitution of `integrate`:
    every panel is its own integrand call and every panel re-evaluates its
    coarse estimate.

    Returns (value, converged, panels refined, levels used per piece).
    """
    t, w = np.polynomial.legendre.leggauss(rule.nodes)

    def panel(g, lo, hi):
        half = 0.5 * (hi - lo)
        return half * float(np.dot(w, g(0.5 * (lo + hi) + half * t)))

    refined = [0]

    def adaptive(g, lo, hi, tol, depth, deepest):
        refined[0] += 1
        deepest[0] = max(deepest[0], depth)
        coarse = panel(g, lo, hi)
        mid = 0.5 * (lo + hi)
        fine = panel(g, lo, mid) + panel(g, mid, hi)
        err = abs(fine - coarse)
        if (err <= tol or depth >= rule.max_depth
                or not (math.isfinite(fine) and math.isfinite(coarse))):
            return fine, err <= tol
        lv, lc = adaptive(g, lo, mid, tol / 2.0, depth + 1, deepest)
        rv, rc = adaptive(g, mid, hi, tol / 2.0, depth + 1, deepest)
        return lv + rv, lc and rc

    offset = 0.0
    if rule.left_exponent is None and rule.right_exponent is None:
        pieces = [(f, a, b)]
    else:
        mid = 0.5 * (a + b)
        pieces = []
        for side, lo, hi, gamma in (("left", a, mid, rule.left_exponent),
                                    ("right", mid, b, rule.right_exponent)):
            if gamma is None:
                pieces.append((f, lo, hi))
            else:
                g, t_wall, tail = specfun._power_substitution(f, lo, hi, gamma,
                                                              side)
                pieces.append((g, t_wall, 1.0))
                offset += tail

    def tops(lo, hi):
        step = (hi - lo) / rule.panels
        return [(lo + i * step, lo + (i + 1) * step) for i in range(rule.panels)]

    rough, magnitude = offset, 0.0
    for g, lo, hi in pieces:
        for p_lo, p_hi in tops(lo, hi):
            top = panel(g, p_lo, p_hi)
            rough += top
            magnitude += abs(top) if math.isfinite(top) else 0.0
    share = (max(rule.abs_tol, rule.rel_tol * abs(rough),
                 specfun._QUAD_ROUNDING * specfun._EPS * magnitude)
             / (len(pieces) * rule.panels))
    total, ok, levels = offset, True, []
    for g, lo, hi in pieces:
        deepest = [0]
        for p_lo, p_hi in tops(lo, hi):
            v, c = adaptive(g, p_lo, p_hi, share, 0, deepest)
            total += v
            ok = ok and c
        levels.append(deepest[0] + 1)
    return total, ok, refined[0], levels


def _counted(f):
    """f that records the number of abscissae of every call."""
    sizes = []

    def wrapped(x):
        sizes.append(np.asarray(x).size)
        return f(x)
    return wrapped, sizes


# Integrals of the size of their integrands: panel sums are formed in a
# different order than the reference's (matrix-vector product vs per-panel
# dot), and a cancelling integral would magnify that last-bit rounding.
_REFERENCE_CASES = {
    "smooth": (lambda x: np.exp(x) * (2.0 + np.cos(3.0 * x)), 0.0, 2.0,
               Rule()),
    "both_endpoints": (lambda x: x ** -0.4 * (1.0 - x) ** 0.7
                       / (1e-3 + (x - 0.35) ** 2), 0.0, 1.0,
                       Rule(left_exponent=-0.4, right_exponent=0.7)),
    "left_endpoint": (lambda x: np.sqrt(x) * np.exp(-x) * np.sin(20.0 * x) ** 2,
                      0.0, 3.0,
                      Rule(nodes=16, panels=2, rel_tol=1e-12,
                                     left_exponent=0.5)),
    "right_endpoint": (lambda x: (2.0 - x) ** 1.3 / (1e-4 + (x - 1.7) ** 2),
                       0.0, 2.0,
                       Rule(right_exponent=1.3)),
    "peaked": (lambda x: np.exp(-1e4 * (x - 0.3) ** 2)
               + 1.0 / (1e-6 + (x - 0.71) ** 2), 0.0, 1.0, Rule()),
    "peaked_unconverged": (lambda x: np.exp(-1e5 * (x - 0.123) ** 2), 0.0, 1.0,
                           Rule(nodes=8, panels=2, max_depth=3)),
}


class TestBreadthFirstQuadrature:
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_depth_first_reference(self, case):
        f, a, b, rule = _REFERENCE_CASES[case]
        value, converged, refined, _ = _reference_integrate(f, a, b, rule)
        res = integrate_by(f, a, b, rule)
        assert res.converged == converged
        assert converged == (case != "peaked_unconverged")
        assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_each_panel_evaluated_once(self, case):
        # every top panel once, then both halves of every refined panel
        f, a, b, rule = _REFERENCE_CASES[case]
        _, _, refined, levels = _reference_integrate(f, a, b, rule)
        res = integrate_by(f, a, b, rule)
        assert res.evaluations == rule.nodes * (len(levels) * rule.panels
                                                + 2 * refined)

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_one_integrand_call_per_level(self, case):
        # one call for the top panels and one per refinement level, per
        # piece; a substituted piece also samples f once for its tail
        f, a, b, rule = _REFERENCE_CASES[case]
        _, _, _, levels = _reference_integrate(f, a, b, rule)
        counted, sizes = _counted(f)
        integrate_by(counted, a, b, rule)
        tails = sum(g is not None
                    for g in (rule.left_exponent, rule.right_exponent))
        assert len(sizes) == sum(1 + n for n in levels) + tails

    def test_batch_bounded_for_a_never_converging_integrand(self):
        rng = np.random.default_rng(7)
        rule = Rule(nodes=24, panels=4, max_depth=8)
        noise, sizes = _counted(lambda x: rng.standard_normal(np.shape(x)))
        res = integrate_by(noise, 0.0, 1.0, rule)
        assert not res.converged
        # every panel splits down to max_depth
        assert res.evaluations == 24 * (4 + 2 * 4 * (2 ** 9 - 1))
        assert max(sizes) <= specfun._MAX_ABSCISSAE
        assert len(sizes) > 1 + 9  # the deep levels took several calls
        assert sum(sizes) == res.evaluations

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0),
                                      (math.nan, 1.0), (0.0, math.nan)])
    def test_non_finite_limits_rejected(self, a, b):
        with pytest.raises(DomainError, match="must be finite"):
            integrate(lambda x: x, a, b)

    def test_non_finite_panel_stops_refining(self):
        # NaN on (0.3, 1]: the three panels that reach it stop after their
        # first halves instead of refining down to max_depth
        counted, sizes = _counted(lambda x: np.where(x > 0.3, np.nan, x))
        res = integrate_by(counted, 0.0, 1.0, Rule(max_depth=12))
        assert math.isnan(res.value)
        assert not res.converged
        assert len(sizes) == 2
        assert res.evaluations == 24 * (4 + 2 * 4)


def _stacked(*fs):
    return lambda x: np.stack([f(x) for f in fs])


# component families sharing an interval and a rule
_VECTOR_CASES = {
    "smooth": (_stacked(_REFERENCE_CASES["smooth"][0], lambda x: np.sin(20.0 * x) ** 2,
                        lambda x: 1.0 / (1e-3 + (x - 0.7) ** 2), lambda x: x ** 3),
               0.0, 2.0, Rule()),
    "both_endpoints": (_stacked(_REFERENCE_CASES["both_endpoints"][0],
                                lambda x: x ** -0.4 * (1.0 - x) ** 0.7,
                                lambda x: (x ** -0.4 * (1.0 - x) ** 0.7
                                           * np.cos(30.0 * x))),
                       0.0, 1.0, Rule(left_exponent=-0.4, right_exponent=0.7)),
    "left_endpoint": (_stacked(_REFERENCE_CASES["left_endpoint"][0], np.sqrt,
                               lambda x: np.sqrt(x) / (1e-2 + (x - 2.5) ** 2)),
                      0.0, 3.0, _REFERENCE_CASES["left_endpoint"][3]),
}


class TestVectorQuadrature:
    @pytest.mark.parametrize("case", sorted(_VECTOR_CASES))
    def test_each_component_within_its_scalar_error(self, case):
        f, a, b, rule = _VECTOR_CASES[case]
        counted, sizes = _counted(f)
        res = integrate_by(counted, a, b, rule)
        k = len(f(np.array([0.5])))
        assert res.value.shape == res.error.shape == (k,)
        assert res.converged is True
        # each abscissa once, plus one sample per substituted tail
        tails = sum(g is not None for g in (rule.left_exponent, rule.right_exponent))
        assert sum(sizes) == res.evaluations + tails
        for i in range(k):
            scalar = integrate_by(lambda x: f(x)[i], a, b, rule)
            assert scalar.converged
            assert abs(res.value[i] - scalar.value) <= (scalar.error
                                                        + 1e-15 * abs(scalar.value))
            # refined at least as far as the scalar integral
            assert res.evaluations >= scalar.evaluations

    def test_one_unconverged_component_fails_the_integral(self):
        peaked, a, b, rule = _REFERENCE_CASES["peaked_unconverged"]
        assert not integrate_by(peaked, a, b, rule).converged
        assert integrate_by(lambda x: 1.0 + x, a, b, rule).converged
        res = integrate_by(_stacked(lambda x: 1.0 + x, peaked), a, b, rule)
        assert res.converged is False
        assert res.value[0] == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_one_integrand_call_per_level(self, case):
        # power-of-two multiples refine exactly as the scalar integrand does
        f, a, b, rule = _REFERENCE_CASES[case]
        scalar, scalar_sizes = _counted(f)
        expected = integrate_by(scalar, a, b, rule)
        counted, sizes = _counted(_stacked(f, lambda x: 2.0 * f(x),
                                           lambda x: -0.5 * f(x)))
        res = integrate_by(counted, a, b, rule)
        assert sizes == scalar_sizes
        assert res.evaluations == expected.evaluations
        assert res.converged == expected.converged
        assert list(res.value) == [expected.value, 2.0 * expected.value,
                                   -0.5 * expected.value]

    def test_values_per_call_bounded_for_a_never_converging_integrand(self):
        rng = np.random.default_rng(7)
        rule = Rule(nodes=24, panels=4, max_depth=8)
        noise, sizes = _counted(lambda x: rng.standard_normal((45, np.size(x))))
        res = integrate_by(noise, 0.0, 1.0, rule)
        assert res.converged is False
        assert res.value.shape == (45,)
        assert res.evaluations == 24 * (4 + 2 * 4 * (2 ** 9 - 1))
        assert 45 * max(sizes) <= specfun._MAX_ABSCISSAE
        assert sum(sizes) == res.evaluations


class TestSignedLogSum:
    def test_mixed_signs(self):
        vals = [3.0, -1.5, 0.25]
        log_abs, sign = signed_log_sum([math.log(abs(v)) for v in vals],
                                       [math.copysign(1.0, v) for v in vals])
        assert sign * math.exp(log_abs) == pytest.approx(sum(vals), rel=1e-14)

    def test_total_cancellation(self):
        log_abs, sign = signed_log_sum([0.0, 0.0], [1.0, -1.0])
        assert log_abs == -math.inf
        assert sign == 0.0


class TestBatchedSignedLogSum:
    """A stack of rows sharing one sign vector gives, row by row, the same
    floats as the 1-D call on that row."""

    @staticmethod
    def _assert_rows_match(stack, signs):
        log_abs, sign = signed_log_sum(stack, signs)
        assert log_abs.shape == sign.shape == (len(stack),)
        for row, got_log, got_sign in zip(stack, log_abs, sign):
            one = signed_log_sum(row, signs)
            assert np.float64(got_log).tobytes() == np.float64(one[0]).tobytes()
            assert got_sign == one[1]

    def test_random_rows(self):
        rng = np.random.default_rng(2024)
        for length in [*rng.integers(1, 401, 25), 1, 8, 128, 129, 400]:
            signs = rng.choice([-1.0, 1.0], length)
            stack = rng.normal(0.0, rng.uniform(0.1, 50.0), (int(rng.integers(1, 12)), length))
            self._assert_rows_match(stack, signs)
            self._assert_rows_match(np.asfortranarray(stack), signs)  # strided rows

    def test_one_sided_rows(self):
        rng = np.random.default_rng(5)
        for length in (1, 3, 60, 400):
            stack = rng.normal(0.0, 10.0, (4, length))
            for value in (1.0, -1.0):
                signs = np.full(length, value)
                self._assert_rows_match(stack, signs)
                assert np.all(signed_log_sum(stack, signs)[1] == value)

    def test_exact_cancellation_within_a_stack(self):
        stack = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-2.5, -2.5]])
        log_abs, sign = signed_log_sum(stack, [1.0, -1.0])
        assert log_abs[0] == log_abs[3] == -math.inf
        assert sign[0] == sign[3] == 0.0
        assert log_abs[1] == log_abs[2] == 1.0 + math.log(-math.expm1(-1.0))  # log(e - 1)
        assert sign.tolist() == [0.0, 1.0, -1.0, 0.0]
        self._assert_rows_match(stack, [1.0, -1.0])


def test_series_control_validation():
    with pytest.raises(DomainError):
        hyper_pfq([1.0], [2.0], 0.5, rel_tol=0.0)
    with pytest.raises(DomainError):
        hyper_pfq([1.0], [2.0], 0.5, max_terms=0)


class TestHyperPfqCancellation:
    # mpmath: 0F1(;1;-900) = -0.0915, 0F1(;1.5;-400) = 0.0186; the terms
    # reach about 1e24 and 1e15 first, so double precision keeps no digit
    @pytest.mark.parametrize("b, x", [(1.0, -900.0), (1.5, -400.0)])
    def test_cancelled_sum_is_not_converged(self, b, x):
        res = hyper_pfq([], [b], x)
        assert not res.converged
        assert res.achieved_tol > 1e-15

    def test_positive_series_loses_nothing(self):
        res = hyper_pfq([2.0, 6.0], [1.0, 5.0, 5.0], 2.5)
        assert res.converged
        assert res.achieved_tol <= 2.3e-16

    def test_cancellation_is_measured_against_rel_tol(self):
        # 0F1(;1;-4) = J_0(4): terms up to 4.0 against a sum of -0.397, so
        # the rounding left is about eps * 10: enough for 1e-13, not 1e-15
        loose = hyper_pfq([], [1.0], -4.0, rel_tol=1e-13)
        assert loose.converged
        assert 2e-15 < loose.achieved_tol < 1e-13
        assert loose.value.real == pytest.approx(float(mp.besselj(0, 4.0)), rel=1e-14)
        assert not hyper_pfq([], [1.0], -4.0).converged


def _same(x, y):
    """Bitwise equality of two floats or complex numbers."""
    return complex(x) == complex(y)


class TestHyperPfqArrays:
    CASES = [
        ([2.0, 3.0], [4.0], [0.0, 0.1, -0.35, 0.5, 0.9], None),
        ([2.0, 6.0], [1.0, 5.0, 5.0], [0.4 + 0.3j, -1.2j, 0.0, 2.5, -3.0], None),
        ([-7.0, 2.4], [1.7], [0.6, -0.3, 0.0], None),                # terminating
        ([-2.5, 1.5], [-3.5], [0.3, -0.6, 0.05], None),              # negative parameters
        ([0.5, 1.5], [1.0], [0.1, 0.999, 0.5], {"max_terms": 40}),
    ]

    @pytest.mark.parametrize("a, b, xs, ctl", CASES)
    def test_each_point_is_its_scalar_call(self, a, b, xs, ctl):
        ctl = ctl or {}
        batch = hyper_pfq(a, b, np.array(xs), **ctl)
        singles = [hyper_pfq(a, b, x, **ctl) for x in xs]
        for i, one in enumerate(singles):
            assert _same(batch.value[i], one.value)
            assert _same(batch.log_abs[i], one.log_abs)
            assert _same(batch.phase[i], one.phase)
            assert _same(batch.achieved_tol[i], one.achieved_tol)
        assert batch.terms_used == sum(s.terms_used for s in singles)
        assert batch.converged == all(s.converged for s in singles)

    def test_one_unconverged_point_fails_the_batch(self):
        near = hyper_pfq([0.5, 1.5], [1.0], 0.1, max_terms=40)
        assert near.converged
        assert not hyper_pfq([0.5, 1.5], [1.0], 0.999, max_terms=40).converged
        batch = hyper_pfq([0.5, 1.5], [1.0], np.array([0.1, 0.999]), max_terms=40)
        assert not batch.converged
        assert batch.terms_used == near.terms_used + 41

    def test_fields_keep_the_shape_of_x(self):
        xs = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        res = hyper_pfq([1.0, 2.0], [3.0], xs)
        for field in (res.value, res.log_abs, res.phase, res.achieved_tol):
            assert field.shape == xs.shape
        assert isinstance(res.terms_used, int)
        assert res.converged is True
        assert res.value.real[1, 2] == hyper_pfq([1.0, 2.0], [3.0], 0.6).value.real

    def test_domain_checked_over_the_whole_batch(self):
        with pytest.raises(DomainError):
            hyper_pfq([0.5, 1.5], [1.0], np.array([0.2, 1.0]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(hs.floats(0.1, 8.0), hs.floats(0.1, 8.0), hs.floats(0.5, 12.0),
       hs.lists(hs.floats(0.0, 0.75, exclude_min=True), min_size=1, max_size=8))
def test_array_2f1_against_scipy(a, b, c, xs):
    from scipy.special import hyp2f1

    res = hyper_pfq([a, b], [c], np.array(xs))
    assert res.converged
    np.testing.assert_allclose(res.value.real, hyp2f1(a, b, c, np.array(xs)),
                               rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hs.floats(0.0, 15.0, exclude_min=True), hs.integers(0, 6), hs.floats(0.0, 0.9))
def test_2f1_matches_its_euler_polynomial(lam, k, u):
    # Euler's transformation (DLMF 15.8.1): 2F1(lam+k+1, k+1; 1; u) =
    # (1-u)^{-lam-2k-1} 2F1(-k, -lam-k; 1; u), a polynomial of degree k
    poly = term = 1.0
    for n in range(1, k + 1):
        term *= (k - n + 1) * (lam + k + 1 - n) * u / (n * n)
        poly += term
    res = hyper_pfq([lam + k + 1.0, k + 1.0], [1.0], u)
    assert res.converged
    expected = math.log(poly) - (lam + 2 * k + 1) * math.log1p(-u)
    assert abs(math.expm1(res.log_abs - expected)) <= 1e-12
