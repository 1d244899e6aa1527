import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from solvstate import DomainError, build_ladder
from solvstate.poschl_teller import (
    PTParams,
    _gauss_jacobi_rule,
    eigenfunction,
    eigenfunctions,
    gauss_jacobi_integral,
    lowered_eigenfunctions,
    norm_constant_log,
    partner_eigenfunction,
    potential,
    superpotential,
    u_matrix,
    u_matrix_element,
)
from solvstate.specfun import (integrate, jacobi_poly, jacobi_table,
                               log_gamma, signed_log_sum)

P_SYM = PTParams(2.0, 2.0, 1.0)
P_ASYM = PTParams(1.2, 3.4, 1.0)


def overlap_integral(p, f, extra=0.0):
    """f integrated over the well by the library's adaptive rule, with the
    envelope exponents 2 kappa + extra and 2 kappa' + extra declared."""
    return integrate(f, 0.0, p.box, 2.0 * p.kappa + extra,
                     2.0 * p.kappa_prime + extra)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PTParams(0.5, 2.0)
        with pytest.raises(DomainError):
            PTParams(2.0, 0.3)
        with pytest.raises(DomainError):
            PTParams(2.0, 2.0, a=0.0)

    @pytest.mark.parametrize("args", [(float("nan"), 2.0), (2.0, float("inf")),
                                      (2.0, 2.0, float("nan"))])
    def test_rejects_non_finite(self, args):
        with pytest.raises(DomainError, match="must be finite"):
            PTParams(*args)

    def test_energy_scaling_with_box(self):
        p = PTParams(2.0, 2.0, a=2.0)
        assert p.energy(1) == pytest.approx(5.0 / 4.0)
        assert p.lam == 4.0

    def test_spectrum_bridge(self):
        assert P_SYM.spectrum().energy(3) == 3.0 * 7.0


class TestPotential:
    def test_diverges_at_walls(self):
        assert potential(P_SYM, 1e-6) > 1e10
        assert potential(P_SYM, math.pi - 1e-6) > 1e10

    def test_symmetry_under_kappa_exchange(self):
        p_swap = PTParams(3.4, 1.2, 1.0)
        x = np.linspace(0.2, math.pi - 0.2, 41)
        assert np.allclose(potential(P_ASYM, x),
                           potential(p_swap, math.pi - x), rtol=1e-12)

    def test_midpoint_value(self):
        # sin^2 = cos^2 = 1/2 at x = pi a/2
        p = P_SYM
        expected = (p.kappa * (p.kappa - 1) + p.kappa_prime * (p.kappa_prime - 1)) \
            / (2.0 * p.a ** 2) - p.lam ** 2 / (4.0 * p.a ** 2)
        assert potential(p, math.pi / 2.0) == pytest.approx(expected, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential(P_SYM, 0.0)
        with pytest.raises(DomainError):
            potential(P_SYM, math.pi)


class TestSuperpotential:
    def test_symmetric_midpoint_zero(self):
        assert superpotential(P_SYM, math.pi / 2.0) == pytest.approx(0.0,
                                                                     abs=1e-14)

    def test_wall_divergence(self):
        assert superpotential(P_SYM, 1e-8) < -1e7

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_susy_factorization_with_fd_derivative(self, p):
        # W^2 - W' must reproduce the potential; W' here by central
        # differences, independent of any analytic derivative in the library
        x = np.linspace(0.15, math.pi - 0.15, 101)
        h = 1e-6
        w_prime = (superpotential(p, x + h) - superpotential(p, x - h)) / (2 * h)
        lhs = superpotential(p, x) ** 2 - w_prime
        assert np.max(np.abs(lhs - potential(p, x))) < 1e-7

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM, PTParams(1.7, 0.8, 1.6)])
    def test_shape_invariance(self, p):
        # H+ = A- A+ carries W^2 + W', the partner well shifted up by E_1;
        # W' here analytic, from differentiating the superpotential
        x = np.linspace(0.05 * p.box, 0.95 * p.box, 201)
        u = x / (2.0 * p.a)
        w_prime = (p.kappa / np.sin(u) ** 2 + p.kappa_prime / np.cos(u) ** 2) \
            / (4.0 * p.a ** 2)
        upper = superpotential(p, x) ** 2 + w_prime
        shifted = potential(p.partner(), x) + p.energy(1)
        assert np.max(np.abs(upper - shifted) / np.abs(upper)) < 1e-12

    def test_ground_state_is_annihilated(self):
        x = np.linspace(0.3, math.pi - 0.3, 31)
        assert np.max(np.abs(lowered_eigenfunctions(P_SYM, 0, x)[0])) < 1e-12


class TestEigenfunctions:
    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_boundary_zeros(self, p):
        for n in (0, 3):
            assert eigenfunction(p, n, 0.0) == 0.0
            assert abs(eigenfunction(p, n, p.box)) < 1e-12
            assert partner_eigenfunction(p, n, 0.0) == 0.0

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_orthonormality(self, p):
        for n in range(0, 9, 2):
            for m in range(n, 9, 3):
                val = overlap_integral(p, lambda x: eigenfunction(p, n, x)
                                       * eigenfunction(p, m, x))
                assert abs(val.value - (1.0 if n == m else 0.0)) < 1e-8

    def test_normalization_constant_as_printed(self):
        # direct check of the closed-form norm constants via quadrature of
        # the unnormalized envelope
        p = P_ASYM
        for n in (0, 2, 5):
            val = overlap_integral(p, lambda x: eigenfunction(p, n, x) ** 2)
            assert val.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_schrodinger_residual(self, p):
        xs = np.linspace(0.1 * p.box, 0.9 * p.box, 61)
        h = 2e-3 * p.a
        stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
        for n in (0, 2, 4):
            acc = np.zeros_like(xs)
            for j, c in enumerate(stencil):
                acc += c * eigenfunction(p, n, xs + (j - 3) * h)
            d2 = acc / (180.0 * h * h)
            resid = (-d2 + potential(p, xs) * eigenfunction(p, n, xs)
                     - p.energy(n) * eigenfunction(p, n, xs))
            assert np.max(np.abs(resid)) < 1e-6

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_partner_orthonormality(self, p):
        for n in range(0, 7, 2):
            for m in range(n, 7, 2):
                val = overlap_integral(p, lambda x: partner_eigenfunction(p, n, x)
                                       * partner_eigenfunction(p, m, x), extra=2.0)
                assert abs(val.value - (1.0 if n == m else 0.0)) < 1e-8

    def test_derivative_vs_finite_difference(self):
        p = P_ASYM
        x = np.linspace(0.2, math.pi - 0.2, 17)
        h = 1e-6
        # d/dx psi_n = A- psi_n - W psi_n
        deriv = lowered_eigenfunctions(p, 4, x) - superpotential(p, x) * eigenfunctions(p, 4, x)
        for n in (1, 4):
            fd = (eigenfunction(p, n, x + h) - eigenfunction(p, n, x - h)) / (2 * h)
            assert np.max(np.abs(deriv[n] - fd)) < 1e-7

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_susy_intertwining(self, p):
        # A- psi_{n+1}^- = sqrt(E_{n+1}) psi_n^+ up to a phase convention
        for n in range(5):
            val = overlap_integral(p, lambda x: partner_eigenfunction(p, n, x)
                                   * lowered_eigenfunctions(p, n + 1, x)[n + 1],
                                   extra=1.0)
            ratio = abs(val.value) / math.sqrt(p.energy(n + 1))
            assert ratio == pytest.approx(1.0, abs=1e-7)


class TestEigenfunctionTable:
    @pytest.mark.parametrize("p", [P_SYM, P_ASYM, P_SYM.partner(), P_ASYM.partner()])
    def test_rows_are_the_single_level_functions(self, p):
        x = np.concatenate([np.linspace(0.0, p.box, 57), [0.3, 2.9]])
        alpha, beta_ = p.kappa - 0.5, p.kappa_prime - 0.5
        table = eigenfunctions(p, 12, x)
        polys = jacobi_table(12, alpha, beta_, np.cos(x / p.a))
        assert table.shape == polys.shape == (13, x.size)
        for n in range(13):
            assert np.array_equal(eigenfunction(p, n, x), table[n])
            assert np.array_equal(eigenfunctions(p, n, x), table[:n + 1])
            assert np.array_equal(jacobi_poly(n, alpha, beta_, np.cos(x / p.a)),
                                  polys[n])
        assert eigenfunction(p, 5, 0.7) == eigenfunctions(p, 5, 0.7)[5]

    def test_single_level_holds_two_rows_of_the_recurrence(self):
        # the whole table at level 400 over 1e4 points is 32 MB; one level
        # holds a few rows of 80 kB whatever the level
        x = np.linspace(0.0, P_SYM.box, 10_000)
        tracemalloc.start()
        try:
            row = eigenfunction(P_SYM, 400, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert np.array_equal(row, eigenfunctions(P_SYM, 400, x)[400])

    @given(kappa=hs.floats(0.6, 5.0), kappa_prime=hs.floats(0.6, 5.0))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_gram_by_one_vector_integral(self, kappa, kappa_prime):
        p = PTParams(kappa, kappa_prime)
        n, m = np.triu_indices(9)

        def products(x):
            rows = eigenfunctions(p, 8, x)
            return rows[n] * rows[m]
        res = overlap_integral(p, products)
        assert res.converged
        assert np.max(np.abs(res.value - (n == m))) <= 1e-10

    def test_gram_of_the_2_2_well_under_the_library_rule(self):
        # the 36 off-diagonal entries cancel to about eps; the rounding floor
        # of `integrate` settles them instead of refining to its depth limit
        n, m = np.triu_indices(9)

        def products(x):
            rows = eigenfunctions(P_SYM, 8, x)
            return rows[n] * rows[m]
        res = overlap_integral(P_SYM, products)
        assert res.converged
        assert res.evaluations <= 2000
        assert np.max(np.abs(res.value - (n == m))) <= 1e-13

    @pytest.mark.parametrize("fn", [potential, superpotential,
                                    lambda p, x: eigenfunction(p, 0, x),
                                    lambda p, x: eigenfunctions(p, 3, x),
                                    lambda p, x: lowered_eigenfunctions(p, 1, x),
                                    lambda p, x: partner_eigenfunction(p, 1, x)])
    @pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], math.inf])
    def test_non_finite_positions_rejected(self, fn, x):
        with pytest.raises(DomainError):
            fn(P_SYM, x)


def _mp_gauss_jacobi(n, alpha, beta_, start):
    """Gauss-Jacobi nodes and weights to 40 digits, independent of the
    Jacobi-matrix route: one Newton step from `start` on P_n^(alpha, beta) by
    its textbook recurrence (doubling the digits of a double start), and the
    classical weights 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n!
    (1-y^2) P_n'(y)^2) (Abramowitz & Stegun 25.4.33)."""
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta_)
        coefs = []
        for m in range(2, n + 1):
            s = 2 * m + a + b
            c1 = 2 * m * (m + a + b) * (s - 2)
            coefs.append(((s - 1) * s * (s - 2) / c1, (s - 1) * (a * a - b * b) / c1,
                          2 * (m + a - 1) * (m + b - 1) * s / c1))

        def p_dp(y):  # P_n(y) and P_n'(y)
            p0, p1, d0, d1 = 1, (a + 1) + (a + b + 2) * (y - 1) / 2, 0, (a + b + 2) / 2
            for u, v, w in coefs:
                t = u * y + v
                p0, p1, d0, d1 = p1, t * p1 - w * p0, d1, u * p1 + t * d1 - w * d0
            return p1, d1

        scale = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        nodes, weights = [], []
        for y in start:
            y = mp.mpf(y)
            y -= mp.fdiv(*p_dp(y))
            dp = p_dp(y)[1]
            nodes.append(y)
            weights.append(scale / ((1 - y * y) * dp * dp))
        # n distinct roots of a degree-n polynomial are all of its roots
        assert all(lo < hi for lo, hi in zip(nodes, nodes[1:]))
        return (np.array([float(y) for y in nodes]),
                np.array([float(w) for w in weights]))


class TestGaussJacobiIntegral:
    """Eigenfunction products are Jacobi weights times polynomials in
    y = cos(x/a), so floor(degree/2) + 1 Gauss-Jacobi nodes are exact."""

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM, PTParams(0.7, 5.3, 2.3)])
    def test_gram_of_41_levels(self, p):
        n, m = np.triu_indices(41)

        def products(x):
            rows = eigenfunctions(p, 40, x)
            return rows[n] * rows[m]
        gram = gauss_jacobi_integral(p, products, p.kappa - 0.5,
                                     p.kappa_prime - 0.5, 41)
        assert np.max(np.abs(gram - (n == m))) <= 1e-13

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_u_products_match_adaptive_quadrature(self, p):
        n, m = (idx.ravel() for idx in np.indices((13, 13)))

        def products(x):
            return eigenfunctions(p, 12, x)[n] * eigenfunctions(p.partner(), 12, x)[m]
        exact = gauss_jacobi_integral(p, products, p.kappa, p.kappa_prime, 13)
        adaptive = overlap_integral(p, products, extra=1.0)
        assert adaptive.converged
        assert np.max(np.abs(exact - adaptive.value)) <= 1e-13

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_wrong_envelope_exponent_misses(self, p):
        # kappa + 1/4 in the envelope leaves sqrt(sin(x/2a)) in every product,
        # which no polynomial in y matches
        n, m = np.triu_indices(9)

        def products(x):
            rows = eigenfunctions(p, 8, x) * np.sin(x / (2.0 * p.a)) ** 0.25
            return rows[n] * rows[m]
        gram = gauss_jacobi_integral(p, products, p.kappa - 0.5,
                                     p.kappa_prime - 0.5, 9)
        assert np.max(np.abs(gram - (n == m))) > 1e-6

    # the (alpha, beta) of every rule the pt suite builds, and a mirrored pair
    @pytest.mark.parametrize("alpha, beta_", [(1.5, 1.5), (2.5, 2.5), (2.0, 2.0),
                                              (0.7, 2.9), (1.7, 3.9), (1.2, 3.4),
                                              (2.9, 0.7)])
    def test_rule_against_40_digit_reference(self, alpha, beta_):
        for n in range(1, 33):
            y, w = _gauss_jacobi_rule(n, alpha, beta_)
            ref_y, ref_w = _mp_gauss_jacobi(n, alpha, beta_, y.tolist())
            assert np.max(np.abs(y - ref_y)) <= 2e-15, n
            assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-13, n


class TestUMatrix:
    def test_u00_closed_value(self):
        # single-term double sum: a (c_0 c'_0)^{-1/2} B(kappa+1, kappa'+1)
        for p in (P_SYM, P_ASYM):
            expected = p.a * math.exp(
                -0.5 * (norm_constant_log(p, 0)
                        + norm_constant_log(p.partner(), 0))) \
                * math.exp(math.lgamma(p.kappa + 1.0) + math.lgamma(p.kappa_prime + 1.0)
                           - math.lgamma(p.kappa + p.kappa_prime + 2.0))
            entry = u_matrix_element(p, 0, 0)
            assert entry.value == pytest.approx(expected, rel=1e-12)
            assert entry.value > 0.0
            assert not entry.flagged

    @pytest.mark.parametrize("p", [P_SYM, P_ASYM])
    def test_against_quadrature(self, p):
        for n in range(7):
            for m in range(7):
                entry = u_matrix_element(p, n, m)
                quad = overlap_integral(p, lambda x: eigenfunction(p, n, x)
                                        * partner_eigenfunction(p, m, x), extra=1.0)
                if entry.flagged:
                    # flagged entries are total cancellations; the true
                    # value must indeed be numerically negligible
                    assert abs(quad.value) < 1e-10
                else:
                    assert entry.value == pytest.approx(quad.value, abs=1e-8)

    def test_parity_zeros_are_flagged_for_symmetric_well(self):
        # kappa = kappa' gives a parity selection rule: n+m odd vanishes
        entry = u_matrix_element(P_SYM, 0, 1)
        assert entry.flagged
        assert abs(entry.value) < 1e-10

    def test_column_norms_increase_toward_one(self):
        p = P_ASYM
        for m in range(4):
            col = [u_matrix_element(p, n, m).value for n in range(19)]
            defects = [abs(1.0 - sum(v * v for v in col[:c + 1]))
                       for c in (6, 10, 14, 18)]
            assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))
            assert defects[-1] < 1e-4

    def test_block_helper_shape(self):
        block = u_matrix(P_SYM, 2, 3)
        assert len(block) == 3 and len(block[0]) == 4
        assert block[1][2].n == 1 and block[1][2].m == 2

    @pytest.mark.parametrize("m", [0, 2])
    def test_truncated_expansion_rebuilds_partner_function(self, m):
        # sum_n U_nm psi_n^- converges to psi_m^+ in L2 as the cutoff grows
        p = P_ASYM
        x = np.linspace(1e-3, p.box - 1e-3, 801)
        target = partner_eigenfunction(p, m, x)
        weights = np.gradient(x)
        col = [u_matrix_element(p, n, m).value for n in range(19)]
        basis = np.array([eigenfunction(p, n, x) for n in range(19)])
        errors = []
        for cutoff in (6, 12, 18):
            rebuilt = np.tensordot(col[:cutoff + 1], basis[:cutoff + 1], 1)
            errors.append(float(np.sqrt(np.sum((rebuilt - target) ** 2
                                               * weights))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-2


class TestLadderAction:
    # the generic ladder of PTParams.spectrum() against the closed form on
    # the spectrum n(n+lam): a+ and a- are read off as matrix entries
    def test_lowering_annihilates_ground(self):
        lad = build_ladder(P_SYM.spectrum(), 0.0, 4)
        assert np.max(np.abs(lad.a_minus[:, 0])) == 0.0

    def test_magnitudes_match_energy_ladder(self):
        lam = 4.0
        lad = build_ladder(P_SYM.spectrum(), 0.0, 6)
        for n in (0, 1, 5):
            assert abs(lad.a_plus[n + 1, n]) == pytest.approx(
                math.sqrt((n + 1) * (n + lam + 1)), rel=1e-14)
            if n > 0:
                assert abs(lad.a_minus[n - 1, n]) == pytest.approx(
                    math.sqrt(n * (n + lam)), rel=1e-14)

    def test_phase_exponents(self):
        lam, n, alpha = 4.0, 3, 0.25
        lad = build_ladder(P_SYM.spectrum(), alpha, 5)
        up, down = lad.a_plus[n + 1, n], lad.a_minus[n - 1, n]
        # E_{n+1} - E_n = 2n + lam + 1; E_n - E_{n-1} = 2n + lam - 1
        assert up / abs(up) == pytest.approx(
            complex(np.exp(-1j * alpha * (2 * n + lam + 1))), abs=1e-14)
        assert down / abs(down) == pytest.approx(
            complex(np.exp(1j * alpha * (2 * n + lam - 1))), abs=1e-14)

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            build_ladder(P_SYM.spectrum(), 0.0, -1)


# ---------------------------------------------------------------------------
# The table-driven forms against the per-entry and per-level formulas they
# replace, byte for byte
# ---------------------------------------------------------------------------

WELLS = [PTParams(2.0, 2.0), PTParams(1.2, 3.4), PTParams(0.7, 5.3, a=2.3),
         PTParams(0.51, 0.6, a=0.4)]
WELL_IDS = ["sym", "asym", "wide_box", "near_half"]


def _reference_u_tables(p, ns, ms):
    """Per-entry log-Gamma lookups: a memo keyed by exact argument behind
    np.vectorize, called on each entry's own argument arrays."""
    memo = {}

    def lg(x):
        if x not in memo:
            memo[x] = log_gamma(x)
        return memo[x]

    def binoms(x, js):
        return np.array([lg(x + 1.0) - lg(j + 1.0) - lg(x - j + 1.0) for j in js])

    kap, kpp, partner = p.kappa, p.kappa_prime, p.partner()
    rows = {n: (binoms(n + kap - 0.5, range(n + 1)),
                binoms(n + kpp - 0.5, range(n, -1, -1)),
                norm_constant_log(p, n)) for n in ns}
    cols = {m: (binoms(m + kap + 0.5, range(m + 1)),
                binoms(m + kpp + 0.5, range(m, -1, -1)),
                norm_constant_log(partner, m)) for m in ms}
    return np.vectorize(lg, otypes=[float]), rows, cols


def _reference_u_entry(p, n, m, tables):
    """(value, condition, flagged) of one entry of the double sum."""
    lg, rows, cols = tables
    (r1, r2, norm_n), (c1, c2, norm_m) = rows[n], cols[m]
    kap, kpp = p.kappa, p.kappa_prime
    q, qq = np.arange(n + 1)[:, None], np.arange(m + 1)
    log_mags = ((r1 + r2)[:, None] + c1 + c2 + lg(n + m + kap + 1.0 - q - qq)
                + lg(kpp + q + qq + 1.0) - lg(n + m + kap + kpp + 2.0)).ravel()
    signs = np.where((n + m - q - qq) % 2 == 0, 1.0, -1.0).ravel()
    log_sum, sign = signed_log_sum(log_mags, signs)
    if log_sum == -math.inf:
        return 0.0, math.inf, True
    max_term = float(np.max(log_mags))
    return (sign * math.exp(math.log(p.a) - 0.5 * (norm_n + norm_m) + log_sum),
            math.exp(max_term - log_sum), math.exp(log_sum - max_term) < 1e-10)


def _reference_deriv(p, n, x):
    """d/dx psi_n at one level through jacobi_poly and the derivative identity
    dP_n/dy = ((n+alpha+beta+1)/2) P_{n-1}^(alpha+1, beta+1), the degree-(n-1)
    row of a jacobi_table."""
    x = np.asarray(x, dtype=float)
    u = x / (2.0 * p.a)
    y = np.cos(x / p.a)
    pref = math.exp(-0.5 * norm_constant_log(p, n))
    envelope = np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa
    pn = jacobi_poly(n, p.kappa - 0.5, p.kappa_prime - 0.5, y)
    alpha, beta_ = p.kappa - 0.5, p.kappa_prime - 0.5
    dpn = (0.5 * (n + alpha + beta_ + 1.0) * jacobi_table(n - 1, alpha + 1.0, beta_ + 1.0, y)[-1]
           if n else np.zeros_like(y))
    log_deriv = (p.kappa / np.tan(u) - p.kappa_prime * np.tan(u)) / (2.0 * p.a)
    val = pref * envelope * (log_deriv * pn - np.sin(x / p.a) / p.a * dpn)
    return val if np.ndim(val) else float(val)


def _reference_lowering(p, n, x):
    val = _reference_deriv(p, n, x) + superpotential(p, x) * eigenfunction(p, n, x)
    return val if np.ndim(val) else float(val)


def _same_bytes(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestAgainstPerEntryReference:
    @pytest.mark.parametrize("p", WELLS, ids=WELL_IDS)
    @pytest.mark.parametrize("n_max, m_max", [(24, 24), (18, 4), (6, 6), (0, 0),
                                              (3, 24)])
    def test_u_block_entries(self, p, n_max, m_max):
        ref = _reference_u_tables(p, range(n_max + 1), range(m_max + 1))
        block = u_matrix(p, n_max, m_max)
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                e = block[n][m]
                got = (e.value, e.condition, e.flagged)
                assert _same_bytes(got, _reference_u_entry(p, n, m, ref)), (n, m)

    @pytest.mark.parametrize("p", WELLS, ids=WELL_IDS)
    @pytest.mark.parametrize("n, m", [(0, 0), (5, 7), (13, 2), (24, 24)])
    def test_single_u_entry(self, p, n, m):
        e = u_matrix_element(p, n, m)
        ref = _reference_u_entry(p, n, m, _reference_u_tables(p, [n], [m]))
        assert _same_bytes((e.value, e.condition, e.flagged), ref)

    @pytest.mark.parametrize("p", WELLS, ids=WELL_IDS)
    @pytest.mark.parametrize("where", ["array", "scalar", "one_point", "grid"])
    def test_lowering_and_derivative_rows(self, p, where):
        x = {"array": np.linspace(0.01 * p.box, 0.99 * p.box, 37),
             "scalar": 0.3 * p.box,
             "one_point": np.array([0.5 * p.box]),
             "grid": np.linspace(0.1, 0.9, 12).reshape(3, 4) * p.box}[where]
        n_max = 12
        rows = lowered_eigenfunctions(p, n_max, x)
        assert rows.shape == (n_max + 1,) + np.shape(x)
        for n in range(n_max + 1):
            lowered = _reference_lowering(p, n, x)
            assert np.asarray(rows[n]).tobytes() == np.asarray(lowered).tobytes(), n
            assert _same_bytes(lowered_eigenfunctions(p, n, x)[n], rows[n]), n

    def test_negative_level_rejected(self):
        for fn in (lowered_eigenfunctions, eigenfunctions):
            with pytest.raises(DomainError, match="nonnegative"):
                fn(P_SYM, -1, 1.0)
