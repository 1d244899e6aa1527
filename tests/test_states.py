import cmath
import functools
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import gammaln

import solvstate
from solvstate import (
    ConvergenceError,
    CustomSpectrum,
    DomainError,
    GKLabel,
    HarmonicSpectrum,
    KPLabel,
    PoschlTellerSpectrum,
    build_ladder,
    displace_ground,
    evolve,
    gk_norm_constant,
    gk_norm_constant_pt_closed,
    gk_overlap,
    gk_state,
    hyper_pfq,
    kp_norm_constant_pt,
    kp_overlap_pt,
    kp_state_general,
    kp_state_pt,
    photon_statistics,
)
from solvstate import states
from solvstate.fockspace import apply
from solvstate.specfun import block_end, signed_log_sum
from solvstate.states import (
    _ROWS_KEPT,
    _TABLE_LEN,
    _energy_row,
    _gk_family,
    _held_norm,
    _held_profile,
    _kp_family,
    _log_gamma_row,
    _row,
    _rows,
)
from solvstate.verify import coeff_distance, eigen_residual

LAM = 4.0
SPEC = PoschlTellerSpectrum(2.0, 2.0)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class TestLabels:
    def test_gk_label_validation(self):
        with pytest.raises(DomainError):
            GKLabel(0.5, 0.0, -1)

    def test_kp_label_needs_one_chart(self):
        with pytest.raises(DomainError):
            KPLabel(alpha=0.0, k=0)
        with pytest.raises(DomainError):
            KPLabel(xi=0.3, Z=0.3)

    def test_kp_chart_conversion(self):
        Z = 0.4 * np.exp(0.7j)
        xi = KPLabel(Z=Z).as_xi
        assert abs(xi) == pytest.approx(math.tanh(0.4), rel=1e-14)
        assert np.angle(xi) == pytest.approx(0.7, rel=1e-12)
        assert KPLabel(Z=0.0).as_xi == 0.0

    @pytest.mark.parametrize("z, alpha", [
        (float("nan"), 0.0),
        (complex(0.5, float("inf")), 0.0),
        (0.5, float("nan")),
        (0.5, float("inf")),
    ])
    def test_gk_label_rejects_non_finite(self, z, alpha):
        with pytest.raises(DomainError):
            GKLabel(z, alpha, 0)

    @pytest.mark.parametrize("kwargs", [
        {"xi": float("nan")},
        {"xi": complex(0.3, float("-inf"))},
        {"Z": float("inf")},
        {"Z": complex(1.0, float("nan"))},
        {"xi": 0.3, "alpha": float("nan")},
        {"Z": 0.3, "alpha": float("inf")},
    ])
    def test_kp_label_rejects_non_finite(self, kwargs):
        with pytest.raises(DomainError):
            KPLabel(**kwargs)


# ---------------------------------------------------------------------------
# Gazeau-Klauder states
# ---------------------------------------------------------------------------

class TestGKState:
    def test_zero_label_is_basis_state(self):
        state = gk_state(SPEC, GKLabel(0.0, 0.4, 3))
        assert state.offset == 3
        assert state.size == 1
        assert state.coefficients[0] == pytest.approx(1.0)

    def test_eigenvalue_property(self):
        for z in (0.2, 0.7 + 0.2j, 1.5):
            for alpha in (0.0, 0.3):
                res = eigen_residual(SPEC, GKLabel(z, alpha, 0))
                assert res <= 1e-9

    def test_photon_added_is_not_eigenstate(self):
        assert eigen_residual(SPEC, GKLabel(0.7, 0.0, 1)) > 0.01

    def test_pt_coefficients_closed_form(self):
        # z^n/n! sqrt((n+k)! (lam+k+1)_n) / (lam+1)_n with the energy phases,
        # equal to the constructed coefficients up to one global constant
        z, alpha, k = 0.6 + 0.3j, 0.2, 2
        state = gk_state(SPEC, GKLabel(z, alpha, k))
        n = np.arange(state.size)
        log_mag = (n * math.log(abs(z)) - gammaln(n + 1.0)
                   + 0.5 * (gammaln(n + k + 1.0)
                            + gammaln(LAM + k + 1.0 + n) - gammaln(LAM + k + 1.0))
                   - (gammaln(LAM + 1.0 + n) - gammaln(LAM + 1.0)))
        energies = np.array([SPEC.energy(int(m) + k) for m in n])
        closed = np.exp(log_mag - log_mag.max()) * np.exp(
            1j * (n * np.angle(z) - alpha * energies))
        closed = closed / np.linalg.norm(closed)
        assert np.max(np.abs(state.coefficients - closed)) < 1e-12

    def test_k0_reduction(self):
        z, alpha = 0.7 + 0.2j, 0.3
        state = gk_state(SPEC, GKLabel(z, alpha, 0))
        n = np.arange(state.size)
        logs = np.array([m * math.log(abs(z)) - 0.5 * SPEC.log_e0(int(m))
                         for m in n])
        closed = np.exp(logs - logs.max()) * np.exp(
            1j * (n * np.angle(z)
                  - alpha * np.array([SPEC.energy(int(m)) for m in n])))
        closed = closed / np.linalg.norm(closed)
        assert np.max(np.abs(state.coefficients - closed)) < 1e-12

    def test_photon_addition_matches_ladder_application(self):
        # applying (a+)^k to the k=0 state must rebuild the k-added state
        z, alpha, k = 0.5 + 0.4j, 0.25, 2
        base = gk_state(SPEC, GKLabel(z, alpha, 0), tail_eps=1e-26)
        dim = base.size + k + 2
        lad = build_ladder(SPEC, alpha, dim - 1)
        raised = apply(lad.a_plus @ lad.a_plus, base).normalized()
        added = gk_state(SPEC, GKLabel(z, alpha, k), tail_eps=1e-26)
        assert coeff_distance(raised, added) < 1e-10

    def test_tail_bound_shrinks_with_budget(self):
        loose = gk_state(SPEC, GKLabel(1.2, 0.0, 1), tail_eps=1e-6)
        tight = gk_state(SPEC, GKLabel(1.2, 0.0, 1), tail_eps=1e-14)
        assert tight.size > loose.size
        assert tight.tail_bound < loose.tail_bound <= 1e-6

    def test_radius_validation_on_bounded_spectrum(self):
        bounded = CustomSpectrum(rule=lambda n: 1.0 - 2.0 ** (-n))
        state = gk_state(bounded, GKLabel(0.5, 0.0, 0))
        assert state.norm() == pytest.approx(1.0)
        with pytest.raises(DomainError):
            gk_state(bounded, GKLabel(1.01, 0.0, 0))


class TestGKNormConstant:
    def test_zero_argument_counts_only_first_term(self):
        for k in (0, 2, 4):
            assert gk_norm_constant(SPEC, 0.0, k) == pytest.approx(
                SPEC.log_e0(k), abs=1e-13)

    def test_k0_is_0f1(self):
        for u in (0.1, 1.0, 4.0):
            series = gk_norm_constant(SPEC, u, 0)
            f = hyper_pfq([], [LAM + 1.0], u)
            assert series == pytest.approx(f.log_abs, abs=1e-13)

    def test_matches_pochhammer_adjusted_closed_form(self):
        for k in (0, 1, 3):
            for u in (0.5, 2.0):
                series = gk_norm_constant(SPEC, u, k)
                closed = gk_norm_constant_pt_closed(LAM, u, k)
                assert abs(math.expm1(series - closed)) < 1e-10

    def test_compact_convention_differs_by_constant(self):
        # the closed form carries (lam+1)_k on top of the bare
        # Gamma(k+1) 2F3 form of the compact kernel
        from solvstate.specfun import hyper_pfq, log_pochhammer
        for k in (1, 3):
            full = gk_norm_constant_pt_closed(LAM, 0.7, k)
            f = hyper_pfq([k + 1.0, LAM + k + 1.0], [1.0, LAM + 1.0, LAM + 1.0], 0.7)
            bare = math.lgamma(k + 1.0) + f.log_abs
            assert full - log_pochhammer(LAM + 1.0, k) == pytest.approx(bare, rel=1e-13)

    def test_harmonic_against_brute_force(self):
        spec = HarmonicSpectrum()
        for k in (0, 2):
            for u in (0.3, 1.7):
                # direct finite sum: E_k(n) = (n!)^2/(n+k)! for E_n = n
                total = sum(
                    u ** n * math.exp(gammaln(n + k + 1.0) - 2.0 * gammaln(n + 1.0))
                    for n in range(220))
                assert gk_norm_constant(spec, u, k) == pytest.approx(
                    math.log(total), rel=1e-12)

    @pytest.mark.parametrize("spec", [SPEC, HarmonicSpectrum()], ids=["pt", "harmonic"])
    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_non_finite_argument_rejected(self, spec, u):
        with pytest.raises(DomainError, match="finite"):
            gk_norm_constant(spec, u, 0)

    @pytest.mark.parametrize("k, message", [(-1, "nonnegative"), (1.5, "integer")])
    def test_bad_photon_number_rejected(self, k, message):
        with pytest.raises(DomainError, match=f"photon number k must be .*{message}"):
            gk_norm_constant(SPEC, 0.5, k)

    @pytest.mark.parametrize("lam, u, k, message", [
        (0.0, 0.5, 1, "lam must be positive and finite"),
        (-0.5, 0.5, 1, "lam must be positive and finite"),
        (math.inf, 0.5, 1, "lam must be positive and finite"),
        (math.nan, 0.5, 1, "lam must be positive and finite"),
        (LAM, 0.5, 1.5, "photon number k must be an integer"),
        (LAM, 0.5, -1, "photon number k must be nonnegative"),
        (LAM, -1.0, 1, r"\|z\|\^2 must be finite and nonnegative"),
        (LAM, math.nan, 1, r"\|z\|\^2 must be finite and nonnegative"),
        (LAM, math.inf, 1, r"\|z\|\^2 must be finite and nonnegative"),
    ])
    def test_closed_form_rejects_bad_input(self, lam, u, k, message):
        # each of these returned a number (1.2867, 1.5922, 3.0737, 1.0735) or
        # raised ConvergenceError (nan) before the closed form checked them
        with pytest.raises(DomainError, match=message):
            gk_norm_constant_pt_closed(lam, u, k)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(states, "_SERIES_MAX_TERMS", 4)
        with pytest.raises(ConvergenceError) as err:
            gk_norm_constant(SPEC, 3.0, 0)
        assert err.value.partial is not None

    def test_nonconvergence_carries_partial_log_sum(self, monkeypatch):
        monkeypatch.setattr(states, "_SERIES_MAX_TERMS", 4)
        with pytest.raises(ConvergenceError) as err:
            gk_norm_constant(SPEC, 3.0, 1)
        expected = math.log(sum(3.0 ** n / math.exp(SPEC.log_ek(1, n)) for n in range(4)))
        assert err.value.partial == pytest.approx(expected, rel=1e-13)


class TestGKOverlap:
    def test_normalization(self):
        label = GKLabel(0.8 + 0.1j, 0.4, 2)
        assert gk_overlap(SPEC, label, label) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_symmetry(self):
        l1, l2 = GKLabel(0.6, 0.1, 1), GKLabel(0.3 + 0.5j, 0.7, 1)
        assert gk_overlap(SPEC, l1, l2) == pytest.approx(
            np.conj(gk_overlap(SPEC, l2, l1)), abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            z1, z2 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            a1, a2 = rng.uniform(0, 1, 2)
            val = gk_overlap(SPEC, GKLabel(z1, a1, 1), GKLabel(z2, a2, 1))
            assert abs(val) <= 1.0 + 1e-12

    def test_matches_state_inner_product(self):
        l1, l2 = GKLabel(0.6, 0.2, 1), GKLabel(0.4 + 0.3j, 0.5, 1)
        s1 = gk_state(SPEC, l1, tail_eps=1e-26)
        s2 = gk_state(SPEC, l2, tail_eps=1e-26)
        assert gk_overlap(SPEC, l1, l2) == pytest.approx(s1.inner(s2), abs=1e-12)

    def test_equal_alpha_compact_form(self):
        from solvstate.specfun import log_pochhammer, log_gamma
        k, z1, z2 = 1, 0.5, 0.8
        o = gk_overlap(SPEC, GKLabel(z1, 0.3, k), GKLabel(z2, 0.3, k))
        f = hyper_pfq([k + 1.0, LAM + k + 1.0], [1.0, LAM + 1.0, LAM + 1.0],
                      z1 * z2)
        compact = math.exp(
            f.log_abs + log_gamma(k + 1.0) + log_pochhammer(LAM + 1.0, k)
            - 0.5 * (gk_norm_constant(SPEC, z1 ** 2, k)
                     + gk_norm_constant(SPEC, z2 ** 2, k)))
        assert abs(o - compact) < 1e-10 * abs(compact)

    def test_requires_shared_k(self):
        with pytest.raises(DomainError):
            gk_overlap(SPEC, GKLabel(0.5, 0.0, 0), GKLabel(0.5, 0.0, 1))

    @pytest.mark.parametrize("z1, z2, k", [(0.5, 0.8, 1), (0.3 + 0.4j, 1.1 - 0.2j, 2),
                                           (-0.6j, 0.9, 0)])
    def test_compact_kernel_function(self, z1, z2, k):
        from solvstate.states import gk_overlap_compact
        l1, l2 = GKLabel(z1, 0.3, k), GKLabel(z2, 0.3, k)
        o = gk_overlap(SPEC, l1, l2)
        assert abs(gk_overlap_compact(SPEC, l1, l2) - o) < 1e-10 * abs(o)
        with pytest.raises(DomainError):
            gk_overlap_compact(SPEC, l1, GKLabel(z2, 0.4, k))

    @pytest.mark.parametrize("z", [5.0, 8.0])
    def test_compact_kernel_flags_an_unconverged_2f3(self, z):
        # conj(z1) z2 = -z^2: the 2F3 terms cancel past its tolerance (6.3e-13
        # and 7.2e-10 from the series overlap), which must not pass as a value
        from solvstate.states import gk_overlap_compact
        l1, l2 = GKLabel(z, 0.0, 1), GKLabel(-z, 0.0, 1)
        with pytest.raises(ConvergenceError, match="2F3"):
            gk_overlap_compact(SPEC, l1, l2)


# ---------------------------------------------------------------------------
# Klauder-Perelomov states (Poschl-Teller closed form)
# ---------------------------------------------------------------------------

class TestKPStatePT:
    def test_zero_label_is_basis_state(self):
        state = kp_state_pt(LAM, KPLabel(xi=0.0, alpha=0.1, k=2))
        assert state.offset == 2
        assert state.size == 1

    def test_k0_closed_coefficients_with_prefactor(self):
        # (1-|xi|^2)^((lam+1)/2) xi^n sqrt((lam+1)_n / n!) are already
        # normalized; the constructed state must match them exactly
        xi = 0.4 * np.exp(0.3j)
        state = kp_state_pt(LAM, KPLabel(xi=xi, alpha=0.0, k=0), tail_eps=1e-26)
        n = np.arange(state.size)
        closed = (1.0 - abs(xi) ** 2) ** ((LAM + 1.0) / 2.0) * xi ** n * np.exp(
            0.5 * (gammaln(n + LAM + 1.0) - gammaln(n + 1.0) - gammaln(LAM + 1.0)))
        assert np.max(np.abs(state.coefficients - closed)) < 1e-12

    def test_matches_displacement_oracle(self):
        for Zmag in (0.2, 0.4, 0.8):
            Z = Zmag * np.exp(0.5j)
            oracle = displace_ground(SPEC, Z)
            closed = kp_state_pt(LAM, KPLabel(Z=Z, alpha=0.0, k=0),
                                 tail_eps=1e-24)
            assert coeff_distance(oracle, closed) < 1e-8

    def test_photon_addition_matches_ladder_application(self):
        xi, alpha, k = 0.45 * np.exp(0.2j), 0.3, 2
        base = kp_state_pt(LAM, KPLabel(xi=xi, alpha=alpha, k=0), tail_eps=1e-26)
        dim = base.size + k + 2
        lad = build_ladder(SPEC, alpha, dim - 1)
        raised = apply(lad.a_plus @ lad.a_plus, base).normalized()
        added = kp_state_pt(LAM, KPLabel(xi=xi, alpha=alpha, k=k),
                            tail_eps=1e-26)
        assert coeff_distance(raised, added) < 1e-10

    def test_unit_disk_boundary_rejected(self):
        with pytest.raises(DomainError):
            kp_state_pt(LAM, KPLabel(xi=1.0, alpha=0.0, k=0))

    @pytest.mark.parametrize("label", [KPLabel(xi=0.975, k=0), KPLabel(xi=0.975, k=2),
                                       KPLabel(Z=2.5, k=0)], ids=["xi_k0", "xi_k2", "Z"])
    def test_disk_edge_stops_below_the_cap(self, label):
        # the term ratios tend to |xi|^2 from above, so a bound trusted only
        # below a fixed ratio never fired here and the state ran to the cap
        state = kp_state_pt(LAM, label)
        assert state.size < 2048
        assert state.tail_bound <= 1e-12

    def test_cap_reports_the_tail_it_leaves(self):
        label = KPLabel(xi=0.99, k=2)
        capped = kp_state_pt(LAM, label)
        assert capped.size == 2048
        assert 1e-12 < capped.tail_bound < 1e-9
        full = kp_state_pt(LAM, label, cap=16384)
        assert 2048 < full.size < 16384
        assert full.tail_bound <= 1e-12

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(DomainError, match="cap"):
            kp_state_pt(LAM, KPLabel(xi=0.3), cap=cap)
        with pytest.raises(DomainError, match="cap"):
            gk_state(SPEC, GKLabel(0.5), cap=cap)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -0.5, -1.0])
    def test_bad_lambda_rejected(self, lam):
        label = KPLabel(xi=0.3, alpha=0.0, k=1)
        with pytest.raises(DomainError):
            kp_state_pt(lam, label)
        for method in ("series", "closed"):
            with pytest.raises(DomainError, match="lam must be positive and finite"):
                kp_norm_constant_pt(lam, 0.09, 1, method=method)
        with pytest.raises(DomainError):
            kp_overlap_pt(lam, label, label)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-12])
    def test_bad_tail_budget_rejected(self, eps):
        with pytest.raises(DomainError, match="tail_eps"):
            kp_state_pt(LAM, KPLabel(xi=0.3, alpha=0.0, k=1), tail_eps=eps)
        with pytest.raises(DomainError, match="tail_eps"):
            gk_state(SPEC, GKLabel(0.5, 0.0, 1), tail_eps=eps)

    def test_two_lambda_errata_mode_differs(self):
        label = KPLabel(xi=0.4, alpha=0.0, k=1)
        standard = kp_state_pt(LAM, label)
        literal = kp_state_pt(LAM, label, exponent="two_lambda")
        assert coeff_distance(standard, literal) > 1e-3


def _kp_norm_reference(lam, u, k):
    """log N_k from the paper's 2F1 form, at 40 digits."""
    with mp.workdps(40):
        lam, u = mp.mpf(lam), mp.mpf(u)
        n = ((1 - u) ** (lam + 1) * mp.gamma(k + 1) * mp.gamma(lam + k + 1)
             / mp.gamma(lam + 1) * mp.hyp2f1(lam + k + 1, k + 1, 1, u))
        return float(mp.log(n))


KP_NORM_LAMS = (0.3, 1.0, 2.5, 4.0, 7.0, 13.7)
KP_NORM_US = (0.0, 1e-8, 0.01, 0.1, 0.3, 0.49, 0.6, 0.9, 0.99)


class TestKPNormConstant:
    def test_k0_is_exactly_one(self):
        for u in (0.1, 0.5, 0.9):
            assert kp_norm_constant_pt(LAM, u, 0, method="closed") == 0.0
            log_n = kp_norm_constant_pt(LAM, u, 0, method="series")
            assert abs(math.expm1(log_n)) < 1e-12

    @pytest.mark.parametrize("lam", KP_NORM_LAMS)
    def test_closed_against_40_digit_reference(self, lam):
        worst = max(abs(kp_norm_constant_pt(lam, u, k) - _kp_norm_reference(lam, u, k))
                    for k in range(6) for u in KP_NORM_US)
        assert worst <= 1e-13

    def test_closed_at_the_disk_edge(self):
        # a polynomial has no truncation, so the disk edge needs no more work
        assert kp_norm_constant_pt(13.7, 0.99, 0, method="closed") == 0.0
        for lam in (0.3, 13.7):
            for k in range(1, 6):
                got = kp_norm_constant_pt(lam, 0.99, k, method="closed")
                assert math.isfinite(got)
                assert abs(got - _kp_norm_reference(lam, 0.99, k)) <= 1e-13

    @pytest.mark.parametrize("k", [600, 1000])
    def test_closed_at_large_k_stays_finite(self, k):
        # P_k grows like 4^k; the rescaled sum keeps it from overflowing
        got = kp_norm_constant_pt(2.5, 0.9, k, method="closed")
        ref = _kp_norm_reference(2.5, 0.9, k)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_zero_argument_value(self):
        # Gamma(k+1) Gamma(lam+1+k) / Gamma(lam+1) at xi = 0
        for k in (1, 3):
            expected = (gammaln(k + 1.0) + gammaln(LAM + 1.0 + k)
                        - gammaln(LAM + 1.0))
            assert kp_norm_constant_pt(LAM, 0.0, k) == pytest.approx(
                expected, rel=1e-13)

    def test_closed_matches_series(self):
        for k in (0, 2):
            for u in (0.1, 0.3, 0.6):
                closed = kp_norm_constant_pt(LAM, u, k, method="closed")
                series = kp_norm_constant_pt(LAM, u, k, method="series")
                assert abs(math.expm1(closed - series)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            kp_norm_constant_pt(LAM, 1.0, 0)
        with pytest.raises(DomainError):
            kp_norm_constant_pt(LAM, 0.5, 0, method="nope")
        for k in (-1, 1.5):
            for method in ("closed", "series"):
                with pytest.raises(DomainError, match="photon number"):
                    kp_norm_constant_pt(LAM, 0.5, k, method=method)

    def test_nonconvergence_near_disk_edge(self, monkeypatch):
        monkeypatch.setattr(states, "_SERIES_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            kp_norm_constant_pt(LAM, 0.999, 2, method="series")

    def test_nonconvergence_carries_partial_log_sum(self, monkeypatch):
        # the partial is the prefactor plus the log of the first max_terms terms
        u, k = 0.999, 2
        monkeypatch.setattr(states, "_SERIES_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError) as err:
            kp_norm_constant_pt(LAM, u, k, method="series")
        n = np.arange(10)
        terms = n * math.log(u) + (gammaln(n + k + 1) + gammaln(n + k + LAM + 1)
                                   - 2 * gammaln(n + 1) - gammaln(LAM + 1))
        expected = (LAM + 1) * math.log1p(-u) + math.log(np.sum(np.exp(terms)))
        assert err.value.partial == pytest.approx(expected, rel=1e-13)


class TestKPOverlap:
    def test_normalization(self):
        label = KPLabel(xi=0.5j, alpha=0.2, k=1)
        assert kp_overlap_pt(LAM, label, label) == pytest.approx(1.0, abs=1e-12)

    def test_matches_coefficient_dot_product(self):
        l1 = KPLabel(xi=0.3, alpha=0.2, k=1)
        l2 = KPLabel(xi=0.5j, alpha=0.2, k=1)
        s1 = kp_state_pt(LAM, l1, tail_eps=1e-26)
        s2 = kp_state_pt(LAM, l2, tail_eps=1e-26)
        assert kp_overlap_pt(LAM, l1, l2) == pytest.approx(s1.inner(s2),
                                                           abs=1e-10)

    def test_alpha_phases_match_dot_product(self):
        l1 = KPLabel(xi=0.3, alpha=0.1, k=1)
        l2 = KPLabel(xi=0.4 + 0.2j, alpha=0.6, k=1)
        s1 = kp_state_pt(LAM, l1, tail_eps=1e-26)
        s2 = kp_state_pt(LAM, l2, tail_eps=1e-26)
        assert kp_overlap_pt(LAM, l1, l2) == pytest.approx(s1.inner(s2),
                                                           abs=1e-10)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            x1, x2 = 0.8 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / 2
            val = kp_overlap_pt(LAM, KPLabel(xi=x1, alpha=0.0, k=1),
                                KPLabel(xi=x2, alpha=0.9, k=1))
            assert abs(val) <= 1.0 + 1e-12

    def test_requires_shared_k(self):
        with pytest.raises(DomainError):
            kp_overlap_pt(LAM, KPLabel(xi=0.5, k=0), KPLabel(xi=0.5, k=1))


# ---------------------------------------------------------------------------
# Shared KP weight tables: call history never changes a result
# ---------------------------------------------------------------------------

def _direct_kp_terms(lam, k, lam_w, lo, hi):
    """(log w(n), E_{n+k}) for n = lo..hi-1 from math.lgamma one value at a
    time, in the order the tables are combined."""
    log_fact = [math.lgamma(m + 1.0) for m in range(lo, hi + k)]
    log_w = [log_fact[i + k] + math.lgamma(n + k + lam_w + 1.0) - 2.0 * log_fact[i]
             - math.lgamma(lam_w + 1.0) for i, n in enumerate(range(lo, hi))]
    return np.array(log_w), np.array([(n + k) * (n + k + lam) for n in range(lo, hi)])


# builds whose coefficient bytes, tail bounds, kernels and norms are hashed;
# every child but the cold one warms the memos first: it builds each hashed
# modulus at another phase and alpha, and sums a series norm before and after
# the kernel that holds it, so those results are memo hits there
_HISTORY_CHILD = """
import hashlib, sys
from solvstate import (CustomSpectrum, GKLabel, HarmonicSpectrum, KPLabel, gk_norm_constant,
                       gk_overlap, gk_state, kp_norm_constant_pt, kp_overlap_pt, kp_state_pt)
warm = sys.argv[1]
if warm == "cap":
    kp_state_pt(2.5, KPLabel(xi=0.999, k=3), tail_eps=0.0, cap=4096)
elif warm == "other_lambda":
    kp_state_pt(7.0, KPLabel(xi=0.95, k=1))
elif warm == "two_lambda":
    kp_state_pt(2.5, KPLabel(xi=0.95, k=2), exponent="two_lambda")
memo = warm != "cold"
harm = HarmonicSpectrum()
table = CustomSpectrum(energies=[0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66])
h = hashlib.sha256()

def state(build, x):
    if memo:
        build(x * 1j, 1.1)  # the same modulus: the build below reuses its profile
    s = build(x, 0.3)
    h.update(s.coefficients.tobytes() + repr(s.tail_bound).encode())

for k in range(4):
    for xi in (0.3, 0.6 + 0.2j, 0.95):
        for exponent in ("lambda", "two_lambda"):
            state(lambda x, a: kp_state_pt(2.5, KPLabel(xi=x, alpha=a, k=k),
                                           exponent=exponent), xi)
    for z in (0.5, 0.9 - 0.3j):
        state(lambda x, a: gk_state(harm, GKLabel(x, a, k)), z)
    state(lambda x, a: gk_state(table, GKLabel(x, a, k)), 0.5 + 0.1j)
    if memo:  # norms before the kernels that hold them
        kp_norm_constant_pt(2.5, abs(0.95j) ** 2, k, method="series")
        gk_norm_constant(harm, abs(0.9 - 0.3j) ** 2, k)
    kernels = (kp_overlap_pt(2.5, KPLabel(xi=0.3, alpha=0.1, k=k),
                             KPLabel(xi=0.95j, alpha=0.7, k=k)),
               gk_overlap(harm, GKLabel(0.5, 0.1, k), GKLabel(0.9 - 0.3j, 0.7, k)))
    if memo:  # kernels that hold the norms summed after them
        kp_overlap_pt(2.5, KPLabel(xi=0.6 + 0.2j, k=k), KPLabel(xi=0.4, k=k))
        gk_overlap(table, GKLabel(0.5 + 0.1j, 0.2, k), GKLabel(0.3, 0.0, k))
    norms = (kp_norm_constant_pt(2.5, abs(0.6 + 0.2j) ** 2, k, method="series"),
             gk_norm_constant(table, abs(0.5 + 0.1j) ** 2, k))
    h.update(repr(kernels + norms).encode())
print(h.hexdigest())
"""


class TestKPTables:
    @pytest.mark.parametrize("exponent", ["lambda", "two_lambda"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_terms_equal_direct_lgamma_at_every_block(self, exponent, k):
        # blocks 0/32/64/.../2048/4096 cross the retention limit, so both the
        # kept and the recomputed entries are compared bit for bit; at
        # lam = 1/3 a changed evaluation order rounds differently
        lam = 1.0 / 3.0
        lam_w = lam if exponent == "lambda" else 2.0 * lam
        fam = _kp_family(lam, k, lam_w)
        lo = 0
        while lo < 4096:
            hi = block_end(lo, 4096)
            log_w, energies = fam.terms(lo, hi)
            want_w, want_e = _direct_kp_terms(lam, k, lam_w, lo, hi)
            assert log_w.tobytes() == want_w.tobytes()
            assert energies.tobytes() == want_e.tobytes()
            lo = hi
        # single entries, kept (m < _TABLE_LEN) and computed past the rows
        for m in (0, 32, 64, 1024, 2048, 2048 + k, _TABLE_LEN - 1, _TABLE_LEN, 4096):
            assert _rows(_log_gamma_row, 0.0, m, m + 1)[0] == math.lgamma(m + 1.0)
            assert _rows(_log_gamma_row, lam_w, m, m + 1)[0] == math.lgamma(m + lam_w + 1.0)
            assert _rows(_energy_row, lam, m, m + 1)[0] == m * (m + lam)

    def test_rows_are_built_on_first_use(self):
        # importing the package and the CLI builds no row
        code = ("import solvstate.cli\n"
                "from solvstate.states import _row\n"
                "assert _row.cache_info().currsize == 0, _row.cache_info()\n")
        src = str(Path(solvstate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_results_do_not_depend_on_call_history(self):
        # each child starts with cold tables, then grows them another way
        # before the same builds
        src = str(Path(solvstate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        digests = []
        for warm in ("cold", "cap", "other_lambda", "two_lambda"):
            proc = subprocess.run([sys.executable, "-c", _HISTORY_CHILD, warm], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and len(set(digests)) == 1

    def test_four_threads_match_the_serial_build(self):
        lam = 3.140625  # a lambda no other test uses: its tables start cold
        spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
        labels = [KPLabel(xi=cmath.rect(r, 0.7 * i), alpha=0.1 * i, k=i % 4)
                  for i, r in enumerate((0.2, 0.5, 0.8, 0.95, 0.99, 0.3, 0.9, 0.6))]
        # one modulus at four phases and alphas: the threads share its profile
        shared = [KPLabel(xi=xi, alpha=0.2 * i, k=1)
                  for i, xi in enumerate((0.7, 0.7j, -0.7, -0.7j))]
        gk = [GKLabel(z, 0.3 * i, 1) for i, z in enumerate((0.7, 0.7j, -0.7, 0.4))]
        ops = [functools.partial(kp_state_pt, lam, label) for label in labels + shared]
        # kernels and norms on the shared moduli: the threads fill their slots
        ops += [functools.partial(kp_overlap_pt, lam, a, b)
                for a, b in zip(shared, shared[1:] + [labels[1]])]
        ops += [functools.partial(gk_overlap, spec, a, b) for a, b in zip(gk, gk[1:])]
        ops += [functools.partial(kp_norm_constant_pt, lam, u, 1, method="series")
                for u in (abs(0.7) ** 2, abs(0.5) ** 2)]
        barrier = threading.Barrier(4)
        results = [None] * 4

        def run(i):
            barrier.wait()
            results[i] = [op() for op in ops[i:] + ops[:i]]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        _held_profile.cache_clear()
        _held_norm.cache_clear()
        serial = [_bytes(op()) for op in ops]
        for i, got in enumerate(results):
            assert got is not None
            assert [_bytes(v) for v in got] == serial[i:] + serial[:i]

    def test_retention_is_bounded(self):
        held = _held_profile.cache_info()
        state = kp_state_pt(1.75, KPLabel(xi=0.999, k=2), tail_eps=0.0,
                            cap=3 * _TABLE_LEN)
        assert state.size == 3 * _TABLE_LEN
        assert _held_profile.cache_info() == held  # a cap past _MAX_N is not kept
        for row in (_row(_log_gamma_row, 0.0), _row(_log_gamma_row, 1.75),
                    _row(_energy_row, 1.75)):
            assert row.size == _TABLE_LEN and not row.flags.writeable
        for i in range(_ROWS_KEPT + 2):
            kp_state_pt(1.0 + 0.125 * i, KPLabel(xi=0.5))
        assert _row.cache_info().currsize <= _ROWS_KEPT
        for i in range(100):
            kp_state_pt(4.0, KPLabel(xi=0.005 * (i + 1)))
            kp_norm_constant_pt(4.0, 0.005 * (i + 1), 1, method="series")
        assert _held_profile.cache_info().currsize <= 8
        assert _held_norm.cache_info().currsize <= 8

    def test_an_unconverged_norm_raises_the_same_error_on_a_memo_hit(self):
        errors = []
        for _ in range(2):
            hits = _held_norm.cache_info().hits
            with pytest.raises(ConvergenceError) as info:
                kp_norm_constant_pt(4.0, 0.9999, 2, method="series")
            errors.append((str(info.value), info.value.partial))
        assert _held_norm.cache_info().hits == hits + 1  # the second call
        assert _held_norm(_kp_family(4.0, 2, 4.0), 0.9999)[1] is False
        assert errors[0] == errors[1]
        assert errors[0][0] == "KP normalization series did not converge in 5000 terms"
        assert math.isfinite(errors[0][1])

    def test_families_of_one_series_are_one_cache_key(self):
        kp = _kp_family(2.5, 1, 2.5)
        assert kp is not _kp_family(2.5, 1, 2.5)
        assert kp == _kp_family(2.5, 1, 2.5) and hash(kp) == hash(_kp_family(2.5, 1, 2.5))
        assert kp != _kp_family(2.5, 2, 2.5) and kp != _kp_family(2.5, 1, 5.0)
        gk = _gk_family(SPEC, 1)
        assert gk == _gk_family(SPEC, 1) and hash(gk) == hash(_gk_family(SPEC, 1))
        assert gk != _gk_family(SPEC, 2) and gk != kp
        assert len({kp, _kp_family(2.5, 1, 2.5), _kp_family(2.5, 2, 2.5),
                    _kp_family(2.5, 1, 5.0), gk, _gk_family(SPEC, 1)}) == 4


def _bytes(value) -> bytes:
    """A result's bytes: a state's coefficients and tail bound, or a number."""
    if isinstance(value, solvstate.FockState):
        return value.coefficients.tobytes() + np.float64(value.tail_bound).tobytes()
    return np.array(value).tobytes()


# ---------------------------------------------------------------------------
# Klauder-Perelomov states, generic spectrum
# ---------------------------------------------------------------------------

class TestKPGeneral:
    def test_zero_displacement(self):
        res = kp_state_general(SPEC, 0.0, k=0)
        assert res.state.size == 1
        assert res.j_converged

    def test_harmonic_matches_displacement(self):
        res = kp_state_general(HarmonicSpectrum(), 0.25, k=0)
        oracle = displace_ground(HarmonicSpectrum(), 0.25)
        assert res.j_converged
        assert coeff_distance(res.state, oracle) < 1e-6

    def test_pt_matches_disk_chart(self):
        Z = 0.3 * np.exp(0.2j)
        res = kp_state_general(SPEC, Z, k=0)
        closed = kp_state_pt(LAM, KPLabel(Z=Z, alpha=0.0, k=0), tail_eps=1e-24)
        assert res.j_converged
        assert coeff_distance(res.state, closed) < 1e-6

    def test_photon_added_matches_disk_chart(self):
        Z = 0.25
        res = kp_state_general(SPEC, Z, alpha=0.1, k=2)
        closed = kp_state_pt(LAM, KPLabel(Z=Z, alpha=0.1, k=2), tail_eps=1e-24)
        assert res.state.offset == 2
        assert coeff_distance(res.state, closed) < 1e-6

    def test_divergent_expansion_is_flagged(self):
        res = states._kp_general(SPEC, 2.5, 0.0, 0, 24)
        assert not res.j_converged
        assert res.worst_term_ratio > 1e-12

    @pytest.mark.parametrize("Z, alpha", [(float("nan"), 0.0),
                                          (complex(0.2, float("inf")), 0.0),
                                          (0.2, float("nan"))])
    def test_non_finite_input_rejected(self, Z, alpha):
        with pytest.raises(DomainError):
            kp_state_general(SPEC, Z, alpha)

    def test_underflowing_displacement_builds_the_added_level(self):
        # |Z|^2 underflows to 0 below |Z| ~ 1e-162; the state is then |k>
        res = kp_state_general(SPEC, 1e-200, alpha=0.3, k=2)
        assert res.j_converged
        assert res.state.offset == 2
        assert abs(res.state.coefficients[0]) == 1.0

    def test_nonconverging_j_series_reports_its_term_ratio(self):
        # the CLI's `state kp --Z 0.9 --k 3 --lambda 7 --nested` (exit 3): the
        # last j-terms reach 0.96 of the state's norm
        res = kp_state_general(PoschlTellerSpectrum(3.5, 3.5), 0.9, k=3)
        assert not res.j_converged
        assert 0.5 < res.worst_term_ratio < 1.0

    @pytest.mark.parametrize("lam", [1.0, 2.5, 4.0, 7.0])
    def test_poschl_teller_j_series_stops_by_40_terms(self, lam):
        spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
        for k in range(4):
            for modulus in (0.05, 0.2, 0.3):
                res = kp_state_general(spec, cmath.rect(modulus, 0.4 + k), 0.1, k)
                assert res.j_converged
                assert 3 <= res.j_terms <= 40, (k, modulus)

    def test_oscillator_j_series_stops_by_16_terms(self):
        for k in range(4):
            for modulus in (0.05, 0.2, 0.3):
                res = kp_state_general(HarmonicSpectrum(), cmath.rect(modulus, 1.1), 0.0, k)
                assert res.j_converged
                assert 3 <= res.j_terms <= 16, (k, modulus)

    def test_nonconverging_j_series_sums_every_term(self):
        res = kp_state_general(PoschlTellerSpectrum(3.5, 3.5), 0.9, k=3)
        assert not res.j_converged
        assert res.j_terms == states._NESTED_J_MAX + 1

    def test_j_terms_is_read_only(self):
        res = kp_state_general(SPEC, 0.3, k=1)
        with pytest.raises(AttributeError):
            res.j_terms = 121

    @pytest.mark.parametrize("Z, k, lam", [(0.7, 2, 1.0), (0.7, 2, 4.0), (0.8, 0, 4.0)])
    def test_levels_whose_series_cancel_to_zero_converge(self, Z, k, lam):
        # the top levels' j-series (terms near e^-312) cancel to 0.0; measured
        # against the state's norm their last terms are negligible
        res = kp_state_general(PoschlTellerSpectrum(lam / 2.0, lam / 2.0), Z, k=k)
        closed = kp_state_pt(lam, KPLabel(Z=Z, alpha=0.0, k=k), tail_eps=1e-24)
        assert res.j_converged
        assert res.worst_term_ratio <= 1e-12
        # tail_bound is a probability, its root an amplitude; 1e-11 covers the
        # j-series rounding
        assert coeff_distance(res.state, closed) <= math.sqrt(res.state.tail_bound) + 1e-11


# The nested sums as they were computed before the triangular in-place level
# recursion and the batched signed sum, kept verbatim as the reference: every
# kp_state_general result must equal, byte for byte, the one built from these
# over all 121 j-terms. The stopped series may end on a larger last term, so
# its worst_term_ratio is at least the reference's, with the same verdict.

def _reference_nested_log_sums(spec, n_max: int, j_max: int) -> np.ndarray:
    """log S_j(n) for j = 0..j_max, n = 0..n_max.

    S_0 = 1 and S_j(n) = g_j(n+1) where g_j(m) = sum_{i=1..m} E_i g_{j-1}(i+1)
    (each level consumes one index of headroom, so g_1 runs to m = n_max + j_max
    and reads E_1..E_{n_max+j_max}).
    """
    m_big = n_max + j_max
    log_e = np.concatenate([[-math.inf], np.log(spec.levels(1, m_big + 1)[0])])
    out = np.full((j_max + 1, n_max + 1), -math.inf)
    out[0, :] = 0.0
    log_g = np.zeros(m_big + 2)  # g_0(m) = 1, index m = 0..m_big+1
    for j in range(1, j_max + 1):
        contrib = log_e[1:m_big + 1] + log_g[2:m_big + 2]
        acc = np.logaddexp.accumulate(contrib)
        log_g = np.concatenate([[-math.inf], acc, [-math.inf]])
        out[j, :] = log_g[1:n_max + 2]
    return out


def _reference_terms(log_s: np.ndarray, log_u: float) -> np.ndarray:
    """log |t_j(n)| = j log u + log S_j(n) - log (n+2j)! from the rows of log_s."""
    j = np.arange(len(log_s))[:, None]
    n = np.arange(log_s.shape[1])
    lg = np.array([math.lgamma(m + 1.0) for m in range(n[-1] + 2 * j[-1, 0] + 1)])
    return j * log_u + log_s - lg[n + 2 * j]


def _reference_full_scan(spec, n_max: int, log_u: float, stop=True) -> np.ndarray:
    """The j-terms of the reference scan to j = 120 whether or not a stop is
    asked for."""
    return _reference_terms(_reference_nested_log_sums(spec, n_max, 120), log_u)


def _reference_signed_log_sum(log_mags, signs) -> tuple[float, float]:
    """Combine terms sign_i * exp(log_mag_i) into (log|sum|, sign of sum).

    Positive and negative parts are reduced separately (logsumexp) before the
    single cancelling subtraction, so the result is as accurate as the data
    allows; the caller can compare log|sum| against max(log_mag) to detect
    catastrophic cancellation.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    signs = np.asarray(signs, dtype=float)
    pos = log_mags[signs > 0]
    neg = log_mags[signs < 0]

    def _lse(v):
        if v.size == 0:
            return -math.inf
        m = v.max()
        return m + math.log(np.exp(v - m).sum())

    lp, ln = _lse(pos), _lse(neg)
    if ln == -math.inf:
        return lp, 1.0
    if lp == -math.inf:
        return ln, -1.0
    hi, lo, sign = (lp, ln, 1.0) if lp >= ln else (ln, lp, -1.0)
    diff = -math.expm1(lo - hi)  # 1 - exp(lo-hi), accurate near cancellation
    if diff <= 0.0:
        return -math.inf, 0.0
    return hi + math.log(diff), sign


def _reference_level_loop(log_terms_t, signs):
    """The per-level loop: one 1-D signed sum per level."""
    return np.array([_reference_signed_log_sum(col, signs) for col in log_terms_t]).T


def _nested_outcome(spec, Z, alpha, k, n_max):
    """What a caller sees of one nested build, as comparable bytes."""
    try:
        res = (kp_state_general(spec, Z, alpha, k) if n_max is None
               else states._kp_general(spec, complex(Z), alpha, k, n_max))
    except DomainError as exc:
        return str(exc)
    return (res.state.coefficients.tobytes(), res.state.size,
            np.float64(res.state.tail_bound).tobytes(),
            np.float64(res.worst_term_ratio).tobytes(), res.j_converged)


def _reference_outcome(spec, Z, alpha, k, n_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_nested_log_terms", _reference_full_scan)
        mp.setattr(states, "signed_log_sum", _reference_level_loop)
        return _nested_outcome(spec, Z, alpha, k, n_max)


def _matches_reference(new, ref) -> bool:
    """Equal coefficient, size and tail_bound bytes and verdict, and a
    worst_term_ratio no smaller than the full series'."""
    if isinstance(new, str) or isinstance(ref, str):
        return new == ref
    return (new[:3] == ref[:3] and new[4] == ref[4]
            and np.frombuffer(new[3])[0] >= np.frombuffer(ref[3])[0])


NESTED_SPECTRA = {
    **{f"pt-{lam:.3g}": PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
       for lam in (1.0 / 3.0, 1.0, 2.5, 4.0, 7.0)},
    "harmonic": HarmonicSpectrum(),
    "rule": CustomSpectrum(rule=lambda n: n ** 1.5 + 0.5 * n),
}
NESTED_MODULI = (0.05, 0.25, 0.3, 1.2, 2.5)


class TestNestedAgainstReference:
    @pytest.mark.parametrize("name", NESTED_SPECTRA)
    @pytest.mark.parametrize("shift, n_max", enumerate([24, 48, 96, 384, 500, None]))
    def test_bytes_equal_the_reference(self, name, shift, n_max):
        # k turns with the grid, so each spectrum meets every (|Z|, k) pair
        spec = NESTED_SPECTRA[name]
        for i, modulus in enumerate(NESTED_MODULI):
            k = (i + shift) % 4
            args = (spec, cmath.rect(modulus, 0.7 * i + 1.3 * k), 0.1 * k, k, n_max)
            assert _matches_reference(_nested_outcome(*args), _reference_outcome(*args)), \
                (modulus, k)

    def test_nonconverging_series_equals_the_reference(self):
        args = (PoschlTellerSpectrum(3.5, 3.5), 0.9, 0.0, 3, None)
        new = _nested_outcome(*args)
        assert new == _reference_outcome(*args)
        assert new[4] is False
        assert 0.5 < np.frombuffer(new[3])[0] < 1.0

    def test_finite_table_ends_at_the_same_sizes(self):
        # 150 levels: the nested sums request levels up to n_max + 120
        table = CustomSpectrum(energies=[n * (n + 1.5) for n in range(150)])
        outcomes = [_nested_outcome(table, 0.2, 0.0, 1, n_max) for n_max in range(22, 31)]
        assert all(map(_matches_reference, outcomes,
                       [_reference_outcome(table, 0.2, 0.0, 1, n_max)
                        for n_max in range(22, 31)]))
        assert outcomes[7][0] and outcomes[8] == \
            "custom spectrum table has 150 levels, level 150 requested"

    def test_nested_log_sums_equal_the_reference(self):
        # the full scan's j-terms, formed from the reference sums
        for spec in NESTED_SPECTRA.values():
            for n_max in (0, 1, 24, 97):
                for log_u in (math.log(0.0025), math.log(6.25)):
                    ref = _reference_terms(_reference_nested_log_sums(spec, n_max, 120),
                                           log_u)
                    assert (states._nested_log_terms(spec, n_max, log_u, stop=False)
                            .tobytes() == ref.tobytes())

    def test_stopped_scan_is_the_reference_prefix(self):
        # it ends on the first J whose rows J-2..J hold every level's j-term
        # below 2^-54 of that level's largest term so far, with term ratios
        # below 1 and not rising
        for spec in NESTED_SPECTRA.values():
            for n_max in (0, 24, 97):
                for log_u in (math.log(0.0025), math.log(0.09)):
                    terms = _reference_terms(_reference_nested_log_sums(spec, n_max, 120),
                                             log_u)
                    stopped = states._nested_log_terms(spec, n_max, log_u)
                    rows = int(np.count_nonzero(np.isfinite(stopped[:, 0])))
                    assert stopped[:rows].tobytes() == terms[:rows].tobytes()
                    assert np.all(stopped[rows:] == -math.inf)
                    small = np.all(terms < np.maximum.accumulate(terms) - 54 * math.log(2),
                                   axis=1)
                    steps = np.diff(terms, axis=0)  # steps[j-1] = log t_j/t_{j-1}
                    falling = np.all((steps[1:] <= steps[:-1]) & (steps[:-1] < 0), axis=1)
                    runs = np.flatnonzero(small[:-2] & small[1:-1] & small[2:] & falling) + 2
                    assert rows - 1 == runs[0] < 120

    @pytest.mark.parametrize("n_max", [24, 48])
    def test_super_quadratic_table_sums_every_level(self, n_max):
        # on E_n = n^8 the term ratio, about u E_{n+j} / (n+2j)^2, rises with
        # j: at |Z| = 1e-5 the terms fall below 2^-54 of their largest and
        # climb back before j = 120, where the full series fails 1e-12
        table = CustomSpectrum(energies=[float(n) ** 8 for n in range(200)])
        for modulus in (1e-6, 3e-6, 1e-5):
            for k in (0, 1):
                args = (table, cmath.rect(modulus, 0.4), 0.0, k, n_max)
                assert _nested_outcome(*args) == _reference_outcome(*args), (modulus, k)
                res = states._kp_general(table, args[1], 0.0, k, n_max)
                assert res.j_terms == states._NESTED_J_MAX + 1
        assert not states._kp_general(table, 1e-5, 0.0, 0, n_max).j_converged

    def test_one_row_signed_sum_equals_the_reference(self):
        # the 1-D form, whose floats the u block's per-length stacks reproduce
        rng = np.random.default_rng(11)
        for length in (1, 2, 7, 8, 9, 127, 128, 129, 400, 625, 3000):
            log_mags = rng.normal(0.0, 30.0, length)
            signs = rng.choice([-1.0, 1.0], length)
            assert (repr(signed_log_sum(log_mags, signs))
                    == repr(tuple(map(float, _reference_signed_log_sum(log_mags, signs)))))

    @pytest.mark.parametrize("name", ["_nested_log_terms", "signed_log_sum"])
    def test_the_reference_swap_reaches_the_build(self, name):
        # _reference_outcome swaps these two names; a build that stopped
        # calling them would compare the new code with itself
        class Sentinel(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Sentinel

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, name, refuse)
            with pytest.raises(Sentinel):
                kp_state_general(PoschlTellerSpectrum(2.0, 2.0), 0.27, 0.1, 2)


# the builds whose bytes must not depend on how the spectrum's nested-sum
# table was grown: each spectrum at two moduli, one stopping early and one
# summed to J = 120, over the self-sizing loop and two fixed grids
_TABLE_BUILDS = [(spec, cmath.rect(modulus, 0.9 + k), 0.1 * k, k, n_max)
                 for spec in NESTED_SPECTRA.values()
                 for k, modulus in enumerate((0.25, 1.2))
                 for n_max in (None, 24, 97)]


def _table_outcomes() -> list:
    return [_nested_outcome(*args) for args in _TABLE_BUILDS]


class TestNestedTable:
    def setup_method(self):
        states._held_sums.cache_clear()
        self.cold = _table_outcomes()

    def test_a_cold_table_gives_the_same_bytes(self):
        warm = _table_outcomes()
        states._held_sums.cache_clear()
        assert _table_outcomes() == warm == self.cold

    @pytest.mark.parametrize("grow", ["n_max_384", "full_scan"])
    def test_a_grown_table_gives_the_same_bytes(self, grow):
        states._held_sums.cache_clear()
        for spec in NESTED_SPECTRA.values():
            if grow == "n_max_384":
                states._kp_general(spec, 0.2, 0.0, 1, 384)
            else:
                states._nested_log_terms(spec, 30, math.log(0.09), stop=False)
            rows, width = states._held_sums(spec)[0].shape  # m = 0..n_max+rows
            assert width - 1 - rows == (384 if grow == "n_max_384" else 30)
            assert rows == 121 or grow == "n_max_384"
        assert _table_outcomes() == self.cold

    def test_a_table_built_in_another_thread_gives_the_same_bytes(self):
        states._held_sums.cache_clear()
        done = threading.Event()

        def grow():
            for n_max in (48, 96, 192, 384):
                for spec in NESTED_SPECTRA.values():
                    states._nested_log_terms(spec, n_max, math.log(0.09), stop=n_max < 192)
            done.set()

        builder = threading.Thread(target=grow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            builder.start()
            read = _table_outcomes()
            builder.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert done.is_set()
        assert read == self.cold

    def test_tables_built_at_once_only_grow(self):
        # one thread asks for all rows, the other for more levels (its stop
        # is met within 33 rows at u = 0.04), both inside a build at once
        # unless builds run in turn: the later build covers both
        class SlowLevels(PoschlTellerSpectrum):
            def levels(self, lo, hi):
                time.sleep(0.02)
                return super().levels(lo, hi)

        spec = SlowLevels(2.0, 2.0)
        for _ in range(3):
            states._held_sums.cache_clear()
            start = threading.Barrier(2)

            def build(n_max, stop):
                start.wait()
                states._nested_log_terms(spec, n_max, math.log(0.04), stop=stop)

            pair = [threading.Thread(target=build, args=args)
                    for args in ((48, False), (96, True))]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=60)
            assert states._held_sums(spec)[0].shape == (121, 96 + 121 + 1)

    def test_a_repeat_build_runs_no_new_scan(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        first = _nested_outcome(spec, 0.27, 0.1, 2, None)
        table = states._held_sums(spec)[0]
        assert not table.flags.writeable
        builds = states._held_sums.cache_info().misses
        assert _nested_outcome(spec, 0.27, 0.1, 2, None) == first
        assert _nested_outcome(spec, 0.21j, 0.4, 0, None) == \
            _nested_outcome(PoschlTellerSpectrum(2.0, 2.0), 0.21j, 0.4, 0, None)
        assert states._held_sums(spec)[0] is table  # one table, no rescan
        # the other spectrum object of the same well has its own table
        assert states._held_sums.cache_info().misses == builds + 1

    def test_the_kept_tables_are_bounded(self):
        for i in range(states._MEMO_SIZE + 3):
            kp_state_general(PoschlTellerSpectrum(1.0 + 0.25 * i, 1.0), 0.25, 0.0, 1)
        assert states._held_sums.cache_info().currsize == states._MEMO_SIZE

    def test_a_finite_table_refuses_on_a_hit(self):
        # levels to n_max + 120 are asked at every build: after the 29-level
        # grid is held, n_max = 30 is refused as on a cold table
        table = CustomSpectrum(energies=[n * (n + 1.5) for n in range(150)])
        assert not isinstance(_nested_outcome(table, 0.2, 0.0, 1, 29), str)
        held = states._held_sums(table)[0]
        for _ in range(2):
            assert _nested_outcome(table, 0.2, 0.0, 1, 30) == \
                "custom spectrum table has 150 levels, level 150 requested"
            assert not isinstance(_nested_outcome(table, 0.2, 0.0, 1, 22), str)
            assert states._held_sums(table)[0] is held


@settings(derandomize=True, deadline=None, max_examples=80)
@given(hs.one_of(hs.sampled_from(sorted(NESTED_SPECTRA)), hs.floats(0.3, 8.0)),
       hs.floats(0.01, 1.2), hs.floats(0.0, 2.0 * math.pi), hs.integers(0, 3),
       hs.sampled_from([24, 48, 96]))
def test_stopped_series_matches_the_full_reference(spectrum, modulus, phase, k, n_max):
    spec = (NESTED_SPECTRA[spectrum] if isinstance(spectrum, str)
            else PoschlTellerSpectrum(spectrum / 2.0, spectrum / 2.0))
    args = (spec, cmath.rect(modulus, phase), 0.1 * k, k, n_max)
    assert _matches_reference(_nested_outcome(*args), _reference_outcome(*args))


# ---------------------------------------------------------------------------
# evolution and statistics
# ---------------------------------------------------------------------------

class TestEvolve:
    def test_zero_time_is_identity(self):
        state = gk_state(SPEC, GKLabel(0.7, 0.2, 1))
        out = evolve(state, SPEC, 0.0)
        assert np.array_equal(out.coefficients, state.coefficients)

    def test_norm_preserved_exactly(self):
        state = gk_state(SPEC, GKLabel(0.7 + 0.2j, 0.2, 1))
        out = evolve(state, SPEC, 5.321)
        assert out.norm() == pytest.approx(state.norm(), abs=1e-15)

    @pytest.mark.parametrize("k", [0, 2])
    def test_gk_alpha_shift_identity(self, k):
        label = GKLabel(0.7 + 0.2j, 0.2, k)
        t = 0.37
        ev = evolve(gk_state(SPEC, label), SPEC, t)
        rebuilt = gk_state(SPEC, GKLabel(label.z, label.alpha + t, k))
        assert np.max(np.abs(ev.coefficients - rebuilt.coefficients)) < 1e-14
        assert ev.alpha == pytest.approx(label.alpha + t)

    @pytest.mark.parametrize("k", [0, 2])
    def test_kp_alpha_shift_identity(self, k):
        label = KPLabel(xi=0.45 * np.exp(0.3j), alpha=0.1, k=k)
        t = 0.61
        ev = evolve(kp_state_pt(LAM, label), SPEC, t)
        rebuilt = kp_state_pt(LAM, KPLabel(xi=label.xi, alpha=label.alpha + t,
                                           k=k))
        assert np.max(np.abs(ev.coefficients - rebuilt.coefficients)) < 1e-14


class TestPhotonStatistics:
    def test_basis_state_point_mass(self):
        state = gk_state(SPEC, GKLabel(0.0, 0.0, 3))
        stats = photon_statistics(state, SPEC)
        assert stats.mean_level == pytest.approx(3.0)
        assert stats.mean_energy == pytest.approx(SPEC.energy(3))
        assert stats.probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        state = kp_state_pt(LAM, KPLabel(xi=0.6, alpha=0.0, k=1))
        stats = photon_statistics(state, SPEC)
        assert stats.probabilities.sum() == pytest.approx(
            1.0, abs=state.tail_bound + 1e-12)

    def test_harmonic_coherent_state_is_poissonian(self):
        z = 0.9
        spec = HarmonicSpectrum()
        state = gk_state(spec, GKLabel(z, 0.0, 0), tail_eps=1e-20)
        stats = photon_statistics(state, spec)
        mean = z * z
        pois = np.exp(-mean + stats.levels * math.log(mean)
                      - gammaln(stats.levels + 1.0))
        assert np.max(np.abs(stats.probabilities - pois)) < 1e-10
        assert stats.mean_level == pytest.approx(mean, rel=1e-10)
