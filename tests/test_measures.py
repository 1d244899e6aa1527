import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from solvstate import DomainError, PoschlTellerSpectrum
from solvstate.measures import (
    MomentEntry,
    MomentReport,
    WeightCandidate,
    gk_measure_selfconsistency,
    gk_radial_moment_log,
    kp_moment_residuals,
    kp_moment_target_log,
    kp_weight_k0,
    kp_weight_unit_disk,
    mellin_gamma_check_pt,
    mellin_weight_moment_log,
    nonnegativity_report,
)
from solvstate.specfun import integrate, log_gamma, log_pochhammer

LAM = 4.0
SPEC = PoschlTellerSpectrum(2.0, 2.0)


class TestTargets:
    def test_gk_target_k0_is_e0(self):
        for n in range(12):
            assert SPEC.log_ek(0, n) == pytest.approx(
                SPEC.log_e0(n), abs=1e-13)

    def test_gk_target_trivial_origin(self):
        assert SPEC.log_ek(0, 0) == 0.0

    def test_radial_moment_carries_pochhammer_constant(self):
        # (n!)^2 ((lam+1)_n)^2 / ((n+k)!(lam+k+1)_n) = E_k(n) * (lam+1)_k
        for k in (0, 1, 3):
            for n in range(15):
                lhs = gk_radial_moment_log(LAM, k, n)
                rhs = SPEC.log_ek(k, n) + log_pochhammer(LAM + 1.0, k)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMellinGammaCheck:
    @pytest.mark.parametrize("lam", [1.0, 4.0, 7.0])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_full_grid_passes(self, lam, k):
        report = mellin_gamma_check_pt(lam, k, 30)
        assert report.passed
        assert max(e.rel_residual for e in report.entries) <= 1e-12

    def test_origin_both_sides_one(self):
        assert mellin_weight_moment_log(LAM, 0, 0) == pytest.approx(0.0,
                                                                    abs=1e-13)
        assert gk_radial_moment_log(LAM, 0, 0) == pytest.approx(0.0, abs=1e-13)

    def test_k0_reduces_to_e0(self):
        for n in range(10):
            closed = log_gamma(n + 1.0) + log_pochhammer(LAM + 1.0, n)
            assert mellin_weight_moment_log(LAM, 0, n) == pytest.approx(
                closed, rel=1e-12, abs=1e-12)

    def test_report_serializes(self):
        report = mellin_gamma_check_pt(LAM, 2, 5)
        doc = json.dumps(report.to_dict())
        assert "pass" in doc
        text = report.to_text()
        assert "tolerance" in text


class TestKPWeights:
    def test_k0_quadrature_vs_beta(self):
        report = kp_moment_residuals(LAM, 0, kp_weight_k0(LAM), n_max=10)
        assert report.passed
        worst = max(e.quad_vs_analytic for e in report.entries
                    if e.quad_vs_analytic is not None)
        assert worst <= 1e-10

    def test_k0_structural_residual_documented(self):
        # the published weight misses the published target by (n+lam)/(n lam)
        report = kp_moment_residuals(LAM, 0, kp_weight_k0(LAM), n_max=8)
        assert report.errata
        for e in report.entries:
            if e.power == e.n - 1:
                observed = math.exp(e.computed_log - e.target_log)
                predicted = (e.n + LAM) / (e.n * LAM)
                assert observed == pytest.approx(predicted, rel=1e-8)
                assert e.verdict == "fail"

    def test_elementary_reading_moments(self):
        k = 2
        report = kp_moment_residuals(LAM, k, kp_weight_unit_disk(LAM, k),
                                     n_max=8)
        assert report.passed
        for e in report.entries:
            if e.power - k + 1.0 <= 0.0:
                assert e.verdict == "divergent"
                assert e.computed_log is None
            elif e.quad_vs_analytic is not None:
                assert e.quad_vs_analytic <= 1e-9

    @pytest.mark.parametrize("shift, passed", [(0.0, True), (1e-6, False)])
    def test_quadrature_off_the_beta_value_fails_the_report(self, shift, passed):
        # `passed` asserts quadrature against the analytic Beta moments to 1e-9
        k = 2
        cand = kp_weight_unit_disk(LAM, k)
        exact = cand.analytic_log_moment

        def analytic(power):
            value = exact(power)
            return None if value is None else value + shift

        moved = dataclasses.replace(cand, analytic_log_moment=analytic)
        assert kp_moment_residuals(LAM, k, moved, n_max=8).passed is passed

    def test_elementary_reading_is_inverse_power(self):
        # 2F1(k, b; b; 1-r) = r^(-k), so h * Gamma(lam+2k+1) * r^k must be
        # the plain (1-r) power
        k, lam = 2, 4.0
        cand = kp_weight_unit_disk(lam, k)
        r = np.linspace(0.05, 0.95, 19)
        recovered = cand.evaluate(r) * np.exp(log_gamma(lam + 2 * k + 1.0)) * r ** k
        assert np.allclose(recovered, (1.0 - r) ** (lam + 2 * k - 1.0),
                           rtol=1e-12)

    def test_log_reading_against_mpmath(self):
        # default mpmath precision itself loses digits at the log-singular
        # endpoint, so the oracle runs at 40 digits
        k, lam = 2, 4.0
        cand = kp_weight_unit_disk(lam, k, reading="a_b_lam2k")
        old_dps = mp.mp.dps
        mp.mp.dps = 40
        try:
            for r in (1e-8, 0.05, 0.4, 0.9):
                mine = cand.evaluate(r)[0]
                one_minus_r = mp.mpf(1.0) - mp.mpf(r)
                ref = float(mp.hyp2f1(k, lam + k, lam + 2 * k, one_minus_r)
                            * one_minus_r ** (lam + 2 * k - 1.0)
                            / mp.gamma(lam + 2 * k + 1.0))
                assert mine == pytest.approx(ref, rel=1e-12)
        finally:
            mp.mp.dps = old_dps

    def test_log_reading_k0_equals_published_k0_weight(self):
        cand = kp_weight_unit_disk(LAM, 0, reading="a_b_lam2k")
        base = kp_weight_k0(LAM)
        r = np.linspace(0.02, 0.98, 25)
        assert np.allclose(cand.evaluate(r), base.evaluate(r), rtol=1e-12)

    @given(lam=hs.floats(0.05, 60.0),
           r=hs.lists(hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=8))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_k0_weight_is_the_a_b_b_family_at_k0(self, lam, r):
        base, member = kp_weight_k0(lam), kp_weight_unit_disk(lam, 0, "a_b_b")
        r = np.array(r)
        assert base.evaluate(r).tobytes() == member.evaluate(r).tobytes()
        assert [repr(base.analytic_log_moment(p)) for p in range(-3, 40)] == \
            [repr(member.analytic_log_moment(p)) for p in range(-3, 40)]
        assert (repr(base.left_exponent), repr(base.right_exponent)) == \
            (repr(member.left_exponent), repr(member.right_exponent))

    def test_custom_candidate_published_target_selftest(self):
        # lam * (1-r)^(lam-1) / Gamma(lam+1) has r^n moments
        # n! / Gamma(n+lam+1), exactly the published k = 0 targets: the
        # harness must call every r^n entry a pass and every r^(n-1) entry a
        # fail, and find no errata
        log_norm = log_gamma(LAM + 1.0) - math.log(LAM)
        cand = WeightCandidate(
            "custom",
            lambda r: np.exp((LAM - 1.0) * np.log1p(-r) - log_norm),
            right_exponent=LAM - 1.0)
        report = kp_moment_residuals(LAM, 0, cand, n_max=6)
        assert all(e.verdict == ("pass" if e.power == e.n else "fail")
                   for e in report.entries)
        assert max(e.rel_residual for e in report.entries if e.power == e.n) < 1e-10
        assert not report.errata

    @staticmethod
    def _rescaled_rn_residuals(report, constant):
        # the arithmetic of verify.suite_measures: the unscaled r^n moment
        # times the constant the published prefactor leaves unresolved
        return [abs(math.exp(e.computed_log - e.target_log) * constant - 1.0)
                for e in report.entries if e.power == e.n]

    def test_k0_rescaled_rn_convention_passes(self):
        # under the r^n power convention the k=0 weight misses by exactly the
        # constant lam, so folding lam into the prefactor satisfies every
        # moment: the "which (reading, power) combination passes" answer
        report = kp_moment_residuals(LAM, 0, kp_weight_k0(LAM), n_max=10)
        assert max(self._rescaled_rn_residuals(report, LAM)) < 1e-8

    @pytest.mark.parametrize("lam,k", [(1.5, 1), (4.0, 2), (7.0, 3)])
    def test_alternate_reading_rescaled_rn_passes(self, lam, k):
        # the full resolution: the hypergeometric reading scaled by the
        # constant lam+2k satisfies the r^n moment equation at every k
        cand = kp_weight_unit_disk(lam, k, reading="a_b_lam2k")
        report = kp_moment_residuals(lam, k, cand, n_max=5)
        assert max(self._rescaled_rn_residuals(report, lam + 2.0 * k)) < 1e-8

    def test_unknown_reading_rejected(self):
        from solvstate.errors import DomainError
        with pytest.raises(DomainError):
            kp_weight_unit_disk(LAM, 1, reading="bogus")

    def test_determinism(self):
        r1 = kp_moment_residuals(LAM, 1, kp_weight_unit_disk(LAM, 1), n_max=5)
        r2 = kp_moment_residuals(LAM, 1, kp_weight_unit_disk(LAM, 1), n_max=5)
        assert r1.to_dict() == r2.to_dict()

    @pytest.mark.parametrize("build", [
        lambda lam: kp_weight_k0(lam),
        lambda lam: kp_weight_unit_disk(lam, 1),
        lambda lam: kp_weight_unit_disk(lam, 1, reading="a_b_lam2k"),
        lambda lam: mellin_gamma_check_pt(lam, 1, 5),
        lambda lam: gk_measure_selfconsistency(lam, 1, 5),
    ])
    def test_non_finite_lambda_rejected(self, build):
        from solvstate.errors import DomainError
        for lam in (float("nan"), float("inf")):
            with pytest.raises(DomainError,
                               match="must be finite|lam must be positive and finite"):
                build(lam)


    @pytest.mark.parametrize("lam", [0.0, -0.5, -1.0])
    def test_nonpositive_lambda_rejected(self, lam):
        # kp_moment_residuals(-0.5, 1, ...) passed, and the weights failed
        # later with messages about endpoint exponents or log_gamma
        for build in (lambda: kp_weight_k0(lam), lambda: kp_weight_unit_disk(lam, 1),
                      lambda: kp_weight_unit_disk(lam, 2, reading="a_b_lam2k"),
                      lambda: mellin_gamma_check_pt(lam, 1, 5),
                      lambda: kp_moment_residuals(lam, 1, kp_weight_unit_disk(LAM, 1), 4)):
            with pytest.raises(DomainError, match="lam must be positive and finite"):
                build()

    def test_overflowing_connection_prefactor_rejected(self):
        with pytest.raises(DomainError, match="a_b_lam2k expansion overflows"):
            kp_weight_unit_disk(LAM, 1000, reading="a_b_lam2k")


class TestSelfConsistency:
    def test_diagonal_is_unity(self):
        for k in (0, 2):
            report = gk_measure_selfconsistency(LAM, k, 20)
            assert report.passed
            assert max(e.rel_residual for e in report.entries) <= 1e-12

    def test_isotropy_and_zero_weight_notes(self):
        report = gk_measure_selfconsistency(LAM, 3, 5)
        joined = " ".join(report.notes)
        assert "off-diagonal" in joined
        assert "zero weight" in joined


class TestNonnegativity:
    def test_published_weights_nonnegative(self):
        for cand in (kp_weight_k0(LAM), kp_weight_unit_disk(LAM, 2)):
            rep = nonnegativity_report(cand)
            assert rep["nonnegative"]

    def test_negative_weight_flagged(self):
        cand = WeightCandidate("custom", lambda r: np.cos(8.0 * r))
        rep = nonnegativity_report(cand)
        assert not rep["nonnegative"]
        assert rep["negative_points"] > 0
        assert rep["min_value"] < 0.0


def test_kp_target_value():
    # Gamma(n+1)^2 / (Gamma(n+k+1) Gamma(n+lam+k+1)) at n=1, k=0, lam=4
    expected = math.log(1.0 / math.gamma(6.0))
    assert kp_moment_target_log(4.0, 0, 1) == pytest.approx(expected, rel=1e-13)


class TestLogReadingArrays:
    """The a_b_lam2k weight 2F1(k, lam+k; lam+2k; 1-r) on whole batches."""

    # both branches: the connection expansion below r = 0.25, the series in
    # 1 - r from r = 0.25 on
    R = [1e-9, 1e-4, 0.01, 0.1, 0.2, 0.24, 0.25, 0.3, 0.5, 0.75, 0.9, 0.999]

    @staticmethod
    def _worst_error(lam, k, rs):
        mine = kp_weight_unit_disk(lam, k, reading="a_b_lam2k").evaluate(np.array(rs))
        worst = 0.0
        with mp.workdps(30):
            for r, value in zip(rs, mine.tolist()):
                x = 1 - mp.mpf(r)
                ref = (mp.hyp2f1(k, lam + k, lam + 2 * k, x) * x ** (lam + 2 * k - 1)
                       / mp.gamma(lam + 2 * k + 1))
                worst = max(worst, float(abs(value - ref) / abs(ref)))
        return worst

    @pytest.mark.parametrize("lam", [1.0, 2.5, 4.0, 7.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_30_digit_reference(self, lam, k):
        assert self._worst_error(lam, k, self.R) <= 1e-12

    # Just below the crossover the connection expansion cancels, more so for
    # larger k and lam: 1.4e-12 at (lam 7, k 3) and 3.7e-10 at (lam 7, k 5).
    @pytest.mark.xfail(strict=True, reason="connection expansion cancels near r = 0.25")
    @pytest.mark.parametrize("lam, k", [(7.0, 3), (4.0, 5), (7.0, 5)])
    def test_connection_expansion_near_the_crossover(self, lam, k):
        assert self._worst_error(lam, k, [0.2499]) <= 1e-12

    def test_one_series_call_per_batch(self, monkeypatch):
        import solvstate.measures as msr

        sizes = []
        series = msr.hyper_pfq

        def counted(a, b, x, *settings):
            sizes.append(np.size(x))
            return series(a, b, x, *settings)

        monkeypatch.setattr(msr, "hyper_pfq", counted)
        r = np.linspace(0.01, 0.99, 99)
        batch = kp_weight_unit_disk(LAM, 2, reading="a_b_lam2k").evaluate(r)
        assert sizes == [int(np.sum(r >= 0.25))]
        pointwise = [kp_weight_unit_disk(LAM, 2, reading="a_b_lam2k").evaluate(v)[0]
                     for v in r]
        assert batch.tolist() == pointwise

    def test_unconverged_sum_is_nan_and_moments_indeterminate(self, monkeypatch):
        import solvstate.measures as msr

        monkeypatch.setattr(msr, "_LOG_READING_MAX_TERMS", 5)
        cand = kp_weight_unit_disk(LAM, 2, "a_b_lam2k")
        values = cand.evaluate(np.array([0.1, 0.5, 0.9]))
        assert math.isfinite(values[0])  # the connection expansion sums no series
        assert np.isnan(values[1:]).all()
        report = kp_moment_residuals(LAM, 2, cand, n_max=2)
        assert [e.verdict for e in report.entries] == ["indeterminate"] * 4


def test_digamma_port_equals_scipy_bitwise():
    # the a_b_lam2k connection expansion reads digamma at integers and at
    # lam + k + s; the golden moment tables print its quad_error digits
    from scipy.special import digamma

    from solvstate.measures import _digamma

    rng = np.random.default_rng(2024)
    xs = np.concatenate([np.arange(1.0, 401.0), rng.uniform(0.01, 300.0, 20000),
                         rng.uniform(0.01, 2.5, 5000), [0.5, 1.5, 2.0, 9.5, 10.5]])
    mine = np.array([_digamma(x) for x in xs.tolist()])
    assert mine.tobytes() == digamma(xs).tobytes()


def _reference_residuals(lam, k, candidate, n_max, quad_tolerance=1e-9,
                         match_tolerance=1e-8):
    """The per-entry loop `kp_moment_residuals` replaced: one quadrature for
    every (n, power) entry, so each interior power is integrated twice."""
    report = MomentReport(
        title=f"unit-disk moment residuals (lam={lam}, k={k})",
        candidate=candidate.id,
        tolerance=match_tolerance,
    )
    match_count = {"n-1": 0, "n": 0}
    for n in range(1, n_max + 1):
        for power in (n - 1, n):
            target = kp_moment_target_log(lam, k, n)
            eff_left = candidate.left_exponent + power
            if eff_left <= -1.0:
                report.entries.append(MomentEntry(
                    n, power, target, None, math.inf, 0.0, None, None,
                    "divergent"))
                continue
            right = candidate.right_exponent
            res = integrate(lambda r, _p=power: candidate.evaluate(r) * r ** _p, 0.0, 1.0,
                            eff_left if eff_left != int(eff_left) or eff_left < 0 else None,
                            right if right != int(right) or right < 0 else None)
            computed_log = math.log(res.value) if res.value > 0 else -math.inf
            d = computed_log - target
            rel_resid = math.inf if abs(d) > 700.0 else abs(math.expm1(d))
            analytic_log = quad_vs_analytic = None
            if candidate.analytic_log_moment is not None:
                analytic_log = candidate.analytic_log_moment(power)
                if analytic_log is not None:
                    d = computed_log - analytic_log
                    quad_vs_analytic = math.inf if abs(d) > 700.0 else abs(math.expm1(d))
                    if quad_vs_analytic > quad_tolerance or not res.converged:
                        report.passed = False
            if not res.converged:
                verdict = "indeterminate"
            elif rel_resid <= match_tolerance:
                verdict = "pass"
                match_count["n-1" if power == n - 1 else "n"] += 1
            else:
                verdict = "fail"
            report.entries.append(MomentEntry(
                n, power, target, computed_log, rel_resid,
                res.error, analytic_log, quad_vs_analytic, verdict))
    for key, label in (("n-1", "r^(n-1)"), ("n", "r^n")):
        report.notes.append(
            f"power convention {label}: {match_count[key]}/{n_max} moments "
            f"match the published target within {match_tolerance:g}"
        )
    if all(v == 0 for v in match_count.values()):
        report.errata.append(
            "candidate satisfies neither power convention of the published "
            "moment equation; at k=0 the published weight differs from the "
            "published target by the factor (n+lam)/(n*lam) -- a structural "
            "inconsistency in the source formulas, reported here, not fixed"
        )
    return report


def _without_quad_error(report):
    d = report.to_dict()
    for e in d["entries"]:
        del e["quad_error"]
    return d


class TestMomentTable:
    """The power moments of a weight are one vector integral, read by both
    power conventions, with the report of one integral per entry."""

    @pytest.mark.parametrize("lam", [1.0, 2.5, 4.0, 7.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_same_report_as_one_integral_per_entry(self, lam, k):
        # these weights need the same rule at every power; the vector
        # integral's shared panels move only the error estimates
        for k_used, cand in ((0, kp_weight_k0(lam)),
                             (k, kp_weight_unit_disk(lam, k, "a_b_b"))):
            table = kp_moment_residuals(lam, k_used, cand, n_max=8)
            assert (_without_quad_error(table)
                    == _without_quad_error(_reference_residuals(lam, k_used, cand, 8)))

    @pytest.mark.parametrize("lam, k", [
        (lam, k) for lam in (1.0, 2.5, 4.0) for k in (1, 2, 3)] + [(7.0, 1), (7.0, 2)])
    def test_log_reading_moments_are_exact(self, lam, k):
        # Euler-Gauss: the a_b_lam2k moments are computed/target = 1/(lam+2k)
        # under r^n and (n+k)(n+lam+k)/(n^2 (lam+2k)) under r^(n-1). Power 0
        # is left out: its log endpoint costs 1e-10 in the substitution tail.
        report = kp_moment_residuals(
            lam, k, kp_weight_unit_disk(lam, k, "a_b_lam2k"), n_max=6)
        checked = 0
        for e in report.entries:
            if e.power == 0:
                continue
            n = e.n
            exact = (1.0 / (lam + 2 * k) if e.power == n
                     else (n + k) * (n + lam + k) / (n * n * (lam + 2 * k)))
            ratio = math.exp(e.computed_log - e.target_log)
            assert ratio / exact - 1.0 == pytest.approx(0.0, abs=1e-13), (n, e.power)
            checked += 1
        assert checked == 11

    @staticmethod
    def _count_integrals(monkeypatch):
        import solvstate.measures as msr

        calls = []

        def counted(*args, _inner=msr.integrate, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(msr, "integrate", counted)
        return calls

    @pytest.mark.parametrize("k, build", [
        (0, lambda: kp_weight_k0(LAM)),             # 11 powers, 20 entries
        (2, lambda: kp_weight_unit_disk(LAM, 2)),   # 9 powers; p = 0, 1 diverge
    ], ids=["k0", "a_b_b"])
    def test_one_integral_per_weight(self, monkeypatch, k, build):
        cand = build()
        calls = self._count_integrals(monkeypatch)
        kp_moment_residuals(LAM, k, cand, n_max=10)
        assert len(calls) == 1

    @pytest.mark.parametrize("report, n_max", [
        (lambda n: mellin_gamma_check_pt(LAM, 2, n), -1),
        (lambda n: gk_measure_selfconsistency(LAM, 2, n), -1),
        (lambda n: kp_moment_residuals(LAM, 0, kp_weight_k0(LAM), n), 0),
    ], ids=["mellin", "gk_diag", "kp_residuals"])
    def test_empty_table_rejected(self, report, n_max):
        # no moment to judge: neither a pass nor an errata claim
        with pytest.raises(DomainError, match="n_max"):
            report(n_max)
        assert report(n_max + 1).entries

    def test_measures_suite_integral_count(self, monkeypatch):
        from solvstate.verify import run_suite

        calls = self._count_integrals(monkeypatch)
        (report,) = run_suite("measures")
        assert report.passed
        # one vector integral per weight: the k = 0, a_b_b and a_b_lam2k
        # tables of 11, 9 and 7 moments were 27 integrals, one per power
        assert len(calls) == 3


class TestPhotonNumber:
    # every entry point that takes k rejects a k that no photon-added state
    # has, with the message of the state builders
    @pytest.mark.parametrize("build", [
        lambda k: kp_weight_unit_disk(LAM, k),
        lambda k: kp_weight_unit_disk(LAM, k, reading="a_b_lam2k"),
        lambda k: gk_radial_moment_log(LAM, k, 3),
        lambda k: mellin_weight_moment_log(LAM, k, 3),
        lambda k: kp_moment_target_log(LAM, k, 3),
        lambda k: mellin_gamma_check_pt(LAM, k, 5),
        lambda k: gk_measure_selfconsistency(LAM, k, 5),
        lambda k: kp_moment_residuals(LAM, k, kp_weight_k0(LAM), 4),
    ])
    @pytest.mark.parametrize("k, message", [
        (-1, "photon number k must be nonnegative"),
        (-3, "photon number k must be nonnegative"),
        (1.5, "photon number k must be an integer"),
        (float("nan"), "photon number k must be an integer"),
    ])
    def test_rejected(self, build, k, message):
        with pytest.raises(DomainError, match=message):
            build(k)

    def test_integral_float_is_the_integer(self):
        assert kp_moment_target_log(LAM, 2.0, 3) == kp_moment_target_log(LAM, 2, 3)
