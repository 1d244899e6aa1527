"""Property tests of the GK/KP identities beyond the verify suites' grids,
plus 30-digit references for the normalization series and overlap kernels.

Labels are drawn on the ranges the label_sweep workload uses: lambda in
[1, 7], k in 0..3, |z| in [0.2, 1.5], |xi| in [0.2, 0.7], alpha in [0, 1].
Tolerances are the verify suites' own, except evolve-vs-rebuild at 2e-13:
with alpha + t up to 2 the rounding of (alpha + t) E_n alone moves a
coefficient by a few 1e-14. The truncation properties range wider (lambda in
(0, 10], k in 0..6, |xi| up to 0.99, |z| up to 8), since the tail bound must
hold to the disk edge.
"""

import cmath
import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.linalg import expm

from solvstate import (
    GKLabel,
    HarmonicSpectrum,
    FockState,
    KPLabel,
    PoschlTellerSpectrum,
    build_ladder,
    displace_ground,
    displacement_path,
    evolve,
    gk_norm_constant,
    gk_norm_constant_pt_closed,
    gk_overlap,
    gk_state,
    kp_norm_constant_pt,
    kp_overlap_pt,
    kp_state_general,
    kp_state_pt,
)
from solvstate.states import _gk_family, _kp_family
from solvstate.verify import coeff_distance

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

lams = hs.floats(1.0, 7.0)
ks = hs.integers(0, 3)
alphas = hs.floats(0.0, 1.0)
phases = hs.floats(0.0, 2.0 * math.pi)


def _label_values(r_lo, r_hi):
    return hs.builds(lambda r, phi: cmath.rect(r, phi), hs.floats(r_lo, r_hi), phases)


zs = _label_values(0.2, 1.5)
xis = _label_values(0.2, 0.7)
# None picks the harmonic spectrum, a float the Poschl-Teller lambda
spectra = hs.one_of(hs.none(), lams)


def _spectrum(lam):
    return HarmonicSpectrum() if lam is None else PoschlTellerSpectrum(lam / 2.0, lam / 2.0)


def _max_dev(s1, s2):
    return float(np.max(np.abs(s1.coefficients - s2.coefficients)))


@SETTINGS
@given(spectra, ks, zs, zs, alphas, alphas)
def test_gk_overlap_identities(lam, k, z1, z2, a1, a2):
    spec = _spectrum(lam)
    l1, l2 = GKLabel(z1, a1, k), GKLabel(z2, a2, k)
    o12 = gk_overlap(spec, l1, l2)
    assert abs(gk_overlap(spec, l1, l1) - 1.0) <= 1e-12
    assert abs(o12 - gk_overlap(spec, l2, l1).conjugate()) <= 1e-12
    assert abs(o12) <= 1.0 + 1e-12
    s1 = gk_state(spec, l1, tail_eps=1e-24)
    s2 = gk_state(spec, l2, tail_eps=1e-24)
    assert abs(o12 - s1.inner(s2)) <= 1e-10


@SETTINGS
@given(lams, ks, xis, xis, alphas, alphas)
def test_kp_overlap_identities(lam, k, xi1, xi2, a1, a2):
    l1, l2 = KPLabel(xi=xi1, alpha=a1, k=k), KPLabel(xi=xi2, alpha=a2, k=k)
    o12 = kp_overlap_pt(lam, l1, l2)
    assert abs(kp_overlap_pt(lam, l1, l1) - 1.0) <= 1e-12
    assert abs(o12 - kp_overlap_pt(lam, l2, l1).conjugate()) <= 1e-12
    assert abs(o12) <= 1.0 + 1e-12
    s1 = kp_state_pt(lam, l1, tail_eps=1e-24)
    s2 = kp_state_pt(lam, l2, tail_eps=1e-24)
    assert abs(o12 - s1.inner(s2)) <= 1e-10


@SETTINGS
@given(lams, ks, hs.floats(0.2, 1.5))
def test_gk_series_norm_matches_2f3(lam, k, r):
    spec = _spectrum(lam)
    series = gk_norm_constant(spec, r * r, k)
    closed = gk_norm_constant_pt_closed(lam, r * r, k)
    assert abs(math.expm1(series - closed)) <= 1e-10


@SETTINGS
@given(lams, ks, hs.floats(0.2, 0.7))
def test_kp_closed_norm_matches_series(lam, k, r):
    closed = kp_norm_constant_pt(lam, r * r, k, method="closed")
    series = kp_norm_constant_pt(lam, r * r, k, method="series")
    assert abs(math.expm1(closed - series)) <= 1e-10


@SETTINGS
@given(spectra, ks, zs, alphas, alphas)
def test_gk_evolve_is_alpha_shift(lam, k, z, alpha, t):
    spec = _spectrum(lam)
    s0 = gk_state(spec, GKLabel(z, alpha, k), tail_eps=1e-24)
    rebuilt = gk_state(spec, GKLabel(z, alpha + t, k), tail_eps=1e-24)
    assert _max_dev(evolve(s0, spec, t), rebuilt) <= 2e-13


@SETTINGS
@given(lams, ks, xis, alphas, alphas)
def test_kp_evolve_is_alpha_shift(lam, k, xi, alpha, t):
    spec = _spectrum(lam)
    s0 = kp_state_pt(lam, KPLabel(xi=xi, alpha=alpha, k=k), tail_eps=1e-24)
    rebuilt = kp_state_pt(lam, KPLabel(xi=xi, alpha=alpha + t, k=k), tail_eps=1e-24)
    assert _max_dev(evolve(s0, spec, t), rebuilt) <= 2e-13


def _agarwal_tara(Z, alpha, k, size):
    """Photon-added coherent state of the oscillator (Agarwal & Tara, Phys.
    Rev. A 43, 492, 1991): coefficients on |n+k> proportional to
    Z^n sqrt((n+k)!) / n! e^{-i alpha (n+k)}."""
    n = np.arange(size)
    log_m = np.array([m * math.log(abs(Z)) + 0.5 * math.lgamma(m + k + 1.0)
                      - math.lgamma(m + 1.0) for m in range(size)])
    c = np.exp(log_m - log_m.max()) * np.exp(1j * n * cmath.phase(Z) - 1j * alpha * (n + k))
    return FockState(k, c / np.linalg.norm(c), alpha, 0.0)


# the nested-sum route against the closed forms, at label_sweep's tolerance
@SETTINGS
@given(hs.one_of(hs.none(), hs.floats(0.5, 8.0)), ks,
       _label_values(0.0, 0.3).filter(lambda Z: Z != 0), alphas)
def test_nested_sums_match_the_closed_forms(lam, k, Z, alpha):
    res = kp_state_general(_spectrum(lam), Z, alpha, k)
    assert res.j_converged
    if lam is None:
        ref = _agarwal_tara(Z, alpha, k, res.state.size)
    else:
        ref = kp_state_pt(lam, KPLabel(Z=Z, alpha=alpha, k=k), tail_eps=1e-24)
    assert coeff_distance(res.state, ref) <= 1e-8


# a stop on the total tail instead of the edge mass misses near |Z| = 0.8
# and large lambda (about 2 % of uniform draws); 200 examples reach them.
# Up to |Z| = 1.5 the window grows to 512 levels.
@settings(SETTINGS, max_examples=200)
@given(hs.floats(0.3, 8.0), hs.floats(0.0, 1.5, exclude_min=True), phases)
def test_displacement_oracle_matches_closed_form(lam, modulus, phase):
    # the closed form at the suites' budget of 1e-24
    Z = cmath.rect(modulus, phase)
    oracle = displace_ground(_spectrum(lam), Z)
    closed = kp_state_pt(lam, KPLabel(Z=Z, alpha=0.0, k=0), tail_eps=1e-24)
    assert coeff_distance(oracle, closed) <= 1e-10


# The suites and the property above displace at alpha = 0 only; here the
# ladder's alpha phases and the phase of Z meet in the oracle's real gauge.
# cap = 64 is the first window alone, so the reference is the exact
# exponential of the same truncated generator, from the dense ladder.
@SETTINGS
@given(hs.floats(0.3, 8.0), hs.floats(0.0, 1.5), phases,
       hs.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_displacement_oracle_matches_dense_expm(lam, modulus, phase, alpha):
    spec = _spectrum(lam)
    Z = cmath.rect(modulus, phase)
    state = displace_ground(spec, Z, alpha, cap=64)
    lad = build_ladder(spec, alpha, 64)
    column = expm(Z * lad.a_plus - np.conj(Z) * lad.a_minus)[:, 0]
    column /= np.linalg.norm(column)
    assert state.size == 65
    assert np.max(np.abs(state.coefficients - column)) < 1e-13


# The same reference at two random interior points of one path: the states
# along a single Taylor pass are the displaced states at t Z.
@SETTINGS
@given(hs.floats(0.3, 8.0), hs.floats(0.0, 1.5), phases,
       hs.floats(0.0, 2.0 * math.pi, exclude_max=True),
       hs.lists(hs.floats(0.01, 0.99), min_size=2, max_size=2, unique=True))
def test_displacement_path_matches_dense_expm(lam, modulus, phase, alpha, inner):
    spec = _spectrum(lam)
    Z = cmath.rect(modulus, phase)
    fractions = sorted(inner) + [1.0]
    lad = build_ladder(spec, alpha, 64)
    G = Z * lad.a_plus - np.conj(Z) * lad.a_minus
    for t, state in zip(fractions, displacement_path(spec, Z, fractions, alpha, cap=64)):
        column = expm(t * G)[:, 0]
        column /= np.linalg.norm(column)
        assert state.size == 65
        assert np.max(np.abs(state.coefficients - column)) < 1e-13, t


# ---------------------------------------------------------------------------
# Truncation: the geometric tail bound of the series states
# ---------------------------------------------------------------------------

wide_lams = hs.floats(1e-300, 10.0)  # lam / 2 stays positive
wide_ks = hs.integers(0, 6)
# GK on Poschl-Teller and harmonic spectra, KP in both exponent conventions
families = hs.sampled_from(["gk_pt", "gk_harmonic", "kp", "kp_two_lambda"])


def _family(kind, lam, k):
    if kind.startswith("gk"):
        return _gk_family(_spectrum(lam if kind == "gk_pt" else None), k)
    return _kp_family(lam, k, 2.0 * lam if kind == "kp_two_lambda" else lam)


@settings(SETTINGS, max_examples=100)
@given(families, wide_lams, wide_ks)
def test_term_ratios_do_not_increase(kind, lam, k):
    # term_n r_n / (1 - r_n) bounds the rest of a sum only when the ratios
    # r_n = w(n) / w(n-1) do not increase; 1e-9 absorbs the rounding of log w
    log_w, _ = _family(kind, lam, k).terms(0, 2048)
    assert np.diff(log_w, 2).max() <= 1e-9


@settings(SETTINGS, max_examples=40)
@given(families, wide_lams, wide_ks, hs.floats(0.05, 1.0), phases,
       hs.integers(3, 14))
def test_tail_bound_covers_the_mass_beyond(kind, lam, k, radius, phase, digits):
    # the mass past a state's last level, relative to the mass it keeps,
    # measured on a rebuild to 1e-30, never exceeds its tail_bound
    if kind.startswith("gk"):
        spec = _spectrum(lam if kind == "gk_pt" else None)
        label = GKLabel(cmath.rect(8.0 * radius, phase), 0.0, k)
        build = lambda eps, cap=None: gk_state(spec, label, eps, cap)
    else:
        label = KPLabel(xi=cmath.rect(0.99 * radius, phase), k=k)
        exponent = "two_lambda" if kind == "kp_two_lambda" else "lambda"
        build = lambda eps, cap=None: kp_state_pt(lam, label, eps, cap, exponent)
    state = build(10.0 ** -digits)
    deep = build(1e-30, 1 << 15)
    assert deep.tail_bound <= 1e-30
    mass = np.abs(deep.coefficients) ** 2
    beyond = math.fsum(mass[state.size:]) / math.fsum(mass[:state.size])
    assert beyond <= state.tail_bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# 30-digit references
# ---------------------------------------------------------------------------

def _mp_log_series(log_term):
    """log sum_n exp(log_term(n)) at 30 digits, summed past 1e-40 relative."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        n = 0
        while True:
            t = mpmath.exp(log_term(n))
            total += t
            if n > 5 and t < mpmath.mpf("1e-40") * total:
                return float(mpmath.log(total))
            n += 1


def _mp_gk_log_norm(lam, u, k):
    # 1/E_k(n) = E_0(n+k) / E_0(n)^2 with E_0(n) = n! (lam+1)_n
    def log_e0(n):
        return mpmath.loggamma(n + 1) + mpmath.loggamma(lam + 1 + n) - mpmath.loggamma(lam + 1)
    return _mp_log_series(lambda n: n * mpmath.log(u) + log_e0(n + k) - 2 * log_e0(n))


def _mp_kp_log_norm(lam, u, k):
    pref = (lam + 1) * mpmath.log(1 - mpmath.mpf(u))
    return float(pref) + _mp_log_series(
        lambda n: (n * mpmath.log(u) + mpmath.loggamma(n + k + 1)
                   + mpmath.loggamma(n + k + lam + 1) - 2 * mpmath.loggamma(n + 1)
                   - mpmath.loggamma(lam + 1)))


def test_gk_norm_constant_against_30_digits():
    for lam in (1.0, 4.0, 7.0):
        spec = _spectrum(lam)
        for k in (0, 2, 3):
            for u in (0.04, 0.5, 2.25):
                ref = _mp_gk_log_norm(mpmath.mpf(lam), mpmath.mpf(u), k)
                assert abs(gk_norm_constant(spec, u, k) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_kp_series_norm_against_30_digits():
    for lam in (1.0, 4.0, 7.0):
        for k in (0, 2, 3):
            for u in (0.04, 0.25, 0.49):
                ref = _mp_kp_log_norm(mpmath.mpf(lam), mpmath.mpf(u), k)
                got = kp_norm_constant_pt(lam, u, k, method="series")
                assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def _mp_overlap(log_w, energy, x1, x2, d_alpha):
    """sum_n conj(x1)^n x2^n w(n) e^{-i d_alpha E_{n+k}} over the square roots
    of the two norms (the same sum at d_alpha = 0 and x1 = x2), at 30 digits;
    summed until both norms' terms fall below 1e-40 of their partial sums."""
    with mpmath.workdps(30):
        x1, x2 = mpmath.mpc(x1), mpmath.mpc(x2)
        kernel = norm1 = norm2 = mpmath.mpf(0)
        n = 0
        while True:
            w = mpmath.exp(log_w(n))
            t1, t2 = w * abs(x1) ** (2 * n), w * abs(x2) ** (2 * n)
            kernel += w * (mpmath.conj(x1) * x2) ** n * mpmath.expj(-d_alpha * energy(n))
            norm1 += t1
            norm2 += t2
            if n > 5 and t1 < mpmath.mpf("1e-40") * norm1 and t2 < mpmath.mpf("1e-40") * norm2:
                return complex(kernel / mpmath.sqrt(norm1 * norm2))
            n += 1


@SETTINGS
@given(lams, ks, xis, xis, alphas, alphas)
def test_kp_overlap_against_30_digits(lam, k, xi1, xi2, a1, a2):
    # w(n) = (n+k)! Gamma(n+k+lam+1) / (n!^2 Gamma(lam+1)), E_m = m (m + lam)
    lam_mp = mpmath.mpf(lam)
    ref = _mp_overlap(
        lambda n: (mpmath.loggamma(n + k + 1) + mpmath.loggamma(n + k + lam_mp + 1)
                   - 2 * mpmath.loggamma(n + 1) - mpmath.loggamma(lam_mp + 1)),
        lambda n: (n + k) * (n + k + lam_mp), xi1, xi2, mpmath.mpf(a2) - mpmath.mpf(a1))
    got = kp_overlap_pt(lam, KPLabel(xi=xi1, alpha=a1, k=k), KPLabel(xi=xi2, alpha=a2, k=k))
    assert abs(got - ref) <= 1e-12


@SETTINGS
@given(lams, ks, zs, zs, alphas, alphas)
def test_gk_overlap_against_30_digits(lam, k, z1, z2, a1, a2):
    # w(n) = 1 / E_k(n) = E_0(n+k) / E_0(n)^2 with E_0(n) = n! (lam+1)_n
    lam_mp = mpmath.mpf(lam)

    def log_e0(n):
        return mpmath.loggamma(n + 1) + mpmath.loggamma(lam_mp + 1 + n) - mpmath.loggamma(lam_mp + 1)

    ref = _mp_overlap(lambda n: log_e0(n + k) - 2 * log_e0(n),
                      lambda n: (n + k) * (n + k + lam_mp), z1, z2,
                      mpmath.mpf(a2) - mpmath.mpf(a1))
    got = gk_overlap(_spectrum(lam), GKLabel(z1, a1, k), GKLabel(z2, a2, k))
    assert abs(got - ref) <= 1e-12
