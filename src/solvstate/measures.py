"""Resolution-of-identity verification: moment equations, Gamma identities.

Three layers of checking, in decreasing strength:

* a pure Gamma-function identity verifying (at the Mellin-transform level)
  that the claimed Meijer-G weight of the GK family reproduces the required
  radial moments exactly;
* quadrature of candidate unit-disk weights for the KP family against the
  required power moments, with an independent analytic Beta value wherever
  the candidate reduces to one -- quadrature-vs-Beta agreement is asserted,
  while the documented mismatch between the published k=0 weight and the
  published moment equation is *reported* (errata), never asserted away;
* diagonal matrix elements of the reconstructed identity operator assembled
  symbolically from moment ratios.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DomainError, require_lam, require_photon_number
from .spectrum import PoschlTellerSpectrum
from .specfun import hyper_pfq, integrate, log_gamma, log_pochhammer

__all__ = [
    "WeightCandidate",
    "MomentEntry",
    "MomentReport",
    "kp_weight_k0",
    "kp_weight_unit_disk",
    "gk_radial_moment_log",
    "mellin_weight_moment_log",
    "mellin_gamma_check_pt",
    "kp_moment_target_log",
    "kp_moment_residuals",
    "gk_measure_selfconsistency",
    "nonnegativity_report",
]

# term budget and tolerance of the a_b_lam2k weight's 2F1 in 1 - r
_LOG_READING_MAX_TERMS = 20000
_LOG_READING_REL_TOL = 1e-13
# verdict tolerances: quadrature against analytic Beta moments, quadrature
# against the published target, and the exact log-Gamma identities
_QUAD_TOLERANCE = 1e-9
_MATCH_TOLERANCE = 1e-8
_IDENTITY_TOLERANCE = 1e-12
_NONNEGATIVITY_GRID = 1000

# Cephes psi as scipy.special.digamma evaluates it for x > 0: the same
# constants, branches and operation order give the same floats, so the
# a_b_lam2k weight's connection expansion prints the same digits with or
# without scipy installed
_EULER = 0.577215664901532860606512090082402431
_PSI_ASY = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
            7.57575757575757575758E-3, -4.16666666666666666667E-3,
            3.96825396825396825397E-3, -8.33333333333333333333E-3,
            8.33333333333333333333E-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)


def _horner(x: float, coefs: tuple) -> float:
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _digamma(x: float) -> float:
    """psi(x) for x > 0: harmonic sums at integers up to 10, a rational
    approximation on [1, 2] reached by recurrence below 10, the asymptotic
    series above."""
    if x <= 10.0 and x == math.floor(x):
        y = 0.0
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    y = 0.0
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - 1569415565.0 / 1073741824.0
        g -= (381566830.0 / 1073741824.0) / 1073741824.0
        g -= 0.9016312093258695918615325266959189453125e-19
        r = _horner(x - 1.0, _PSI_P) / _horner(x - 1.0, _PSI_Q)
        return y + (g * 0.99558162689208984375 + g * r)
    z = 1.0 / (x * x)  # Cephes drops this term from 1e17 on, where it is below an ulp
    return y + (math.log(x) - 0.5 / x - z * _horner(z, _PSI_ASY))


# ---------------------------------------------------------------------------
# Weight candidates
# ---------------------------------------------------------------------------

@dataclass
class WeightCandidate:
    """A radial density h(r) on (0, 1) proposed to solve a power-moment
    equation.

    `left_exponent` / `right_exponent` describe the algebraic behaviour of h
    at r = 0 and r = 1 (used to build quadrature rules); `analytic_log_moment`
    returns log of the exact moment integral with integrand h(r) r^power when
    one exists, else None. Candidates carry the published prefactor as
    printed; `verify.suite_measures` checks the constant lam (k = 0) or
    lam+2k (a_b_lam2k) that the published text leaves unresolved against the
    unscaled moments.
    """

    id: str
    h: callable
    left_exponent: float = 0.0
    right_exponent: float = 0.0
    analytic_log_moment: callable = None

    def evaluate(self, r):
        return self.h(np.asarray(r, dtype=float))


def kp_weight_k0(lam: float) -> WeightCandidate:
    """Published k=0 unit-disk weight h(r) = (1-r)^(lam-1) / Gamma(lam+1): the
    k = 0 member of the a_b_b family, under its own id."""
    return replace(kp_weight_unit_disk(lam, 0, "a_b_b"), id="kp_k0")


def kp_weight_unit_disk(lam: float, k: int, reading: str = "a_b_b") -> WeightCandidate:
    """Published photon-added unit-disk weight under one reading of its
    ambiguous hypergeometric parameter list.

    reading="a_b_b":     2F1(k, lam+k; lam+k; 1-r) = r^(-k), an elementary
                         algebraic weight with exact Beta moments for n > k;
    reading="a_b_lam2k": 2F1(k, lam+k; lam+2k; 1-r), evaluated by series
                         (logarithmically singular at r -> 0 for k > 0, no
                         elementary moments).
    """
    require_lam(lam)
    require_photon_number(k)
    log_norm = log_gamma(lam + 2.0 * k + 1.0)

    if reading == "a_b_b":
        def h(r):
            r = np.asarray(r, dtype=float)
            return np.exp((lam + 2.0 * k - 1.0) * np.log1p(-r)
                          - k * np.log(r) - log_norm)

        def analytic(power):
            # integral of r^(power-k) (1-r)^(lam+2k-1) dr = B(power-k+1, lam+2k)
            if power - k + 1.0 <= 0.0:
                return None  # divergent at r = 0
            return (log_gamma(power - k + 1.0) + log_gamma(lam + 2.0 * k)
                    - log_gamma(power + k + 1.0 + lam) - log_norm)

        return WeightCandidate(
            id=f"kp_eq_weight[{reading}]",
            h=h,
            left_exponent=float(-k),
            right_exponent=lam + 2.0 * k - 1.0,
            analytic_log_moment=analytic,
        )

    if reading == "a_b_lam2k":
        a, b = float(k), lam + k
        if k > 0:  # digamma table of the connection expansion, at most 200 terms
            s = np.arange(200.0)
            psi = np.array([2.0 * _digamma(j + 1.0) - _digamma(a + j) - _digamma(b + j)
                            for j in s.tolist()])
            ratio = (a + s) * (b + s) / ((s + 1.0) ** 2)
            try:
                pref = math.exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b))
            except OverflowError:
                raise DomainError(f"the a_b_lam2k expansion overflows at k = {k}") from None

        def gauss_2f1(r):
            # 2F1(k, lam+k; lam+2k; 1-r), NaN where a sum missed its stop rule.
            # The lower parameter equals the sum of the upper ones, so the
            # function is log-singular at r -> 0 and the series in 1-r is
            # useless there: r >= 0.25 is one hyper_pfq call on the batch,
            # r < 0.25 the connection expansion in powers of r (DLMF 15.8.10),
            # each point stopping after the term whose successor, times
            # (|ln r| + 10), is below 1e-16 of the partial sum.
            out, far = np.ones_like(r), r >= 0.25
            if k == 0:
                return out
            if far.any():
                res = hyper_pfq([a, b], [lam + 2.0 * k], 1.0 - r[far],
                                _LOG_READING_MAX_TERMS, _LOG_READING_REL_TOL)
                out[far] = res.value.real if res.converged else np.nan
            if not far.all():
                near = r[~far, None]
                term = np.cumprod(np.hstack([np.ones_like(near), ratio * near]), axis=1)
                partial = np.cumsum(term[:, :-1] * (psi - np.log(near)), axis=1)
                small = (np.abs(term[:, 1:]) * (np.abs(np.log(near)) + 10.0)
                         < 1e-16 * np.abs(partial))
                end = partial[np.arange(near.size), small.argmax(axis=1)]
                out[~far] = pref * np.where(small.any(axis=1), end, np.nan)
            return out

        def h(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            return gauss_2f1(r) * np.exp((lam + 2.0 * k - 1.0) * np.log1p(-r) - log_norm)

        return WeightCandidate(
            id=f"kp_eq_weight[{reading}]",
            h=h,
            # logarithmic endpoint for k > 0; a mild declared exponent makes
            # the quadrature substitute it into a smooth integrand
            left_exponent=-0.5 if k > 0 else 0.0,
            right_exponent=lam + 2.0 * k - 1.0,
        )

    raise DomainError(f"unknown reading {reading!r}")


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def gk_radial_moment_log(lam: float, k: int, n: int) -> float:
    """log of (n!)^2 ((lam+1)_n)^2 / ((n+k)! (lam+k+1)_n).

    The Poschl-Teller form of the GK moment target; equals
    E_k(n) * (lam+1)_k, i.e. it carries the same benign n-independent
    constant as the hypergeometric normalization closed form.
    """
    require_photon_number(k)
    return (2.0 * log_gamma(n + 1.0) + 2.0 * log_pochhammer(lam + 1.0, n)
            - log_gamma(n + k + 1.0) - log_pochhammer(lam + k + 1.0, n))


def mellin_weight_moment_log(lam: float, k: int, n: int) -> float:
    """log of the n-th moment of the claimed GK Meijer-G weight, evaluated
    through its defining Gamma-ratio Mellin transform at s = n+1 (no
    pointwise G evaluation anywhere)."""
    require_photon_number(k)
    s = n + 1.0
    return (log_gamma(lam + k + 1.0) - 2.0 * log_gamma(lam + 1.0)
            + 2.0 * log_gamma(s) + 2.0 * log_gamma(lam + s)
            - log_gamma(k + s) - log_gamma(lam + k + s))


def kp_moment_target_log(lam: float, k: int, n: int) -> float:
    """log of the published KP unit-disk moment target
    Gamma(n+1)^2 / (Gamma(n+k+1) Gamma(n+lam+k+1))."""
    require_photon_number(k)
    return (2.0 * log_gamma(n + 1.0) - log_gamma(n + k + 1.0)
            - log_gamma(n + lam + k + 1.0))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MomentEntry:
    n: int
    power: int | None
    target_log: float
    computed_log: float | None
    rel_residual: float
    quad_error: float = 0.0
    analytic_log: float | None = None
    quad_vs_analytic: float | None = None
    verdict: str = "pass"

    def to_dict(self):
        return asdict(self)


@dataclass
class MomentReport:
    """Deterministic verdict table for one moment-verification run.

    `passed` reflects only the assertable content of the run (identities and
    quadrature-vs-analytic agreement); documented structural mismatches of
    the published formulas live in `errata` and never fail a report. The
    field order of this record and of `MomentEntry` is the order of the
    `moments` JSON payload, which `to_dict` takes from `asdict`.
    """

    title: str
    candidate: str | None
    tolerance: float
    passed: bool = True
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    errata: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)

    def to_text(self) -> str:
        lines = [self.title]
        if self.candidate:
            lines.append(f"candidate: {self.candidate}")
        lines.append(f"tolerance: {self.tolerance:g}   passed: {self.passed}")
        lines.append(f"{'n':>4} {'pow':>4} {'target(log)':>14} {'computed(log)':>14} "
                     f"{'rel.resid':>11} {'quad.err':>10} {'verdict':>13}")
        for e in self.entries:
            comp = f"{e.computed_log:14.6f}" if e.computed_log is not None else f"{'--':>14}"
            lines.append(
                f"{e.n:>4} {e.power if e.power is not None else '-':>4} "
                f"{e.target_log:14.6f} {comp} {e.rel_residual:11.3e} "
                f"{e.quad_error:10.2e} {e.verdict:>13}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        for err in self.errata:
            lines.append(f"errata: {err}")
        return "\n".join(lines)


def _rel_from_logs(la: float, lb: float) -> float:
    """|exp(la - lb) - 1|, saturating instead of overflowing."""
    d = la - lb
    if abs(d) > 700.0:
        return math.inf
    return abs(math.expm1(d))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _require_moments(n_max: int, lowest: int) -> None:
    """A report over moments lowest..n_max must have at least one to judge."""
    if n_max < lowest:
        raise DomainError(f"n_max must be at least {lowest}, got {n_max}")


def _identity_report(title: str, logs) -> MomentReport:
    """A report on the GK Meijer-G weight with one entry per (computed_log,
    target_log) pair of `logs`, for n = 0, 1, ..., each judged as an exact
    identity; one miss fails the report."""
    report = MomentReport(title=title, candidate="gk_meijer_g[mellin-only]",
                          tolerance=_IDENTITY_TOLERANCE)
    for n, (computed, target) in enumerate(logs):
        resid = _rel_from_logs(computed, target)
        verdict = "pass" if resid <= _IDENTITY_TOLERANCE else "fail"
        report.entries.append(MomentEntry(n, None, target, computed, resid,
                                          verdict=verdict))
        report.passed = report.passed and verdict == "pass"
    return report


def mellin_gamma_check_pt(lam: float, k: int, n_max: int) -> MomentReport:
    """Verify, in log-Gamma arithmetic, that the Meijer-G weight's Mellin
    transform reproduces the required GK radial moments for n <= n_max."""
    require_lam(lam)
    require_photon_number(k)
    _require_moments(n_max, 0)
    report = _identity_report(
        f"Mellin-level weight check (lam={lam}, k={k})",
        [(mellin_weight_moment_log(lam, k, n), gk_radial_moment_log(lam, k, n))
         for n in range(n_max + 1)])
    report.notes.append(
        "computed = Gamma-ratio Mellin transform of the claimed weight at "
        "s = n+1; target = required radial moment (both log domain)"
    )
    return report


def _moment_table(candidate: WeightCandidate, n_max: int):
    """(p_min, one vector integral of h(r) r^p over (0, 1) for the powers
    p = p_min..n_max convergent at r = 0, under the lowest one's rule), with
    None for the integral when no power converges."""
    p_min = max(0, math.floor(-1.0 - candidate.left_exponent) + 1)
    if p_min > n_max:
        return p_min, None
    left, right = candidate.left_exponent + p_min, candidate.right_exponent
    powers = np.arange(p_min, n_max + 1)[:, None]
    return p_min, integrate(lambda r: candidate.evaluate(r) * r ** powers, 0.0, 1.0,
                            left if left != int(left) or left < 0 else None,
                            right if right != int(right) or right < 0 else None)


def kp_moment_residuals(lam: float, k: int, candidate: WeightCandidate,
                        n_max: int) -> MomentReport:
    """Quadrature moments of a candidate unit-disk weight, both power
    conventions, against the published KP moment targets.

    One table holds the moments of h(r) r^p over (0,1), p = 0..n_max, as one
    vector integral that evaluates the weight once per abscissa; for
    n = 1..n_max the r^{n-1} and r^n conventions read entries p = n-1 and
    p = n of it. Each is compared against the published
    Gamma-ratio target (within 1e-8) and, where the candidate is
    Beta-reducible, against its analytic value. `passed` asserts only
    quadrature-vs-analytic agreement (within 1e-9) and quadrature
    convergence; target mismatches are tallied in notes/errata. Convergence
    is one flag per table: if one power misses, every entry is indeterminate.
    """
    require_lam(lam)
    require_photon_number(k)
    _require_moments(n_max, 1)
    report = MomentReport(
        title=f"unit-disk moment residuals (lam={lam}, k={k})",
        candidate=candidate.id,
        tolerance=_MATCH_TOLERANCE,
    )
    p_min, res = _moment_table(candidate, n_max)
    match_count = {n_power: 0 for n_power in ("n-1", "n")}
    for n in range(1, n_max + 1):
        target = kp_moment_target_log(lam, k, n)
        for power in (n - 1, n):
            if power < p_min:
                report.entries.append(MomentEntry(
                    n, power, target, None, math.inf, 0.0, None, None,
                    "divergent"))
                continue
            value = float(res.value[power - p_min])
            computed_log = math.log(value) if value > 0 else -math.inf
            rel_resid = _rel_from_logs(computed_log, target)
            analytic_log = None
            quad_vs_analytic = None
            if candidate.analytic_log_moment is not None:
                analytic_log = candidate.analytic_log_moment(power)
                if analytic_log is not None:
                    quad_vs_analytic = _rel_from_logs(computed_log, analytic_log)
                    if quad_vs_analytic > _QUAD_TOLERANCE or not res.converged:
                        report.passed = False
            if not res.converged:
                verdict = "indeterminate"
            elif rel_resid <= _MATCH_TOLERANCE:
                verdict = "pass"
                match_count["n-1" if power == n - 1 else "n"] += 1
            else:
                verdict = "fail"
            report.entries.append(MomentEntry(
                n, power, target, computed_log, rel_resid,
                float(res.error[power - p_min]), analytic_log, quad_vs_analytic, verdict))

    for key, label in (("n-1", "r^(n-1)"), ("n", "r^n")):
        report.notes.append(
            f"power convention {label}: {match_count[key]}/{n_max} moments "
            f"match the published target within {_MATCH_TOLERANCE:g}"
        )
    if all(v == 0 for v in match_count.values()):
        report.errata.append(
            "candidate satisfies neither power convention of the published "
            "moment equation; at k=0 the published weight differs from the "
            "published target by the factor (n+lam)/(n*lam) -- a structural "
            "inconsistency in the source formulas, reported here, not fixed"
        )
    return report


def gk_measure_selfconsistency(lam: float, k: int, n_max: int) -> MomentReport:
    """Diagonal elements of the reconstructed identity operator for the GK
    family, assembled from moment ratios (isotropy kills off-diagonals).

    With the Mellin-level moments verified, the diagonal element on level
    m+k is [weight moment m] / (E_k(m) * (lam+1)_k); the Pochhammer constant
    is the convention offset shared by the closed-form normalization, and it
    cancels exactly here.
    """
    require_photon_number(k)
    _require_moments(n_max, 0)
    spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
    conv = log_pochhammer(lam + 1.0, k)
    report = _identity_report(
        f"GK identity-resolution diagonal (lam={lam}, k={k})",
        [(mellin_weight_moment_log(lam, k, m) - spec.log_ek(k, m) - conv, 0.0)
         for m in range(n_max + 1)])
    report.notes.append("target_log = 0 i.e. diagonal element 1")
    report.notes.append(
        "off-diagonal elements vanish identically: the angular integral of "
        "e^{i(n-m)theta} is 2*pi*delta_nm under the isotropic measure"
    )
    report.notes.append(
        f"levels 0..{k - 1} receive zero weight: the expansion starts at "
        f"level k = {k}" if k > 0 else
        "k = 0: every level is covered, the reconstruction is the full identity"
    )
    return report


def nonnegativity_report(candidate: WeightCandidate) -> dict:
    """Sample h on an interior grid and report any negative values."""
    r = np.linspace(0.0, 1.0, _NONNEGATIVITY_GRID + 2)[1:-1]
    vals = np.atleast_1d(candidate.evaluate(r))
    neg = int(np.sum(vals < 0.0))
    return {
        "candidate": candidate.id,
        "grid_points": int(len(r)),
        "negative_points": neg,
        "min_value": float(vals.min()),
        "nonnegative": bool(neg == 0),
    }
