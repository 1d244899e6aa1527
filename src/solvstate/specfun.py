"""Special-function kernel: log-Gamma, Pochhammer, Beta, generalized
hypergeometric series, Jacobi polynomials, adaptive Gauss-Legendre quadrature.

Everything here is a pure function of its inputs. Series and double sums are
accumulated as (log magnitude, phase) pairs so that factorially growing terms
never overflow before they are combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite

__all__ = [
    "SeriesControl",
    "PfqResult",
    "QuadratureRule",
    "IntegralResult",
    "log_gamma",
    "log_pochhammer",
    "beta",
    "hyper_pfq",
    "jacobi_poly",
    "jacobi_poly_deriv",
    "integrate",
    "signed_log_sum",
]


# ---------------------------------------------------------------------------
# Gamma-family functions
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (relative error well below 1e-13)."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_pochhammer(a: float, n: int) -> float:
    """ln of the rising factorial (a)_n = Gamma(a+n)/Gamma(a), a > 0."""
    if n < 0:
        raise DomainError(f"log_pochhammer requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    return log_gamma(a + n) - log_gamma(a)


def beta(mu: float, nu: float) -> float:
    """Beta function B(mu, nu) through log-Gamma, positive arguments only."""
    if mu <= 0.0 or nu <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({mu}, {nu})")
    return math.exp(log_gamma(mu) + log_gamma(nu) - log_gamma(mu + nu))


# ---------------------------------------------------------------------------
# Signed/log-scaled accumulation helpers
# ---------------------------------------------------------------------------

class _ScaledSum:
    """Running sum held as value * exp(log_scale) to survive huge terms.

    Terms are supplied as (log_magnitude, unit_phase); the accumulator
    rescales itself whenever its mantissa drifts out of a safe range.
    """

    def __init__(self):
        self.mantissa = 0.0 + 0.0j
        self.log_scale = 0.0

    def add(self, log_mag: float, phase: complex) -> None:
        if log_mag == -math.inf:
            return
        if log_mag - self.log_scale > 700.0:
            # incoming term dwarfs the current sum; rebase the scale on it
            self.mantissa *= math.exp(self.log_scale - log_mag)
            self.log_scale = log_mag
        self.mantissa += phase * math.exp(log_mag - self.log_scale)
        m = abs(self.mantissa)
        if m > 1e120 or (m != 0.0 and m < 1e-120):
            self.log_scale += math.log(m)
            self.mantissa /= m

    @property
    def log_abs(self) -> float:
        m = abs(self.mantissa)
        if m == 0.0:
            return -math.inf
        return self.log_scale + math.log(m)

    @property
    def phase(self) -> complex:
        m = abs(self.mantissa)
        return self.mantissa / m if m != 0.0 else 0.0 + 0.0j

    def value(self) -> complex:
        if abs(self.mantissa) == 0.0:
            return 0.0 + 0.0j
        return self.mantissa * math.exp(self.log_scale)


def signed_log_sum(log_mags, signs) -> tuple[float, float]:
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


# ---------------------------------------------------------------------------
# Generalized hypergeometric series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesControl:
    """Stopping policy for infinite series.

    `consecutive_small` successive terms below the relative tolerance are
    required before the sum is accepted; hypergeometric terms can dip and
    then grow again, so a single small term proves nothing.
    """

    max_terms: int = 5000
    rel_tol: float = 1e-15
    consecutive_small: int = 3

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")
        if self.consecutive_small < 2:
            raise DomainError("consecutive_small must be at least 2")


DEFAULT_SERIES_CONTROL = SeriesControl()


@dataclass
class PfqResult:
    """Value of a pFq partial sum together with its convergence record."""

    value: complex
    log_abs: float
    phase: complex
    terms_used: int
    converged: bool
    achieved_tol: float

    @property
    def real(self) -> float:
        return self.value.real


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and abs(x - round(x)) < 1e-12


def hyper_pfq(a_params, b_params, x, ctl: SeriesControl | None = None) -> PfqResult:
    """Generalized hypergeometric sum_n [prod (a_i)_n / prod (b_j)_n] x^n / n!.

    Terms are tracked as (log magnitude, unit phase) via the exact term
    ratio, so parameters like (n+k)! in the numerator cannot overflow the
    accumulation. Returns the partial sum and whether the stopping rule was
    met; a series that terminates (some a_i a nonpositive integer) is summed
    exactly.
    """
    ctl = ctl or DEFAULT_SERIES_CONTROL
    a = [float(v) for v in a_params]
    b = [float(v) for v in b_params]
    for bj in b:
        if _is_nonpositive_integer(bj):
            raise DomainError(f"lower parameter {bj} is a nonpositive integer")

    terminates = any(_is_nonpositive_integer(ai) for ai in a)
    xc = complex(x)
    if not terminates:
        if len(a) == len(b) + 1 and abs(xc) >= 1.0:
            raise DomainError(
                f"series with p = q+1 requires |x| < 1, got |x| = {abs(xc)}"
            )
        if len(a) > len(b) + 1 and xc != 0:
            raise DomainError("series with p > q+1 diverges for x != 0")

    acc = _ScaledSum()
    log_t = 0.0
    phase_t = 1.0 + 0.0j
    acc.add(log_t, phase_t)
    small_run = 0
    achieved = math.inf
    n_used = 1

    for n in range(ctl.max_terms):
        num = 1.0
        for ai in a:
            num *= ai + n
        den = (n + 1.0)
        for bj in b:
            den *= bj + n
        ratio = num / den * xc
        if ratio == 0.0:
            # terminating series (or x = 0): summed exactly
            return PfqResult(acc.value(), acc.log_abs, acc.phase, n_used, True, 0.0)
        log_t += math.log(abs(ratio))
        phase_t *= ratio / abs(ratio)
        acc.add(log_t, phase_t)
        n_used = n + 2

        achieved = math.exp(min(log_t - acc.log_abs, 700.0)) if acc.log_abs != -math.inf else math.inf
        if achieved < ctl.rel_tol:
            small_run += 1
            if small_run >= ctl.consecutive_small:
                return PfqResult(acc.value(), acc.log_abs, acc.phase, n_used, True, achieved)
        else:
            small_run = 0

    return PfqResult(acc.value(), acc.log_abs, acc.phase, n_used, False, achieved)


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def jacobi_poly(n: int, alpha: float, beta_: float, x):
    """P_n^(alpha,beta)(x) by the three-term recurrence; x may be an ndarray."""
    if n < 0:
        raise DomainError(f"jacobi_poly requires n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = (alpha + 1.0) + (alpha + beta_ + 2.0) * (x - 1.0) / 2.0
    for m in range(2, n + 1):
        c1 = 2.0 * m * (m + alpha + beta_) * (2.0 * m + alpha + beta_ - 2.0)
        c2 = (2.0 * m + alpha + beta_ - 1.0) * (
            (2.0 * m + alpha + beta_) * (2.0 * m + alpha + beta_ - 2.0) * x
            + alpha * alpha - beta_ * beta_
        )
        c3 = 2.0 * (m + alpha - 1.0) * (m + beta_ - 1.0) * (2.0 * m + alpha + beta_)
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return p if p.ndim else float(p)


def jacobi_poly_deriv(n: int, alpha: float, beta_: float, x):
    """d/dx P_n^(alpha,beta)(x) = ((n+alpha+beta+1)/2) P_{n-1}^(alpha+1,beta+1)(x)."""
    if n == 0:
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x)
        return z if z.ndim else 0.0
    return 0.5 * (n + alpha + beta_ + 1.0) * jacobi_poly(n - 1, alpha + 1.0, beta_ + 1.0, x)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Panel layout and endpoint handling for `integrate`.

    `left_exponent` / `right_exponent` declare algebraic behaviour of the
    integrand at the endpoints, f ~ (x-a)^gamma resp. (b-x)^gamma with
    gamma > -1; the affected half-interval is then regularized by a power
    substitution before the usual panels are applied.
    """

    nodes: int = 24
    panels: int = 4
    max_depth: int = 14
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    left_exponent: float | None = None
    right_exponent: float | None = None

    def __post_init__(self):
        if self.nodes < 2:
            raise DomainError("QuadratureRule needs at least 2 nodes per panel")
        if self.panels < 1:
            raise DomainError("QuadratureRule needs at least 1 panel")
        for g in (self.left_exponent, self.right_exponent):
            if g is not None and g <= -1.0:
                raise DomainError("endpoint exponents must exceed -1 for integrability")


DEFAULT_RULE = QuadratureRule()

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int):
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


@dataclass
class IntegralResult:
    value: float
    error: float
    converged: bool
    evaluations: int = 0

    def __float__(self):
        return self.value


# Most abscissae the integrand receives in one call. A refinement level with
# more active panels is evaluated in several calls, so an integrand that never
# converges cannot double the batch with every level.
_MAX_ABSCISSAE = 1 << 14


def _gl_panels(f, lo, hi, n, counter):
    """n-node Gauss-Legendre estimates over the panels [lo[i], hi[i]]; f is
    called on the nodes of many panels at once."""
    t, w = _gl_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = np.empty(lo.size)
    per_call = max(1, _MAX_ABSCISSAE // n)
    for s in range(0, lo.size, per_call):
        x = mid[s:s + per_call, None] + half[s:s + per_call, None] * t
        fx = np.asarray(f(x.ravel())).reshape(x.shape)
        out[s:s + per_call] = half[s:s + per_call] * (fx @ w)
    counter[0] += lo.size * n
    return out


def _refine(g, lo, hi, coarse, tol, rule, counter):
    """Breadth-first refinement of the panels [lo[i], hi[i]] whose one-panel
    estimates are `coarse`; returns per-panel (value, error, converged).

    Each level evaluates both halves of every active panel in one batch. A
    panel is accepted when |fine - coarse| <= tol (its share, halved per
    level), at `max_depth`, or when an estimate is not finite; otherwise its
    halves become the next level's panels with the half estimates as their
    coarse values. A split panel's value is then left + right, summed back
    up level by level as a recursive bisection would.
    """
    levels = []
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        lo2 = np.column_stack((lo, mid)).ravel()
        hi2 = np.column_stack((mid, hi)).ravel()
        halves = _gl_panels(g, lo2, hi2, rule.nodes, counter)
        fine = halves[0::2] + halves[1::2]
        err = np.abs(fine - coarse)
        ok = err <= tol
        split = (~ok & np.isfinite(fine) & np.isfinite(coarse)
                 & (depth < rule.max_depth))
        levels.append((fine, err, ok, split))
        keep = np.repeat(split, 2)
        lo, hi, coarse = lo2[keep], hi2[keep], halves[keep]
        tol /= 2.0
        depth += 1
    value, error, conv = np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    for fine, err, ok, split in reversed(levels):
        fine[split] = value[0::2] + value[1::2]
        err[split] = error[0::2] + error[1::2]
        ok[split] = conv[0::2] & conv[1::2]
        value, error, conv = fine, err, ok
    return value, error, conv


def _power_substitution(f, a, b, gamma, side, power=None):
    """Map f on [a,b] with an algebraic endpoint at `side` to a smooth
    integrand on [0,1] via x = endpoint +/- (b-a) t^p.

    Floating point cannot represent points closer to the endpoint than about
    eps * |endpoint|, so sampling stops at a distance wall delta and the
    remaining sliver is added analytically from the declared power behaviour
    f ~ C (distance)^gamma: its integral is f(x_wall) * delta / (gamma + 1).
    Returns (g, t_wall, tail_constant); integrate over [t_wall, 1] and add
    the constant.
    """
    length = b - a
    if power is None:
        # exponent of the transformed integrand is gamma*p + p - 1;
        # push it to >= 2 for painless panels (capped: for gamma near -1 a
        # huge power only shrinks the sampled range without gaining accuracy)
        power = min(8, max(1, math.ceil(3.0 / (1.0 + gamma))))
    p = float(power)
    delta = 1e-12 * length
    t_wall = (delta / length) ** (1.0 / p)

    if side == "left":
        def g(t):
            return f(a + length * np.asarray(t) ** p) * length * p \
                * np.asarray(t) ** (p - 1.0)
        x_wall = a + delta
    else:
        def g(t):
            return f(b - length * np.asarray(t) ** p) * length * p \
                * np.asarray(t) ** (p - 1.0)
        x_wall = b - delta
    tail = float(np.asarray(f(np.array([x_wall])))[0]) * delta / (gamma + 1.0)
    return g, t_wall, tail


def integrate(f, a: float, b: float, rule: QuadratureRule | None = None) -> IntegralResult:
    """Adaptive panel-refined Gauss-Legendre integral of f over (a, b).

    f receives a 1-D ndarray holding the nodes of many panels at once (up to
    `_MAX_ABSCISSAE` per call) and must act elementwise, returning an array of
    the same length. Panels are refined breadth first: one call evaluates all
    top panels of a piece, then one call per level the two halves of every
    panel still above its tolerance share. Gauss nodes never touch the
    endpoints, so integrable endpoint singularities are sampled but not
    evaluated at the boundary; declaring them via the rule exponents
    additionally substitutes them away. The reported error is the sum of
    last-refinement differences (a conservative Richardson-style estimate);
    `converged` is False when some panel hit the depth limit without meeting
    its tolerance share or produced a non-finite estimate (such a panel stops
    refining at once). `evaluations` counts the abscissae evaluated.
    """
    require_finite(a=a, b=b)
    if not a < b:
        raise DomainError(f"integrate requires a < b, got ({a}, {b})")
    rule = rule or DEFAULT_RULE

    pieces = []
    offset = 0.0
    if rule.left_exponent is not None or rule.right_exponent is not None:
        mid = 0.5 * (a + b)
        if rule.left_exponent is not None:
            g, t0, tail = _power_substitution(f, a, mid, rule.left_exponent, "left")
            pieces.append((g, t0, 1.0))
            offset += tail
        else:
            pieces.append((f, a, mid))
        if rule.right_exponent is not None:
            g, t0, tail = _power_substitution(f, mid, b, rule.right_exponent, "right")
            pieces.append((g, t0, 1.0))
            offset += tail
        else:
            pieces.append((f, mid, b))
    else:
        pieces.append((f, a, b))

    counter = [0]
    # every top panel is evaluated once: the sum sets the absolute tolerance,
    # and each value is its panel's coarse estimate
    tops = []
    rough = offset
    for g, lo, hi in pieces:
        step = (hi - lo) / rule.panels
        i = np.arange(rule.panels)
        edges = (lo + i * step, lo + (i + 1) * step)
        coarse = _gl_panels(g, *edges, rule.nodes, counter)
        for v in coarse:
            rough += float(v)
        tops.append((g, edges, coarse))
    tol = max(rule.abs_tol, rule.rel_tol * abs(rough))

    total, err_total, ok = offset, 0.0, True
    n_panels = len(pieces) * rule.panels
    for g, edges, coarse in tops:
        values, errors, conv = _refine(g, *edges, coarse, tol / n_panels,
                                       rule, counter)
        for v, e in zip(values, errors):
            total += float(v)
            err_total += float(e)
        ok = ok and bool(conv.all())
    return IntegralResult(total, err_total, ok, counter[0])
