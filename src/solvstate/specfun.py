"""Special-function kernel: log-Gamma, Pochhammer, generalized
hypergeometric series, Jacobi polynomials, adaptive Gauss-Legendre quadrature.

Everything here is a pure function of its inputs. Every power series
sum_n x^n w(n) -- pFq and the photon-added norms and kernels of `states` --
is summed by one log-domain engine, `series_sum`, over an array of x at
once, so that factorially growing terms never overflow before they are
combined and a whole quadrature batch is one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite

__all__ = [
    "PfqResult",
    "IntegralResult",
    "log_gamma",
    "log_pochhammer",
    "hyper_pfq",
    "series_sum",
    "jacobi_poly",
    "jacobi_table",
    "integrate",
    "signed_log_sum",
]


# ---------------------------------------------------------------------------
# Gamma-family functions
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (relative error well below 1e-13); DomainError on overflow."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma overflows at x = {x}") from None


def log_pochhammer(a: float, n: int) -> float:
    """ln of the rising factorial (a)_n = Gamma(a+n)/Gamma(a), a > 0."""
    if n < 0:
        raise DomainError(f"log_pochhammer requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    return log_gamma(a + n) - log_gamma(a)


# ---------------------------------------------------------------------------
# Signed/log-scaled accumulation helpers
# ---------------------------------------------------------------------------

def signed_log_sum(log_mags, signs):
    """Combine terms sign_i * exp(log_mag_i) into (log|sum|, sign of sum).

    log_mags holds the terms along its last axis: one row, or a 2-D stack of
    rows that share the sign vector `signs`. Positive and negative parts are
    reduced separately (logsumexp) before the single cancelling subtraction,
    so the result is as accurate as the data allows; the caller can compare
    log|sum| against max(log_mag) to detect catastrophic cancellation. A
    sum that cancels exactly is (-inf, 0.0).

    Each row is reduced on its own: its max, one pairwise np.sum over the
    contiguous row, then math.log and math.expm1, so a row gives the same
    floats alone or in a stack. A 1-D log_mags returns two floats, a stack
    two arrays with one entry per row.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    signs = np.asarray(signs, dtype=float)
    rows = np.atleast_2d(log_mags)
    sums = [_signed_pair(lp, ln) for lp, ln in
            zip(_row_log_sum_exp(rows[:, signs > 0]),
                _row_log_sum_exp(rows[:, signs < 0]))]
    if log_mags.ndim == 1:
        return sums[0]
    log_abs, sign = np.array(sums, dtype=float).T
    return log_abs, sign


def _row_log_sum_exp(v: np.ndarray) -> list:
    """log sum exp of each row of v, -inf for an empty row."""
    if v.shape[-1] == 0:
        return [-math.inf] * len(v)
    v = np.ascontiguousarray(v)
    m = v.max(axis=-1)
    s = np.exp(v - m[:, None]).sum(axis=-1)
    return [mi + math.log(si) for mi, si in zip(m.tolist(), s.tolist())]


def _signed_pair(lp: float, ln: float) -> tuple[float, float]:
    """(log|P - N|, sign) from lp = log P and ln = log N."""
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

# a series stops at the end of its first run of this many successive terms
# below its tolerance: hypergeometric terms can dip and then grow again, so a
# single small term proves nothing
_SMALL_RUN = 3


def block_end(lo: int, limit: int, last: float = math.inf) -> int:
    """End of the series block from lo: blocks double from 32, stop at
    `limit` terms and at the last index of a finite table."""
    return int(max(lo + 1, min(2 * lo or 32, limit, last + 1)))


@dataclass
class SeriesSum:
    """`series_sum` per point: the sum is total * exp(top); last and peak are
    its last and largest |term| in those units, end its last index."""

    top: np.ndarray
    total: np.ndarray
    last: np.ndarray
    peak: np.ndarray
    end: np.ndarray
    stopped: np.ndarray  # the run of small terms was met
    exact: np.ndarray    # x = 0, or a finite table summed to its end

    def polar(self):
        """(|total|, log|S|, S/|S|): |total| by hypot as for a scalar complex,
        S/|S| exactly +-1 for a real S and 0 for S = 0."""
        total = self.total
        if total.dtype.kind != "c":
            size = np.abs(total)
            with np.errstate(divide="ignore"):
                return size, self.top + np.log(size), np.sign(total)
        size = np.hypot(total.real, total.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = np.where(total.imag == 0, np.sign(total.real), total / size)
            return size, self.top + np.log(size), unit


def series_sum(block, x, rel_tol: float, limit: int,
               last: float = math.inf, t=None) -> SeriesSum:
    """S = sum_n x^n w(n) e^{i t theta(n)} at every (x, t) of the sequences
    x and t (default t = 1).

    block(lo, hi) gives log|w(n)|, the sign of w(n) (None if all positive)
    and theta(n) (or None) for n = lo..hi-1, for all points at once, in
    blocks that double from 32. Each block re-sums a point's terms from n = 0
    as exp(log|term| - top), top the largest. A point stops at the end of its
    first run of _SMALL_RUN terms below rel_tol times the larger of |partial
    sum| and the largest term, or after `limit` terms, and leaves the batch;
    x = 0 (the n = 0 term) and a table with last index `last` are summed
    exactly. Each result depends only on its own (x, t).
    """
    pts = x.tolist() if isinstance(x, np.ndarray) else list(x)
    t = [1.0] * len(pts) if t is None else t
    live = [i for i, v in enumerate(pts) if v]
    w, sign, theta = block(0, block_end(0, limit, last) if live else 1)
    real = theta is None and not any(v.imag for v in pts)
    run, parts = _SMALL_RUN, []  # (points, *SeriesSum fields)
    if len(live) < len(pts):
        zero = np.array([i for i, v in enumerate(pts) if not v])
        one = np.ones(zero.size)
        u0 = one * (1.0 if sign is None else sign[0])
        if theta is not None:
            u0 = u0 * np.exp(1j * (np.array(t)[zero] * theta[0]))
        parts.append((zero, w[0] * one, u0, one, one, 0 * zero, one < 0, one > 0))
    idx = np.array(live, dtype=int)
    # per point through math as a scalar sum would; the negative real axis
    # alternates in sign exactly
    log_r = np.array([[math.log(abs(pts[i]))] for i in live])
    neg = [[not pts[i].imag and pts[i].real < 0] for i in live]
    flip = np.array(neg) if [True] in neg else None
    if not real:
        arg = np.array([[math.atan2(pts[i].imag, pts[i].real) if pts[i].imag else 0.0]
                        for i in live])
        if theta is not None:
            tl = np.array([[t[i]] for i in live])
    hi = len(w)
    while idx.size:
        n = np.arange(hi, dtype=float)
        log_t = log_r * n + w
        top = np.maximum.reduce(log_t, axis=1, keepdims=True)
        log_t -= top
        mags = term = np.exp(log_t, out=log_t)
        if not real:
            term = mags * np.exp(1j * (arg * n if theta is None else arg * n + tl * theta))
        if flip is not None:
            term = np.where(flip & (n % 2 == 1), -term, term)
        if sign is not None:
            term = term * sign
        partial = np.add.accumulate(term, axis=1)
        peak = np.maximum.accumulate(mags, axis=1)
        # a sum of positive terms is at least its largest term
        small = mags < rel_tol * (partial if term is mags
                                  else np.maximum(np.abs(partial), peak))
        hit = small[:, run - 1:]  # hit[:, j]: terms j .. j+run-1 all small
        for j in range(1, run):
            hit = hit & small[:, run - 1 - j:hi - j]
        found = hit.any(axis=1)
        end = hit.argmax(axis=1) + (run - 1) if hit.size else found + hi
        done = found
        if hi > last or hi >= limit:
            end, done = np.where(found, end, hi - 1), np.ones_like(found)
        ndone = np.count_nonzero(done)
        if ndone:
            every = ndone == idx.size
            rows = slice(None) if every else np.flatnonzero(done)
            end, stop = end[rows], found[rows]
            at = end + hi * np.arange(idx.size)[rows] if idx.size > 1 else end
            parts.append((idx[rows], top[rows, 0], partial.take(at), mags.take(at),
                          peak.take(at), end, stop, ~stop & (hi > last)))
            if every:
                break
            idx, log_r = idx[~done], log_r[~done]
            flip = None if flip is None else flip[~done]
            if not real:
                arg = arg[~done]
                tl = tl[~done] if theta is not None else None
        lo, hi = hi, block_end(hi, limit, last)
        wb, sb, tb = block(lo, hi)
        w = np.concatenate([w, wb])
        sign = None if sb is None else np.concatenate([sign, sb])
        theta = None if tb is None else np.concatenate([theta, tb])
    if len(parts) == 1:
        return SeriesSum(*parts[0][1:])
    out = [np.empty(len(pts), d)
           for d in (float, float if real else complex, float, float, int, bool, bool)]
    for p in parts:
        for o, c in zip(out, p[1:]):
            o[p[0]] = c
    return SeriesSum(*out)


@dataclass
class PfqResult:
    """Value of a pFq partial sum together with its convergence record."""

    value: complex
    log_abs: float
    phase: complex
    terms_used: int
    converged: bool
    achieved_tol: float


_EPS = float(np.finfo(float).eps)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and abs(x - round(x)) < 1e-12


def _pfq_block(a: list, b: list):
    """log|w(n)| and sign of w(n) = prod (a_i)_n / (prod (b_j)_n n!), from
    the exact term ratio w(n+1)/w(n)."""
    upper, lower = np.array(a)[:, None], np.array([1.0] + b)[:, None]
    negative = min(a + b, default=0.0) < 0.0

    def block(lo, hi):
        m = np.arange(hi - 1, dtype=float)
        ratio = np.multiply.reduce(upper + m) / np.multiply.reduce(lower + m)
        log_w = np.zeros(hi)
        np.add.accumulate(np.log(np.abs(ratio)), out=log_w[1:])
        if not negative:
            return log_w[lo:], None, None
        sign = np.ones(hi)
        np.multiply.accumulate(np.sign(ratio), out=sign[1:])
        return log_w[lo:], sign[lo:], None

    return block


def hyper_pfq(a_params, b_params, x, max_terms: int = 5000,
              rel_tol: float = 1e-15) -> PfqResult:
    """Generalized hypergeometric sum_n [prod (a_i)_n / prod (b_j)_n] x^n / n!.

    Summed by `series_sum`: log w(n) = sum log|(a_i)_n| - sum log|(b_j)_n| -
    log n! from the exact term ratio, with a sign for negative parameters, so
    parameters like (n+k)! cannot overflow the accumulation. At most
    max_terms + 1 terms. achieved_tol is eps * max|term| / |sum|
    (cancellation), or |last term| / |sum| if larger and the series is
    infinite; 0 for one term (x = 0). A sum with eps * max|term| >
    rel_tol * |sum| is not converged, terminating or not. For an ndarray
    x each point stops as its scalar call would; value, log_abs, phase and
    achieved_tol are arrays shaped like x, terms_used the total and
    converged true only if every point converged.
    """
    if rel_tol <= 0.0:
        raise DomainError("rel_tol must be positive")
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    a = [float(v) for v in a_params]
    b = [float(v) for v in b_params]
    for bj in b:
        if _is_nonpositive_integer(bj):
            raise DomainError(f"lower parameter {bj} is a nonpositive integer")

    terminates = any(_is_nonpositive_integer(ai) for ai in a)
    xs = np.asarray(x)
    xs = xs if xs.dtype.kind in "fc" else xs.astype(float)
    x_max = max(map(abs, xs.ravel().tolist()), default=0.0)
    if not terminates:
        if len(a) == len(b) + 1 and x_max >= 1.0:
            raise DomainError(
                f"series with p = q+1 requires |x| < 1, got |x| = {x_max}"
            )
        if len(a) > len(b) + 1 and x_max != 0:
            raise DomainError("series with p > q+1 diverges for x != 0")

    last = min((-ai for ai in a if ai <= 0.0 and ai == int(ai)), default=math.inf)
    s = series_sum(_pfq_block(a, b), xs.ravel(), rel_tol, max_terms + 1, last)
    size, log_abs, phase = s.polar()
    loss = np.where(s.end > 0, _EPS * s.peak, 0.0)  # one term has no rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.maximum(np.where(s.exact, 0.0, s.last), loss) / size
    ok = (s.stopped | s.exact) & (loss <= rel_tol * size)
    value = s.total * np.exp(s.top)
    if xs.ndim == 0:
        return PfqResult(complex(value[0]), float(log_abs[0]), complex(phase[0]),
                         int(s.end[0]) + 1, bool(ok[0]), float(achieved[0]))
    return PfqResult(*(v.reshape(xs.shape) for v in (value.astype(complex), log_abs,
                     phase.astype(complex))), int(s.end.sum()) + xs.size, bool(ok.all()),
                     achieved.reshape(xs.shape))


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def _jacobi_rows(n: int, alpha: float, beta_: float, x):
    """P_0..P_n^(alpha,beta)(x) one degree at a time from a three-term recurrence."""
    if n < 0:
        raise DomainError(f"jacobi_poly requires n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    prev = row = np.ones_like(x)
    yield row
    if n > 0:
        row = (alpha + 1.0) + (alpha + beta_ + 2.0) * (x - 1.0) / 2.0
        yield row
    for m in range(2, n + 1):
        s = 2.0 * m + alpha + beta_
        c1 = 2.0 * m * (m + alpha + beta_) * (s - 2.0)
        c2 = (s - 1.0) * (s * (s - 2.0) * x + alpha * alpha - beta_ * beta_)
        c3 = 2.0 * (m + alpha - 1.0) * (m + beta_ - 1.0) * s
        prev, row = row, (c2 * row - c3 * prev) / c1
        yield row


def jacobi_table(n: int, alpha: float, beta_: float, x) -> np.ndarray:
    """P_0..P_n^(alpha,beta)(x), every row of `_jacobi_rows`; shape (n+1,) + x's."""
    return np.stack(list(_jacobi_rows(n, alpha, beta_, x)))


def jacobi_poly(n: int, alpha: float, beta_: float, x):
    """P_n^(alpha,beta)(x), the last of `_jacobi_rows`; x may be an ndarray."""
    p = functools.reduce(lambda _, row: row, _jacobi_rows(n, alpha, beta_, x))
    return p if p.ndim else float(p)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

# the one rule of `integrate`: Gauss-Legendre nodes per panel, top panels per
# piece, bisection depth below a top panel, and the three terms of an
# integral's tolerance, the largest of _QUAD_ABS_TOL, _QUAD_REL_TOL * |rough
# sum| and the rounding floor _QUAD_ROUNDING * eps * sum |top-panel estimate|:
# a sum of panel estimates is not known closer than a small multiple of eps
# times the sum of their magnitudes (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 2002, section 4.2), so an integral that
# cancels to about 0 converges at that floor instead of refining to the depth
# limit; below 1e-12 / eps the floor never exceeds the relative term of a
# sign-definite integrand
_QUAD_NODES = 24
_QUAD_PANELS = 4
_QUAD_MAX_DEPTH = 14
_QUAD_REL_TOL = 1e-12
_QUAD_ABS_TOL = 1e-16
_QUAD_ROUNDING = 1024


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


@dataclass
class IntegralResult:
    value: float | np.ndarray  # length-K arrays for a vector integrand
    error: float | np.ndarray
    converged: bool
    evaluations: int = 0


# Most values (abscissae times components) the integrand returns in one call.
# A refinement level with more active panels is evaluated in several calls, so
# an integrand that never converges cannot double the batch with every level.
_MAX_ABSCISSAE = 1 << 14


def _gl_panels(f, lo, hi, counter, width):
    """_QUAD_NODES-node Gauss-Legendre estimates over the panels [lo[i],
    hi[i]], shaped (panels,) or (K, panels) as f is; f is called on the nodes
    of many panels at once, at most `_MAX_ABSCISSAE` values for `width`
    components."""
    n = _QUAD_NODES
    t, w = _gl_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    per_call = max(1, _MAX_ABSCISSAE // (n * width))
    out = []
    for s in range(0, lo.size, per_call):
        x = mid[s:s + per_call, None] + half[s:s + per_call, None] * t
        fx = np.asarray(f(x.ravel()))
        out.append(half[s:s + per_call] * (fx.reshape(fx.shape[:-1] + x.shape) @ w))
    counter[0] += lo.size * n
    return np.concatenate(out, axis=-1)


def _refine(g, lo, hi, coarse, tol, counter, width):
    """Breadth-first refinement of the panels [lo[i], hi[i]] whose one-panel
    estimates are `coarse` (shape (panels,) or (K, panels)); returns
    per-panel (value, error, converged) of that shape.

    Each level evaluates both halves of every active panel in one batch. A
    panel splits while some component misses |fine - coarse| <= tol (its
    share, halved per level) with finite estimates and depth < _QUAD_MAX_DEPTH;
    its halves become the next level's panels with the half estimates as
    their coarse values. A split panel's value is then left + right, summed
    back up level by level as a recursive bisection would.
    """
    levels = []
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        lo2 = np.column_stack((lo, mid)).ravel()
        hi2 = np.column_stack((mid, hi)).ravel()
        halves = _gl_panels(g, lo2, hi2, counter, width)
        fine = halves[..., 0::2] + halves[..., 1::2]
        err = np.abs(fine - coarse)
        ok = err <= tol
        miss = ~ok & np.isfinite(fine) & np.isfinite(coarse)
        split = miss.reshape(-1, lo.size).any(axis=0) & (depth < _QUAD_MAX_DEPTH)
        levels.append((fine, err, ok, split))
        keep = np.repeat(split, 2)
        lo, hi, coarse = lo2[keep], hi2[keep], halves[..., keep]
        tol /= 2.0
        depth += 1
    value, error, conv = levels.pop()[:3]  # the deepest level splits nothing
    for fine, err, ok, split in reversed(levels):
        fine[..., split] = value[..., 0::2] + value[..., 1::2]
        err[..., split] = error[..., 0::2] + error[..., 1::2]
        ok[..., split] = conv[..., 0::2] & conv[..., 1::2]
        value, error, conv = fine, err, ok
    return value, error, conv


def _power_substitution(f, a, b, gamma, side):
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
    # exponent of the transformed integrand is gamma*p + p - 1; push it to
    # >= 2 for painless panels (capped: for gamma near -1 a huge power only
    # shrinks the sampled range without gaining accuracy)
    p = float(min(8, max(1, math.ceil(3.0 / (1.0 + gamma)))))
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
    tail = np.asarray(f(np.array([x_wall])))[..., 0] * delta / (gamma + 1.0)
    return g, t_wall, tail if tail.ndim else float(tail)


def integrate(f, a: float, b: float, left_exponent: float | None = None,
              right_exponent: float | None = None) -> IntegralResult:
    """Adaptive panel-refined Gauss-Legendre integral of f over (a, b).

    f receives a 1-D ndarray holding the nodes of many panels at once and
    must act elementwise, returning an array of the same length, or of shape
    (K, len(x)) for K integrands over the same abscissae (the top-panel call
    decides; later calls return at most `_MAX_ABSCISSAE` values). Panels are
    refined breadth first: one call evaluates all top panels of a piece, then
    one call per level the two halves of every panel still above its
    tolerance share. Each component has its scalar integral's tolerance,
    the largest of _QUAD_ABS_TOL, _QUAD_REL_TOL * |rough sum| and
    _QUAD_ROUNDING * eps * (sum of |finite top-panel estimates|), shared by
    the panels, and a panel splits while any component misses its share, so each is
    refined at least as far as it would be alone. Gauss nodes never touch the endpoints, so
    integrable endpoint singularities are sampled but not evaluated at the
    boundary. `left_exponent` / `right_exponent` declare algebraic behaviour
    at an endpoint, f ~ (x-a)^gamma resp. (b-x)^gamma with gamma > -1; that
    half-interval is then regularized by a power substitution before the
    usual panels are applied. The reported error is the sum of
    last-refinement differences (a conservative Richardson-style estimate),
    per component; `converged` is one bool, False when some panel of some
    component hit the depth limit without meeting its share or produced a
    non-finite estimate (such a panel stops refining unless another
    component splits it). `evaluations` counts the abscissae evaluated.
    """
    require_finite(a=a, b=b)
    if not a < b:
        raise DomainError(f"integrate requires a < b, got ({a}, {b})")
    for g in (left_exponent, right_exponent):
        if g is not None and g <= -1.0:
            raise DomainError("endpoint exponents must exceed -1 for integrability")

    pieces = []
    offset = 0.0
    if left_exponent is None and right_exponent is None:
        pieces.append((f, a, b))
    else:
        mid = 0.5 * (a + b)
        for lo, hi, gamma, side in ((a, mid, left_exponent, "left"),
                                    (mid, b, right_exponent, "right")):
            if gamma is None:
                pieces.append((f, lo, hi))
            else:
                g, t0, tail = _power_substitution(f, lo, hi, gamma, side)
                pieces.append((g, t0, 1.0))
                offset += tail

    counter = [0]
    # every top panel is evaluated once: the sum sets the absolute tolerance,
    # and each value is its panel's coarse estimate
    tops = []
    rough = offset
    magnitude = 0.0
    width = 1
    for g, lo, hi in pieces:
        step = (hi - lo) / _QUAD_PANELS
        i = np.arange(_QUAD_PANELS)
        edges = (lo + i * step, lo + (i + 1) * step)
        coarse = _gl_panels(g, *edges, counter, width)
        width = coarse.size // _QUAD_PANELS or 1
        for v in coarse.T:
            rough = rough + v
            magnitude = magnitude + np.where(np.isfinite(v), np.abs(v), 0.0)
        tops.append((g, edges, coarse))
    tol = np.fmax(np.fmax(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(rough)),
                  _QUAD_ROUNDING * _EPS * magnitude)

    total, err_total, ok = offset, 0.0, True
    n_panels = len(pieces) * _QUAD_PANELS
    for g, edges, coarse in tops:
        values, errors, conv = _refine(g, *edges, coarse, (tol / n_panels)[..., None],
                                       counter, width)
        for v, e in zip(values.T, errors.T):
            total = total + v
            err_total = err_total + e
        ok = ok and bool(conv.all())
    if np.ndim(total):
        return IntegralResult(total, err_total, ok, counter[0])
    return IntegralResult(float(total), float(err_total), ok, counter[0])
