"""Gazeau-Klauder and Klauder-Perelomov coherent states with added excitations.

Two families over a solvable spectrum E_n, each generalized by applying the
raising operator k times and renormalizing:

* GK:  eigenstates of the lowering operator, coefficients
       z^n e^{-i alpha E_{n+k}} / sqrt(E_k(n)) on |psi_{n+k}>.
* KP:  displacement-type states exp(Z a+ - conj(Z) a-)|psi_0>, either via the
       spectrum-generic nested-sum expansion or, for the Poschl-Teller
       spectrum, in closed form on the unit disk |xi| < 1.

Both photon-added families are one series sum_n x^n w(n) on levels n+k, with
w(n) = 1/E_k(n) (GK) or (n+k)! Gamma(n+k+lam+1) / (n!^2 Gamma(lam+1)) (KP),
held by a private family record. One loop builds every state from x^n
sqrt(w(n)) and energy phases; one loop sums the squared norm (x = |z|^2) and
the overlap kernel (x = conj(z1) z2, phases e^{-i (alpha2 - alpha1) E_{n+k}}).
A state stops at its cap (2048 unless given) or once term_n r_n / (1 - r_n),
r_n < 1 the squared coefficient ratio, meets its budget relative to the
partial sum. That bounds the rest wherever the ratios do not increase
(Johansson, ACM TOMS 45(3), 2019): for KP, |xi|^2 (1 + k/(n+1)) (1 +
(k+lam_w)/(n+1)), and for GK, |z|^2 E_{n+k+1} / E_{n+1}^2, at k = 0 on any
increasing spectrum and at every k on the Poschl-Teller and harmonic ones.
Finite tables are summed exactly; on a rule-based CustomSpectrum at k >= 1
the tail is an estimate.

The KP weights depend only on lam, so their ingredients are shared rows in
one functools.lru_cache (the last 32 kept): log Gamma(m + b + 1), where b = 0
gives log m! (also read by the nested sums) and b = lam_w the KP factor, and
E_m = m (m + lam). A KP block slices them at m = n + k. Each row holds its
entries m < 2112 (_MAX_N + 64) as one read-only array built on first use,
and blocks past that are computed on each call. Entries are the same
math.lgamma values, so no result depends on call history or on which
thread built a row.

Every series is read in blocks that double in length. A KP block is only
row slices, so its first holds 128 terms, which end every norm, kernel and
profile of the label sweep; a GK block asks the spectrum for its levels,
so its first stays at 32 and a rule spectrum is asked for no level more
than that schedule reads. KP terms rise to one peak and then fall, so a
KP result does not depend on where its blocks end.

A state's magnitudes depend only on its family, |x|, tail_eps and cap; arg
x and alpha only turn phases (the temporal stability of Gazeau and Klauder,
J. Phys. A 32, 123, 1999). So a build is a magnitude profile and a phase
assembly. Two functools.lru_cache caches of 8 entries, keyed by the family's
series, keep the last profiles of states capped at _MAX_N levels or fewer
and the last one-point norms. A norm's entry is a slot, a list filled once
with [log sum, converged] by one slice assignment, so a reader sees it empty
or whole; an overlap kernel sums its point together with the norms whose
slots are empty, in one call. Eight entries hold the repeats that follow a
build closely (an alpha + t rebuild, a series norm right after its kernel,
each evolve row), not a verify pass's 32 state and 46 norm keys. No
per-point result depends on the batch, so every coefficient, tail bound,
norm and kernel is bit-identical whatever was built before, and an
unconverged norm raises the same error on a hit.

The nested sums of kp_state_general depend only on the spectrum, the level
count and the rows scanned: a third functools.lru_cache of 8 entries keeps
one read-only table per (spectrum object, n_max, rows), a pure function of
its key, so no table depends on call history or on the thread that built
it. A sweep asks for few keys: its nested builds all stop within 33 rows at
n_max = 48.

States are always normalized by the directly summed coefficient series; the
hypergeometric closed forms are treated as cross-checks, never as the source
of truth (they differ from the direct series by a benign n-independent
constant that would be fatal if mixed into overlaps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DomainError, require_finite, require_lam,
                     require_photon_number)
from .fockspace import _MAX_N, FockState, _energy_phases, _phase_guard, _truncation
from .spectrum import PoschlTellerSpectrum, Spectrum
from .specfun import (
    block_end,
    hyper_pfq,
    log_gamma,
    log_pochhammer,
    series_sum,
    signed_log_sum,
)

__all__ = [
    "GKLabel",
    "KPLabel",
    "KPGeneralResult",
    "PhotonStatistics",
    "gk_state",
    "gk_norm_constant",
    "gk_norm_constant_pt_closed",
    "gk_overlap",
    "kp_state_pt",
    "kp_norm_constant_pt",
    "kp_overlap_pt",
    "kp_state_general",
    "evolve",
    "photon_statistics",
]


@dataclass(frozen=True)
class GKLabel:
    """Label (z, alpha, k) of a photon-added lowering-operator eigenstate."""

    z: complex
    alpha: float = 0.0
    k: int = 0

    def __post_init__(self):
        require_photon_number(self.k)
        object.__setattr__(self, "z", complex(self.z))
        require_finite(z=self.z, alpha=self.alpha)


@dataclass(frozen=True)
class KPLabel:
    """Label of a displacement-type state: either the displacement amplitude Z
    or the unit-disk coordinate xi = (Z/|Z|) tanh|Z| (Poschl-Teller chart)."""

    xi: complex | None = None
    Z: complex | None = None
    alpha: float = 0.0
    k: int = 0

    def __post_init__(self):
        if (self.xi is None) == (self.Z is None):
            raise DomainError("provide exactly one of xi or Z")
        require_photon_number(self.k)
        if self.xi is not None:
            object.__setattr__(self, "xi", complex(self.xi))
        if self.Z is not None:
            object.__setattr__(self, "Z", complex(self.Z))
        require_finite(xi=self.xi, Z=self.Z, alpha=self.alpha)

    @property
    def as_xi(self) -> complex:
        """Unit-disk coordinate, converting from Z when necessary."""
        if self.xi is not None:
            return self.xi
        Z = self.Z
        if Z == 0:
            return 0.0 + 0.0j
        return (Z / abs(Z)) * math.tanh(abs(Z))


# ---------------------------------------------------------------------------
# The series engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """terms(lo, hi) gives (log w(n), E_{n+k}) for n = lo..hi-1; last is the
    last index n of a finite table (else +inf); first is the length of the
    first block of terms, after which blocks double (`block_end`). key,
    ("gk", spec, k) or ("kp", lam, k, lam_w), names the series: families
    compare and hash by it alone, so two builds of one series are the same
    cache key."""

    key: tuple
    k: int = field(compare=False)
    terms: callable = field(compare=False)
    last: float = field(compare=False)
    first: int = field(default=32, compare=False)


# entries m = 0.._TABLE_LEN-1 of a row are kept (a default-cap state at k < 64
# stays inside); past them each block is computed on every call
_TABLE_LEN = _MAX_N + 64
_ROWS_KEPT = 32  # rows kept, least recently used dropped
_KP_FIRST = 128  # terms in a KP series' first block (module docstring)


def _log_gamma_row(m: np.ndarray, b: float) -> np.ndarray:
    """log Gamma(m + b + 1) by math.lgamma; b = 0 gives log m!."""
    return np.fromiter(map(math.lgamma, (m + b + 1.0).tolist()), float, len(m))


def _energy_row(m: np.ndarray, lam: float) -> np.ndarray:
    """E_m = m (m + lam)."""
    return m * (m + lam)


@functools.lru_cache(maxsize=_ROWS_KEPT)
def _row(f, c: float) -> np.ndarray:
    """f(m, c) for m = 0.._TABLE_LEN-1, one read-only array built on first use."""
    values = f(np.arange(_TABLE_LEN), c)
    values.flags.writeable = False
    return values


def _rows(f, c: float, lo: int, hi: int) -> np.ndarray:
    """f(m, c) for m = lo..hi-1: a slice of its kept row, or computed past it."""
    return f(np.arange(lo, hi), c) if hi > _TABLE_LEN else _row(f, c)[lo:hi]


def _gk_family(spec: Spectrum, k: int) -> _Family:
    """w(n) = 1 / E_k(n) = E_0(n+k) / E_0(n)^2."""

    def terms(lo, hi):
        energies, log_e0 = spec.levels(lo, hi + k)
        return log_e0[k:] - 2.0 * log_e0[:hi - lo], energies[k:]

    return _Family(("gk", spec, k), k, terms, spec.max_level - k)


def _kp_family(lam: float, k: int, lam_w: float) -> _Family:
    """w(n) = (n+k)! Gamma(n+k+lam_w+1) / (n!^2 Gamma(lam_w+1)) on the
    energies E_n = n(n+lam); lam_w = lam except in errata mode."""
    require_lam(lam)
    log_norm = math.lgamma(lam_w + 1.0)

    def terms(lo, hi):
        log_fact = _rows(_log_gamma_row, 0.0, lo, hi + k)  # log m!, m = lo..hi+k-1
        log_w = (log_fact[k:] + _rows(_log_gamma_row, lam_w, lo + k, hi + k)
                 - 2.0 * log_fact[:hi - lo] - log_norm)
        return log_w, _rows(_energy_row, lam, lo + k, hi + k)

    return _Family(("kp", lam, k, lam_w), k, terms, math.inf, _KP_FIRST)


_MEMO_SIZE = 8  # entries kept by each cache (module docstring)


def _state(fam: _Family, x: complex, alpha: float, tail_eps: float,
           cap: int | None) -> FockState:
    """sum_n x^n sqrt(w(n)) e^{-i alpha E_{n+k}} |psi_{n+k}>, normalized, on
    the magnitude profile of |x|; arg x and alpha only turn phases."""
    cap = _truncation(tail_eps, cap)
    if x == 0:
        return FockState(fam.k, np.array([1.0 + 0.0j]), alpha, 0.0)
    profile = _held_profile if cap <= _MAX_N else _profile
    mags, energies, tail = profile(fam, abs(x), tail_eps, cap)
    c = mags * (np.exp(1j * np.arange(len(mags)) * np.angle(x))
                * _energy_phases(alpha, energies))
    c /= np.linalg.norm(c)
    return FockState(fam.k, c, alpha, tail)


def _profile(fam: _Family, r: float, tail_eps: float, cap: int) -> tuple:
    """(|c_n| / max|c_n|, E_{n+k}, tail bound) of the state at |x| = r > 0,
    as read-only arrays, grown until the tail bound meets tail_eps, a finite
    table ends, or the cap is reached."""
    log_r = math.log(r)
    logs, energies = [], []  # log|c_n| unnormalized; E_{n+k} per block
    shift = -math.inf
    total = 0.0  # sum of |c_n|^2 scaled by exp(-2*shift)
    tail_rel = math.inf
    n = 0
    while True:
        if n == len(logs):
            hi = block_end(n, cap, fam.last, fam.first)
            log_w, e = fam.terms(n, hi)
            logs += (np.arange(n, hi) * log_r + 0.5 * log_w).tolist()
            energies.append(e)
        ln = logs[n]
        if ln > shift:
            total = total * math.exp(2.0 * (shift - ln)) + 1.0
            shift, term = ln, 1.0
        else:
            term = math.exp(2.0 * (ln - shift))  # |c_n|^2 scaled like total
            total += term
        if n >= 4 and ln < logs[n - 1]:  # a growing term would overflow exp
            ratio = math.exp(2.0 * (ln - logs[n - 1]))
            if ratio < 1.0:  # geometric bound on the rest
                tail_rel = term * ratio / (1.0 - ratio) / total
                if tail_rel <= tail_eps:
                    break
        if n >= fam.last:
            tail_rel = 0.0  # finite table: the sum over the whole space is exact
            break
        if n + 1 >= cap:
            break
        n += 1
    size = n + 1
    mags = np.exp(np.array(logs[:size]) - shift)
    energies = np.concatenate(energies)[:size]
    mags.flags.writeable = energies.flags.writeable = False
    return mags, energies, min(tail_rel, 1.0)


_held_profile = functools.lru_cache(maxsize=_MEMO_SIZE)(_profile)


# the norm and kernel series: at most this many terms, each point stopping
# at its first run of terms below this tolerance (`series_sum`)
_SERIES_MAX_TERMS = 5000
_SERIES_REL_TOL = 1e-15


def _sum(fam: _Family, xs: list, d_alphas: list):
    """S = sum_n x^n w(n) e^{-i d_alpha E_{n+k}} at every (x, d_alpha), as
    arrays (log|S|, S/|S|, converged), with at most _SERIES_MAX_TERMS terms."""

    def block(lo, hi):
        log_w, e = fam.terms(lo, hi)
        rate = max(map(abs, d_alphas))  # the largest |d_alpha|: one guard per block
        return log_w, None, -_phase_guard(rate, e) if rate else None

    s = series_sum(block, xs, _SERIES_REL_TOL, _SERIES_MAX_TERMS, fam.last, d_alphas,
                   fam.first)
    return (*s.polar()[1:], s.stopped | s.exact)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _held_norm(fam: _Family, u: float) -> list:
    """The norm's slot at u: [] or [log sum_n u^n w(n), converged], filled once."""
    return []


def _log_norm(fam: _Family, u: float, what: str = "normalization series",
              log_pref: float = 0.0) -> float:
    """log_pref + log sum_n u^n w(n); a ConvergenceError carries that partial."""
    slot = _held_norm(fam, u)
    if not slot:
        log_s, _, ok = _sum(fam, [u], [0.0])
        slot[:] = float(log_s[0]), bool(ok[0])
    log_s, ok = slot
    return _checked([ok], [log_pref + log_s], what)[0]


def _checked(ok: list, partials: list, what: str) -> list:
    """partials, or a ConvergenceError carrying the first whose ok is False."""
    if not all(ok):
        raise ConvergenceError(f"{what} did not converge in {_SERIES_MAX_TERMS} terms",
                               partial=partials[ok.index(False)])
    return partials


def _abs2(x: complex) -> float:
    """abs(x) ** 2; a norm series at a point that overflows cannot converge."""
    try:
        return abs(x) ** 2
    except OverflowError:
        raise ConvergenceError("normalization series did not converge: |x|^2 overflows",
                               partial=math.inf) from None


def _kernel(fam: _Family, x1: complex, x2: complex, d_alpha: float,
            what: str) -> complex:
    """S(conj(x1) x2, alpha2 - alpha1) over the square roots of both norms;
    the norms whose slots are empty are summed in one call with the kernel
    point. A ConvergenceError carries the unconverged log|S|."""
    u1, u2 = _abs2(x1), _abs2(x2)
    slots = {u: _held_norm(fam, u) for u in (u1, u2)}
    todo = [u for u, slot in slots.items() if not slot]
    log_s, phase, ok = _sum(fam, [np.conj(x1) * x2] + todo, [d_alpha] + [0.0] * len(todo))
    log_s, ok = log_s.tolist(), ok.tolist()
    for u, log_n, ok_n in zip(todo, log_s[1:], ok[1:]):
        slots[u][:] = log_n, ok_n
    (log_n1, ok1), (log_n2, ok2) = slots[u1], slots[u2]
    log_k = _checked(ok[:1], log_s[:1], f"{what} series")[0]
    _checked([ok1, ok2], [log_n1, log_n2], "normalization series")
    return complex(phase[0]) * math.exp(log_k - 0.5 * (log_n1 + log_n2))


# ---------------------------------------------------------------------------
# Gazeau-Klauder family
# ---------------------------------------------------------------------------

def _check_gk_radius(spec: Spectrum, label: GKLabel) -> None:
    hint = spec.radius_hint(label.k)
    if math.isfinite(hint) and abs(label.z) >= hint:
        raise DomainError(
            f"|z| = {abs(label.z):.6g} lies outside the convergence radius "
            f"{hint:.6g} of this spectrum"
        )


def gk_state(spec: Spectrum, label: GKLabel, tail_eps: float = 1e-12,
             cap: int | None = None) -> FockState:
    """Photon-added Gazeau-Klauder state as a normalized FockState.

    Coefficients c_n on |psi_{n+k}> are z^n e^{-i alpha E_{n+k}} /
    sqrt(E_k(n)), normalized by the summed series. The truncation order grows
    until the tail bound (module docstring) drops below tail_eps or to the
    cap (2048 when None, a DomainError below 1); tail_bound tells the truth
    either way.
    """
    _check_gk_radius(spec, label)
    return _state(_gk_family(spec, label.k), label.z, label.alpha, tail_eps, cap)


def _require_abs2(z_abs2: float) -> None:
    if not 0.0 <= z_abs2 < math.inf:
        raise DomainError(f"|z|^2 must be finite and nonnegative, got {z_abs2}")


def gk_norm_constant(spec: Spectrum, z_abs2: float, k: int) -> float:
    """log of the normalization series sum_n |z|^{2n} / E_k(n).

    Raises ConvergenceError (carrying the partial log-sum) when the stopping
    rule is not met within _SERIES_MAX_TERMS terms.
    """
    _require_abs2(z_abs2)
    require_photon_number(k)
    hint = spec.radius_hint(k)
    if math.isfinite(hint) and z_abs2 >= hint * hint:
        raise DomainError(f"|z|^2 = {z_abs2:.6g} is outside the radius {hint:.6g}")
    return _log_norm(_gk_family(spec, k), z_abs2)


def _gk_2f3(lam: float, k: int, x: complex, what: str):
    """The GK closed forms' 2F3(k+1, lam+k+1; 1, lam+1, lam+1; x), converged."""
    require_lam(lam)
    require_photon_number(k)
    f = hyper_pfq([k + 1.0, lam + k + 1.0], [1.0, lam + 1.0, lam + 1.0], x)
    if not f.converged:
        raise ConvergenceError(f"2F3 {what} did not converge", partial=f.log_abs)
    return f


def gk_norm_constant_pt_closed(lam: float, z_abs2: float, k: int) -> float:
    """log of the hypergeometric closed form of the GK normalization,
    Gamma(k+1) (lam+1)_k 2F3(k+1, lam+k+1; 1, lam+1, lam+1; |z|^2), which
    matches `gk_norm_constant` on the Poschl-Teller spectrum."""
    _require_abs2(z_abs2)
    res = _gk_2f3(lam, k, z_abs2, "closed form")
    return log_gamma(k + 1.0) + res.log_abs + log_pochhammer(lam + 1.0, k)


def gk_overlap(spec: Spectrum, label1: GKLabel, label2: GKLabel) -> complex:
    """<label1 | label2> for two photon-added GK states sharing k.

    Conjugate-linear in the first argument, so swapping the labels
    conjugates the result.
    """
    if label1.k != label2.k:
        raise DomainError("overlap requires a shared photon number k")
    _check_gk_radius(spec, label1)
    _check_gk_radius(spec, label2)
    return _kernel(_gk_family(spec, label1.k), label1.z, label2.z,
                   label2.alpha - label1.alpha, "overlap")


def gk_overlap_compact(spec: PoschlTellerSpectrum, label1: GKLabel,
                       label2: GKLabel) -> complex:
    """Equal-alpha `gk_overlap` on the Poschl-Teller spectrum from the compact
    kernel Gamma(k+1) (lam+1)_k 2F3(k+1, lam+k+1; 1, lam+1, lam+1; conj(z1) z2)
    over the two series normalizations, as a cross-check; an unconverged 2F3
    raises ConvergenceError."""
    if label1.k != label2.k or label1.alpha != label2.alpha:
        raise DomainError("the compact kernel needs a shared k and equal alpha")
    lam, k = spec.lam, label1.k
    f = _gk_2f3(lam, k, np.conj(label1.z) * label2.z, "compact kernel")
    log_num = log_gamma(k + 1.0) + log_pochhammer(lam + 1.0, k)
    la1 = gk_norm_constant(spec, abs(label1.z) ** 2, k)
    la2 = gk_norm_constant(spec, abs(label2.z) ** 2, k)
    return complex(f.phase * math.exp(f.log_abs + log_num - 0.5 * (la1 + la2)))


# ---------------------------------------------------------------------------
# Klauder-Perelomov family, Poschl-Teller closed form (unit disk)
# ---------------------------------------------------------------------------

def _disk_point(label: KPLabel) -> complex:
    """label.as_xi, which must lie inside the unit disk."""
    xi = label.as_xi
    if abs(xi) < 1.0:
        return xi
    if label.Z is not None:
        raise DomainError(f"|Z| = {abs(label.Z):.6g} is off the unit-disk chart: "
                          f"tanh|Z| rounds to 1")
    raise DomainError(f"|xi| must be below 1, got {abs(xi):.6g}")


def kp_state_pt(lam: float, label: KPLabel, tail_eps: float = 1e-12,
                cap: int | None = None, exponent: str = "lambda") -> FockState:
    """Photon-added Klauder-Perelomov state of the Poschl-Teller spectrum.

    Coefficients on |psi_{n+k}> are proportional to
    xi^n sqrt((n+k)! Gamma(n+k+lam+1)) / n! times the usual energy phases.
    exponent="two_lambda" reproduces an alternative weight
    Gamma(n+k+2*lam+1) that is recorded for errata purposes only; it is
    inconsistent with the k=0 closed form and with the displacement oracle.
    """
    if exponent not in ("lambda", "two_lambda"):
        raise DomainError(f"unknown exponent convention {exponent!r}")
    lam_w = lam if exponent == "lambda" else 2.0 * lam
    return _state(_kp_family(lam, label.k, lam_w), _disk_point(label), label.alpha,
                  tail_eps, cap)


def kp_norm_constant_pt(lam: float, xi_abs2: float, k: int,
                        method: str = "closed") -> float:
    """log of the KP normalization constant on the unit disk, u = |xi|^2.

    The paper's closed form is
        (1-u)^{lam+1} Gamma(k+1) Gamma(lam+k+1) / Gamma(lam+1)
        * 2F1(lam+k+1, k+1; 1; u).
    Euler's transformation (DLMF 15.8.1) turns it into
        Gamma(k+1) Gamma(lam+k+1) / Gamma(lam+1) (1-u)^{-2k} P_k(u),
    P_k(u) = 2F1(-k, -lam-k; 1; u) = sum_{n=0..k} t_n, t_0 = 1,
    t_n = t_{n-1} (k-n+1) (lam+k+1-n) u / n^2, a polynomial of degree k with
    positive terms; method="closed" evaluates that, so it has no truncation
    and cannot fail to converge, and it is exactly 0 at k = 0.
    method="series" sums (1-u)^{lam+1} sum_n u^n (n+k)! Gamma(n+k+lam+1) /
    (n!^2 Gamma(lam+1)) directly. The series is the source of truth; the
    closed form is an independent formula to check it against.
    """
    require_lam(lam)
    require_photon_number(k)
    if not 0.0 <= xi_abs2 < 1.0:
        raise DomainError(f"|xi|^2 must lie in [0, 1), got {xi_abs2}")
    if method == "closed":
        poly = term = 1.0
        log_scale = 0.0  # P_k = poly * exp(log_scale), rescaled before it overflows
        for n in range(1, int(k) + 1):
            term *= (k - n + 1) / n * ((lam + k + 1 - n) / n * xi_abs2)
            poly += term
            if poly > 1e200:
                log_scale += math.log(poly)
                term /= poly
                poly = 1.0
        return (log_gamma(k + 1.0) + log_gamma(lam + k + 1.0) - log_gamma(lam + 1.0)
                - 2 * k * math.log1p(-xi_abs2) + math.log(poly) + log_scale)
    if method == "series":
        return _log_norm(_kp_family(lam, k, lam), xi_abs2, "KP normalization series",
                         (lam + 1.0) * math.log1p(-xi_abs2))
    raise DomainError(f"unknown method {method!r}")


def kp_overlap_pt(lam: float, label1: KPLabel, label2: KPLabel) -> complex:
    """Kernel <label1 | label2> of two Poschl-Teller KP states sharing k.

    Equal to the coefficient dot product of the two constructed states; for
    alpha = alpha' it reduces to the hypergeometric kernel on the unit disk.
    """
    if label1.k != label2.k:
        raise DomainError("kernel requires a shared photon number k")
    return _kernel(_kp_family(lam, label1.k, lam), _disk_point(label1),
                   _disk_point(label2), label2.alpha - label1.alpha, "kernel")


# ---------------------------------------------------------------------------
# Klauder-Perelomov family for a generic spectrum (nested energy sums)
# ---------------------------------------------------------------------------

# truncation of the nested sums' alternating series over j, and the largest
# last-term/partial-sum ratio that still counts as converged
_NESTED_J_MAX = 120
_NESTED_REL_TOL = 1e-12
# a j-term below 2^-54 of its level's largest term is under half an ulp of it
_LOG_NEGLIGIBLE = -54.0 * math.log(2.0)
# rows of the nested sums a stopped series reads first (J <= 32)
_NESTED_STOP_ROWS = 33
_NESTED_SIGNS = np.where(np.arange(_NESTED_J_MAX + 1) % 2 == 0, 1.0, -1.0)  # (-1)^j
_NESTED_SIGNS.flags.writeable = False


@dataclass(frozen=True)
class KPGeneralResult:
    """Nested-sum KP construction plus its convergence diagnostics.

    j_terms is the number of j-terms summed per level (j = 0..j_terms-1),
    worst_term_ratio the largest last summed term in coefficient units over
    the state's norm, and j_converged is worst_term_ratio <= 1e-12.
    """

    state: FockState
    j_converged: bool
    worst_term_ratio: float
    j_terms: int


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _nested_sums(spec: Spectrum, n_max: int, rows: int) -> np.ndarray:
    """log S_j(n) = log g_j(n+1) at [j, n] for j < rows and n <= n_max, read
    only; g_0(m) = 1, g_j(m) = sum_{i=1..m} E_i g_{j-1}(i+1), so row j scans
    m <= n_max + rows - j. A running sum's prefix does not depend on where
    it stops, so the table is the same slice of any larger one. Levels to
    n_max + 120, the last a full scan reads, are asked at every size, so a
    finite spectrum refuses an n_max whatever rows are asked."""
    log_e = np.log(spec.levels(1, n_max + _NESTED_J_MAX + 1)[0])  # log_e[i-1] = log E_i
    g = np.zeros((rows, n_max + rows + 1))
    for j in range(1, rows):
        scan = g[j, 1:n_max + rows - j + 1]
        np.add(log_e[:len(scan)], g[j - 1, 2:len(scan) + 2], out=scan)  # log E_i g_{j-1}(i+1)
        np.logaddexp.accumulate(scan, out=scan)
    table = g[:, 1:n_max + 2].copy()
    table.flags.writeable = False
    return table


def _nested_log_terms(spec: Spectrum, n_max: int, log_u: float,
                      stop: bool = True) -> np.ndarray:
    """log |t_j(n)| = j log u + log S_j(n) - log (n+2j)! for j = 0..120 and
    n = 0..n_max, with u = |Z|^2; rows past the stop row are -inf.

    S_0 = 1 and S_j(n) = g_j(n+1) from `_nested_sums`: the first 33 rows,
    or all 121 without `stop` or when the stop is not met within them, every
    row's terms formed in one broadcast. Stopped series, the common case,
    meet the stop within 33 rows, and a 33-row table builds in about a
    fifth of the time of all 121 rows.

    With `stop`, the series ends at the first J >= 2 where, on rows J-2,
    J-1 and J, every level's term is below 2^-54 of that level's largest
    term up to its row, and every level's term ratios t_{J-1}/t_{J-2} and
    t_J/t_{J-1} are below 1 and not rising. The ratio behaves like u
    E_{n+j} / (n+2j)^2, so it keeps falling on spectra that grow at most
    quadratically; on faster-growing ones it rises, the terms may climb
    back after a dip, and the series runs to j = 120.
    """
    lg = _rows(_log_gamma_row, 0.0, 0, n_max + 2 * _NESTED_J_MAX + 1)  # lg[m] = log m!
    for rows in (_NESTED_STOP_ROWS, _NESTED_J_MAX + 1)[not stop:]:
        j = np.arange(rows)[:, None]
        g = _nested_sums(spec, n_max, rows)
        terms = j * log_u + g - lg[2 * j + np.arange(n_max + 1)]
        if not stop:
            break
        top = np.maximum.accumulate(terms, axis=0)
        small = np.all(terms < top + _LOG_NEGLIGIBLE, axis=1)
        step = np.diff(terms, axis=0)  # step[j-1] = log t_j/t_{j-1}
        falling = np.all((step[1:] <= step[:-1]) & (step[:-1] < 0.0), axis=1)
        runs = np.flatnonzero(small[:-2] & small[1:-1] & small[2:] & falling)
        if len(runs):
            terms[runs[0] + 3:] = -math.inf
            break
    return np.concatenate([terms, np.full((_NESTED_J_MAX + 1 - rows, n_max + 1), -math.inf)])


def kp_state_general(spec: Spectrum, Z: complex, alpha: float = 0.0,
                     k: int = 0) -> KPGeneralResult:
    """Displacement-type state from the nested-sum energy expansion.

    The coefficient of level n+k is Z^n sqrt(E_0(n+k)) b_n (times the energy
    phases), with b_n = sum_j (-1)^j |Z|^{2j} S_j(n) / (n+2j)! and S_j the
    nested energy sums of `_nested_log_terms`. The alternating series over j
    stops at its first run of three negligible j-terms (`_nested_log_terms`),
    with J = 120 as the cap. All levels' series are one stacked
    `signed_log_sum` call over the 121 rows, those past J as -inf; the
    result is byte-identical to summing each level alone. The worst ratio
    is the largest term at J in coefficient units, |Z|^n sqrt(E_0(n+k))
    |t_J(n)|, over the state's norm, and j_converged is False when it
    exceeds 1e-12 (small |Z| keeps this well behaved, large |Z| may not
    converge at all depending on the spectrum). A series stopped early that
    misses 1e-12 is summed again to J = 120, so a verdict of not converged
    is always the full series'. A level whose series cancels to 0.0 is
    judged by its terms against the state, not against its own sum. The
    level count doubles from 48 until the top four levels hold below 1e-14
    of the norm, or reaches 384.
    """
    require_photon_number(k)
    Z = complex(Z)
    require_finite(Z=Z, alpha=alpha)
    if Z == 0:
        return KPGeneralResult(FockState(k, np.array([1.0 + 0.0j]), alpha, 0.0),
                               True, 0.0, 1)
    n_max = 48
    while True:
        result = _kp_general(spec, Z, alpha, k, n_max)
        edge = float(np.sum(np.abs(result.state.coefficients[-4:]) ** 2))
        if edge < 1e-14 or n_max >= 384:
            return result
        n_max *= 2


def _kp_general(spec: Spectrum, Z: complex, alpha: float, k: int,
                n_max: int) -> KPGeneralResult:
    """`kp_state_general` on the levels k..k+n_max, for Z != 0: the j-series
    stopped at its first negligible run, or summed to J = 120 when that stop
    misses the tolerance."""
    u = abs(Z) ** 2
    log_u = math.log(u) if u else 2.0 * math.log(abs(Z))  # u underflows below 1e-162
    result = _nested_state(spec, Z, alpha, k, _nested_log_terms(spec, n_max, log_u))
    if not result.j_converged and result.j_terms <= _NESTED_J_MAX:
        result = _nested_state(spec, Z, alpha, k,
                               _nested_log_terms(spec, n_max, log_u, stop=False))
    return result


def _nested_state(spec: Spectrum, Z: complex, alpha: float, k: int,
                  log_terms: np.ndarray) -> KPGeneralResult:
    """The state whose b_n sum the finite rows of log_terms[j, n]."""
    log_b, sign_b = signed_log_sum(log_terms.T, _NESTED_SIGNS)  # one row per level
    sign_b[sign_b == 0.0] = 1.0
    # the term of level 0 is finite on every scanned row
    j_last = int(np.count_nonzero(log_terms[:, 0] > -math.inf)) - 1

    n_max = log_terms.shape[1] - 1
    n_arr = np.arange(n_max + 1)
    energies, log_e0 = spec.levels(k, n_max + k + 1)
    log_unit = n_arr * math.log(abs(Z)) + 0.5 * log_e0  # b_n -> coefficient units
    log_c = log_unit + log_b
    shift = log_c.max()
    mags = np.exp(log_c - shift) * sign_b
    phases = np.exp(1j * n_arr * np.angle(Z)) * _energy_phases(alpha, energies)
    c = mags * phases
    nrm = np.linalg.norm(c)
    c /= nrm
    # every level's last summed j-term in coefficient units, against the norm
    worst = float(np.max(np.exp(log_unit + log_terms[j_last] - shift - math.log(nrm))))
    tail = float(np.sum(np.abs(c[-2:]) ** 2))
    return KPGeneralResult(FockState(k, c, alpha, tail), worst <= _NESTED_REL_TOL,
                           worst, j_last + 1)


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------

def evolve(state: FockState, spec: Spectrum, t: float) -> FockState:
    """Free time evolution: c_n -> e^{-i t E_{n+offset}} c_n.

    Identical to rebuilding the state with alpha -> alpha + t; the stored
    alpha is advanced accordingly so the identity is visible on the result.
    """
    k = state.offset
    phases = _energy_phases(t, spec.levels(k, k + state.size)[0])
    return FockState(k, state.coefficients * phases, state.alpha + t,
                     state.tail_bound)


@dataclass
class PhotonStatistics:
    levels: np.ndarray
    probabilities: np.ndarray
    mean_level: float
    mean_energy: float


def photon_statistics(state: FockState, spec: Spectrum) -> PhotonStatistics:
    """Occupation distribution P(n+k) = |c_n|^2 and its first moments."""
    p = np.abs(state.coefficients) ** 2
    levels = np.arange(state.offset, state.offset + state.size)
    energies = spec.levels(state.offset, state.offset + state.size)[0]
    return PhotonStatistics(levels, p, float(np.dot(levels, p)),
                            float(np.dot(energies, p)))
