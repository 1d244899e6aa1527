"""Gazeau-Klauder and Klauder-Perelomov coherent states with added excitations.

Two families over a solvable spectrum E_n, each generalized by applying the
raising operator k times and renormalizing:

* GK:  eigenstates of the lowering operator, coefficients
       z^n e^{-i alpha E_{n+k}} / sqrt(E_k(n)) on |psi_{n+k}>.
* KP:  displacement-type states exp(Z a+ - conj(Z) a-)|psi_0>, either via the
       spectrum-generic nested-sum expansion or, for the Poschl-Teller
       spectrum, in closed form on the unit disk |xi| < 1.

States are always normalized by the directly summed coefficient series; the
hypergeometric closed forms are treated as cross-checks, never as the source
of truth (they differ from the direct series by a benign n-independent
constant that would be fatal if mixed into overlaps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_finite
from .fockspace import FockState, max_truncation
from .spectrum import PoschlTellerSpectrum, Spectrum
from .specfun import (
    DEFAULT_SERIES_CONTROL,
    SeriesControl,
    _ScaledSum,
    hyper_pfq,
    log_gamma,
    log_pochhammer,
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
        if self.k < 0:
            raise DomainError(f"photon number k must be nonnegative, got {self.k}")
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
        if self.k < 0:
            raise DomainError(f"photon number k must be nonnegative, got {self.k}")
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
    until the geometric tail estimate of the squared coefficients drops
    below tail_eps (capped; the returned tail_bound tells the truth either
    way).
    """
    _check_gk_radius(spec, label)
    z, alpha, k = label.z, label.alpha, label.k
    cap = cap or max_truncation()

    if z == 0:
        return FockState(k, np.array([1.0 + 0.0j]), alpha, 0.0)

    log_az = math.log(abs(z))
    logs = []  # log-magnitudes of unnormalized coefficients
    shift = -math.inf
    total = 0.0  # sum of |c_n|^2 scaled by exp(-2*shift)
    tail_rel = math.inf
    n = 0
    while True:
        ln = n * log_az - 0.5 * spec.log_ek(k, n)
        logs.append(ln)
        if ln > shift:
            total = total * math.exp(2.0 * (shift - ln)) + 1.0
            shift = ln
        else:
            total += math.exp(2.0 * (ln - shift))
        if n >= 4:
            ratio = math.exp(2.0 * (logs[-1] - logs[-2]))
            if ratio < 0.9:
                tail_rel = math.exp(2.0 * (logs[-1] - shift)) * ratio / (1.0 - ratio) / total
                if tail_rel <= tail_eps:
                    break
        if n + k + 1 > spec.max_level:
            # finite table: the sum over the whole space is exact
            tail_rel = 0.0
            break
        if n + 1 >= cap:
            break
        n += 1

    n_arr = np.arange(len(logs))
    mags = np.exp(np.array(logs) - shift)
    phases = np.exp(1j * n_arr * np.angle(z)) * np.exp(
        -1j * alpha * np.array([spec.energy(m + k) for m in n_arr])
    )
    c = mags * phases
    c /= np.linalg.norm(c)
    return FockState(k, c, alpha, min(tail_rel, 1.0))


def gk_norm_constant(spec: Spectrum, z_abs2: float, k: int,
                     ctl: SeriesControl | None = None) -> float:
    """log of the normalization series sum_n |z|^{2n} / E_k(n).

    Raises ConvergenceError (carrying the partial log-sum) when the stopping
    rule is not met within ctl.max_terms.
    """
    if z_abs2 < 0:
        raise DomainError(f"|z|^2 must be nonnegative, got {z_abs2}")
    hint = spec.radius_hint(k)
    if math.isfinite(hint) and z_abs2 >= hint * hint:
        raise DomainError(f"|z|^2 = {z_abs2:.6g} is outside the radius {hint:.6g}")
    ctl = ctl or DEFAULT_SERIES_CONTROL

    log_u = math.log(z_abs2) if z_abs2 > 0 else -math.inf
    total = -math.inf
    small = 0
    for n in range(ctl.max_terms):
        lt = n * log_u - spec.log_ek(k, n) if n > 0 else -spec.log_ek(k, 0)
        total = np.logaddexp(total, lt)
        if lt < math.log(ctl.rel_tol) + total:
            small += 1
            if small >= ctl.consecutive_small:
                return float(total)
        else:
            small = 0
        if z_abs2 == 0 or n + k + 1 > spec.max_level:
            return float(total)  # finite table: the sum is exact
    raise ConvergenceError(
        f"normalization series did not converge in {ctl.max_terms} terms",
        partial=float(total),
    )


def gk_norm_constant_pt_closed(lam: float, z_abs2: float, k: int,
                               ctl: SeriesControl | None = None,
                               convention: str = "series") -> float:
    """log of the hypergeometric closed form of the GK normalization.

    convention="series" multiplies by the Pochhammer constant (lam+1)_k so
    the value matches `gk_norm_constant` on the Poschl-Teller spectrum;
    convention="compact" returns the bare Gamma(k+1) * 2F3 form, which is
    smaller by exactly that n-independent constant.
    """
    if convention not in ("series", "compact"):
        raise DomainError(f"unknown convention {convention!r}")
    res = hyper_pfq([k + 1.0, lam + k + 1.0], [1.0, lam + 1.0, lam + 1.0],
                    z_abs2, ctl)
    if not res.converged:
        raise ConvergenceError("2F3 closed form did not converge", partial=res.log_abs)
    out = log_gamma(k + 1.0) + res.log_abs
    if convention == "series":
        out += log_pochhammer(lam + 1.0, k)
    return out


def gk_overlap(spec: Spectrum, label1: GKLabel, label2: GKLabel,
               ctl: SeriesControl | None = None) -> complex:
    """<label1 | label2> for two photon-added GK states sharing k.

    Conjugate-linear in the first argument, so swapping the labels
    conjugates the result.
    """
    if label1.k != label2.k:
        raise DomainError("overlap requires a shared photon number k")
    _check_gk_radius(spec, label1)
    _check_gk_radius(spec, label2)
    ctl = ctl or DEFAULT_SERIES_CONTROL
    k = label1.k
    w = np.conj(label1.z) * label2.z
    d_alpha = label2.alpha - label1.alpha

    acc = _ScaledSum()
    log_aw = math.log(abs(w)) if w != 0 else -math.inf
    arg_w = np.angle(w)
    max_lt = -math.inf
    small = 0
    for n in range(ctl.max_terms):
        lt = n * log_aw - spec.log_ek(k, n) if n > 0 else -spec.log_ek(k, 0)
        phase = np.exp(1j * (n * arg_w - spec.energy(n + k) * d_alpha))
        acc.add(lt, phase)
        max_lt = max(max_lt, lt)
        if lt < math.log(ctl.rel_tol) + max(acc.log_abs, max_lt):
            small += 1
            if small >= ctl.consecutive_small:
                break
        else:
            small = 0
        if w == 0 or n + k + 1 > spec.max_level:
            break  # finite table: the sum is exact
    else:
        raise ConvergenceError("overlap series did not converge",
                               partial=acc.value())

    la1 = gk_norm_constant(spec, abs(label1.z) ** 2, k, ctl)
    la2 = gk_norm_constant(spec, abs(label2.z) ** 2, k, ctl)
    return complex(acc.phase * math.exp(acc.log_abs - 0.5 * (la1 + la2)))


# ---------------------------------------------------------------------------
# Klauder-Perelomov family, Poschl-Teller closed form (unit disk)
# ---------------------------------------------------------------------------

def _kp_log_term(lam: float, k: int, n: int) -> float:
    """log of (n+k)! Gamma(n+k+lam+1) / (n!^2 Gamma(lam+1))."""
    return (log_gamma(n + k + 1.0) + log_gamma(n + k + lam + 1.0)
            - 2.0 * log_gamma(n + 1.0) - log_gamma(lam + 1.0))


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
    xi, alpha, k = label.as_xi, label.alpha, label.k
    if abs(xi) >= 1.0:
        raise DomainError(f"|xi| must be below 1, got {abs(xi):.6g}")
    cap = cap or max_truncation()
    spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)  # only E_n = n(n+lam) is used

    if xi == 0:
        return FockState(k, np.array([1.0 + 0.0j]), alpha, 0.0)

    log_axi = math.log(abs(xi))
    logs = []
    shift = -math.inf
    total = 0.0
    tail_rel = math.inf
    n = 0
    while True:
        ln = (n * log_axi + 0.5 * (log_gamma(n + k + 1.0) + log_gamma(n + k + lam_w + 1.0))
              - log_gamma(n + 1.0))
        logs.append(ln)
        if ln > shift:
            total = total * math.exp(2.0 * (shift - ln)) + 1.0
            shift = ln
        else:
            total += math.exp(2.0 * (ln - shift))
        if n >= 4:
            ratio = math.exp(2.0 * (logs[-1] - logs[-2]))
            if ratio < 0.95:
                tail_rel = math.exp(2.0 * (logs[-1] - shift)) * ratio / (1.0 - ratio) / total
                if tail_rel <= tail_eps:
                    break
        if n + 1 >= cap:
            break
        n += 1

    n_arr = np.arange(len(logs))
    mags = np.exp(np.array(logs) - shift)
    phases = np.exp(1j * n_arr * np.angle(xi)) * np.exp(
        -1j * alpha * np.array([spec.energy(m + k) for m in n_arr])
    )
    c = mags * phases
    c /= np.linalg.norm(c)
    return FockState(k, c, alpha, min(tail_rel, 1.0))


def kp_norm_constant_pt(lam: float, xi_abs2: float, k: int,
                        ctl: SeriesControl | None = None,
                        method: str = "closed") -> float:
    """log of the KP normalization constant on the unit disk.

    method="closed" evaluates
        (1-u)^{lam+1} Gamma(k+1) Gamma(lam+1+k) / Gamma(lam+1)
        * 2F1(lam+k+1, k+1; 1; u),
    method="series" sums (1-u)^{lam+1} sum_n u^n (n+k)! Gamma(n+k+lam+1) /
    (n!^2 Gamma(lam+1)) directly; the two agree, and both are exactly 1 at
    k = 0.
    """
    if not 0.0 <= xi_abs2 < 1.0:
        raise DomainError(f"|xi|^2 must lie in [0, 1), got {xi_abs2}")
    ctl = ctl or DEFAULT_SERIES_CONTROL
    log_pref = (lam + 1.0) * math.log1p(-xi_abs2)
    if method == "closed":
        res = hyper_pfq([lam + k + 1.0, k + 1.0], [1.0], xi_abs2, ctl)
        if not res.converged:
            raise ConvergenceError("2F1 closed form did not converge",
                                   partial=res.log_abs)
        return (log_pref + log_gamma(k + 1.0) + log_gamma(lam + 1.0 + k)
                - log_gamma(lam + 1.0) + res.log_abs)
    if method == "series":
        log_u = math.log(xi_abs2) if xi_abs2 > 0 else -math.inf
        total = -math.inf
        small = 0
        for n in range(ctl.max_terms):
            lt = (n * log_u if n > 0 else 0.0) + _kp_log_term(lam, k, n)
            total = np.logaddexp(total, lt)
            if lt < math.log(ctl.rel_tol) + total:
                small += 1
                if small >= ctl.consecutive_small:
                    return float(log_pref + total)
            else:
                small = 0
            if xi_abs2 == 0:
                return float(log_pref + total)
        raise ConvergenceError(
            f"KP normalization series did not converge in {ctl.max_terms} terms",
            partial=float(log_pref + total),
        )
    raise DomainError(f"unknown method {method!r}")


def kp_overlap_pt(lam: float, label1: KPLabel, label2: KPLabel,
                  ctl: SeriesControl | None = None) -> complex:
    """Kernel <label1 | label2> of two Poschl-Teller KP states sharing k.

    Equal to the coefficient dot product of the two constructed states; for
    alpha = alpha' it reduces to the hypergeometric kernel on the unit disk.
    """
    if label1.k != label2.k:
        raise DomainError("kernel requires a shared photon number k")
    ctl = ctl or DEFAULT_SERIES_CONTROL
    k = label1.k
    xi1, xi2 = label1.as_xi, label2.as_xi
    for xi in (xi1, xi2):
        if abs(xi) >= 1.0:
            raise DomainError(f"|xi| must be below 1, got {abs(xi):.6g}")
    w = np.conj(xi1) * xi2
    d_alpha = label2.alpha - label1.alpha
    spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)

    acc = _ScaledSum()
    log_aw = math.log(abs(w)) if w != 0 else -math.inf
    arg_w = np.angle(w)
    max_lt = -math.inf
    small = 0
    for n in range(ctl.max_terms):
        lt = (n * log_aw if n > 0 else 0.0) + _kp_log_term(lam, k, n)
        phase = np.exp(1j * (n * arg_w - spec.energy(n + k) * d_alpha))
        acc.add(lt, phase)
        max_lt = max(max_lt, lt)
        if lt < math.log(ctl.rel_tol) + max(acc.log_abs, max_lt):
            small += 1
            if small >= ctl.consecutive_small:
                break
        else:
            small = 0
        if w == 0:
            break
    else:
        raise ConvergenceError("kernel series did not converge", partial=acc.value())

    # prefactors (1-u)^{(lam+1)/2} cancel against the series normalizations
    ls1 = kp_norm_constant_pt(lam, abs(xi1) ** 2, k, ctl, method="series") \
        - (lam + 1.0) * math.log1p(-abs(xi1) ** 2)
    ls2 = kp_norm_constant_pt(lam, abs(xi2) ** 2, k, ctl, method="series") \
        - (lam + 1.0) * math.log1p(-abs(xi2) ** 2)
    return complex(acc.phase * math.exp(acc.log_abs - 0.5 * (ls1 + ls2)))


# ---------------------------------------------------------------------------
# Klauder-Perelomov family for a generic spectrum (nested energy sums)
# ---------------------------------------------------------------------------

@dataclass
class KPGeneralResult:
    """Nested-sum KP construction plus its convergence diagnostics."""

    state: FockState
    j_converged: bool
    worst_term_ratio: float


def _nested_log_sums(spec: Spectrum, n_max: int, j_max: int) -> np.ndarray:
    """log S_j(n) for j = 0..j_max, n = 0..n_max.

    S_0 = 1 and S_j(n) = g_j(n+1) where g_j(m) = sum_{i=1..m} E_i g_{j-1}(i+1)
    (each level consumes one index of headroom, hence the oversized grid).
    """
    m_big = n_max + j_max + 2
    log_e = np.array([-math.inf] + [math.log(spec.energy(i)) for i in range(1, m_big + 2)])
    out = np.full((j_max + 1, n_max + 1), -math.inf)
    out[0, :] = 0.0
    log_g = np.zeros(m_big + 2)  # g_0(m) = 1, index m = 0..m_big+1
    for j in range(1, j_max + 1):
        contrib = log_e[1:m_big + 1] + log_g[2:m_big + 2]
        acc = np.logaddexp.accumulate(contrib)
        log_g = np.concatenate([[-math.inf], acc, [-math.inf]])
        out[j, :] = log_g[1:n_max + 2]
    return out


def kp_state_general(spec: Spectrum, Z: complex, alpha: float = 0.0, k: int = 0,
                     n_max: int | None = None, j_max: int = 120,
                     rel_tol: float = 1e-12) -> KPGeneralResult:
    """Displacement-type state from the nested-sum energy expansion.

    For each level the alternating series over j is truncated at j_max; the
    worst last-term/partial-sum ratio across levels is reported, and
    j_converged is False when it exceeds rel_tol (small |Z| keeps this well
    behaved, large |Z| may not converge at all depending on the spectrum).
    """
    if k < 0:
        raise DomainError(f"photon number k must be nonnegative, got {k}")
    Z = complex(Z)
    require_finite(Z=Z, alpha=alpha)
    if Z == 0:
        return KPGeneralResult(FockState(k, np.array([1.0 + 0.0j]), alpha, 0.0),
                               True, 0.0)
    if n_max is None:
        n_max = 48
        while True:
            result = kp_state_general(spec, Z, alpha, k, n_max, j_max, rel_tol)
            c = result.state.coefficients
            edge = float(np.sum(np.abs(c[-4:]) ** 2))
            if edge < 1e-14 or n_max >= 384:
                return result
            n_max *= 2

    u = abs(Z) ** 2
    log_u = math.log(u)
    log_s = _nested_log_sums(spec, n_max, j_max)

    log_b = np.empty(n_max + 1)
    sign_b = np.empty(n_max + 1)
    worst = 0.0
    converged = True
    for n in range(n_max + 1):
        j = np.arange(j_max + 1)
        log_terms = j * log_u + log_s[:, n] - np.array(
            [log_gamma(n + 2 * jj + 1.0) for jj in j]
        )
        signs = np.where(j % 2 == 0, 1.0, -1.0)
        lb, sb = signed_log_sum(log_terms, signs)
        log_b[n] = lb
        sign_b[n] = sb if sb != 0.0 else 1.0
        last_ratio = math.exp(log_terms[-1] - lb) if lb != -math.inf else math.inf
        worst = max(worst, last_ratio)
        if last_ratio > rel_tol:
            converged = False

    n_arr = np.arange(n_max + 1)
    log_c = n_arr * math.log(abs(Z)) + 0.5 * np.array(
        [spec.log_e0(n + k) for n in n_arr]
    ) + log_b
    shift = log_c.max()
    mags = np.exp(log_c - shift) * sign_b
    phases = np.exp(1j * n_arr * np.angle(Z)) * np.exp(
        -1j * alpha * np.array([spec.energy(n + k) for n in n_arr])
    )
    c = mags * phases
    nrm = np.linalg.norm(c)
    c /= nrm
    tail = float(np.sum(np.abs(c[-2:]) ** 2))
    return KPGeneralResult(FockState(k, c, alpha, tail), converged, worst)


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------

def evolve(state: FockState, spec: Spectrum, t: float) -> FockState:
    """Free time evolution: c_n -> e^{-i t E_{n+offset}} c_n.

    Identical to rebuilding the state with alpha -> alpha + t; the stored
    alpha is advanced accordingly so the identity is visible on the result.
    """
    k = state.offset
    phases = np.exp(-1j * t * np.array(
        [spec.energy(n + k) for n in range(state.size)]
    ))
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
    energies = np.array([spec.energy(int(m)) for m in levels])
    return PhotonStatistics(levels, p, float(np.dot(levels, p)),
                            float(np.dot(energies, p)))
