"""Truncated Fock-basis ladder algebra and the displacement-operator oracle.

The raising/lowering operators of a solvable spectrum act on eigenstates as

    a- |psi_n> = sqrt(E_n)     e^{+i alpha (E_n - E_{n-1})} |psi_{n-1}>
    a+ |psi_n> = sqrt(E_{n+1}) e^{-i alpha (E_{n+1} - E_n)} |psi_{n+1}>

so a+ a- = diag(E_n) and [a-, a+] acts as E_{n+1} - E_n. Both ladders are
bidiagonal, carried by the one diagonal m_n = sqrt(E_n) e^{i alpha (E_n -
E_{n-1})} of a- (`_lowering_diagonal`, for every spectrum), and every level
phase e^{-i alpha E_n} is formed by `_energy_phases`. The identity checks
read m_n itself; `build_ladder` is its dense view, and the displacement
oracle never forms a matrix. Its generator G =
Z a+ - conj(Z) a- is tridiagonal with Z conj(m_n) below and -conj(Z) m_n
above the diagonal, and G = D R D^-1 for the real antisymmetric R with
|Z m_n| below and -|Z m_n| above and the unit phases D = diag(d), d_0 = 1,
d_n = d_{n-1} (Z/|Z|) conj(m_n/|m_n|). So exp(G)|psi_0> = D exp(R) e_0:
the Taylor pass runs on real vectors, three numpy calls per term into
buffers that live as long as the window, and the phases of m_n enter once
at the end. It makes one Taylor pass on a window of levels that doubles
whenever the packet puts more than eps^2 on its top levels, sizes each
substep by the generator on the window, and runs once over the whole space
of a finite energy table. Each substep's series stops on a proven bound:
with rho >= ||h G|| the remainder after a term j with j+1 >= 2 rho is at
most that term, so the first such term below 1e-16 of the sum ends it.
The pass visits exp(t G)|psi_0> for every t in [0, 1], the displaced
state at amplitude t Z, so `displacement_path` returns the states at
several fractions of one ray from one pass, and `displace_ground` is its
t = 1 end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_finite
from .spectrum import Spectrum

__all__ = ["LadderRep", "FockState", "build_ladder", "displace_ground",
           "displacement_path", "apply"]

# Edge mass below which truncation moves no coefficient by more than one
# unit roundoff of the unit-norm vector.
_EDGE_EPS = np.finfo(float).eps ** 2
# Taylor substeps one displacement may take.
_MAX_STEPS = 4000
# Top level L of the displacement oracle's first window on an infinite spectrum.
_WINDOW = 64
_MAX_N = 2048


def _truncation(tail_eps: float, cap: int | None) -> int:
    """The cap of a build under budget tail_eps, _MAX_N when None; a budget
    that is not a nonnegative number or a cap below 1 is a DomainError."""
    if not tail_eps >= 0.0:
        raise DomainError(f"tail_eps must be a nonnegative number, got {tail_eps}")
    if cap is not None and cap < 1:
        raise DomainError(f"truncation cap must be positive, got {cap}")
    return _MAX_N if cap is None else cap


@dataclass(frozen=True)
class LadderRep:
    """Dense matrices of a- and a+ on levels 0..N (shape (N+1, N+1))."""

    N: int
    alpha: float
    a_minus: np.ndarray
    a_plus: np.ndarray


@dataclass(frozen=True)
class FockState:
    """Coefficient vector over the shifted basis {|psi_{n+offset}>}.

    coefficients[n] multiplies |psi_{n+offset}>. tail_bound is the squared
    mass truncation discarded past the last coefficient, relative to the mass
    kept: a bound for the series states (see `states`), an edge estimate for
    the oracle and the nested sums; "converged" under budget eps means
    tail_bound <= eps.
    """

    offset: int
    coefficients: np.ndarray
    alpha: float
    tail_bound: float

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def size(self) -> int:
        return len(self.coefficients)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return FockState(self.offset, self.coefficients / n, self.alpha, self.tail_bound)

    def embed(self, dim: int) -> np.ndarray:
        """Coefficients on the absolute basis |psi_0..psi_{dim-1}>."""
        if self.offset + self.size > dim:
            raise DomainError(
                f"state occupies levels up to {self.offset + self.size - 1}, "
                f"embedding dimension {dim} is too small"
            )
        v = np.zeros(dim, dtype=complex)
        v[self.offset:self.offset + self.size] = self.coefficients
        return v

    def inner(self, other: "FockState") -> complex:
        """<self|other>, aligning the two offsets on the absolute basis."""
        dim = max(self.offset + self.size, other.offset + other.size)
        return complex(np.vdot(self.embed(dim), other.embed(dim)))

    def to_json_dict(self) -> dict:
        return {
            "offset": self.offset,
            "alpha": self.alpha,
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
            "tail_bound": float(self.tail_bound),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FockState":
        coeffs = np.array([complex(re, im) for re, im in obj["coefficients"]])
        return cls(int(obj["offset"]), coeffs, float(obj["alpha"]),
                   float(obj["tail_bound"]))


def _energy_phases(alpha: float, energies: np.ndarray) -> np.ndarray:
    """e^{-i alpha E_n}, alpha a label's or a time t: the one place it is formed."""
    return np.exp(-1j * alpha * _phase_guard(alpha, energies))


def _phase_guard(alpha: float, energies: np.ndarray) -> np.ndarray:
    """energies, once alpha times the last, the largest of ascending levels, is finite."""
    if energies.size and not math.isfinite(abs(alpha) * energies.item(-1)):
        raise DomainError(f"phase angle overflows at |alpha| or |t| = {abs(alpha):.6g}")
    return energies


def _lowering_diagonal(energies: np.ndarray, alpha: float) -> np.ndarray:
    """m_n = sqrt(E_n) e^{i alpha (E_n - E_{n-1})} for n = 1..len(energies)-1.

    m_n is the entry a-[n-1, n]; a+ carries conj(m_n) at [n, n-1]. Every
    ladder representation reads its signs and phases from here. Each gap is
    at most the top level, whose guard covers the gaps' phase angles.
    """
    gaps = np.diff(_phase_guard(alpha, energies))
    return np.sqrt(energies[1:]) * _energy_phases(-alpha, gaps)


def build_ladder(spec: Spectrum, alpha: float, N: int) -> LadderRep:
    """Dense view of the ladder on levels 0..N, N >= 2: a- = np.diag(m, 1) of
    `_lowering_diagonal` and a+ its exact conjugate transpose. The last
    row/column carries the truncation edge."""
    if N < 2:
        raise DomainError(f"build_ladder needs N >= 2, got {N}")
    a_minus = np.diag(_lowering_diagonal(spec.levels(0, N + 1)[0], alpha), 1)
    return LadderRep(N, float(alpha), a_minus, a_minus.conj().T.copy())


def apply(op: np.ndarray, state: FockState) -> FockState:
    """Matrix-vector action of `op` (absolute-basis matrix) on `state`.

    The returned state lives on offset 0. The tail bound is propagated
    conservatively, amplified by the largest squared column norm of `op`.
    """
    dim = op.shape[0]
    if op.shape[0] != op.shape[1]:
        raise DomainError(f"operator must be square, got {op.shape}")
    v = state.embed(dim)
    w = op @ v
    col_gain = float(np.max(np.sum(np.abs(op) ** 2, axis=0))) if dim else 0.0
    return FockState(0, w, state.alpha, state.tail_bound * max(col_gain, 1.0))


def _window(spec, Z, alpha, L):
    """Generator Z a+ - conj(Z) a- on levels 0..L in the real gauge G = D R
    D^-1: R is the real antisymmetric tridiagonal with r_n = |Z conj(m_n)| at
    [n, n-1] and -r_n at [n-1, n], D = diag(d) with d_0 = 1 and d_n = d_{n-1}
    (Z/|Z|) conj(m_n/|m_n|). Returns r padded to (0, r_1..r_L, 0), d, and
    norm = 2 max r_n, a bound on the spectral norm of G."""
    m = _lowering_diagonal(spec.levels(0, L + 1)[0], alpha)
    r = np.abs(Z * np.conj(m))
    # the two unit factors apart: sub/|sub| is 0/0 once Z conj(m_n) underflows
    phase = cmath.exp(1j * cmath.phase(Z)) * np.exp(-1j * np.angle(m))
    d = np.cumprod(np.concatenate([[1.0 + 0.0j], phase]))
    return np.concatenate([[0.0], r, [0.0]]), d, 2.0 * np.max(r, initial=0.0)


def _padded(size):
    """A zero real buffer of `size` levels plus one guard at each end, with
    its views (whole, levels, one level down, one level up)."""
    buf = np.zeros(size + 2)
    return buf, buf[1:-1], buf[:-2], buf[2:]


def _taylor_step(v, out, rows, work, rho):
    """out = exp(h R) v by its plain Taylor series, v and out real vectors on
    levels 0..L with a zero guard at each end (entries 1..L+1 hold the
    levels), so term j is rows[j-1][0] * (term j-1)[:-2] + rows[j-1][1] *
    (term j-1)[2:] with no edge case. rows[j-1] = (h a/j, h b/j) for the
    window's coefficients a below and b above the diagonal, built on first
    use from rows[0]; work holds two `_padded` term buffers and one buffer
    of L+1 levels. rho bounds ||h R||, so ||term j+1|| <= rho ||term j|| /
    (j+1): once j+1 >= 2 rho every later ratio is at most 1/2 and the whole
    remainder after term j is at most ||term j||. The series stops at the
    first such j whose term is below 1e-16 of the partial sum; no term norm
    is taken before j = ceil(2 rho) - 1. Returns that j. With rho <= 5 no
    partial sum grows past ~e^5, so the series' cancellation stays harmless."""
    np.copyto(out, v)
    down, up, tmp = v[:-2], v[2:], work[2]
    first = max(1, math.ceil(2.0 * rho) - 1)
    for j in range(1, 120):
        if j > len(rows):
            rows.append((rows[0][0] / j, rows[0][1] / j))
        lo, hi = rows[j - 1]
        term, inner, nxt_down, nxt_up = work[j & 1]
        np.multiply(lo, down, out=inner)
        np.multiply(hi, up, out=tmp)
        inner += tmp
        out += term
        down, up = nxt_down, nxt_up
        if j < first:
            continue
        tn = math.sqrt(np.dot(term, term))
        if not math.isfinite(tn):
            break
        if tn < 1e-16 * math.sqrt(np.dot(out, out)):
            return j
    raise ConvergenceError("displacement Taylor series went non-finite or "
                           "missed its stop")


def displacement_path(spec: Spectrum, Z: complex, fractions, alpha: float = 0.0,
                      cap: int | None = None) -> list[FockState]:
    """exp(t G) |psi_0> for each t in `fractions`, G = Z a+ - conj(Z) a-, from
    one Taylor pass along t from 0 to 1 on a window of levels 0..L; the state
    at t is the displaced ground state at amplitude t Z.

    `fractions` must increase strictly inside (0, 1] and end at 1.0, else
    DomainError. L starts at 64 (clamped to the cap). Each segment from the
    current t to the next fraction is cut into ceil(norm * segment / 5)
    substeps, norm the generator bound on the current window, and the
    substeps stop on `_taylor_step`'s proven remainder bound. After a
    substep whose top three levels hold more than eps^2, the window doubles
    and only that substep is redone, unless 2L passes the cap, the rest of
    the path to t = 1 at 2L needs more than 4000 substeps, or the doubling
    interval dt since the last growth projects past the cap (L 2^((1 - t)/dt)
    > 2 cap); then it never grows again. The generator is anti-Hermitian, so
    each exact state is unit norm: its tail_bound is its own norm deficit
    (Taylor rounding) plus the edge, the largest top mass accepted up to its
    t. Each intermediate vector is the displaced state at a smaller |Z|
    (for Poschl-Teller and the oscillator), so the edge also sees a packet
    that reached the top and was reflected back below it. A finite table of
    M levels is the whole space: one window of min(M - 1, cap) levels, whose
    tail is the rounding alone when the table fits. Every state spans the
    window it was reached on.
    """
    Z = complex(Z)
    require_finite(Z=Z, alpha=alpha)
    cap = _truncation(0.0, cap)
    stops = [float(f) for f in fractions]
    if not stops or stops[-1] != 1.0 or not all(
            f < g for f, g in zip([0.0] + stops, stops)):
        raise DomainError(f"fractions must increase inside (0, 1] and end at 1.0, "
                          f"got {stops}")
    finite = math.isfinite(spec.max_level)
    L = min(int(spec.max_level), cap) if finite else min(_WINDOW, cap)
    v = np.zeros(L + 3)  # levels 0..L at 1..L+1, zero guards at both ends
    v[1] = 1.0
    t, edge, grow, grown = 0.0, 0.0, not finite, None  # grown: t of last growth
    window = _window(spec, Z, alpha, L)
    states = []
    while len(states) < len(stops):
        r, phases, norm = window
        seg = stops[len(states)] - t
        if not norm * (1.0 - t) / 5.0 <= _MAX_STEPS:
            raise ConvergenceError(f"displacement by |Z| = {abs(Z):.3g} needs more "
                                   f"than {_MAX_STEPS} Taylor substeps")
        steps = max(1, math.ceil(norm * seg / 5.0))
        # buffers and the h/j coefficient rows of this segment, reused by
        # every substep of it
        rows = [(r[:-1] * seg / steps, -r[1:] * seg / steps)]
        work = (_padded(L + 1), _padded(L + 1), np.empty(L + 1))
        w = np.empty(L + 3)
        for i in range(steps):
            _taylor_step(v, w, rows, work, norm * seg / steps)
            top = float(np.dot(w[-4:-1], w[-4:-1]))
            if top > _EDGE_EPS and grow:
                now = t + i * seg / steps
                # 1 - now <= dt log2(2 cap / L): the projection stays in reach
                grow = 2 * L <= cap and (grown is None or 1.0 - now <= (
                    now - grown) * math.log2(2 * cap / L))
                wide = _window(spec, Z, alpha, 2 * L) if grow else None
                if grow and wide[2] * (1.0 - now) / 5.0 <= _MAX_STEPS:
                    window, v = wide, np.concatenate([v[:-1], np.zeros(L + 1)])
                    L, t, grown = 2 * L, now, now
                    break
                grow = False
            v, w, edge = w, v, max(edge, top)
        else:
            t = stops[len(states)]
            levels = v[1:-1]
            rounding = abs(1.0 - float(np.dot(levels, levels)))
            tail = min(rounding + (edge if L < spec.max_level else 0.0), 1.0)
            states.append(FockState(0, phases * (levels / np.linalg.norm(levels)),
                                    float(alpha), tail))
    return states


def displace_ground(spec: Spectrum, Z: complex, alpha: float = 0.0,
                    tail_eps: float = 1e-12, cap: int | None = None) -> FockState:
    """exp(Z a+ - conj(Z) a-) |psi_0>: the t = 1 end of `displacement_path`,
    one Taylor pass with the same window growth, substeps, proven stop and
    tail_bound (norm deficit plus edge). tail_eps is checked but steers
    nothing: callers compare tail_bound with their own budget.
    """
    _truncation(tail_eps, cap)
    return displacement_path(spec, Z, (1.0,), alpha, cap)[0]
