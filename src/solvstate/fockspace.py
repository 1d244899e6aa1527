"""Truncated Fock-basis ladder algebra and the displacement-operator oracle.

The raising/lowering operators of a solvable spectrum act on eigenstates as

    a- |psi_n> = sqrt(E_n)     e^{+i alpha (E_n - E_{n-1})} |psi_{n-1}>
    a+ |psi_n> = sqrt(E_{n+1}) e^{-i alpha (E_{n+1} - E_n)} |psi_{n+1}>

so a+ a- = diag(E_n) and [a-, a+] acts as E_{n+1} - E_n. Both ladders are
bidiagonal, carried by the one diagonal m_n = sqrt(E_n) e^{i alpha (E_n -
E_{n-1})} of a-; this is the only place the ladder signs and phases are
written, for every spectrum, Poschl-Teller included. `build_ladder` spreads
it into dense a- and a+ for the identity checks (`apply` is a plain matvec
on those); the displacement oracle never forms a matrix and acts with the
two diagonals of its tridiagonal generator, O(N) work per Taylor term. It
makes one Taylor pass on a window of levels that doubles whenever the
packet puts more than eps^2 on its top levels, sizes each substep by the
generator on the window, and runs once over the whole space of a finite
energy table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_finite
from .spectrum import Spectrum

__all__ = ["LadderRep", "FockState", "build_ladder", "displace_ground", "apply"]

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


def _lowering_diagonal(energies: np.ndarray, alpha: float) -> np.ndarray:
    """m_n = sqrt(E_n) e^{i alpha (E_n - E_{n-1})} for n = 1..len(energies)-1.

    m_n is the entry a-[n-1, n]; a+ carries conj(m_n) at [n, n-1]. Every
    ladder representation reads its signs and phases from here.
    """
    return np.sqrt(energies[1:]) * np.exp(1j * alpha * np.diff(energies))


def build_ladder(spec: Spectrum, alpha: float, N: int) -> LadderRep:
    """Ladder matrices on levels 0..N; requires N >= 2.

    a+ is constructed as the exact conjugate transpose of a-, so adjointness
    holds to the bit. The last row/column carries the unavoidable truncation
    edge; identities should be checked on the leading block only.
    """
    if N < 2:
        raise DomainError(f"build_ladder needs N >= 2, got {N}")
    dim = N + 1
    a_minus = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a_minus[n - 1, n] = _lowering_diagonal(spec.levels(0, dim)[0], alpha)
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
    """Generator Z a+ - conj(Z) a- on levels 0..L as its two off-diagonals,
    Z conj(m_n) below and -conj(Z) m_n above (O(L) work per Taylor term), and
    norm = 2 max|sub|, a bound on its spectral norm (|sub| == |sup|)."""
    m = _lowering_diagonal(spec.levels(0, L + 1)[0], alpha)
    sub = Z * np.conj(m)
    return sub, -(np.conj(Z) * m), 2.0 * np.max(np.abs(sub), initial=0.0)


def _taylor_step(v, sub, sup):
    """exp(G) v by its plain Taylor series, G the tridiagonal with zero
    diagonal and off-diagonals sub (below) and sup (above). With |G| <= ~5 no
    partial sum grows past ~e^5, so the series' cancellation stays harmless."""
    term, acc, small = v, v.copy(), 0
    for j in range(1, 120):
        nxt = np.empty_like(term)
        np.multiply(sup, term[1:], out=nxt[:-1])
        nxt[-1] = 0.0
        nxt[1:] += sub * term[:-1]
        nxt /= j
        term = nxt
        acc += term
        tn = math.sqrt(np.vdot(term, term).real)
        if not math.isfinite(tn):
            break
        if tn < 1e-16 * math.sqrt(np.vdot(acc, acc).real):
            small += 1
            if small >= 5:
                return acc
        else:
            small = 0
    raise ConvergenceError("displacement Taylor series went non-finite or "
                           "missed its stop")


def displace_ground(spec: Spectrum, Z: complex, alpha: float = 0.0,
                    tail_eps: float = 1e-12, cap: int | None = None) -> FockState:
    """exp(Z a+ - conj(Z) a-) |psi_0> by one Taylor pass along the path
    exp(t G) |psi_0>, t from 0 to 1, on a window of levels 0..L.

    L starts at 64 (clamped to the cap). The rest of the path, a fraction
    `left`, is cut into ceil(norm * left / 5) substeps, norm the generator
    bound on the current window. After a substep whose top three levels hold
    more than eps^2, the window doubles and only that substep is redone,
    unless 2L passes the cap, the rest of the path at 2L needs more than 4000
    substeps, or the doubling interval dt since the last growth projects past
    the cap (L 2^(left/dt) > 2 cap); then it never grows again. The generator
    is anti-Hermitian, so the exact result is unit norm: tail_bound is the
    norm deficit (Taylor rounding) plus the edge, the largest accepted top
    mass. Each intermediate vector is the displaced state at a smaller |Z|
    (for Poschl-Teller and the oscillator), so the edge also sees a packet
    that reached the top and was reflected back below it. A finite table of
    M levels is the whole space: one window of min(M - 1, cap) levels, whose
    tail is the rounding alone when the table fits. tail_eps is checked but
    steers nothing: callers compare tail_bound with their own budget.
    """
    Z = complex(Z)
    require_finite(Z=Z, alpha=alpha)
    cap = _truncation(tail_eps, cap)
    finite = math.isfinite(spec.max_level)
    L = min(int(spec.max_level), cap) if finite else min(_WINDOW, cap)
    v = np.zeros(L + 1, dtype=complex)
    v[0] = 1.0
    t, edge, grow, grown = 0.0, 0.0, not finite, None  # grown: t of last growth
    sub, sup, norm = _window(spec, Z, alpha, L)
    while True:
        left = 1.0 - t
        need = norm * left / 5.0
        if not need <= _MAX_STEPS:
            raise ConvergenceError(f"displacement by |Z| = {abs(Z):.3g} needs more "
                                   f"than {_MAX_STEPS} Taylor substeps")
        steps = max(1, math.ceil(need))
        h_sub, h_sup = sub * left / steps, sup * left / steps
        for i in range(steps):
            w = _taylor_step(v, h_sub, h_sup)
            top = float(np.sum(np.abs(w[-3:]) ** 2))
            if top > _EDGE_EPS and grow:
                now = t + i * left / steps
                # 1 - now <= dt log2(2 cap / L): the projection stays in reach
                grow = 2 * L <= cap and (grown is None or 1.0 - now <= (
                    now - grown) * math.log2(2 * cap / L))
                wide = _window(spec, Z, alpha, 2 * L) if grow else None
                if grow and wide[2] * (1.0 - now) / 5.0 <= _MAX_STEPS:
                    sub, sup, norm = wide
                    v = np.concatenate([v, np.zeros(L, dtype=complex)])
                    L, t, grown = 2 * L, now, now
                    break
                grow = False
            v, edge = w, max(edge, top)
        else:
            break
    rounding = abs(1.0 - float(np.vdot(v, v).real))
    tail = min(rounding + (edge if L < spec.max_level else 0.0), 1.0)
    return FockState(0, v / np.linalg.norm(v), float(alpha), tail)
