"""Poschl-Teller potential on (0, pi*a): eigenfunctions, SUSY partners,
and the basis-change matrix between them.

The Hamiltonian -d^2/dx^2 + V factorizes as A+ A- with A+- = -+ d/dx + W;
consistency of V with that factorization (W^2 - W' = V) fixes the sign of
the cos^-2 barrier term, and the Jacobi polynomials take cos(x/a) as their
argument. Both choices are enforced by the orthonormality,
Schrodinger-residual and intertwining checks in the test suite; the
alternatives fail those checks structurally, not numerically.

The well is shape-invariant: the partner Hamiltonian A- A+ = -d^2/dx^2 +
W^2 + W' is the same well with kappa+1 and kappa'+1, shifted up by E_1.
`PTParams.partner` is the one place that convention is written down; the
partner eigenfunctions and norm constants are those of the partner well.
The ladder phases of the spectrum n(n+lam) come from the generic
`fockspace.build_ladder`, like those of any other spectrum.

`eigenfunctions` gives levels 0..n_max as rows of one Jacobi recurrence;
`eigenfunction` is one row of it. `lowered_eigenfunctions` gives A- psi_n
for n = 0..n_max the same way, from that table and one table of the
shifted family P^{(k+1/2, k'+1/2)} that carries the derivatives;
`eigenfunction_deriv` and `apply_lowering` are rows of it.
`gauss_jacobi_integral` integrates products of these tables exactly.
`u_matrix` evaluates the log-Gamma values of a block once and every entry
reads them by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .spectrum import PoschlTellerSpectrum
from .specfun import jacobi_table, log_gamma, signed_log_sum

__all__ = [
    "PTParams",
    "UMatrixEntry",
    "potential",
    "superpotential",
    "norm_constant_log",
    "eigenfunction",
    "eigenfunctions",
    "partner_eigenfunction",
    "lowered_eigenfunctions",
    "eigenfunction_deriv",
    "apply_lowering",
    "gauss_jacobi_integral",
    "u_matrix_element",
    "u_matrix",
]


@dataclass(frozen=True)
class PTParams:
    """Well parameters; kappa, kappa' > 1/2 keep the eigenfunctions
    normalizable with vanishing boundary values, a > 0 is the length scale."""

    kappa: float
    kappa_prime: float
    a: float = 1.0

    def __post_init__(self):
        require_finite(kappa=self.kappa, kappa_prime=self.kappa_prime, a=self.a)
        if self.kappa <= 0.5 or self.kappa_prime <= 0.5:
            raise DomainError(
                f"kappa and kappa' must exceed 1/2, got "
                f"({self.kappa}, {self.kappa_prime})"
            )
        if self.a <= 0.0:
            raise DomainError(f"length scale a must be positive, got {self.a}")

    @property
    def lam(self) -> float:
        return self.kappa + self.kappa_prime

    @property
    def box(self) -> float:
        return math.pi * self.a

    def energy(self, n: int) -> float:
        """Eigenvalue n(n+lam)/a^2 of -d^2/dx^2 + V."""
        return n * (n + self.lam) / self.a ** 2

    def spectrum(self) -> PoschlTellerSpectrum:
        """Dimensionless spectrum E_n = n(n+lam) used by the state builders."""
        return PoschlTellerSpectrum(self.kappa, self.kappa_prime)

    def partner(self) -> "PTParams":
        """The SUSY partner well: W^2 + W' equals the potential of
        PTParams(kappa+1, kappa'+1, a) plus E_1 (shape invariance)."""
        return PTParams(self.kappa + 1.0, self.kappa_prime + 1.0, self.a)


def _check_open_interval(p: PTParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < p.box)):
        raise DomainError(f"x must lie strictly inside (0, {p.box:.6g})")
    return x


def potential(p: PTParams, x):
    """V(x) = (1/4a^2)[k(k-1)/sin^2(x/2a) + k'(k'-1)/cos^2(x/2a)] - lam^2/4a^2.

    This is the factorization-consistent form, V = W^2 - W'; it places the
    ground level at exactly zero.
    """
    x = _check_open_interval(p, x)
    u = x / (2.0 * p.a)
    q = 1.0 / (4.0 * p.a ** 2)
    v = q * (p.kappa * (p.kappa - 1.0) / np.sin(u) ** 2
             + p.kappa_prime * (p.kappa_prime - 1.0) / np.cos(u) ** 2)
    v = v - p.lam ** 2 * q
    return v if v.ndim else float(v)


def superpotential(p: PTParams, x):
    """W(x) = -(1/2a)[kappa cot(x/2a) - kappa' tan(x/2a)]."""
    x = _check_open_interval(p, x)
    u = x / (2.0 * p.a)
    w = -(p.kappa / np.tan(u) - p.kappa_prime * np.tan(u)) / (2.0 * p.a)
    return w if w.ndim else float(w)


def norm_constant_log(p: PTParams, n: int) -> float:
    """log of the squared-norm constant of the n-th eigenfunction:
    a Gamma(n+k+1/2) Gamma(n+k'+1/2) / (n! Gamma(n+k+k') (2n+k+k'))."""
    k, kp = p.kappa, p.kappa_prime
    return (math.log(p.a) + log_gamma(n + k + 0.5) + log_gamma(n + kp + 0.5)
            - log_gamma(n + 1.0) - log_gamma(n + k + kp)
            - math.log(2.0 * n + k + kp))


def _check_level(n: int) -> None:
    if n < 0:
        raise DomainError(f"level index must be nonnegative, got {n}")


def _prefactors(p: PTParams, n_max: int, ndim: int) -> np.ndarray:
    """c_n^{-1/2} for n = 0..n_max, a column against ndim position axes."""
    return np.array([math.exp(-0.5 * norm_constant_log(p, n))
                     for n in range(n_max + 1)]).reshape((-1,) + (1,) * ndim)


def _normalized_rows(p: PTParams, x: np.ndarray, pref, polys) -> np.ndarray:
    """pref_n cos^{k'}(x/2a) sin^{k}(x/2a) times row n of `polys`."""
    u = x / (2.0 * p.a)
    return pref * np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa * polys


def eigenfunctions(p: PTParams, n_max: int, x) -> np.ndarray:
    """Normalized eigenfunctions c_n^{-1/2} cos^{k'}(x/2a) sin^{k}(x/2a)
    P_n^{(k-1/2, k'-1/2)}(cos(x/a)) of the lower partner Hamiltonian, rows
    n = 0..n_max of one Jacobi recurrence; shape (n_max+1,) + shape of x."""
    _check_level(n_max)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= p.box)):
        raise DomainError(f"x must lie in [0, {p.box:.6g}]")
    return _normalized_rows(p, x, _prefactors(p, n_max, x.ndim), jacobi_table(
        n_max, p.kappa - 0.5, p.kappa_prime - 0.5, np.cos(x / p.a)))


def eigenfunction(p: PTParams, n: int, x):
    """Normalized lower-partner eigenfunction, row n of `eigenfunctions`."""
    val = eigenfunctions(p, n, x)[n]
    return val if np.ndim(val) else float(val)


def partner_eigenfunction(p: PTParams, n: int, x):
    """Normalized eigenfunction of the upper partner, the n-th eigenfunction
    of the partner well."""
    return eigenfunction(p.partner(), n, x)


def _lowered_tables(p: PTParams, n_max: int, x):
    """Rows n = 0..n_max of d/dx psi_n and W psi_n inside the well,
    from one P_n^{(k-1/2, k'-1/2)} table and, through dP_n/dy =
    ((n+k+k')/2) P_{n-1}^{(k+1/2, k'+1/2)}, one table of the shifted family."""
    _check_level(n_max)
    x = _check_open_interval(p, x)
    alpha, beta_ = p.kappa - 0.5, p.kappa_prime - 0.5
    y = np.cos(x / p.a)
    polys = jacobi_table(n_max, alpha, beta_, y)
    dpolys = np.zeros_like(polys)
    if n_max > 0:
        coef = np.array([0.5 * (n + alpha + beta_ + 1.0) for n in range(1, n_max + 1)])
        dpolys[1:] = coef.reshape((-1,) + (1,) * x.ndim) * jacobi_table(
            n_max - 1, alpha + 1.0, beta_ + 1.0, y)
    u = x / (2.0 * p.a)
    pref = _prefactors(p, n_max, x.ndim)
    envelope = np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa
    log_deriv = (p.kappa / np.tan(u) - p.kappa_prime * np.tan(u)) / (2.0 * p.a)
    deriv = pref * envelope * (log_deriv * polys - np.sin(x / p.a) / p.a * dpolys)
    return deriv, superpotential(p, x) * _normalized_rows(p, x, pref, polys)


def lowered_eigenfunctions(p: PTParams, n_max: int, x) -> np.ndarray:
    """(A- psi_n)(x) with A- = d/dx + W for n = 0..n_max, rows of one pair of
    Jacobi tables; shape (n_max+1,) + shape of x. A- annihilates the ground
    state and maps level n+1 onto sqrt(E_{n+1}) times partner level n."""
    deriv, w_psi = _lowered_tables(p, n_max, x)
    return deriv + w_psi


def eigenfunction_deriv(p: PTParams, n: int, x):
    """Analytic d/dx of `eigenfunction` via the Jacobi derivative identity,
    row n of the derivative rows behind `lowered_eigenfunctions`."""
    val = _lowered_tables(p, n, x)[0][n]
    return val if np.ndim(val) else float(val)


def apply_lowering(p: PTParams, n: int, x):
    """(A- psi_n)(x), row n of `lowered_eigenfunctions`."""
    val = lowered_eigenfunctions(p, n, x)[n]
    return val if np.ndim(val) else float(val)


def gauss_jacobi_integral(p: PTParams, f, alpha: float, beta: float,
                          nodes: int) -> np.ndarray:
    """Integral over the well of f(x), a block of eigenfunction products of
    shape (K, len(x)) or (len(x),), by the `nodes`-node Gauss-Jacobi rule in
    y = cos(x/a): sum_j w_j a f(x_j) / ((1-y_j)^(alpha+1/2) (1+y_j)^(beta+1/2))
    with x_j = a arccos y_j. Exact when f(x) dx is (1-y)^alpha (1+y)^beta dy
    times a polynomial of degree below 2*nodes, as products of the envelopes
    sin^k cos^k' are, e.g. (k-1/2, k'-1/2) for the lower Gram matrix; any
    other integrand is integrated wrongly, not approximately."""
    from scipy.special import roots_jacobi  # scipy stays off the cold start

    y, w = roots_jacobi(nodes, alpha, beta)
    weights = p.a * w / ((1.0 - y) ** (alpha + 0.5) * (1.0 + y) ** (beta + 0.5))
    return np.asarray(f(p.a * np.arccos(y))) @ weights


@dataclass(frozen=True)
class UMatrixEntry:
    """One overlap <psi_n^- | psi_m^+> from the closed-form double sum.

    condition estimates the cancellation (largest term over the result);
    flagged entries lost essentially all significant digits and should be
    cross-checked by quadrature instead of trusted.
    """

    n: int
    m: int
    value: float
    condition: float
    flagged: bool


# an entry is flagged when its sum is below this fraction of its largest
# term; indices above the cap are refused (the alternating sum has lost too
# many digits there)
_U_THRESHOLD = 1e-10
_U_INDEX_CAP = 24


def _u_tables(p: PTParams, ns, ms):
    """Shared pieces of the u double sum for rows ns and columns ms: per row
    the log binomials in p and the norm constant, per column those in p',
    and the log-Gamma values of the Beta factor's two arguments over the
    block, read by index. A memo keyed by exact argument gives every entry
    the same floats as when summed alone.

    The first argument n+m+k+1-p-p' is s - (p+p') with s = n+m+k+1: the
    subtractions of integers from s < 2^52 are exact, so it is one value per
    (n+m, p+p'). The second, k'+p+p'+1, rounds per (p, p')."""
    memo = {}

    def lg(x):
        if x not in memo:
            memo[x] = log_gamma(x)
        return memo[x]

    def binoms(x, js):  # log C(x, j), x - j > -1
        return np.array([lg(x + 1.0) - lg(j + 1.0) - lg(x - j + 1.0) for j in js])

    kap, kpp, partner = p.kappa, p.kappa_prime, p.partner()
    rows = {n: (binoms(n + kap - 0.5, range(n + 1)),
                binoms(n + kpp - 0.5, range(n, -1, -1)),
                norm_constant_log(p, n)) for n in ns}
    cols = {m: (binoms(m + kap + 0.5, range(m + 1)),
                binoms(m + kpp + 0.5, range(m, -1, -1)),
                norm_constant_log(partner, m)) for m in ms}
    q, qq = np.arange(max(ns) + 1)[:, None], np.arange(max(ms) + 1)
    lg_left = {nm: np.array([lg(nm + kap + 1.0 - d) for d in range(nm + 1)])
               for nm in {n + m for n in ns for m in ms}}
    lg_right = np.array([[lg(x) for x in row]
                         for row in (kpp + q + qq + 1.0).tolist()])
    return lg, rows, cols, lg_left, lg_right, q + qq


def _u_entry(p: PTParams, n: int, m: int, tables) -> UMatrixEntry:
    """The double sum of `u_matrix_element` from `_u_tables` pieces."""
    lg, rows, cols, lg_left, lg_right, d = tables
    (r1, r2, norm_n), (c1, c2, norm_m) = rows[n], cols[m]
    kap, kpp = p.kappa, p.kappa_prime
    d = d[:n + 1, :m + 1]
    log_mags = ((r1 + r2)[:, None] + c1 + c2 + lg_left[n + m][d]
                + lg_right[:n + 1, :m + 1] - lg(n + m + kap + kpp + 2.0)).ravel()
    signs = np.where((n + m - d) % 2 == 0, 1.0, -1.0).ravel()
    log_sum, sign = signed_log_sum(log_mags, signs)
    log_pref = math.log(p.a) - 0.5 * (norm_n + norm_m)
    max_term = float(np.max(log_mags))
    if log_sum == -math.inf:
        return UMatrixEntry(n, m, 0.0, math.inf, True)
    condition = math.exp(max_term - log_sum)
    value = sign * math.exp(log_pref + log_sum)
    flagged = math.exp(log_sum - max_term) < _U_THRESHOLD
    return UMatrixEntry(n, m, value, condition, flagged)


def _check_u_indices(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise DomainError(f"indices must be nonnegative, got ({n}, {m})")
    if n > _U_INDEX_CAP or m > _U_INDEX_CAP:
        raise DomainError(
            f"indices ({n}, {m}) exceed the cancellation cap {_U_INDEX_CAP}")


def u_matrix_element(p: PTParams, n: int, m: int) -> UMatrixEntry:
    """Basis-change element by the finite double sum over Jacobi expansions:

        a [c_n c'_m]^{-1/2} sum_{p,p'} (-1)^{n+m-p-p'}
          C(n+k-1/2, p) C(n+k'-1/2, n-p) C(m+k+1/2, p') C(m+k'+1/2, m-p')
          B(n+m+k+1-p-p', k'+p+p'+1)

    summed in log-magnitude + sign form. The alternating terms grow with
    n+m and eventually eat all significant digits, so indices above 24 raise
    DomainError; each entry carries a condition estimate and is flagged
    when the sum falls below 1e-10 of its largest term.
    """
    _check_u_indices(n, m)
    return _u_entry(p, n, m, _u_tables(p, [n], [m]))


def u_matrix(p: PTParams, n_max: int, m_max: int) -> list:
    """All entries for n <= n_max, m <= m_max (row-major list of lists); the
    log-Gamma values and binomial rows and columns are built once per block."""
    if n_max < 0 or m_max < 0:
        raise DomainError(f"block sizes must be nonnegative, got ({n_max}, {m_max})")
    _check_u_indices(n_max, m_max)
    tables = _u_tables(p, range(n_max + 1), range(m_max + 1))
    return [[_u_entry(p, n, m, tables) for m in range(m_max + 1)]
            for n in range(n_max + 1)]
