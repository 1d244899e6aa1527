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
The ladder of the spectrum n(n+lam) is the generic `fockspace` diagonal:
checks read it, and `fockspace.build_ladder` is its dense view.

`eigenfunctions` gives levels 0..n_max as rows of one Jacobi recurrence;
`eigenfunction` is row n, two rows held. `lowered_eigenfunctions` gives A- psi_n
for n = 0..n_max the same way, from that table and one table of the
shifted family P^{(k+1/2, k'+1/2)} that carries the derivatives.
`gauss_jacobi_integral` integrates products of these tables exactly, with
Gauss-Jacobi rules built by Golub-Welsch in numpy.
`u_matrix` evaluates every term of a block's double sums in one broadcast
and reduces them in a few stacks; `u_matrix_element` is the same code on a
1x1 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, require_finite
from .spectrum import PoschlTellerSpectrum
from .specfun import _row_log_sum_exp, _signed_pair, jacobi_poly, jacobi_table, log_gamma

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


def _prefactors(p: PTParams, levels, ndim: int) -> np.ndarray:
    """c_n^{-1/2} for n in levels, a column against ndim position axes."""
    try:
        pref = [math.exp(-0.5 * norm_constant_log(p, n)) for n in levels]
    except OverflowError:
        raise DomainError(f"c_n^(-1/2) overflows at kappa = {p.kappa:.6g}, "
                          f"kappa' = {p.kappa_prime:.6g}") from None
    return np.array(pref).reshape((-1,) + (1,) * ndim)


def _normalized_rows(p: PTParams, x: np.ndarray, pref, polys) -> np.ndarray:
    """pref_n cos^{k'}(x/2a) sin^{k}(x/2a) times row n of `polys`."""
    u = x / (2.0 * p.a)
    return pref * np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa * polys


def eigenfunctions(p: PTParams, n_max: int, x) -> np.ndarray:
    """Normalized eigenfunctions c_n^{-1/2} cos^{k'}(x/2a) sin^{k}(x/2a)
    P_n^{(k-1/2, k'-1/2)}(cos(x/a)) of the lower partner Hamiltonian, rows
    n = 0..n_max of one Jacobi recurrence; shape (n_max+1,) + shape of x.
    A recurrence that overflows (from kappa or kappa' near 1e77 at level 2)
    is a DomainError."""
    return _lower_rows(p, 0, n_max, x, jacobi_table)


def eigenfunction(p: PTParams, n: int, x):
    """Row n of `eigenfunctions`, from the two rows `jacobi_poly` holds."""
    val = _lower_rows(p, n, n, x, jacobi_poly)[0]
    return val if np.ndim(val) else float(val)


def _lower_rows(p: PTParams, lo: int, n: int, x, jacobi) -> np.ndarray:
    """Rows lo..n of `eigenfunctions`, their P from jacobi(n, k - 1/2, k' - 1/2, y)."""
    _check_level(n)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= p.box)):
        raise DomainError(f"x must lie in [0, {p.box:.6g}]")
    pref = _prefactors(p, range(lo, n + 1), x.ndim)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _normalized_rows(p, x, pref, jacobi(
                n, p.kappa - 0.5, p.kappa_prime - 0.5, np.cos(x / p.a)))
    except FloatingPointError:
        raise DomainError(f"the Jacobi recurrence overflows at kappa = "
                          f"{p.kappa:.6g}, kappa' = {p.kappa_prime:.6g}") from None


def partner_eigenfunction(p: PTParams, n: int, x):
    """Normalized eigenfunction of the upper partner, the n-th eigenfunction
    of the partner well."""
    return eigenfunction(p.partner(), n, x)


def lowered_eigenfunctions(p: PTParams, n_max: int, x) -> np.ndarray:
    """(A- psi_n)(x) with A- = d/dx + W for n = 0..n_max, rows of one pair of
    Jacobi tables; shape (n_max+1,) + shape of x. A- annihilates the ground
    state and maps level n+1 onto sqrt(E_{n+1}) times partner level n. The
    envelope's log-derivative is -W; dP_n/dy = ((n+k+k')/2) P_{n-1}^{(k+1/2, k'+1/2)}."""
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
    pref = _prefactors(p, range(n_max + 1), x.ndim)
    envelope = np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa
    w = superpotential(p, x)
    deriv = pref * envelope * (-w * polys - np.sin(x / p.a) / p.a * dpolys)
    return deriv + w * _normalized_rows(p, x, pref, polys)


@lru_cache(maxsize=64)
def _gauss_jacobi_rule(nodes: int, alpha: float, beta: float) -> tuple:
    """Nodes and weights of the `nodes`-point Gauss-Jacobi rule for
    (1-y)^alpha (1+y)^beta on [-1, 1], alpha, beta > -1 and alpha + beta
    != -1, by Golub-Welsch. The nodes are the eigenvalues of the Jacobi
    matrix, refined by one Newton step on the degree-`nodes` orthonormal
    polynomial; the weights are the Christoffel numbers
    mu_0 / sum_{k<nodes} p_k(y_j)^2 of the orthonormal three-term recurrence
    (p_0 = 1), which keep their digits where eigenvector first components
    lose them. Both arrays are read-only, shared by every caller."""
    s = alpha + beta
    n = np.arange(1.0, nodes + 1.0)
    t = 2.0 * n + s
    diag = np.empty(nodes)
    diag[0] = (beta - alpha) / (s + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (t[:-1] * (t[:-1] + 2.0))
    off = np.sqrt(4.0 * n * (n + alpha) * (n + beta) * (n + s)
                  / (t * t * (t + 1.0) * (t - 1.0)))  # off[k-1] couples p_{k-1}, p_k
    y = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))

    def recurrence(y):
        """sum_{k<nodes} p_k(y)^2, p_nodes(y) and p_nodes'(y)."""
        total = np.zeros_like(y)
        prev, cur, dprev, dcur = 0.0, np.ones_like(y), 0.0, 0.0
        for k in range(nodes):
            total += cur * cur
            back = off[k - 1] if k else 0.0
            nxt = ((y - diag[k]) * cur - back * prev) / off[k]
            dnxt = (cur + (y - diag[k]) * dcur - back * dprev) / off[k]
            prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
        return total, cur, dcur

    _, p_n, dp_n = recurrence(y)
    y = y - p_n / dp_n
    mu0 = math.exp((s + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                   + math.lgamma(beta + 1.0) - math.lgamma(s + 2.0))
    w = mu0 / recurrence(y)[0]
    y.flags.writeable = w.flags.writeable = False
    return y, w


def gauss_jacobi_integral(p: PTParams, f, alpha: float, beta: float,
                          nodes: int) -> np.ndarray:
    """Integral over the well of f(x), a block of eigenfunction products of
    shape (K, len(x)) or (len(x),), by the `nodes`-node Gauss-Jacobi rule in
    y = cos(x/a): sum_j w_j a f(x_j) / ((1-y_j)^(alpha+1/2) (1+y_j)^(beta+1/2))
    with x_j = a arccos y_j. Exact when f(x) dx is (1-y)^alpha (1+y)^beta dy
    times a polynomial of degree below 2*nodes, as products of the envelopes
    sin^k cos^k' are, e.g. (k-1/2, k'-1/2) for the lower Gram matrix; any
    other integrand is integrated wrongly, not approximately. The rule comes
    from `_gauss_jacobi_rule`."""
    y, w = _gauss_jacobi_rule(nodes, alpha, beta)
    weights = p.a * w / ((1.0 - y) ** (alpha + 0.5) * (1.0 + y) ** (beta + 0.5))
    return np.asarray(f(p.a * np.arccos(y))) @ weights


@dataclass(frozen=True)
class UMatrixEntry:
    """One overlap <psi_n^- | psi_m^+> from the closed-form double sum.

    condition estimates the cancellation (largest term over the result);
    flagged entries lost essentially all significant digits, or came out
    above 1 in magnitude although u overlaps two unit vectors, and should be
    cross-checked by quadrature instead of trusted.
    """

    n: int
    m: int
    value: float
    condition: float
    flagged: bool


# an entry is flagged when its sum is below this fraction of its largest
# term or its magnitude exceeds the bound; indices above the cap are refused
# (the alternating sum has lost too many digits there)
_U_THRESHOLD = 1e-10
_U_BOUND = 1.0 + 1e-12
_U_INDEX_CAP = 24


def _u_block(p: PTParams, ns, ms) -> list:
    """Entries of the u double sum for rows ns and columns ms, from one
    broadcast over (n, m, p, p').

    Per row the log binomials in p and the norm constant, per column those
    in p', and the log-Gamma values of the Beta factor's two arguments come
    from a cache local to the block, keyed by exact argument, so every entry
    gets the same floats as when summed alone. The first argument
    n+m+k+1-p-p' is s - (p+p') with s = n+m+k+1: the subtractions of
    integers from s < 2^52 are exact, so it is one value per (n+m, p+p').
    The second, k'+p+p'+1, rounds per (p, p'). Slots with p > n or p' > m
    hold finite fillers and are masked out. Each entry's positive and
    negative terms, in row-major (p, p') order, are reduced as rows of one
    `_row_log_sum_exp` stack per row length, which gives the floats of one
    `signed_log_sum` call per entry."""
    lg = lru_cache(maxsize=None)(log_gamma)

    def binoms(x, js, width):  # log C(x, j), x - j > -1, zero-padded to width
        out = np.zeros(width)
        out[:len(js)] = [lg(x + 1.0) - lg(j + 1.0) - lg(x - j + 1.0) for j in js]
        return out

    kap, kpp, partner = p.kappa, p.kappa_prime, p.partner()
    ns, ms = list(ns), list(ms)
    P, Q = max(ns) + 1, max(ms) + 1
    r12 = np.array([binoms(n + kap - 0.5, range(n + 1), P)
                    + binoms(n + kpp - 0.5, range(n, -1, -1), P) for n in ns])
    c1 = np.array([binoms(m + kap + 0.5, range(m + 1), Q) for m in ms])
    c2 = np.array([binoms(m + kpp + 0.5, range(m, -1, -1), Q) for m in ms])
    q, qq = np.arange(P)[:, None], np.arange(Q)
    d = q + qq
    nm = np.add.outer(ns, ms)
    sums = sorted(set(nm.ravel().tolist()))
    lg_left = np.zeros((len(sums), P + Q - 1))
    for i, s in enumerate(sums):
        lg_left[i, :s + 1] = [lg(s + kap + 1.0 - j) for j in range(s + 1)]
    lg_right = np.array([[lg(x) for x in row] for row in (kpp + q + qq + 1.0).tolist()])
    lg_last = np.array([[lg(n + m + kap + kpp + 2.0) for m in ms] for n in ns])
    log_mags = ((((r12[:, None, :, None] + c1[None, :, None, :]) + c2[None, :, None, :])
                 + lg_left[np.searchsorted(sums, nm)[:, :, None, None], d])
                + lg_right) - lg_last[:, :, None, None]
    valid = (q <= np.array(ns)[:, None, None, None]) & (qq <= np.array(ms)[:, None, None])
    even = (nm[:, :, None, None] - d) % 2 == 0

    # every entry's positive row, then every entry's negative row
    parts = (valid & even, valid & ~even)
    terms = np.concatenate([log_mags[part] for part in parts])
    counts = np.concatenate([part.sum(axis=(2, 3)).ravel() for part in parts])
    starts = np.cumsum(counts) - counts
    lse = np.empty(len(counts))
    for length in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == length)
        lse[sel] = _row_log_sum_exp(terms[starts[sel][:, None] + np.arange(length)])
    log_pos, log_neg = lse.reshape(2, len(ns), len(ms)).tolist()
    max_terms = np.max(np.where(valid, log_mags, -math.inf), axis=(2, 3)).tolist()

    log_a = math.log(p.a)
    norms_m = [norm_constant_log(partner, m) for m in ms]
    block = []
    for i, n in enumerate(ns):
        norm_n, row = norm_constant_log(p, n), []
        for k, m in enumerate(ms):
            log_sum, sign = _signed_pair(log_pos[i][k], log_neg[i][k])
            if log_sum == -math.inf:
                row.append(UMatrixEntry(n, m, 0.0, math.inf, True))
                continue
            max_term = max_terms[i][k]
            value = sign * math.exp(log_a - 0.5 * (norm_n + norms_m[k]) + log_sum)
            row.append(UMatrixEntry(n, m, value, math.exp(max_term - log_sum),
                                    math.exp(log_sum - max_term) < _U_THRESHOLD
                                    or abs(value) > _U_BOUND))
        block.append(row)
    return block


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
    when the sum falls below 1e-10 of its largest term or |u| exceeds
    1 + 1e-12. This is the entry of
    the 1x1 block (rows [n], columns [m]) of `u_matrix`'s broadcast, so it
    equals the block's entry to the bit.
    """
    _check_u_indices(n, m)
    return _u_block(p, [n], [m])[0][0]


def u_matrix(p: PTParams, n_max: int, m_max: int) -> list:
    """All entries for n <= n_max, m <= m_max (row-major list of lists).

    The log-Gamma values and binomial rows and columns are built once per
    block, the log terms of every (n, m, p, p') in one broadcast with the
    operation order of the single sum, and the signed sums of all entries in
    one log-sum-exp stack per row length. Each entry is byte-identical to
    its own `u_matrix_element`."""
    if n_max < 0 or m_max < 0:
        raise DomainError(f"block sizes must be nonnegative, got ({n_max}, {m_max})")
    _check_u_indices(n_max, m_max)
    return _u_block(p, range(n_max + 1), range(m_max + 1))
