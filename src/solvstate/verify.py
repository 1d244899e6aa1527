"""Named verification suites behind the CLI `verify` subcommand.

Each suite runs a battery of identity checks at pinned tolerances and returns
a structured report; the measures suite additionally carries an errata
section for the documented inconsistency of the published unit-disk weight,
which is reproduced and reported but never asserted.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures as msr
from . import poschl_teller as pt
from . import states as st
from .errors import DomainError
from .fockspace import build_ladder, displace_ground, displacement_path
from .spectrum import CustomSpectrum, HarmonicSpectrum, PoschlTellerSpectrum

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES",
           "coeff_distance"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    errata: list = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def add(self, name, observed, tolerance, detail="", larger_is_fail=True):
        ok = observed <= tolerance if larger_is_fail else observed >= tolerance
        self.checks.append(CheckResult(name, bool(ok), float(observed),
                                       float(tolerance), detail))

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "runtime_s": self.runtime_s,
            "checks": [c.to_dict() for c in self.checks],
            "errata": list(self.errata),
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.checks)} checks, {self.runtime_s:.2f}s)"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: observed {c.observed:.3e} "
                         f"vs tolerance {c.tolerance:.3e}"
                         + (f"  ({c.detail})" if c.detail else ""))
        if self.errata:
            lines.append("  errata:")
            for e in self.errata:
                lines.append(f"    - {e}")
        return "\n".join(lines)


def coeff_distance(s1, s2) -> float:
    """Max coefficient deviation between two states after aligning one
    global phase (compared on the absolute level basis)."""
    dim = max(s1.offset + s1.size, s2.offset + s2.size)
    v1, v2 = s1.embed(dim), s2.embed(dim)
    ip = np.vdot(v2, v1)
    phase = ip / abs(ip) if abs(ip) > 0 else 1.0
    return float(np.max(np.abs(v1 - phase * v2)))


def _add_temporal_stability(rep, lam, spec, t, detail, build):
    """temporal_stability[lam, k] for k = 0 and 2: evolve(t) of build(k, 0.0)
    against the rebuild build(k, t), whose alpha is larger by t."""
    for k in (0, 2):
        ev = st.evolve(build(k, 0.0), spec, t)
        rep.add(f"temporal_stability[lam={lam},k={k}]",
                float(np.max(np.abs(ev.coefficients - build(k, t).coefficients))),
                1e-14, detail)


# ---------------------------------------------------------------------------
# ladder suite
# ---------------------------------------------------------------------------

def suite_ladder(lam: float = 4.0) -> SuiteReport:
    rep = SuiteReport("ladder")
    t0 = time.perf_counter()
    N = 64
    specs = [("pt", PoschlTellerSpectrum(lam / 2.0, lam / 2.0)),
             ("harmonic", HarmonicSpectrum())]
    for tag, spec in specs:
        energies = spec.levels(0, N + 2)[0]
        lads = [build_ladder(spec, alpha, N) for alpha in (0.0, 0.3)]
        for lad in lads:
            rep.add(f"adjointness[{tag},alpha={lad.alpha}]",
                    float(np.max(np.abs(lad.a_plus - lad.a_minus.conj().T))),
                    0.0, "a+ must be exactly (a-)^dagger")
            comm = lad.a_minus @ lad.a_plus - lad.a_plus @ lad.a_minus
            target = np.zeros_like(comm)
            idx = np.arange(N)
            target[idx, idx] = energies[1:N + 1] - energies[:N]
            dev = float(np.max(np.abs((comm - target)[:N, :N])))
            rep.add(f"commutator[{tag},alpha={lad.alpha}]", dev, 1e-12,
                    "leading block of [a-,a+] vs diag(E_{n+1}-E_n)")
            number = lad.a_plus @ lad.a_minus
            dev = float(np.max(np.abs(np.diag(number).real - energies[:N + 1])))
            rep.add(f"number_operator[{tag},alpha={lad.alpha}]", dev,
                    1e-12 * max(1.0, energies[N]), "diag(a+ a-) vs E_n")
        dev = float(np.max(np.abs(np.abs(lads[1].a_minus) - np.abs(lads[0].a_minus))))
        rep.add(f"alpha_only_phases[{tag}]", dev, 1e-13 * max(1.0, energies[N]),
                "|entries| independent of alpha")
    rep.runtime_s = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# gk suite
# ---------------------------------------------------------------------------

def _gk_closed_coeffs(spec, label, size):
    """Direct lowering-eigenstate coefficients (k = 0 formula), z != 0."""
    n = np.arange(size)
    energies, log_e0 = spec.levels(0, size)
    logs = n * math.log(abs(label.z)) - 0.5 * log_e0
    mags = np.exp(logs - logs.max())
    phases = np.exp(1j * n * np.angle(label.z)) * np.exp(-1j * label.alpha * energies)
    c = mags * phases
    return c / np.linalg.norm(c)


def eigen_residual(spec, label) -> float:
    """|| a- |state> - z |state> || for a GK label (k = 0 is an eigenstate),
    on a state built to a 1e-28 tail."""
    state = st.gk_state(spec, label, tail_eps=1e-28)
    dim = state.offset + state.size + 1
    if math.isfinite(spec.max_level):
        dim = min(dim, int(spec.max_level) + 1)  # lowering stays in range
    lad = build_ladder(spec, label.alpha, max(dim - 1, 2))
    v = state.embed(lad.N + 1)
    return float(np.linalg.norm(lad.a_minus @ v - label.z * v))


def suite_gk(lams=(1.0, 4.0)) -> SuiteReport:
    rep = SuiteReport("gk")
    t0 = time.perf_counter()
    z_grid = (0.2, 0.7 + 0.2j, 1.5)
    for lam in lams:
        spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
        worst = 0.0
        for z in z_grid:
            for alpha in (0.0, 0.3):
                worst = max(worst, eigen_residual(spec, st.GKLabel(z, alpha, 0)))
        rep.add(f"lowering_eigenstate[lam={lam}]", worst, 1e-9,
                "max residual over the z, alpha grid")

        label = st.GKLabel(0.7 + 0.2j, 0.3, 0)
        state = st.gk_state(spec, label)
        closed = _gk_closed_coeffs(spec, label, state.size)
        rep.add(f"k0_reduction[lam={lam}]",
                float(np.max(np.abs(state.coefficients - closed))), 1e-12,
                "photon-added k=0 vs direct eigenstate expansion")

        res1 = eigen_residual(spec, st.GKLabel(0.7, 0.0, 1))
        rep.add(f"k1_not_eigenstate[lam={lam}]", res1, 0.01,
                "k=1 state must fail the eigenvalue equation",
                larger_is_fail=False)

        worst = 0.0
        for k in (0, 1, 3):
            for u in (0.5, 2.0):
                series = st.gk_norm_constant(spec, u, k)
                closed = st.gk_norm_constant_pt_closed(lam, u, k)
                worst = max(worst, msr._rel_from_logs(series, closed))
        rep.add(f"norm_series_vs_closed[lam={lam}]", worst, 1e-10,
                "series sum vs Pochhammer-adjusted 2F3 closed form")

        l1 = st.GKLabel(0.6, 0.2, 1)
        l2 = st.GKLabel(0.4 + 0.3j, 0.5, 1)
        o12 = st.gk_overlap(spec, l1, l2)
        o21 = st.gk_overlap(spec, l2, l1)
        rep.add(f"overlap_hermitian[lam={lam}]", abs(o12 - np.conj(o21)), 1e-12)
        s1 = st.gk_state(spec, l1, tail_eps=1e-26)
        s2 = st.gk_state(spec, l2, tail_eps=1e-26)
        rep.add(f"overlap_vs_dot_product[lam={lam}]", abs(o12 - s1.inner(s2)), 1e-10,
                "series overlap vs coefficient dot product")
        rep.add(f"overlap_normalized[lam={lam}]",
                abs(st.gk_overlap(spec, l1, l1) - 1.0), 1e-12)
        worst = max(abs(st.gk_overlap(spec, st.GKLabel(z1, 0.1, 1),
                                      st.GKLabel(z2, 0.4, 1)))
                    for z1 in (0.3, 1.1) for z2 in (0.8j, 1.2))
        rep.add(f"overlap_bounded[lam={lam}]", worst, 1.0 + 1e-12,
                "|<l1|l2>| <= 1 (Cauchy-Schwarz)")

        # equal-alpha compact hypergeometric kernel
        l1, l2 = st.GKLabel(0.5, 0.3, 1), st.GKLabel(0.8, 0.3, 1)
        o = st.gk_overlap(spec, l1, l2)
        compact = st.gk_overlap_compact(spec, l1, l2)
        rep.add(f"overlap_compact_form[lam={lam}]", abs(o - compact) / abs(compact),
                1e-10, "series overlap vs compact hypergeometric kernel")

        _add_temporal_stability(
            rep, lam, spec, 0.37, "evolve(t) vs rebuild with alpha+t",
            lambda k, dt: st.gk_state(spec, st.GKLabel(0.7 + 0.2j, 0.2 + dt, k)))

    rad = PoschlTellerSpectrum(2.0, 2.0).radius(1)
    rep.add("radius_pt_infinite", 0.0 if rad.is_infinite else 1.0, 0.0,
            f"status={rad.status}")
    rad = HarmonicSpectrum().radius(0)
    rep.add("radius_harmonic_infinite", 0.0 if rad.is_infinite else 1.0, 0.0,
            f"status={rad.status}")
    bounded = CustomSpectrum(rule=lambda n: 1.0 - 2.0 ** (-n), name="bounded")
    rad = bounded.radius(0)
    rep.add("radius_bounded_spectrum", abs(rad.value - 1.0), 1e-9,
            "E_n -> 1 gives unit radius")
    rep.runtime_s = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# kp suite
# ---------------------------------------------------------------------------

def suite_kp(lams=(1.0, 4.0)) -> SuiteReport:
    rep = SuiteReport("kp")
    t0 = time.perf_counter()
    for lam in lams:
        spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
        # the four amplitudes of one ray from one oracle pass
        moduli = (0.2, 0.4, 0.8, 1.5)
        ray = displacement_path(spec, 1.5 * np.exp(0.4j),
                                [m / 1.5 for m in moduli[:-1]] + [1.0])
        worst = 0.0
        for Zmag, oracle in zip(moduli, ray):
            Z = Zmag * np.exp(0.4j)
            closed = st.kp_state_pt(lam, st.KPLabel(Z=Z, alpha=0.0, k=0),
                                    tail_eps=1e-24)
            worst = max(worst, coeff_distance(oracle, closed))
        rep.add(f"displacement_vs_closed[lam={lam}]", worst, 1e-8,
                "substepped Taylor oracle vs unit-disk closed form")

        Z = 0.3 * np.exp(0.2j)
        oracle = displace_ground(spec, Z, alpha=0.0)
        nested = st.kp_state_general(spec, Z, alpha=0.0, k=0)
        rep.add(f"displacement_vs_nested[lam={lam}]",
                coeff_distance(oracle, nested.state), 1e-6,
                f"j-series converged={nested.j_converged}")

        worst = 0.0
        for k in (0, 2):
            for u in (0.1, 0.3, 0.6):
                closed = st.kp_norm_constant_pt(lam, u, k, method="closed")
                series = st.kp_norm_constant_pt(lam, u, k, method="series")
                worst = max(worst, msr._rel_from_logs(closed, series))
        rep.add(f"kp_norm_closed_vs_series[lam={lam}]", worst, 1e-10)
        worst = max(abs(st.kp_norm_constant_pt(lam, u, 0, method="series"))
                    for u in (0.1, 0.5, 0.9))
        rep.add(f"kp_norm_k0_is_one[lam={lam}]", worst, 1e-12,
                "series log N_0 must vanish: sum_n u^n (lam+1)_n / n! = (1-u)^{-lam-1}")

        k = 1
        l1 = st.KPLabel(xi=0.3, alpha=0.2, k=k)
        l2 = st.KPLabel(xi=0.5j, alpha=0.2, k=k)
        kern = st.kp_overlap_pt(lam, l1, l2)
        s1 = st.kp_state_pt(lam, l1, tail_eps=1e-26)
        s2 = st.kp_state_pt(lam, l2, tail_eps=1e-26)
        rep.add(f"kernel_vs_dot_product[lam={lam}]", abs(kern - s1.inner(s2)),
                1e-10, "series kernel vs coefficient dot product")
        rep.add(f"kernel_normalized[lam={lam}]",
                abs(st.kp_overlap_pt(lam, l1, l1) - 1.0), 1e-12)
        rep.add(f"kernel_hermitian[lam={lam}]",
                abs(kern - np.conj(st.kp_overlap_pt(lam, l2, l1))), 1e-12)
        worst = max(abs(st.kp_overlap_pt(lam, st.KPLabel(xi=x1, alpha=0.0, k=k),
                                         st.KPLabel(xi=x2, alpha=0.7, k=k)))
                    for x1 in (0.2, 0.7) for x2 in (0.5j, -0.4))
        rep.add(f"kernel_bounded[lam={lam}]", worst, 1.0 + 1e-12)

        xi = 0.45 * np.exp(0.3j)
        _add_temporal_stability(
            rep, lam, spec, 0.61, "",
            lambda k, dt: st.kp_state_pt(lam, st.KPLabel(xi=xi, alpha=0.1 + dt, k=k)))

    spec = HarmonicSpectrum()
    Z = 0.25
    oracle = displace_ground(spec, Z, alpha=0.0)
    nested = st.kp_state_general(spec, Z, alpha=0.0, k=0)
    rep.add("harmonic_nested_vs_displacement", coeff_distance(oracle, nested.state),
            1e-6, "generic nested-sum route against the oscillator oracle")
    rep.runtime_s = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# measures suite
# ---------------------------------------------------------------------------

def suite_measures(lam: float = 4.0, k: int = 2) -> SuiteReport:
    if k > 10:  # the photon-added moments run to power 10 and need power >= k
        raise DomainError(f"k must be at most 10 for the measures suite, got {k}")
    rep = SuiteReport("measures")
    t0 = time.perf_counter()
    worst = 0.0
    for lam_i in (1.0, 4.0, 7.0):
        for k_i in (0, 1, 3):
            r = msr.mellin_gamma_check_pt(lam_i, k_i, 30)
            worst = max(worst, max(e.rel_residual for e in r.entries))
    rep.add("mellin_gamma_identity", worst, 1e-12,
            "Meijer-G weight vs required moments, full (lam,k,n) grid")

    r = msr.gk_measure_selfconsistency(lam, k, 20)
    rep.add("identity_resolution_diagonal",
            max(e.rel_residual for e in r.entries), 1e-12,
            "diagonal elements of the reconstructed identity")

    # unit-disk weight candidates
    k0 = msr.kp_weight_k0(lam)
    r0 = msr.kp_moment_residuals(lam, 0, k0, n_max=10)
    worst_quad = max(e.quad_vs_analytic for e in r0.entries
                     if e.quad_vs_analytic is not None)
    rep.add("k0_weight_quadrature_vs_beta", worst_quad, 1e-10,
            "quadrature against the analytic Beta moments")
    # the published weight misses the published target by (n+lam)/(n*lam);
    # reproducing that factor is the documented-errata check
    worst_factor = max(
        abs(math.exp(e.computed_log - e.target_log) / ((e.n + lam) / (e.n * lam)) - 1.0)
        for e in r0.entries if e.power == e.n - 1)
    rep.add("k0_structural_residual_reproduced", worst_factor, 1e-8,
            "computed/target matches the predicted mismatch factor")
    rep.errata.extend(r0.errata)

    # the k=0 weight does solve the moment equation under the r^n power
    # convention once the constant lam is absorbed into the ansatz prefactor
    worst_scaled = max(abs(math.exp(e.computed_log - e.target_log) * lam - 1.0)
                       for e in r0.entries if e.power == e.n)
    rep.add("k0_rescaled_rn_convention_passes", worst_scaled, 1e-8,
            "published k=0 weight x lam solves the r^n moment equation")

    wk = msr.kp_weight_unit_disk(lam, k, reading="a_b_b")
    rk = msr.kp_moment_residuals(lam, k, wk, n_max=10)
    worst_quad = max(e.quad_vs_analytic for e in rk.entries
                     if e.quad_vs_analytic is not None)
    rep.add("photon_added_weight_quadrature_vs_beta", worst_quad, 1e-9,
            "elementary reading, n > k moments vs Beta")
    rep.errata.extend(rk.errata)

    wl = msr.kp_weight_unit_disk(lam, k, reading="a_b_lam2k")
    rl = msr.kp_moment_residuals(lam, k, wl, n_max=6)
    n_pass = sum(1 for e in rl.entries if e.verdict == "pass")
    rep.errata.extend(rl.errata)
    rep.errata.append(
        f"hypergeometric reading 'a_b_lam2k': {n_pass} of {len(rl.entries)} "
        f"moment combinations match the published target as printed"
    )
    # under the r^n convention the same reading misses the target by the
    # constant lam+2k across all n: the published pair of formulas becomes
    # fully consistent once that constant moves into the ansatz prefactor
    # (equivalently Gamma(lam+2k) instead of Gamma(lam+2k+1))
    lam2k = lam + 2.0 * k
    rn = [e for e in rl.entries if e.power == e.n and e.computed_log is not None]
    worst_const = max(abs(math.exp(e.computed_log - e.target_log) * lam2k - 1.0)
                      for e in rn)
    rep.add("alternate_reading_rescaled_rn_passes", worst_const, 1e-8,
            "hypergeometric reading x (lam+2k) solves the r^n moment equation")
    rep.errata.append(
        "resolution: under the r^n power convention, the hypergeometric "
        "reading with lower parameter lam+2k scaled by the constant lam+2k "
        "satisfies every tested moment (k = 0 reduces to the published "
        "weight times lam); the printed normalization Gamma(lam+2k+1) "
        "appears to be Gamma(lam+2k) and the printed power r^(n-1) "
        "appears to be r^n"
    )
    rep.errata = list(dict.fromkeys(rep.errata))

    for cand in (k0, wk):
        nn = msr.nonnegativity_report(cand)
        rep.add(f"nonnegative[{cand.id}]",
                0.0 if nn["nonnegative"] else 1.0, 0.0,
                f"min h = {nn['min_value']:.3e} on {nn['grid_points']} points")
    rep.runtime_s = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# pt suite (position space)
# ---------------------------------------------------------------------------

def _orthonormality_error(p: pt.PTParams, n_max: int) -> float:
    n, m = np.triu_indices(n_max + 1)  # the Gram matrix, exact under (k-1/2, k'-1/2)

    def products(x):
        rows = pt.eigenfunctions(p, n_max, x)
        return rows[n] * rows[m]
    gram = pt.gauss_jacobi_integral(p, products, p.kappa - 0.5,
                                    p.kappa_prime - 0.5, n_max + 1)
    return float(np.max(np.abs(gram - (n == m))))


def _w_prime(p: pt.PTParams, x) -> np.ndarray:
    """W'(x) = (kappa/sin^2(x/2a) + kappa'/cos^2(x/2a)) / 4a^2."""
    u = x / (2.0 * p.a)
    return (p.kappa / np.sin(u) ** 2 + p.kappa_prime / np.cos(u) ** 2) / (4.0 * p.a ** 2)


_FD_NODES = 4000


def _fd_hamiltonian(p: pt.PTParams, upper: bool) -> tuple:
    """(nodes, diagonal, off-diagonal) of the 3-point finite-difference matrix
    of the lower partner -d2/dx2 + V, or with upper=True of H+ = A- A+ =
    -d2/dx2 + W^2 + W', isospectral to H- one level up, on _FD_NODES interior
    nodes of the well."""
    xs = np.linspace(0.0, p.box, _FD_NODES + 2)[1:-1]
    h = xs[1] - xs[0]
    vx = (pt.superpotential(p, xs) ** 2 + _w_prime(p, xs) if upper
          else pt.potential(p, xs))
    return xs, 2.0 / h ** 2 + vx, np.full(_FD_NODES - 1, -1.0 / h ** 2)


def _sturm_count(diag, off, mu: float) -> int:
    """Eigenvalues at or below mu of the symmetric tridiagonal matrix with
    this diagonal and off-diagonal: the nonpositive pivots of the LDL^T
    factorization of T - mu (Sylvester's law of inertia), with pivots below
    pivmin in magnitude set to -pivmin as LAPACK's dstebz does."""
    off2 = (np.asarray(off, dtype=float) ** 2).tolist()
    pivmin = np.finfo(float).tiny * max([1.0] + off2)
    count, q = 0, 1.0
    for d, e2 in zip(np.asarray(diag, dtype=float).tolist(), [0.0] + off2):
        q = d - e2 / q - mu
        if abs(q) < pivmin:
            q = -pivmin
        if q <= 0.0:
            count += 1
    return count


def _kato_temple(diag, off, rows, margin: float):
    """Enclosures (lower, upper) of the len(rows) lowest eigenvalues of the
    symmetric tridiagonal T = (diag, off) from approximate eigenvectors
    `rows`, or a string naming the condition that failed.

    Each normalized row x gives theta = x^T T x and r = ||T x - theta x||,
    and [theta - r, theta + r] holds an eigenvalue. If these windows are
    disjoint and ascending and one Sturm count finds exactly len(rows)
    eigenvalues below mu = theta_last + r_last + margin, the i-th lowest
    eigenvalue is the only one in (alpha_i, beta_i), with alpha_i the top of
    window i-1 (-inf for i = 0) and beta_i the bottom of window i+1 (mu for
    the last), and Kato-Temple (T. Kato, J. Phys. Soc. Japan 4, 334, 1949)
    encloses it in [theta - r^2/(beta - theta), theta + r^2/(theta - alpha)].
    Wrong rows widen or overlap the windows, so they fail the certificate
    and never tighten it."""
    x = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    tx = diag * x
    tx[:, 1:] += off * x[:, :-1]
    tx[:, :-1] += off * x[:, 1:]
    theta = np.einsum("ij,ij->i", x, tx)
    r = np.linalg.norm(tx - theta[:, None] * x, axis=1)
    bottom, top = theta - r, theta + r
    if not np.all(top[:-1] < bottom[1:]):
        return "residual windows overlap or are out of order"
    mu = top[-1] + margin
    count = _sturm_count(diag, off, mu)
    if count != len(rows):
        return f"{count} eigenvalues below {mu:.6g}, not {len(rows)}"
    alpha = np.concatenate([[-np.inf], top[:-1]])
    beta = np.concatenate([bottom[1:], [mu]])
    return theta - r * r / (beta - theta), theta + r * r / (theta - alpha)


def _fd_isospectrality(p: pt.PTParams, upper: bool, well: pt.PTParams) -> tuple:
    """(observed, detail) of the fd_isospectrality check of one partner of p:
    the worst relative distance |lambda - E_i| / max(|E_i|, max(1, E_1)) of
    either end of the Kato-Temple enclosures of the four lowest FD levels,
    from the eigenfunctions of `well` (the partner's own well in the
    suite), to the exact ladder; inf when the enclosure is not certified."""
    xs, diag, off = _fd_hamiltonian(p, upper)
    targets = [p.energy(n + int(upper)) for n in range(4)]
    enclosure = _kato_temple(diag, off, pt.eigenfunctions(well, 3, xs),
                             0.5 * (targets[3] - targets[2]))
    if isinstance(enclosure, str):
        return math.inf, f"no certified enclosure: {enclosure}"
    scale = max(1.0, p.energy(1))
    worst = max(abs(end - t) / max(abs(t), scale)
                for ends in enclosure for end, t in zip(ends.tolist(), targets))
    width = float(np.max(enclosure[1] - enclosure[0]))
    return worst, (f"lowest 4 FD levels vs exact ladder ({_FD_NODES} nodes), "
                   f"Kato-Temple enclosures at most {width:.1e} wide")


def suite_pt() -> SuiteReport:
    """Position-space checks on the wells (2, 2) and (1.2, 3.4): the SUSY
    factorization, orthonormality, intertwining and u overlaps by exact
    Gauss-Jacobi rules, the Schrodinger residual, the u column norms, and on
    the first well the finite-difference isospectrality of both partners by
    certified Kato-Temple enclosures (`_fd_isospectrality`), all in numpy."""
    rep = SuiteReport("pt")
    t0 = time.perf_counter()
    settings = [pt.PTParams(2.0, 2.0, 1.0), pt.PTParams(1.2, 3.4, 1.0)]
    for p in settings:
        tag = f"k={p.kappa},k'={p.kappa_prime}"
        x = np.linspace(0.05 * p.box, 0.95 * p.box, 211)

        w = pt.superpotential(p, x)
        rep.add(f"susy_factorization[{tag}]",
                float(np.max(np.abs(w * w - _w_prime(p, x) - pt.potential(p, x)))),
                1e-9, "W^2 - W' reproduces the potential pointwise")

        rep.add(f"orthonormality[{tag}]",
                _orthonormality_error(p, 8), 1e-8,
                "levels 0..8 of the lower partner")
        rep.add(f"partner_orthonormality[{tag}]",
                _orthonormality_error(p.partner(), 6), 1e-8,
                "levels 0..6 of the upper partner")

        # Schrodinger residual with a 6th-order finite-difference stencil
        h = 2e-3 * p.a
        xs = np.linspace(0.08 * p.box, 0.92 * p.box, 101)
        stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
        acc = np.zeros((5, xs.size))
        for j, c in enumerate(stencil):
            acc += c * pt.eigenfunctions(p, 4, xs + (j - 3) * h)
        d2 = acc / (180.0 * h * h)
        psi = pt.eigenfunctions(p, 4, xs)
        energies = np.array([[p.energy(n)] for n in range(5)])
        resid = -d2 + pt.potential(p, xs) * psi - energies * psi
        worst = float(np.max(np.abs(resid)))
        rep.add(f"schrodinger_residual[{tag}]", worst, 1e-6,
                "levels 0..4 on the interior grid")

        # intertwining: A- maps level n+1 onto sqrt(E_{n+1}) x partner level
        # n; the products are exact under the weight (k+1/2, k'+1/2)
        val = pt.gauss_jacobi_integral(
            p, lambda x_: pt.eigenfunctions(p.partner(), 4, x_)
            * pt.lowered_eigenfunctions(p, 5, x_)[1:],
            p.kappa + 0.5, p.kappa_prime + 0.5, 5)
        worst = max(abs(abs(v) / math.sqrt(p.energy(n + 1)) - 1.0)
                    for n, v in enumerate(val))
        rep.add(f"susy_intertwining[{tag}]", worst, 1e-7,
                "|<psi_n^+, A- psi_{n+1}^->| / sqrt(E_{n+1}) = 1")

        # closed-form overlaps vs quadrature under the weight (k, k'), from
        # one block that the column-norm check below reads too
        block = pt.u_matrix(p, 18, 6)
        entries = [e for row in block[:7] for e in row]
        kept = [e for e in entries if not e.flagged]
        n_flagged = len(entries) - len(kept)
        n, m = [e.n for e in kept], [e.m for e in kept]
        quad = pt.gauss_jacobi_integral(
            p, lambda x_: pt.eigenfunctions(p, 6, x_)[n]
            * pt.eigenfunctions(p.partner(), 6, x_)[m],
            p.kappa, p.kappa_prime, 7)
        worst = float(np.max(np.abs([e.value for e in kept] - quad), initial=0.0))
        rep.add(f"u_closed_vs_quadrature[{tag}]", worst, 1e-8,
                f"n,m <= 6; {n_flagged} entries flagged for cancellation")
        rep.add(f"u00_positive[{tag}]",
                block[0][0].value, 0.0,
                "<psi_0^-|psi_0^+> with positive-root normalizations",
                larger_is_fail=False)

        # truncated column norms approach 1 monotonically
        defects = np.array([[abs(1.0 - sum(row[m].value * row[m].value
                                           for row in block[:cutoff + 1]))
                             for cutoff in (6, 10, 14, 18)] for m in range(5)])
        rep.add(f"u_column_norms_monotone[{tag}]",
                float(np.max(np.diff(defects, axis=1))), 0.0,
                f"defect at cutoff 18 at most {defects[:, -1].max():.2e}")

    # finite-difference isospectrality on the default setting
    p = settings[0]
    for upper, label in ((False, "lower"), (True, "upper")):
        worst, detail = _fd_isospectrality(p, upper, p.partner() if upper else p)
        rep.add(f"fd_isospectrality[{label}]", worst, 1e-3, detail)

    # the generic ladder of the spectrum n(n+lam) against its closed form
    lam = settings[0].lam
    lad = build_ladder(settings[0].spectrum(), 0.25, 4)
    up = lad.a_plus[4, 3]
    expected_up = math.sqrt(4.0 * (3.0 + lam + 1.0))
    rep.add("ladder_action_magnitude", abs(abs(up) - expected_up), 1e-13)
    rep.add("ladder_action_phase",
            abs(up / abs(up) - np.exp(-1j * 0.25 * (2 * 3 + lam + 1))), 1e-13,
            "phase exponent is E_{n+1}-E_n = 2n+lam+1")
    rep.add("ladder_action_ground", float(np.max(np.abs(lad.a_minus[:, 0]))),
            0.0, "lowering annihilates the ground level")
    rep.runtime_s = time.perf_counter() - t0
    return rep


SUITES = {
    "ladder": suite_ladder,
    "gk": suite_gk,
    "kp": suite_kp,
    "measures": suite_measures,
    "pt": suite_pt,
}


def run_suite(name: str, **kwargs) -> list:
    """Run one suite (or 'all'); returns a list of SuiteReport."""
    if name == "all":
        return [SUITES[s]() for s in ("ladder", "gk", "kp", "measures", "pt")]
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(SUITES)} or 'all'")
    return [SUITES[name](**kwargs)]
