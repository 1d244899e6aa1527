"""The finite-difference isospectrality certificate of the pt suite: Sturm
counts, Kato-Temple enclosures of the lowest FD levels from the analytic
eigenfunctions, and the failures that wrong eigenfunctions produce. LAPACK's
bisection (scipy's eigvalsh_tridiagonal) serves as the reference."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from solvstate import poschl_teller as pt
from solvstate.verify import (_fd_hamiltonian, _fd_isospectrality, _kato_temple,
                              _sturm_count, suite_pt)


@pytest.mark.parametrize("seed", range(8))
def test_sturm_count_equals_the_eigenvalue_count(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 300))
    diag = rng.normal(0.0, 10.0 ** rng.uniform(-2, 4), size)
    off = rng.normal(0.0, 10.0 ** rng.uniform(-2, 4), size - 1)
    if seed % 2:
        off[rng.integers(0, max(size - 1, 1), size // 10)] = 0.0  # split blocks
    evals = eigvalsh_tridiagonal(diag, off)
    norm = max(np.abs(diag).max(), np.abs(off).max(initial=0.0))
    gap = 1e-6 * norm
    checked = 0
    for mu in rng.uniform(evals[0] - 1.1 * norm, evals[-1] + 1.1 * norm, 60):
        if np.min(np.abs(evals - mu)) < gap:
            continue
        assert _sturm_count(diag, off, mu) == int(np.sum(evals < mu)), mu
        checked += 1
    for lo, hi in zip(evals[:-1], evals[1:]):  # between neighbours too
        mu = 0.5 * (lo + hi)
        if hi - lo > 2.0 * gap:
            assert _sturm_count(diag, off, mu) == int(np.sum(evals < mu))
            checked += 1
    assert checked > 20


WELLS = [pt.PTParams(2.0, 2.0), pt.PTParams(2.0, 3.4)]


def _enclosure(p, upper, well):
    xs, diag, off = _fd_hamiltonian(p, upper)
    e = [p.energy(n + int(upper)) for n in range(4)]
    return diag, off, _kato_temple(diag, off, pt.eigenfunctions(well, 3, xs),
                                   0.5 * (e[3] - e[2]))


@pytest.mark.parametrize("p", WELLS, ids=["sym", "asym"])
@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_enclosures_hold_the_bisection_levels(p, upper):
    diag, off, enclosure = _enclosure(p, upper, p.partner() if upper else p)
    lower, higher = enclosure
    levels = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    # dstebz stops within about eps * ||T||_1 = 2e-9 of each level
    assert np.all(lower - 5e-9 <= levels) and np.all(levels <= higher + 5e-9)
    assert np.all(higher - lower <= 1e-9)


def test_a_rough_well_gets_wide_but_true_enclosures():
    # kappa = 1.2: psi ~ x^1.2 at the wall, where the 3-point stencil is
    # poor, so the analytic rows leave residuals near 0.3 and the
    # enclosures widen to about 1.5, still around the FD levels
    p = pt.PTParams(1.2, 3.4)
    diag, off, (lower, higher) = _enclosure(p, False, p)
    levels = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    assert np.all(lower <= levels) and np.all(levels <= higher)
    assert np.max(higher - lower) > 0.1


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_another_wells_rows_fail_the_certificate(upper):
    p = WELLS[0]
    wrong = p if upper else p.partner()
    observed, detail = _fd_isospectrality(p, upper, wrong)
    assert observed == math.inf
    assert detail == "no certified enclosure: residual windows overlap or are out of order"


def test_a_missing_level_fails_the_sturm_count():
    # rows of levels 1..3 give disjoint windows, but the ground level lies
    # below them too
    p = WELLS[0]
    xs, diag, off = _fd_hamiltonian(p, False)
    rows = pt.eigenfunctions(p, 3, xs)[1:]
    assert _kato_temple(diag, off, rows, 4.5).startswith("4 eigenvalues below")


def test_suite_reports_the_certified_levels():
    checks = {c.name: c for c in suite_pt().checks}
    for label in ("lower", "upper"):
        check = checks[f"fd_isospectrality[{label}]"]
        assert check.passed and check.tolerance == 1e-3
        assert 5e-7 < check.observed < 2e-6
        assert "Kato-Temple enclosures" in check.detail
