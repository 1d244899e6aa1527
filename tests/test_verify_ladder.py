"""`verify` reads the one ladder diagonal of `fockspace._lowering_diagonal`:
its ladder identities and the lowering residual use m_n itself, and the
dense `build_ladder` view appears only in the checks of the dense layout."""

import math

import numpy as np
import pytest

from solvstate import fockspace, verify
from solvstate.spectrum import CustomSpectrum, PoschlTellerSpectrum
from solvstate.states import GKLabel, gk_state

TABLE = CustomSpectrum(energies=[0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66])


def _counted(monkeypatch, name):
    """Replace verify's imported `name` by a wrapper that logs each call."""
    calls, real = [], getattr(verify, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(verify, name, wrapper)
    return calls


def test_all_suites_build_five_dense_ladders(monkeypatch):
    # 4 for adjointness[...], 1 shared by the three ladder_action_* checks
    calls = _counted(monkeypatch, "build_ladder")
    reports = verify.run_suite("all")
    assert sum(len(r.checks) for r in reports) == 90
    assert all(r.passed for r in reports)
    assert len(calls) == 5


def test_eigen_residual_builds_no_dense_ladder(monkeypatch):
    calls = _counted(monkeypatch, "build_ladder")
    for spec in (PoschlTellerSpectrum(2.0, 2.0), TABLE):
        verify.eigen_residual(spec, GKLabel(0.7 + 0.2j, 0.3, 0))
        verify.eigen_residual(spec, GKLabel(0.7, 0.0, 1))
    assert calls == []


def _dense_residual(spec, label):
    """The lowering residual as a dense matrix-vector product, one level past
    the state (clamped to a finite table)."""
    state = gk_state(spec, label, tail_eps=1e-28)
    dim = state.offset + state.size + 1
    if math.isfinite(spec.max_level):
        dim = min(dim, int(spec.max_level) + 1)
    lad = fockspace.build_ladder(spec, label.alpha, max(dim - 1, 2))
    v = state.embed(lad.N + 1)
    return float(np.linalg.norm(lad.a_minus @ v - label.z * v))


_SUITE_GRID = [(PoschlTellerSpectrum(lam / 2.0, lam / 2.0), GKLabel(z, alpha, 0))
               for lam in (1.0, 4.0) for z in (0.2, 0.7 + 0.2j, 1.5)
               for alpha in (0.0, 0.3)]
_K1 = [(PoschlTellerSpectrum(lam / 2.0, lam / 2.0), GKLabel(0.7, 0.0, 1))
       for lam in (1.0, 4.0)]
_TABLE = [(TABLE, GKLabel(z, alpha, k)) for z in (0.5 + 0.1j, 2.0)
          for alpha in (0.0, 0.3) for k in (0, 1)]


@pytest.mark.parametrize("spec, label", _SUITE_GRID + _K1 + _TABLE)
def test_eigen_residual_matches_the_dense_product(spec, label):
    assert abs(verify.eigen_residual(spec, label) - _dense_residual(spec, label)) <= 1e-15


def _mutant(energies, alpha):
    """The diagonal with m_10 off by one part in 1e9."""
    m = fockspace._lowering_diagonal(energies, alpha)
    if m.size >= 10:
        m[9] *= 1.0 + 1e-9
    return m


def test_a_perturbed_diagonal_fails_the_ladder_identities(monkeypatch):
    spec, label = PoschlTellerSpectrum(2.0, 2.0), GKLabel(10.0, 0.3, 0)
    assert verify.eigen_residual(spec, label) < 1e-9
    monkeypatch.setattr(verify, "_lowering_diagonal", _mutant)
    failed = {c.name for c in verify.suite_ladder().failures}
    assert failed == {f"{check}[{tag},alpha={alpha}]"
                      for check in ("commutator", "number_operator")
                      for tag in ("pt", "harmonic") for alpha in (0.0, 0.3)}
    assert verify.eigen_residual(spec, label) > 1e-9
