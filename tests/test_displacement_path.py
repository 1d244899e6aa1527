"""The displacement oracle's one-pass path and its proven Taylor stop.

`displacement_path` returns exp(t G)|psi_0> at several fractions t of one
ray from a single Taylor pass; each state must be the displaced ground
state at amplitude t Z. `_taylor_step` stops on the remainder bound
||rest after term j|| <= ||term j|| once j+1 >= 2 rho; a fixed 60-term sum
of the same buffers shows that the stop is never early.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

import solvstate.fockspace as fockspace
from solvstate import (
    CustomSpectrum,
    DomainError,
    HarmonicSpectrum,
    PoschlTellerSpectrum,
    build_ladder,
    displace_ground,
    displacement_path,
)
from solvstate.verify import coeff_distance

RAY = (0.2, 0.4, 0.8, 1.5)  # the kp suite's moduli on the ray e^{0.4i}


@pytest.mark.parametrize("spec, moduli", [
    (PoschlTellerSpectrum(0.5, 0.5), RAY),
    (PoschlTellerSpectrum(2.0, 2.0), RAY),
    (HarmonicSpectrum(), (0.25, 0.5, 0.9)),
], ids=["pt-1", "pt-4", "harmonic"])
def test_each_state_is_the_displaced_state_at_its_amplitude(spec, moduli):
    top = moduli[-1]
    path = displacement_path(spec, top * cmath.exp(0.4j),
                             [m / top for m in moduli[:-1]] + [1.0])
    assert len(path) == len(moduli)
    for modulus, state in zip(moduli, path):
        alone = displace_ground(spec, modulus * cmath.exp(0.4j))
        assert coeff_distance(state, alone) <= 1e-14, modulus
        assert state.tail_bound <= 1e-12


def test_finite_table_states_are_dense_exponential_columns():
    # the 12-level table is the whole space, so each state is exact
    energies = [0.0, 0.7, 1.5, 2.6, 3.4, 4.9, 6.1, 7.0, 8.8, 10.2, 11.5, 13.9]
    spec = CustomSpectrum(energies=energies)
    Z, alpha, fractions = 1.5 * cmath.exp(0.4j), 0.3, (0.1, 0.35, 0.6, 1.0)
    lad = build_ladder(spec, alpha, len(energies) - 1)
    G = Z * lad.a_plus - np.conj(Z) * lad.a_minus
    for t, state in zip(fractions, displacement_path(spec, Z, fractions, alpha)):
        column = expm(t * G)[:, 0]
        assert state.size == len(energies)
        assert state.tail_bound <= 1e-15
        assert np.max(np.abs(state.coefficients - column)) <= 1e-14, t


@pytest.mark.parametrize("fractions", [
    (0.5, 0.25, 1.0),        # not increasing
    (0.25, 0.25, 1.0),       # repeated
    (0.25, 0.5),             # does not end at 1.0
    (0.5, 0.999999),
    (0.0, 0.5, 1.0),         # outside (0, 1]
    (-0.5, 1.0),
    (0.5, 1.0, 1.5),
    (math.nan, 1.0),
    (),
])
def test_bad_fractions_rejected(fractions):
    with pytest.raises(DomainError, match="fractions"):
        displacement_path(HarmonicSpectrum(), 0.5, fractions)


def _taylor_sum(v, lo, hi, terms):
    """sum_{j <= terms} (h R)^j v / j! with the coefficient rows and the
    arithmetic of `_taylor_step`, but a fixed number of terms."""
    out, term = v.copy(), v
    for j in range(1, terms + 1):
        nxt = np.zeros_like(v)
        nxt[1:-1] = (lo / j) * term[:-2] + (hi / j) * term[2:]
        out += nxt
        term = nxt
    return out


def test_proven_stop_is_never_early(monkeypatch):
    # lambda = 1, |Z| = 1.5: windows 64, 128, 256 and 512
    calls = []
    taylor = fockspace._taylor_step

    def recorded(v, out, rows, work, rho):
        lo, hi = (row.copy() for row in rows[0])
        v_in = v.copy()
        j = taylor(v, out, rows, work, rho)
        calls.append((v_in, lo, hi, rho, j, out.copy()))
        return j

    monkeypatch.setattr(fockspace, "_taylor_step", recorded)
    displace_ground(PoschlTellerSpectrum(0.5, 0.5), 1.5 * cmath.exp(0.4j))
    assert {len(c[0]) - 3 for c in calls} == {64, 128, 256, 512}
    for v, lo, hi, rho, j, out in calls:
        assert rho <= 5.0
        assert j + 1 >= 2.0 * rho
        reference = _taylor_sum(v, lo, hi, 60)
        assert np.max(np.abs(out - reference)) <= 1e-15 * np.linalg.norm(v)
