import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

import solvstate.fockspace as fockspace
from solvstate import (
    ConvergenceError,
    CustomSpectrum,
    DomainError,
    FockState,
    HarmonicSpectrum,
    KPLabel,
    PoschlTellerSpectrum,
    apply,
    build_ladder,
    displace_ground,
    kp_state_pt,
)
from solvstate.verify import coeff_distance


class TestBuildLadder:
    def test_harmonic_standard_boson_entries(self):
        lad = build_ladder(HarmonicSpectrum(), 0.0, 6)
        expected = np.zeros((7, 7), dtype=complex)
        for n in range(1, 7):
            expected[n - 1, n] = math.sqrt(n)
        assert np.array_equal(lad.a_minus, expected)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_lowering_entries_match_per_level_formula(self, alpha):
        spec = PoschlTellerSpectrum(0.6, 1.3)
        lad = build_ladder(spec, alpha, 20)
        expected = np.zeros((21, 21), dtype=complex)
        for n in range(1, 21):
            expected[n - 1, n] = math.sqrt(spec.energy(n)) * np.exp(
                1j * alpha * (spec.energy(n) - spec.energy(n - 1)))
        assert np.array_equal(lad.a_minus, expected)

    def test_number_operator_diagonal(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        lad = build_ladder(spec, 0.15, 10)
        number = lad.a_plus @ lad.a_minus
        for n in range(11):
            assert number[n, n].real == pytest.approx(spec.energy(n), rel=1e-13,
                                                      abs=1e-13)

    def test_adjointness_is_exact(self):
        lad = build_ladder(PoschlTellerSpectrum(0.6, 0.6), 0.3, 12)
        assert np.max(np.abs(lad.a_plus - lad.a_minus.conj().T)) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_commutator_matches_level_spacing(self, alpha):
        for spec in (PoschlTellerSpectrum(2.0, 2.0), HarmonicSpectrum()):
            N = 20
            lad = build_ladder(spec, alpha, N)
            comm = lad.a_minus @ lad.a_plus - lad.a_plus @ lad.a_minus
            # the last row/column is the truncation edge; exclude it
            for n in range(N):
                assert comm[n, n].real == pytest.approx(
                    spec.energy(n + 1) - spec.energy(n), abs=1e-12)
            off = comm - np.diag(np.diag(comm))
            assert np.max(np.abs(off[:N, :N])) < 1e-14

    def test_moduli_independent_of_alpha(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        m0 = np.abs(build_ladder(spec, 0.0, 16).a_minus)
        m3 = np.abs(build_ladder(spec, 0.3, 16).a_minus)
        assert np.max(np.abs(m0 - m3)) < 1e-13 * spec.energy(16)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            build_ladder(HarmonicSpectrum(), 0.0, 1)


class TestApply:
    def test_identity(self):
        state = FockState(2, np.array([0.6, 0.8j]), 0.0, 1e-14)
        out = apply(np.eye(6, dtype=complex), state)
        assert np.allclose(out.embed(6), state.embed(6))

    def test_lowering_annihilates_ground(self):
        lad = build_ladder(PoschlTellerSpectrum(2.0, 2.0), 0.0, 6)
        ground = FockState(0, np.array([1.0 + 0.0j]), 0.0, 0.0)
        out = apply(lad.a_minus, ground)
        assert out.norm() == 0.0

    def test_raising_single_entry(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        alpha = 0.3
        lad = build_ladder(spec, alpha, 6)
        basis_n = FockState(3, np.array([1.0 + 0.0j]), alpha, 0.0)
        out = apply(lad.a_plus, basis_n)
        v = out.embed(7)
        expected = math.sqrt(spec.energy(4)) * np.exp(
            -1j * alpha * (spec.energy(4) - spec.energy(3)))
        assert v[4] == pytest.approx(expected, rel=1e-14)
        v[4] = 0.0
        assert np.max(np.abs(v)) == 0.0

    def test_dimension_mismatch(self):
        state = FockState(5, np.array([1.0 + 0.0j, 2.0]), 0.0, 0.0)
        with pytest.raises(DomainError):
            apply(np.eye(4, dtype=complex), state)
        with pytest.raises(DomainError):
            apply(np.ones((3, 4), dtype=complex), state)

    def test_tail_amplified_by_column_norm(self):
        state = FockState(0, np.array([1.0 + 0.0j]), 0.0, 1e-10)
        out = apply(3.0 * np.eye(2, dtype=complex), state)
        assert out.tail_bound >= 9.0 * 1e-10 - 1e-24


@pytest.fixture
def windows(monkeypatch):
    """Top levels L of the windows 0..L the oracle builds, in order."""
    sizes = []
    window = fockspace._window

    def recorded(spec, Z, alpha, L):
        sizes.append(L)
        return window(spec, Z, alpha, L)

    monkeypatch.setattr(fockspace, "_window", recorded)
    return sizes


class TestDisplaceGround:
    def test_zero_displacement(self):
        state = displace_ground(HarmonicSpectrum(), 0.0)
        assert state.coefficients[0] == pytest.approx(1.0)
        assert np.max(np.abs(state.coefficients[1:])) == 0.0

    @pytest.mark.parametrize("Z", [0.5, 1.0, 1.5, 0.7 + 0.4j])
    def test_harmonic_unit_norm(self, Z):
        state = displace_ground(HarmonicSpectrum(), Z)
        assert state.tail_bound <= 1e-10
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_matches_coherent_state(self):
        Z = 0.8
        state = displace_ground(HarmonicSpectrum(), Z)
        n = np.arange(state.size)
        exact = np.exp(-Z * Z / 2.0 + n * math.log(Z) - 0.5 * gammaln(n + 1.0))
        assert np.max(np.abs(state.coefficients - exact)) < 1e-12

    def test_pt_unit_norm_within_budget(self):
        # substepping keeps even |Z| = 1.5 inside the norm budget
        for Z in (0.4, 0.8, 1.5):
            state = displace_ground(PoschlTellerSpectrum(2.0, 2.0), Z)
            assert state.tail_bound <= 1e-10

    def test_pt_matches_disk_closed_form(self):
        # the closed-form coefficients under xi = (Z/|Z|) tanh|Z|
        lam, Z = 4.0, 0.4
        state = displace_ground(PoschlTellerSpectrum(lam / 2, lam / 2), Z)
        xi = math.tanh(Z)
        n = np.arange(24)
        closed = (1.0 - xi * xi) ** ((lam + 1.0) / 2.0) * xi ** n * np.exp(
            0.5 * (gammaln(n + lam + 1.0) - gammaln(n + 1.0) - gammaln(lam + 1.0)))
        assert np.max(np.abs(state.coefficients[:24] - closed)) < 1e-8

    def test_alpha_enters_as_energy_phases(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        alpha = 0.3
        plain = displace_ground(spec, 0.5, alpha=0.0)
        phased = displace_ground(spec, 0.5, alpha=alpha)
        n = np.arange(plain.size)
        energies = np.array([spec.energy(int(m)) for m in n])
        expected = plain.coefficients * np.exp(-1j * alpha * energies)
        assert np.max(np.abs(phased.coefficients[:plain.size] - expected)) < 1e-10

    def test_infeasible_displacement_reports_large_tail(self):
        # |Z| = 80 occupies far more levels than any affordable truncation;
        # the state must say so instead of pretending
        state = displace_ground(PoschlTellerSpectrum(2.0, 2.0), 80.0)
        assert state.tail_bound > 1e-6
        assert np.all(np.isfinite(state.coefficients))

    def test_too_many_substeps_on_the_first_window_raises(self):
        # |Z| = 3000 needs 2|Z| max|m_n| / 5 = 79,000 substeps on 64 levels
        with pytest.raises(ConvergenceError, match="substeps"):
            displace_ground(PoschlTellerSpectrum(2.0, 2.0), 3000.0)

    @pytest.mark.parametrize("Z, alpha", [
        (float("nan"), 0.0),
        (float("inf"), 0.0),
        (complex(1.0, float("nan")), 0.0),
        (0.5, float("nan")),
        (0.5, float("-inf")),
    ])
    def test_non_finite_input_rejected(self, Z, alpha):
        with pytest.raises(DomainError):
            displace_ground(HarmonicSpectrum(), Z, alpha)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-12])
    def test_bad_tail_budget_rejected(self, eps):
        with pytest.raises(DomainError, match="tail_eps"):
            displace_ground(HarmonicSpectrum(), 0.5, tail_eps=eps)

    @pytest.mark.parametrize("spec", [PoschlTellerSpectrum(0.5, 0.5),
                                      PoschlTellerSpectrum(2.0, 2.0),
                                      HarmonicSpectrum()],
                             ids=["pt_lam1", "pt_lam4", "harmonic"])
    @pytest.mark.parametrize("modulus", [0.4, 1.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_single_attempt_matches_dense_expm(self, spec, modulus, alpha):
        # cap = 64, the first window, allows that window only; the reference
        # is the exact exponential of the same truncated generator, built from
        # the dense ladder, so signs and alpha phases of both representations
        # must agree
        Z = modulus * cmath.exp(0.4j)
        state = displace_ground(spec, Z, alpha, cap=64)
        lad = build_ladder(spec, alpha, 64)
        column = expm(Z * lad.a_plus - np.conj(Z) * lad.a_minus)[:, 0]
        column /= np.linalg.norm(column)
        assert state.size == 65
        assert np.max(np.abs(state.coefficients - column)) < 1e-13

    def test_edge_stop_returns_the_resolved_attempt(self):
        # here 64 levels give the smaller total tail (4.4e-16 against
        # 1.6e-15) but leave 3.3e-16 of edge mass, which puts them 4.1e-9
        # away from the closed form; the default budget of 1e-12 would
        # have stopped there
        lam = 7.441164250409111
        Z = -0.7713569300410675 - 0.07147881150367547j
        oracle = displace_ground(PoschlTellerSpectrum(lam / 2, lam / 2), Z)
        closed = kp_state_pt(lam, KPLabel(Z=Z, alpha=0.0, k=0), tail_eps=1e-24)
        assert coeff_distance(oracle, closed) <= 1e-11

    def test_reflected_packet_is_not_converged(self):
        # |Z| = 6 has a mean level near 2e5: the window fills at 64 and again
        # at 128 so soon after that the doubling rate projects past the cap,
        # and the packet reflects off the top level, which the edge after the
        # last substep alone would miss
        spec = PoschlTellerSpectrum(2.0, 2.0)
        state = displace_ground(spec, 6.0 * cmath.exp(0.4j))
        assert state.size == 129
        assert not state.tail_bound <= 1e-12
        assert np.all(np.isfinite(state.coefficients))

    def test_slow_halving_edge_keeps_growing(self):
        # doubling N whole stopped here at 129 levels with tail 5.4e-2: an
        # overfilled window's top mass scales like 1/N, so the edge went
        # 1.1e-1 -> 5.4e-2 and "fails to halve" fired. The growing window
        # reaches the cap instead. The exact amplitude at level 2048 is
        # 1.0e-10, so no 2049-level vector comes closer than that.
        lam, Z = 4.0, 2.5 * cmath.exp(0.4j)
        state = displace_ground(PoschlTellerSpectrum(lam / 2, lam / 2), Z)
        closed = kp_state_pt(lam, KPLabel(Z=Z, alpha=0.0, k=0), tail_eps=1e-24)
        assert state.size == 2049
        assert state.tail_bound <= 1e-12
        assert coeff_distance(state, closed) <= 1e-9

    @pytest.mark.parametrize("modulus, sizes", [(1.5, [64, 128, 256, 512]),
                                                (0.2, [64])])
    def test_doubling_attempts(self, windows, modulus, sizes):
        state = displace_ground(PoschlTellerSpectrum(0.5, 0.5),
                                modulus * cmath.exp(0.4j))
        assert windows == sizes
        assert state.size == sizes[-1] + 1

    @pytest.mark.parametrize("lam", [1.0, 4.0])
    def test_substeps_follow_the_window(self, monkeypatch, lam):
        # sized by the top level of the whole N = 512 truncation, the
        # |Z| = 1.5 path took about 300 substeps at N = 512 alone
        steps = []
        taylor = fockspace._taylor_step
        monkeypatch.setattr(fockspace, "_taylor_step",
                            lambda *a: steps.append(1) or taylor(*a))
        displace_ground(PoschlTellerSpectrum(lam / 2, lam / 2),
                        1.5 * cmath.exp(0.4j))
        assert len(steps) <= 130

    @pytest.mark.parametrize("energies", [
        [0.0, 1.0, 2.5, 4.5],
        [0.0, 0.7, 1.5, 2.6, 3.4, 4.9, 6.1, 7.0, 8.8, 10.2, 11.5, 13.9],
    ], ids=["M4", "M12"])
    @pytest.mark.parametrize("modulus", [0.3, 1.5])
    def test_finite_table_is_exact_in_one_attempt(self, windows, energies,
                                                  modulus):
        # a table of M levels is the whole space: no truncation, no growth
        spec = CustomSpectrum(energies=energies)
        Z, alpha = modulus * cmath.exp(0.4j), 0.3
        state = displace_ground(spec, Z, alpha)
        lad = build_ladder(spec, alpha, len(energies) - 1)
        column = expm(Z * lad.a_plus - np.conj(Z) * lad.a_minus)[:, 0]
        assert windows == [len(energies) - 1]
        assert state.tail_bound <= 1e-15
        assert np.max(np.abs(state.coefficients - column)) <= 1e-14

    def test_first_attempt_honours_the_cap(self):
        spec = PoschlTellerSpectrum(2.0, 2.0)
        state = displace_ground(spec, 1.5, cap=16)
        assert state.size == 17
        assert state.tail_bound > 1e-6
        # a cap below a finite table truncates it, and the tail says so
        state = displace_ground(CustomSpectrum(energies=[0.0, 1.0, 2.5, 4.5]),
                                1.5, cap=2)
        assert state.size == 3
        assert state.tail_bound > 1e-6

    def test_negative_cap_rejected(self):
        for cap in (-3, 0):  # 0 is a cap too, not "the default"
            with pytest.raises(DomainError, match="cap"):
                displace_ground(HarmonicSpectrum(), 0.5, cap=cap)

    def test_norm_deviation_bounded_by_tail(self):
        for spec in (HarmonicSpectrum(), PoschlTellerSpectrum(0.5, 0.5)):
            for Z in (0.3, 0.8):
                state = displace_ground(spec, Z)
                # returned states are normalized; the tail bound still caps
                # the pre-normalization deficit, so it must stay tiny here
                assert state.tail_bound < 1e-10


class TestFockState:
    def test_json_round_trip(self):
        state = FockState(2, np.array([0.3 + 0.1j, -0.7j, 0.64]), 0.25, 1e-13)
        doc = state.to_json_dict()
        assert doc["offset"] == 2
        assert doc["coefficients"][1] == [0.0, -0.7]
        back = FockState.from_json_dict(doc)
        assert back.offset == state.offset
        assert back.alpha == state.alpha
        assert np.array_equal(back.coefficients, state.coefficients)
        assert back.tail_bound == state.tail_bound

    def test_norm_and_normalized(self):
        state = FockState(0, np.array([3.0, 4.0j]), 0.0, 0.0)
        assert state.norm() == pytest.approx(5.0)
        assert state.normalized().norm() == pytest.approx(1.0)

    def test_inner_respects_offsets(self):
        s1 = FockState(1, np.array([1.0 + 0.0j, 0.0]), 0.0, 0.0)
        s2 = FockState(0, np.array([0.0, 2.0 + 0.0j, 0.0]), 0.0, 0.0)
        assert s1.inner(s2) == pytest.approx(2.0)  # both live on level 1

    def test_embed_too_small(self):
        state = FockState(3, np.array([1.0 + 0.0j, 1.0]), 0.0, 0.0)
        with pytest.raises(DomainError):
            state.embed(4)

    def test_coefficients_read_only(self):
        state = FockState(0, np.array([1.0 + 0.0j]), 0.0, 0.0)
        with pytest.raises(ValueError):
            state.coefficients[0] = 2.0
