import json
import math

import numpy as np
import pytest

from solvstate import (
    CustomSpectrum,
    DomainError,
    HarmonicSpectrum,
    PoschlTellerSpectrum,
    spectrum_from_json,
)
from solvstate.specfun import log_gamma, log_pochhammer


def test_ground_energy_is_zero():
    for spec in (PoschlTellerSpectrum(2.0, 2.0), HarmonicSpectrum(),
                 CustomSpectrum(energies=[0.0, 1.0, 3.0])):
        assert spec.energy(0) == 0.0


def test_pt_energy_values():
    spec = PoschlTellerSpectrum(2.0, 2.0)  # lam = 4
    assert spec.energy(1) == 5.0
    assert spec.energy(2) == 12.0


def test_harmonic_energy():
    assert HarmonicSpectrum().energy(7) == 7.0


def test_e0_product_base_case():
    for spec in (PoschlTellerSpectrum(2.0, 2.0), HarmonicSpectrum()):
        assert spec.log_e0(0) == 0.0


def test_e0_product_direct():
    spec = PoschlTellerSpectrum(2.0, 2.0)
    assert math.exp(spec.log_e0(2)) == pytest.approx(60.0, rel=1e-13)


@pytest.mark.parametrize("lam", [1.0, 2.5, 4.0, 7.0])
def test_pt_e0_closed_form(lam):
    # E_0(n) = n! (lam+1)_n, checked against the cumulative product
    spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
    for n in range(31):
        closed = log_gamma(n + 1.0) + log_pochhammer(lam + 1.0, n)
        assert spec.log_e0(n) == pytest.approx(closed, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("lam", [1.0, 4.0, 10.0])
def test_log_domain_matches_direct_product(lam):
    spec = PoschlTellerSpectrum(lam / 2.0, lam / 2.0)
    prod = 1.0
    for n in range(1, 21):
        prod *= spec.energy(n)
        assert math.exp(spec.log_e0(n)) == pytest.approx(prod, rel=1e-12)


def test_ek_reduces_to_e0_at_k0():
    spec = PoschlTellerSpectrum(2.0, 2.0)
    for n in range(10):
        assert spec.log_ek(0, n) == pytest.approx(spec.log_e0(n), abs=1e-13)


def test_ek_at_n0_is_inverse_e0():
    spec = PoschlTellerSpectrum(2.0, 2.0)
    for k in range(6):
        assert spec.log_ek(k, 0) == pytest.approx(-spec.log_e0(k), abs=1e-13)


def test_ek_direct_value():
    spec = PoschlTellerSpectrum(2.0, 2.0)
    assert math.exp(spec.log_ek(1, 1)) == pytest.approx(25.0 / 60.0, rel=1e-13)


def test_ek_log_identity():
    # E_k(n) * E_0(n+k) = E_0(n)^2, exactly in log arithmetic
    spec = PoschlTellerSpectrum(1.25, 2.25)
    for k in (0, 1, 3):
        for n in range(25):
            lhs = spec.log_ek(k, n) + spec.log_e0(n + k)
            rhs = 2.0 * spec.log_e0(n)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_monotonicity_enforced_lazily():
    bad = CustomSpectrum(energies=[0.0, 2.0, 1.5])
    assert bad.energy(1) == 2.0
    with pytest.raises(DomainError):
        bad.energy(2)


def test_custom_table_must_start_at_zero():
    with pytest.raises(DomainError):
        CustomSpectrum(energies=[0.5, 1.0])


def test_custom_table_out_of_range():
    spec = CustomSpectrum(energies=[0.0, 1.0, 2.5])
    assert spec.energy(2) == 2.5
    with pytest.raises(DomainError):
        spec.energy(3)


@pytest.mark.parametrize("kappa, kappa_prime", [
    (float("nan"), 2.0), (2.0, float("inf")), (float("-inf"), float("inf")),
])
def test_pt_rejects_non_finite_parameters(kappa, kappa_prime):
    with pytest.raises(DomainError, match="must be finite"):
        PoschlTellerSpectrum(kappa, kappa_prime)


@pytest.mark.parametrize("spec", [
    CustomSpectrum(energies=[0.0, 1.0, float("nan"), 6.0]),
    CustomSpectrum(rule=lambda n: float("inf") if n == 2 else float(n)),
])
def test_non_finite_level_rejected(spec):
    assert spec.energy(1) == 1.0
    with pytest.raises(DomainError, match="E_2 must be finite"):
        spec.energy(2)


@pytest.mark.parametrize("spec", [PoschlTellerSpectrum(1.5, 0.5), HarmonicSpectrum(),
                                  CustomSpectrum(energies=[0.0, 1.0, 2.5, 4.5])])
def test_levels_match_scalar_accessors(spec):
    energies, log_e0 = spec.levels(1, 4)
    assert energies.tolist() == [spec.energy(n) for n in range(1, 4)]
    assert log_e0.tolist() == [spec.log_e0(n) for n in range(1, 4)]
    assert spec.levels(0, 1)[0].tolist() == [0.0]


def test_levels_validation():
    with pytest.raises(DomainError):
        HarmonicSpectrum().levels(-1, 3)
    with pytest.raises(DomainError):
        CustomSpectrum(energies=[0.0, 1.0, 2.5]).levels(0, 4)


def test_custom_needs_exactly_one_source():
    with pytest.raises(DomainError):
        CustomSpectrum()
    with pytest.raises(DomainError):
        CustomSpectrum(energies=[0.0, 1.0], rule=lambda n: n)


class TestRadius:
    def test_pt_infinite(self):
        for k in (0, 1, 3):
            est = PoschlTellerSpectrum(2.0, 2.0).radius(k)
            assert est.status == "infinite"
            assert est.value == math.inf

    def test_harmonic_infinite(self):
        est = HarmonicSpectrum().radius(0)
        assert est.status == "infinite"

    def test_bounded_spectrum_unit_radius(self):
        spec = CustomSpectrum(rule=lambda n: 1.0 - 2.0 ** (-n))
        for k in (0, 1):
            est = spec.radius(k)
            assert est.status == "finite"
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_non_monotone_ratio_undetermined(self):
        # wobbling energies keep E_{n+1}^2/E_{n+2} oscillating
        spec = CustomSpectrum(
            rule=lambda n: 0.0 if n == 0
            else 2.0 ** n * (1.0 + 0.3 * (-1.0) ** n))
        est = spec.radius(1, n_probe=12)
        assert est.status == "undetermined"
        assert math.isnan(est.value)

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            PoschlTellerSpectrum(2.0, 2.0).radius(0, n_probe=1)


class TestJson:
    def test_poschl_teller_round_trip(self):
        spec = spectrum_from_json(
            {"kind": "poschl_teller", "kappa": 2.0, "kappa_prime": 2.0})
        assert isinstance(spec, PoschlTellerSpectrum)
        assert spec.lam == 4.0
        assert spec.to_json_dict()["kappa"] == 2.0

    def test_from_string_and_file(self, tmp_path):
        doc = {"kind": "custom", "energies": [0.0, 1.0, 3.0]}
        spec = spectrum_from_json(json.dumps(doc))
        assert spec.energy(2) == 3.0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec2 = spectrum_from_json(str(path))
        assert spec2.energy(1) == 1.0

    def test_harmonic(self):
        assert isinstance(spectrum_from_json({"kind": "harmonic"}),
                          HarmonicSpectrum)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            spectrum_from_json({"kind": "morse"})


def test_invalid_level_index():
    spec = PoschlTellerSpectrum(2.0, 2.0)
    with pytest.raises(DomainError):
        spec.energy(-1)
    with pytest.raises(DomainError):
        spec.log_e0(-2)
    with pytest.raises(DomainError):
        spec.log_ek(-1, 0)
