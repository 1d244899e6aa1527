import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import solvstate
from solvstate import DomainError, FockState
from solvstate.cli import (
    EXIT_ASSERTION,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_OK,
    main,
    parse_complex,
)


FINITE_TABLE = '{"kind":"custom","energies":[0,1,2.5,4.5]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("0.7+0.2i") == 0.7 + 0.2j
        assert parse_complex("0.4") == 0.4 + 0.0j
        assert parse_complex("-1.5i") == -1.5j
        assert parse_complex("i") == 1.0j
        assert parse_complex("-0.3-0.2i") == -0.3 - 0.2j

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_complex("stuff")


class TestStateCommand:
    def test_point_mass_on_level_three(self, capsys):
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0", "--k", "3",
                               "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["state"]["offset"] == 3
        assert doc["state"]["coefficients"] == [[1.0, 0.0]]
        assert doc["summary"]["mean_energy"] == pytest.approx(21.0)

    def test_kp_disk_state_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "state", "kp", "--xi", "0.4", "--k", "0",
                               "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        state = FockState.from_json_dict(doc["state"])
        lam, xi = 4.0, 0.4
        n = np.arange(state.size)
        from scipy.special import gammaln
        closed = (1 - xi * xi) ** ((lam + 1) / 2) * xi ** n * np.exp(
            0.5 * (gammaln(n + lam + 1) - gammaln(n + 1) - gammaln(lam + 1)))
        assert np.max(np.abs(state.coefficients - closed)) < 1e-12

    def test_check_eigen_flags_added_state(self, capsys):
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0.7+0.2i",
                               "--k", "1", "--lambda", "4", "--check-eigen")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["summary"]["eigen_residual"] > 0.01
        assert doc["summary"]["is_lowering_eigenstate"] is False

    def test_check_eigen_passes_plain_state(self, capsys):
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0.7+0.2i",
                               "--k", "0", "--lambda", "4", "--check-eigen")
        doc = json.loads(out)
        assert doc["summary"]["is_lowering_eigenstate"] is True

    def test_check_eigen_on_a_finite_table(self, capsys):
        # the top level of the four has no level above it to lower from, so
        # a- c - z c is -z c_3 there and zero below it
        argv = ["state", "gk", "--z", "0.3", "--spectrum", FINITE_TABLE, "--check-eigen"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        top = complex(*doc["state"]["coefficients"][3])
        residual = doc["summary"]["eigen_residual"]
        assert residual == pytest.approx(0.3 * abs(top), rel=1e-12)
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == EXIT_OK
        line = next(x for x in out.splitlines() if "eigen_residual" in x)
        assert float(line.split(": ")[1]) == pytest.approx(residual, rel=1e-5)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "state", "kp", "--xi", "1.2",
                               "--lambda", "4")
        assert code == EXIT_DOMAIN
        assert "domain error" in err

    @pytest.mark.parametrize("argv", [
        ("gk", "--z", "nan"),
        ("gk", "--z", "0.5", "--alpha", "inf"),
        ("kp", "--xi", "nan"),
        ("kp", "--Z", "0.3+1e400i"),
        ("kp", "--Z", "nan", "--nested"),
    ])
    def test_non_finite_label_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, "state", *argv, "--lambda", "4")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "domain error" in err

    @pytest.mark.parametrize("argv", [
        ("state", "gk", "--z", "0.5", "--lambda", "nan"),
        ("state", "kp", "--xi", "0.3", "--lambda", "nan"),
        ("state", "gk", "--z", "0.5", "--spectrum",
         '{"kind":"custom","energies":[0,1,NaN,6]}'),
        ("state", "gk", "--z", "0.5", "--spectrum",
         '{"kind":"poschl_teller","kappa":Infinity,"kappa_prime":2}'),
        ("pt", "--u-block", "2", "2", "--kappa", "nan"),
        ("moments", "--check", "mellin", "--lambda", "nan"),
        ("moments", "--check", "kp-weights", "--lambda", "nan"),
        ("moments", "--check", "gk-diag", "--lambda", "inf"),
    ])
    def test_non_finite_parameter_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "must be finite" in err or "lam must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ("state", "gk", "--z", "0.5"),
        ("moments", "--check", "mellin"),
        ("verify", "--suite", "gk"),
    ])
    def test_zero_lambda_exit_code(self, capsys, argv):
        # lambda = 0 is rejected, not replaced by the default 4
        code, out, err = run_cli(capsys, *argv, "--lambda", "0")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "must be positive" in err

    @pytest.mark.parametrize("check", ["kp-weights", "mellin", "gk-diag", "all"])
    def test_negative_photon_number_exit_code(self, capsys, check):
        # a report for photon number -1 is no report
        code, out, err = run_cli(capsys, "moments", "--check", check,
                                 "--k", "-1", "--lambda", "4")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "photon number k must be nonnegative" in err

    @pytest.mark.parametrize("family, label", [("gk", "--z"), ("kp", "--xi")])
    @pytest.mark.parametrize("eps", ["nan", "-1e-12"])
    def test_bad_tail_budget_exit_code(self, capsys, family, label, eps):
        code, out, err = run_cli(capsys, "state", family, label, "0.5",
                                 "--lambda", "4", f"--tail-eps={eps}")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "tail_eps" in err

    @pytest.mark.parametrize("command", ["state", "evolve"])
    def test_kp_label_takes_xi_or_z_not_both(self, capsys, command):
        # --Z is refused, not silently dropped in favour of --xi
        code, out, err = run_cli(capsys, command, "kp", "--xi", "0.3", "--Z", "0.5",
                                 "--lambda", "4")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "exactly one of xi or Z" in err

    @pytest.mark.parametrize("argv", [
        ("state", "kp", "--xi", "0.3"),
        ("evolve", "kp", "--xi", "0.3", "--times", "0,0.5"),
        ("overlap", "kp", "--xi1", "0.3", "--xi2", "0.2"),
    ])
    def test_unit_disk_kp_needs_poschl_teller_spectrum(self, capsys, argv):
        # --lambda does not stand in for a spectrum that is not Poschl-Teller
        code, out, err = run_cli(capsys, *argv, "--lambda", "4", "--spectrum",
                                 '{"kind":"harmonic"}')
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "Poschl-Teller spectrum" in err

    def test_convergence_exit_code(self, capsys):
        # nested-sum route far outside its validity region
        code, _, err = run_cli(capsys, "state", "kp", "--Z", "2.5",
                               "--lambda", "4", "--nested")
        assert code == EXIT_CONVERGENCE
        assert "convergence" in err

    def test_divergent_j_series_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "state", "kp", "--Z", "0.9", "--k", "3",
                                 "--lambda", "7", "--nested")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert "worst term ratio 9.647e-01" in err

    @pytest.mark.parametrize("label", [("--Z", "0.7", "--k", "2", "--lambda", "1"),
                                       ("--Z", "0.7", "--k", "2", "--lambda", "4"),
                                       ("--Z", "0.8", "--lambda", "4")])
    def test_j_series_cancelling_to_zero_exits_0(self, capsys, label):
        code, out, err = run_cli(capsys, "state", "kp", *label, "--nested")
        assert code == EXIT_OK
        assert err == ""
        assert json.loads(out)["state"]["coefficients"]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "state", "gk", "--z", "0.5+0.1i",
                             "--k", "1", "--lambda", "4")
        _, out2, _ = run_cli(capsys, "state", "gk", "--z", "0.5+0.1i",
                             "--k", "1", "--lambda", "4")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0.5", "--k", "0",
                               "--lambda", "4", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,level,re,im,probability"
        assert len(lines) > 2

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "state.json"
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0.3",
                               "--lambda", "4", "--output", str(dest))
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["meta"]["command"] == "state"

    def test_custom_spectrum_inline_json(self, capsys):
        doc = '{"kind": "custom", "energies": [0, 1.0, 2.5, 4.5, 7.0, 10.0]}'
        code, out, _ = run_cli(capsys, "state", "gk", "--z", "0.4",
                               "--spectrum", doc)
        assert code == EXIT_OK
        state = FockState.from_json_dict(json.loads(out)["state"])
        assert state.norm() == pytest.approx(1.0)

    def test_kp_nested_route_on_generic_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "state", "kp", "--Z", "0.3",
                               "--spectrum", '{"kind": "harmonic"}')
        assert code == EXIT_OK
        state = FockState.from_json_dict(json.loads(out)["state"])
        # coherent-state coefficients exp(-|Z|^2/2) Z^n / sqrt(n!)
        from scipy.special import gammaln
        n = np.arange(state.size)
        exact = np.exp(-0.045 + n * math.log(0.3) - 0.5 * gammaln(n + 1.0))
        assert np.max(np.abs(state.coefficients - exact)) < 1e-10

    def test_kp_displacement_on_finite_table(self, capsys):
        # four levels are the whole space: the oracle needs no headroom
        code, out, _ = run_cli(capsys, "state", "kp", "--Z", "0.3",
                               "--spectrum", FINITE_TABLE)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["state"]["coefficients"]) == 4
        assert doc["summary"]["tail_bound"] <= 1e-15

    @pytest.mark.parametrize("extra", [("--nested",), ("--k", "1")])
    def test_nested_route_on_finite_table_keeps_exit_code(self, capsys, extra):
        code, _, err = run_cli(capsys, "state", "kp", "--Z", "0.3",
                               "--spectrum", FINITE_TABLE, *extra)
        assert code == EXIT_DOMAIN
        assert "level 4 requested" in err

    @pytest.mark.parametrize("command", ["state", "evolve"])
    @pytest.mark.parametrize("route", [
        ("--spectrum", '{"kind":"harmonic"}'),
        ("--lambda", "4", "--nested"),
    ])
    def test_max_n_on_nested_route_rejected(self, capsys, command, route):
        # the nested expansion sizes itself; a cap it would not honour is an
        # error, not a silently longer state
        code, out, err = run_cli(capsys, command, "kp", "--Z", "0.3", *route,
                                 "--max-n", "10")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "sizes itself" in err

    @pytest.mark.parametrize("command", ["state", "evolve"])
    @pytest.mark.parametrize("route", [
        ("--spectrum", '{"kind":"harmonic"}'),
        ("--lambda", "4", "--nested"),
    ])
    def test_tail_eps_on_nested_route_rejected(self, capsys, command, route):
        # the nested expansion stops on its own convergence test; a budget it
        # would not apply is an error, not silently ignored
        code, out, err = run_cli(capsys, command, "kp", "--Z", "0.3", "--k", "1",
                                 *route, "--tail-eps", "0")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "--tail-eps does not apply" in err

    @pytest.mark.parametrize("argv, tail_eps", [
        (("gk", "--z", "0.5"), 1e-12),
        (("gk", "--z", "0.5", "--tail-eps", "1e-9"), 1e-9),
    ])
    def test_payload_records_the_tail_budget(self, capsys, argv, tail_eps):
        code, out, _ = run_cli(capsys, "state", *argv)
        assert code == EXIT_OK
        assert json.loads(out)["meta"]["parameters"]["tail_eps"] == tail_eps

    @pytest.mark.parametrize("command", ["state", "evolve"])
    @pytest.mark.parametrize("route", [
        ("--spectrum", '{"kind":"harmonic"}'),
        ("--lambda", "4", "--nested"),
    ])
    def test_nested_payload_records_no_tail_budget(self, capsys, command, route):
        # the nested expansion is built to no budget, so its payload names none
        code, out, _ = run_cli(capsys, command, "kp", "--Z", "0.3", "--k", "1", *route,
                               "--format", "json")
        assert code == EXIT_OK
        params = json.loads(out)["meta"]["parameters"]
        assert "tail_eps" not in params and params["max_n"] is None

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ("gk", "--z", "0.5"),
        ("kp", "--xi", "0.5"),
        ("kp", "--Z", "0.3", "--spectrum", FINITE_TABLE),
    ], ids=["gk", "kp_disk", "kp_oracle"])
    def test_cap_below_one_exit_code(self, capsys, argv, cap):
        # 0 is not "the default" and -5 is not a one-level state
        code, out, err = run_cli(capsys, "state", *argv, "--max-n", cap)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "cap must be positive" in err

    def test_disk_edge_state_meets_its_budget(self, capsys):
        code, out, _ = run_cli(capsys, "state", "kp", "--xi", "0.99",
                               "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["state"]["coefficients"]) < 2048
        assert doc["summary"]["tail_bound"] <= 1e-12

    def test_paper_literal_state_differs(self, capsys):
        args = ["state", "kp", "--xi", "0.4", "--k", "1", "--lambda", "4"]
        _, out_std, _ = run_cli(capsys, *args)
        _, out_lit, _ = run_cli(capsys, *args, "--paper-literal")
        c_std = json.loads(out_std)["state"]["coefficients"]
        c_lit = json.loads(out_lit)["state"]["coefficients"]
        assert c_std != c_lit



class TestOverlapCommand:
    def test_identical_labels(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "gk", "--z1", "0.5",
                               "--z2", "0.5", "--k", "1", "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["series"]["re"] == pytest.approx(1.0, abs=1e-12)
        assert doc["difference"] < 1e-12

    def test_swapped_labels_conjugate(self, capsys):
        args = ["overlap", "gk", "--k", "0", "--lambda", "4"]
        _, out12, _ = run_cli(capsys, *args, "--z1", "0.5+0.2i", "--z2", "0.3")
        _, out21, _ = run_cli(capsys, *args, "--z1", "0.3", "--z2", "0.5+0.2i")
        d12, d21 = json.loads(out12), json.loads(out21)
        assert d12["series"]["re"] == pytest.approx(d21["series"]["re"], abs=1e-12)
        assert d12["series"]["im"] == pytest.approx(-d21["series"]["im"], abs=1e-12)

    def test_gk_closed_form_present_for_equal_alpha(self, capsys):
        _, out, _ = run_cli(capsys, "overlap", "gk", "--z1", "0.5", "--z2",
                            "0.8", "--k", "1", "--lambda", "4")
        doc = json.loads(out)
        assert doc["closed_form"] is not None
        assert doc["difference"] < 1e-10

    @pytest.mark.parametrize("z", ["5", "8"])
    def test_gk_unconverged_closed_form_is_omitted(self, capsys, z):
        # conj(z1) z2 = -z^2: the 2F3 terms cancel past its tolerance, so the
        # compact kernel is not printed as a closed form
        code, out, _ = run_cli(capsys, "overlap", "gk", "--z1", z, "--z2", f"-{z}",
                               "--k", "1", "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closed_form"] is None
        assert "difference" not in doc
        assert "2F3 compact kernel did not converge" in doc["note"]

    def test_text_names_the_missing_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "gk", "--z1", "0.5", "--z2", "0.8",
                               "--alpha2", "0.3", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "closed form available only for equal-alpha Poschl-Teller labels"]

    def test_kp_overlap(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "kp", "--xi1", "0.3",
                               "--xi2", "0.5i", "--k", "1", "--lambda", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["difference"] < 1e-10
        assert abs(doc["series"]["abs"]) <= 1.0

    def test_kp_truncated_closed_form_is_omitted(self, capsys):
        # the xi = 0.99, k = 2 state stops at the 2048 cap with a tail of
        # about 3e-10, so its dot product is not a closed form to 1e-24
        code, out, _ = run_cli(capsys, "overlap", "kp", "--xi1", "0.99",
                               "--xi2", "0.985", "--k", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closed_form"] is None
        assert "difference" not in doc
        assert "tail bound 3.2" in doc["note"]

    @pytest.mark.parametrize("argv, want", [
        # |z2|^2 overflows: its norm series cannot converge
        (("gk", "--z1", "0.3", "--z2", "1e200"), EXIT_CONVERGENCE),
        # converged kernels whose sums overflow a float
        (("gk", "--z1", "0.3", "--z2", "0.5", "--k", "1000"), EXIT_OK),
        (("kp", "--xi1", "0.3", "--xi2", "0.5", "--k", "1000"), EXIT_OK),
    ])
    def test_extreme_labels_exit_without_a_traceback(self, capsys, argv, want):
        code, out, err = run_cli(capsys, "overlap", *argv)
        assert code == want
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert json.loads(out)["series"]["abs"] <= 1.0 + 1e-12


class TestEvolveCommand:
    def test_alpha_shift_column(self, capsys):
        for label, times in ((("gk", "--z", "0.7+0.2i", "--k", "2"), "0,0.3,1.0"),
                             (("gk", "--z", "0.7+0.2i", "--k", "1"), "0,0.25,0.5,1"),
                             (("kp", "--xi", "0.45+0.1i", "--k", "2"), "0,0.25,0.5,1")):
            code, out, _ = run_cli(capsys, "evolve", *label, "--lambda", "4",
                                   "--times", times, "--format", "csv")
            assert code == EXIT_OK
            lines = out.strip().splitlines()
            assert lines[0] == "t,norm,alpha_shift_deviation,mean_energy"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == len(times.split(","))
            assert float(rows[0][2]) == 0.0  # t = 0 rebuilds the same state
            for row in rows:
                assert float(row[1]) == pytest.approx(1.0, abs=1e-12)
                assert float(row[2]) <= 1e-14, (label, row)

    def test_kp_family(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "kp", "--xi", "0.4", "--k",
                               "0", "--lambda", "4", "--times", "0,0.5",
                               "--format", "csv")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[2]) <= 1e-14

    @pytest.mark.parametrize("argv", [
        ("--xi", "0.3", "--k", "1", "--lambda", "4", "--paper-literal"),
        ("--Z", "0.3", "--lambda", "4", "--nested"),
        ("--Z", "0.3", "--spectrum", '{"kind":"harmonic"}'),
        ("--Z", "0.3", "--spectrum", FINITE_TABLE),
    ])
    def test_kp_rebuild_takes_the_state_route(self, capsys, argv):
        # the alpha + t rebuild uses the construction of the evolved state
        code, out, _ = run_cli(capsys, "evolve", "kp", *argv,
                               "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 5
        assert max(r["alpha_shift_deviation"] for r in rows) <= 2e-13

    def test_bad_time_grid(self, capsys):
        # rejected before the state is built: z = 1e200 grows to the level
        # cap, which would print a tail warning first
        unparsed, non_finite = "cannot parse time grid", "time grid must be finite"
        for times, message in (("a,b", unparsed), ("1,2,,3", unparsed), ("0,1,", unparsed),
                               ("inf", non_finite), ("0,nan", non_finite),
                               ("-inf,1", non_finite), ("1e400", non_finite)):
            code, out, err = run_cli(capsys, "evolve", "gk", "--z", "1e200",
                                     "--lambda", "4", f"--times={times}")
            assert code == EXIT_DOMAIN
            assert out == ""
            assert err == f"domain error: {message}: {times!r}\n"


class TestMomentsCommand:
    def test_mellin_table(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--check", "mellin",
                               "--lambda", "4", "--k", "2", "--n-max", "8")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reports"][0]["passed"] is True

    def test_kp_weights_report_errata(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--check", "kp-weights",
                               "--lambda", "4", "--k", "2", "--n-max", "6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert any(r["errata"] for r in doc["reports"])

    def test_paper_literal_adds_alternate_reading(self, capsys):
        _, out_plain, _ = run_cli(capsys, "moments", "--check", "kp-weights",
                                  "--lambda", "4", "--k", "1", "--n-max", "4")
        _, out_lit, _ = run_cli(capsys, "moments", "--check", "kp-weights",
                                "--lambda", "4", "--k", "1", "--n-max", "4",
                                "--paper-literal")
        n_plain = len(json.loads(out_plain)["reports"])
        n_lit = len(json.loads(out_lit)["reports"])
        assert n_lit == n_plain + 1

    @pytest.mark.parametrize("check, n_max", [
        ("mellin", "-3"), ("mellin", "0"), ("kp-weights", "0"),
        ("gk-diag", "0"), ("all", "-1"),
    ])
    def test_n_max_below_one_rejected(self, capsys, check, n_max):
        # an empty moment table must not read as passed or back an errata
        code, out, err = run_cli(capsys, "moments", "--check", check,
                                 "--lambda", "4", "--n-max", n_max)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "--n-max" in err

    def test_text_format(self, capsys):
        for argv, errata in ((("--check", "gk-diag", "--k", "1", "--n-max", "5"), 0),
                             (("--check", "all", "--k", "2", "--paper-literal"), 2)):
            code, out, _ = run_cli(capsys, "moments", *argv, "--lambda", "4",
                                   "--format", "text")
            assert code == EXIT_OK
            assert "verdict" in out
            assert sum(line.startswith("errata: ") for line in out.splitlines()) == errata


class TestPTCommand:
    def test_eigenfunction_csv(self, capsys):
        code, out, _ = run_cli(capsys, "pt", "--eigenfunction", "1",
                               "--points", "9")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 10
        assert float(lines[1].split(",")[1]) == 0.0  # boundary zero

    def test_u_block_json(self, capsys):
        code, out, _ = run_cli(capsys, "pt", "--u-block", "2", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        block = doc["u_block"]
        assert len(block) == 3
        assert block[0][0]["value"] == pytest.approx(0.9918, abs=1e-3)
        assert block[0][1]["flagged"] is True  # parity zero for kappa=kappa'

    @pytest.mark.parametrize("argv, nulls", [
        (("pt", "--u-block", "6", "6"), 7),
        (("pt", "--u-block", "24", "24", "--kappa", "2", "--kappa-prime", "2"), 119),
        (("moments", "--check", "all", "--lambda", "4", "--k", "2"), 3),
        (("pt", "--u-block", "24", "24", "--kappa", "1.2", "--kappa-prime", "3.4"), 6),
    ])
    def test_json_has_no_bare_infinity(self, capsys, argv, nulls):
        # RFC 8259 has no Infinity or NaN: a non-finite number prints as null
        def refuse(name):
            raise ValueError(f"bare {name} in JSON output")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        doc = json.loads(out, parse_constant=refuse)
        if argv[0] == "pt":
            conditions = [e["condition"] for row in doc["u_block"] for e in row]
        else:
            conditions = [e["rel_residual"] for r in doc["reports"]
                          for e in r["entries"]]
        assert conditions.count(None) == nulls

    def test_requires_an_action(self, capsys):
        code, _, err = run_cli(capsys, "pt")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("argv, default", [
        (("pt", "--u-block", "2", "2"), "json"),
        (("pt", "--eigenfunction", "2", "--points", "5"), "csv"),
        (("pt", "--partner", "1", "--points", "5"), "csv"),
        (("pt", "--eigenfunction", "3", "--points", "5"), "csv"),
    ])
    def test_each_action_has_its_own_default(self, capsys, argv, default):
        _, implicit, _ = run_cli(capsys, *argv)
        code, explicit, _ = run_cli(capsys, *argv, "--format", default)
        assert code == EXIT_OK
        assert implicit == explicit

    def test_u_block_renders_no_csv(self, capsys):
        code, out, err = run_cli(capsys, "pt", "--u-block", "2", "2", "--format", "csv")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "json" in err

    def test_text_is_refused(self, capsys):
        for action in ((), ("--u-block", "2", "2"), ("--eigenfunction", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["pt", *action, "--format", "text"])
            assert exc.value.code == EXIT_DOMAIN
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("pt", "--eigenfunction", "2", "--points", "-3"),
        ("pt", "--points", "0", "--eigenfunction", "1"),
        ("pt", "--u-block", "-1", "3"),
    ])
    def test_bad_sizes_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "domain error" in err


class TestVerifyCommand:
    def test_ladder_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ladder",
                               "--lambda", "4")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_measures_suite_reports_errata(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "measures",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        errata = doc["suites"][0]["errata"]
        assert errata
        code, out, _ = run_cli(capsys, "verify", "--suite", "measures")
        assert code == EXIT_OK
        lines = out.splitlines()
        start = lines.index("  errata:") + 1
        assert lines[start:start + len(errata)] == [f"    - {e}" for e in errata]

    def test_failure_exit_code(self, capsys, monkeypatch):
        import solvstate.verify as verify_mod
        from solvstate.verify import SuiteReport, CheckResult

        def failing_suite(**kwargs):
            rep = SuiteReport("ladder")
            rep.checks.append(CheckResult("synthetic", False, 1.0, 0.0, ""))
            return rep

        monkeypatch.setitem(verify_mod.SUITES, "ladder", failing_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "ladder",
                               "--format", "json")
        assert code == EXIT_ASSERTION
        doc = json.loads(out)
        assert doc["failures"][0]["name"] == "synthetic"

    @pytest.mark.parametrize("argv", [
        ("--suite", "pt", "--lambda", "2"),
        ("--suite", "all", "--lambda", "2"),
        ("--suite", "gk", "--k", "1"),
        ("--suite", "all", "--k", "2"),
    ])
    def test_option_a_suite_ignores_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"{argv[2]} applies only to" in err

    @pytest.mark.parametrize("suite, expected", [
        ("measures", {"lam": 3.0, "k": 1}),
        ("ladder", {"lam": 3.0}),
        ("kp", {"lams": (3.0,)}),
    ])
    def test_lambda_and_k_reach_their_suite(self, capsys, monkeypatch, suite,
                                             expected):
        import solvstate.verify as verify_mod
        from solvstate.verify import SuiteReport

        seen = {}

        def recording_suite(**kwargs):
            seen.update(kwargs)
            return SuiteReport(suite)

        monkeypatch.setitem(verify_mod.SUITES, suite, recording_suite)
        argv = ["verify", "--suite", suite, "--lambda", "3"]
        if "k" in expected:
            argv += ["--k", "1"]
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert seen == expected

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])


@pytest.mark.parametrize("argv", [
    ("overlap", "gk", "--z1", "0.5", "--z2", "0.8"),
    ("moments", "--check", "mellin"),
    ("verify", "--suite", "ladder"),
])
def test_csv_refused_where_no_csv_is_rendered(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (("state", "gk", "--z", "0.5", "--spectrum", "{bad"), "cannot read spectrum"),
    (("state", "gk", "--z", "0.5", "--spectrum", '{"kind":"custom"}'),
     "needs the field 'energies'"),
    (("state", "gk", "--z", "0.5", "--spectrum",
      '{"kind":"poschl_teller","kappa":"x","kappa_prime":2}'), "malformed poschl_teller"),
    (("state", "gk", "--z", "0.5", "--spectrum", '{"kind":"custom","energies":"abc"}'),
     "malformed custom"),
    (("state", "gk", "--z", "0.5", "--spectrum", "/nonexistent.json"),
     "No such file"),
    (("state", "gk", "--z", "0.5", "--spectrum", "[]"), "cannot read spectrum '[]'"),
    (("state", "gk", "--z", "0.5", "--spectrum", "null"), "cannot read spectrum 'null'"),
    (("pt", "--kappa", "1e4", "--kappa-prime", "1e4", "--eigenfunction", "0"),
     "overflows at kappa = 10000, kappa' = 10000"),
    (("state", "kp", "--Z", "30"),
     "|Z| = 30 is off the unit-disk chart: tanh|Z| rounds to 1"),
    (("state", "kp", "--xi", "0.3", "--check-eigen"), "--check-eigen applies to the gk family"),
    (("overlap", "gk", "--z1", "0.5"), "gk overlap needs --z1 and --z2"),
    (("overlap", "kp", "--xi1", "0.3"), "kp overlap needs --xi1 and --xi2"),
    (("evolve", "gk", "--z", "0.5", "--times", ","), "empty time grid"),
    (("pt", "--eigenfunction", "1", "--points", "100001"),
     "--points must be between 1 and 100000, got 100001"),
    # the three-term recurrence's coefficients grow like kappa^3
    (("pt", "--kappa", "1e150", "--eigenfunction", "2"),
     "the Jacobi recurrence overflows at kappa = 1e+150, kappa' = 2"),
    (("pt", "--kappa", "1e150", "--partner", "2"),
     "the Jacobi recurrence overflows at kappa = 1e+150, kappa' = 3"),
])
def test_bad_input_is_a_domain_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("domain error: ") and message in err
    assert "Traceback" not in err


def test_gk_state_growing_to_the_cap_exits_0_with_tail_bound_1(capsys):
    # |c_n| grows through all 2048 levels, so no geometric tail bound applies
    code, out, err = run_cli(capsys, "state", "gk", "--z", "1e200")
    assert code == EXIT_OK
    assert err == ("warning: tail_bound 1 exceeds --tail-eps 1e-12 "
                   "with 2048 coefficients\n")
    state = json.loads(out)["state"]
    assert state["tail_bound"] == 1.0
    assert len(state["coefficients"]) == 2048


@pytest.mark.parametrize("command", ["state", "evolve"])
def test_a_state_over_its_tail_budget_warns_once(capsys, command):
    # at the disk edge the k = 2 series reaches the 2048 cap above 1e-12
    argv = [command, "kp", "--xi", "0.99", "--k", "2", "--lambda", "4"]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert err.count("\n") == 1
    assert err.startswith("warning: tail_bound 3.23e-10 exceeds --tail-eps 1e-12")
    assert err.endswith(" with 2048 coefficients\n")
    code, _, err = run_cli(capsys, *argv, "--tail-eps", "1e-9")
    assert (code, err) == (EXIT_OK, "")


def test_json_payload_uses_15_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "state", "gk", "--z", "0.123456789123456789",
                        "--lambda", "4")
    doc = json.loads(out)
    val = doc["state"]["coefficients"][1][0]
    assert len(repr(val).replace("-", "").replace(".", "").lstrip("0")) <= 16


def _child_env():
    """Environment of a fresh interpreter that imports this solvstate."""
    src = str(Path(solvstate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_state_command_leaves_scipy_unloaded():
    # scipy costs about 0.2 s of a cold start: importing the CLI and
    # building a state (the KP weight tables included) must not load it
    code = (
        "import contextlib, io, sys\n"
        "import solvstate.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import solvstate.cli'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['state', 'gk', '--z', '0.5']) == 0\n"
        "    assert cli.main(['state', 'kp', '--xi', '0.5', '--lambda', '4']) == 0\n"
        "assert 'scipy' not in sys.modules, 'state gk and state kp'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_library_never_loads_scipy():
    # the FD levels, Gauss-Jacobi rules and digamma are numpy or plain
    # Python; scipy is a test reference only
    code = (
        "import contextlib, io, sys\n"
        "import solvstate.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "    assert cli.main(['moments', '--check', 'all', '--lambda', '4', '--k', '2',\n"
        "                     '--paper-literal', '--format', 'json']) == 0\n"
        "    assert cli.main(['pt', '--u-block', '6', '6']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_reader_closing_the_pipe_exits_quietly():
    # `solvstate ... | head -2`: each payload (about 4 MB for the pt dump,
    # 100 kB for the disk-edge state) outgrows a 64 kB pipe buffer, so the
    # write fails once the reader has gone
    for argv, header in (
            (("pt", "--eigenfunction", "3", "--points", "100000"), b"x,value\n"),
            (("state", "kp", "--xi", "0.99", "--lambda", "4", "--format", "csv"),
             b"n,level,re,im,probability\n")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "solvstate.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.readline() == header
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert err == b""


# ---------------------------------------------------------------------------
# argv property: extreme labels, time grids and wells exit 0, 2 or 3, and exit
# 0 means a sound payload of finite numbers
# ---------------------------------------------------------------------------

_REALS = hs.one_of(hs.floats(-1.5, 1.5),
                   hs.sampled_from([0.0, 1e-200, 1e154, 1e200, 1e308, -1e200, -1e308]))
_LABELS = hs.builds(lambda v, imag: f"{v!r}i" if imag else repr(v), _REALS, hs.booleans())
_KS = hs.sampled_from(["0", "1", "3", "400", "1000"])
_ALPHAS = hs.one_of(hs.floats(-10.0, 10.0),
                    hs.sampled_from([1e300, -1e300, 1e308, -1e308])).map(repr)
_TIMES = hs.lists(hs.one_of(_ALPHAS, hs.sampled_from(["nan", "inf", "-inf", "1e400", "",
                                                      " ", "x", "1..2"])),
                  min_size=1, max_size=3).map(",".join)
_KAPPAS = hs.one_of(hs.floats(0.25, 20.0), hs.sampled_from([1e4, 1e8, 1e150, 1e300]))
# pt levels stay small because each level costs one recurrence pass over
# every point; the point counts run past the cap, and the cap itself, about
# 0.3 s to render, is an explicit example
_PT_LEVELS = hs.sampled_from(["0", "1", "3", "40"])
_POINTS = hs.sampled_from(["-1", "0", "1", "2", "3", "5", "9", "17", "33", "65", "200",
                           "1000", "100000", "100001"])


def _strict_json(out):
    def reject(constant):
        raise AssertionError(f"bare {constant} in JSON output")
    return json.loads(out, parse_constant=reject)


@given(command=hs.sampled_from(["state", "overlap", "evolve", "pt"]),
       family=hs.sampled_from(["gk", "kp"]), chart=hs.sampled_from(["--xi", "--Z"]),
       labels=hs.tuples(_LABELS, _LABELS), k=_KS, alphas=hs.tuples(_ALPHAS, _ALPHAS),
       times=_TIMES, kappas=hs.tuples(_KAPPAS, _KAPPAS), level=_PT_LEVELS,
       points=_POINTS, partner=hs.booleans())
@example(command="pt", family="gk", chart="--xi", labels=("0.5", "0.5"), k="0",
         alphas=("0.0", "0.0"), times="0", kappas=(1e8, 2.0), level="40",
         points="100000", partner=True)
@settings(derandomize=True, deadline=None, max_examples=200)
def test_extreme_argv_exits_0_2_or_3_with_sound_json(command, family, chart, labels, k,
                                                      alphas, times, kappas, level, points,
                                                      partner):
    # name=value, so that argparse takes a negative value for a value
    if command == "pt":
        argv = ["pt", f"--kappa={kappas[0]!r}", f"--kappa-prime={kappas[1]!r}",
                "--partner" if partner else "--eigenfunction", level, f"--points={points}"]
    elif command == "overlap":
        names = ("--z1", "--z2") if family == "gk" else ("--xi1", "--xi2")
        argv = ["overlap", family, f"{names[0]}={labels[0]}", f"{names[1]}={labels[1]}",
                f"--alpha1={alphas[0]}", f"--alpha2={alphas[1]}", "--k", k, "--lambda", "4"]
    else:
        label = "--z" if family == "gk" else chart
        argv = [command, family, f"{label}={labels[0]}", f"--alpha={alphas[0]}",
                "--k", k, "--lambda", "4"]
        if command == "evolve":
            argv += [f"--times={times}", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CONVERGENCE), argv
    if code != EXIT_OK:
        return
    if command == "pt":
        rows = [line.split(",") for line in out.getvalue().split()[1:]]
        assert len(rows) == int(points), argv
        assert all(math.isfinite(float(v)) for row in rows for v in row), argv
        return
    doc = _strict_json(out.getvalue())
    if command == "overlap":
        assert doc["series"]["abs"] <= 1.0 + 1e-12, argv
    elif command == "evolve":
        assert len(doc["rows"]) == len(times.split(",")), argv
        for row in doc["rows"]:
            assert None not in row.values(), argv  # null stands for a non-finite float
            assert abs(row["norm"] - 1.0) <= 1e-12, argv
    else:
        c = np.array(doc["state"]["coefficients"])
        assert abs(math.sqrt(float(np.sum(c ** 2))) - 1.0) <= 1e-12, argv
        head = doc["summary"]["distribution_head"]
        assert head and all(0.0 <= row["probability"] <= 1.0 for row in head), argv


# parameters for moments and verify: tiny, huge, zero, negative and non-finite
# lambdas, and photon numbers past the measures suite's limit of 10
_PARAM_LAMBDAS = hs.one_of(
    hs.floats(1e-3, 20.0),
    hs.sampled_from([1e-300, 1e-8, 1e8, 1e154, 1e300, 1e308, 0.0, -0.5, -1.0, -1e308,
                     math.nan, math.inf, -math.inf]))
_PARAM_COMMANDS = [("verify", "--suite", "ladder"), ("verify", "--suite", "gk"),
                   ("verify", "--suite", "kp"), ("verify", "--suite", "measures"),
                   ("moments", "--check", "mellin"), ("moments", "--check", "gk-diag"),
                   ("moments", "--check", "kp-weights"),
                   ("moments", "--check", "all", "--paper-literal")]


# at lambda >= 1e8 the moment quadratures and the 2F3 overflow on the way to
# an honest failure; those warnings are not what this property checks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(command=hs.sampled_from(_PARAM_COMMANDS), lam=_PARAM_LAMBDAS,
       k=hs.sampled_from(["0", "1", "3", "11", "1000"]))
@settings(derandomize=True, deadline=None, max_examples=120)
def test_extreme_parameters_exit_0_2_3_or_4_without_a_traceback(command, lam, k):
    takes_k = command[0] == "moments" or command[2] == "measures"
    argv = [*command, f"--lambda={lam!r}", *(["--k", k] if takes_k else []),
            "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CONVERGENCE, EXIT_ASSERTION), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (EXIT_OK, EXIT_ASSERTION):
        _strict_json(out.getvalue())


@pytest.mark.parametrize("argv, message", [
    # no photon-added Beta moment has power >= k when k > 10
    (("verify", "--suite", "measures", "--k", "11"), "k must be at most 10"),
    (("verify", "--suite", "measures", "--k", "1000"), "k must be at most 10"),
    # math.lgamma overflows
    (("moments", "--check", "mellin", "--lambda", "1e308", "--k", "3"),
     "log_gamma overflows"),
    (("moments", "--check", "kp-weights", "--lambda", "-0.5", "--k", "1"),
     "lam must be positive and finite"),
    (("moments", "--check", "kp-weights", "--lambda", "-1", "--k", "2"),
     "lam must be positive and finite"),
    (("moments", "--check", "kp-weights", "--k", "1000", "--paper-literal"),
     "a_b_lam2k expansion overflows"),
    # a phase angle alpha E_n or t E_n that overflows: the state, the time
    # grid, the overlap kernel, the nested sums and the displacement oracle
    (("state", "gk", "--z", "0.5", "--alpha", "1e308"), "phase angle"),
    (("evolve", "gk", "--z", "0.5", "--times", "1e308", "--format", "text"),
     "phase angle"),
    (("overlap", "gk", "--z1", "0.5", "--z2", "0.5", "--alpha2=1e308"), "phase angle"),
    (("state", "kp", "--Z", "0.3", "--alpha", "1e308", "--nested"), "phase angle"),
    (("state", "kp", "--Z", "0.3", "--alpha", "1e308", "--spectrum",
      '{"kind":"custom","energies":[0,1,3,6]}'), "phase angle"),
])
def test_inputs_that_raised_now_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gk_suite_at_lambda_1e300_fails_its_closed_form_check(capsys):
    # the log-ratio residual saturates to inf (null in JSON), where
    # math.expm1 raised OverflowError
    code, out, err = run_cli(capsys, "verify", "--suite", "gk", "--lambda", "1e300",
                             "--format", "json")
    assert code == EXIT_ASSERTION
    assert "Traceback" not in err
    failures = {f["name"]: f["observed"] for f in _strict_json(out)["failures"]}
    assert failures["norm_series_vs_closed[lam=1e+300]"] is None
