"""End-to-end tests of the command-line front end."""

import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geolog.cli as cli
from geolog.cli import (
    SUITES,
    DeformationMode,
    FitProblem,
    FitResult,
    InsufficientDataError,
    NonConvergenceError,
    UsageError,
    _diag_stress_scalar,
    _lateral_log_free,
    _mode_logs,
    _principal_kirchhoff,
    main,
    measure_payload,
    path_rows,
    predict_stresses,
    run_fit,
)
from geolog.constitutive import MaterialModel, kirchhoff_stress
from geolog.geodesy import dist_squared_to_SO, euclid_dist_to_SO, omega_iso, omega_vol
from geolog.matcore import MetricParams, polar_decompose, principal_log_spd
from geolog.oracle import OracleConfig, OracleVerdict

SHEAR = "[[1,1],[0,1]]"
PHI = (1.0 + math.sqrt(5.0)) / 2.0
README = Path(__file__).resolve().parent.parent / "README.md"

# `path` rows of two diagonal modes as `.17g` strings.  These modes work on
# log stretches directly, so changes to the matrix closed forms must leave
# them byte-for-byte unchanged.
FROZEN_PATHS = {
    ("uniaxial_free", "exp_hencky"): (
        ["--mu", "0.5", "--kappa", "1.5", "--k", "0.8", "--khat", "0.3",
         "--from", "0.5", "--to", "2.5", "--steps", "5"],
        [
            "0.5,0.74435079560791617,0.72839606335954332,0.2952428557969885,"
            "0.39670564907350381,-2.7275889734180039",
            "1,1,0,0,0,0",
            "1.5,1.1490669612546998,0.43986509944611762,0.13895027502292545,"
            "0.11915177262327116,0.41927229527921045",
            "2,1.3434525843198615,0.72839606335954332,0.2952428557969885,"
            "0.39670564907350381,0.68189724335450097",
            "2.5,1.6035409449697378,0.92944170423909356,0.47221427457388948,"
            "0.79539096630391171,0.90879124587888926",
        ],
    ),
    ("volumetric", "hencky"): (
        ["--from", "0.4", "--to", "3.0", "--steps", "5"],
        [
            "0.40000000000000002,0.39999999999999997,0,0.91629073187415511,"
            "0.41979435265923742,-2.2907268296853878",
            "1.05,1.05,0,0.048790164169432049,0.0011902400598400654,0.046466823018506707",
            "1.7000000000000002,1.7000000000000002,0,0.53062825106217049,"
            "0.14078317041264893,0.3121342653306885",
            "2.3500000000000001,2.3500000000000001,0,0.85441532815606758,"
            "0.36501277649402031,0.36358099070470956",
            "3,3.0000000000000004,0,1.0986122886681098,0.60347448040629104,0.36620409622270317",
        ],
    ),
}
# The uniaxial_free/exp_hencky energies above as they were before the
# normalized exp-Hencky energy took expm1, keyed by control; each frozen
# value may only have moved closer to a 50-digit evaluation.
ENERGIES_BEFORE_EXPM1 = {
    "0.5": 0.3967056490735037,
    "1.5": 0.11915177262327115,
    "2": 0.3967056490735037,
    "2.5": 0.79539096630391182,
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return cols


def table_scalar(out, key):
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return parts[1]
    raise AssertionError(f"{key} not found in output")


class TestMeasure:
    def test_identity_all_zero(self, capsys):
        code, out, _ = run_cli(
            ["measure", "--matrix", "[[1,0],[0,1]]", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("omega_iso", "omega_vol", "dist_squared_geod", "dist_euclid"):
            assert abs(payload[key]) < 1e-12

    def test_double_identity_volumetric(self, capsys):
        code, out, _ = run_cli(
            ["measure", "--matrix", "[[2,0,0],[0,2,0],[0,0,2]]", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["omega_vol"] == pytest.approx(3.0 * math.log(2.0), abs=1e-12)
        assert payload["omega_iso"] == pytest.approx(0.0, abs=1e-12)

    def test_shear_frozen_values(self, capsys):
        code, out, _ = run_cli(["measure", "--matrix", SHEAR], capsys)
        assert code == 0
        assert table_scalar(out, "omega_iso") == "0.680536289374"
        assert table_scalar(out, "dist_squared_geod") == "0.463129641154"
        assert table_scalar(out, "dist_euclid") == "0.726542528005"

    def test_weighted_parameters(self, capsys):
        code, out, _ = run_cli(
            ["measure", "--matrix", SHEAR, "--mu", "2", "--kappa", "1",
             "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dist_squared_geod"] == pytest.approx(
            4.0 * math.log(PHI) ** 2, abs=1e-12
        )

    def test_inverse_prints_identical_scalars(self, capsys):
        inv = "[[1,-1],[0,1]]"
        _, out_f, _ = run_cli(["measure", "--matrix", SHEAR], capsys)
        _, out_i, _ = run_cli(["measure", "--matrix", inv], capsys)
        for key in ("omega_iso", "omega_vol", "dist_squared_geod"):
            assert table_scalar(out_f, key) == table_scalar(out_i, key)

    def test_matrix_from_file(self, tmp_path, capsys):
        f = tmp_path / "mat.json"
        f.write_text(SHEAR)
        code, out, _ = run_cli(["measure", "--matrix", f"@{f}"], capsys)
        assert code == 0
        assert table_scalar(out, "omega_iso") == "0.680536289374"

    def test_json_parse_error_carries_position(self, capsys):
        code, _, err = run_cli(["measure", "--matrix", "[[1,2,"], capsys)
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_nonpositive_determinant(self, capsys):
        code, _, err = run_cli(["measure", "--matrix", "[[1,0],[0,-1]]"], capsys)
        assert code == 2

    def test_ragged_matrix_rejected(self, capsys):
        code, _, _ = run_cli(["measure", "--matrix", "[[1,2],[3]]"], capsys)
        assert code == 2

    def test_nonsquare_rejected(self, capsys):
        code, _, _ = run_cli(["measure", "--matrix", "[[1,2,3],[4,5,6]]"], capsys)
        assert code == 2

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["measure"], capsys)
        assert code == 1

    def test_payload_polar_factors(self):
        F = np.array([[1.0, 1.0], [0.0, 1.0]])
        payload = measure_payload(F, MetricParams.frobenius(2))
        R = np.array(payload["rotation"])
        U = np.array(payload["right_stretch"])
        assert np.allclose(R @ U, F, atol=1e-12)
        assert np.allclose(R.T @ R, np.eye(2), atol=1e-12)

    def test_payload_matches_the_closed_forms(self):
        # one SVD serves every field; each agrees with its own closed form,
        # repeated singular values included
        p = MetricParams(2.0, 1.0, 0.7)
        rng = np.random.default_rng(17)
        draws = [np.eye(3), np.diag([2.0, 2.0, 0.5]), 2.0 * np.eye(2)]
        draws += [rng.uniform(-2.0, 2.0, (n, n)) for n in (2, 3) for _ in range(10)]
        for F in (F for F in draws if np.linalg.det(F) > 0.05):
            payload = measure_payload(F, p)
            pol = polar_decompose(F)
            expected = {
                "omega_iso": omega_iso(F),
                "omega_vol": omega_vol(F),
                "dist_squared_geod": dist_squared_to_SO(F, p).squared_distance,
                "dist_euclid": euclid_dist_to_SO(F).distance,
                "rotation": pol.rotation,
                "right_stretch": pol.right_stretch,
                "left_stretch": pol.left_stretch,
                "log_right_stretch": principal_log_spd(pol.right_stretch),
            }
            assert sorted(payload) == sorted(expected)
            for key, want in expected.items():
                got = np.asarray(payload[key])
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want))), key


class TestVerify:
    def test_log_rules_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "log-rules", "--samples", "25", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_rates_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "rates"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 6

    def test_symmetry_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "symmetry", "--samples", "40", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert "expected to fail" in out

    def test_grioli_planar_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "grioli", "--dim", "2", "--samples", "30",
             "--seed", "42", "--tol", "1e-6"], capsys
        )
        assert code == 0
        assert "[FAIL]" not in out

    def test_grioli_spatial_pass(self, capsys):
        # the identity, an SPD matrix and a flat draw, then the samples
        code, out, _ = run_cli(
            ["verify", "--suite", "grioli", "--dim", "3", "--samples", "10",
             "--seed", "42", "--tol", "1e-6"], capsys
        )
        assert code == 0
        assert "suite grioli: 13/13 claims passed" in out

    def test_rank_one_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "exp-hencky-rank-one", "--samples", "20",
             "--seed", "3"], capsys
        )
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_logmin_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "logmin", "--dim", "3", "--samples", "200",
             "--seed", "4"], capsys
        )
        assert code == 0

    def test_geodesic_distance_small_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "geodesic-distance", "--dim", "2",
             "--samples", "1", "--seed", "5"], capsys
        )
        assert code == 0
        assert "uniqueness" in out

    def test_geodesic_distance_dim3_unsupported(self, capsys):
        code, _, err = run_cli(
            ["verify", "--suite", "geodesic-distance", "--dim", "3"], capsys
        )
        assert code == 3
        assert "planar" in err

    def test_readme_suite_list_matches_cli(self):
        line = re.search(r"^Suites: (.*?)\. Common flags", README.read_text(), re.M | re.S)
        named = re.findall(r"`([^`]+)`", line.group(1))
        assert sorted(named) == sorted(SUITES)

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 1

    def test_failed_claim_has_its_own_exit_code(self, monkeypatch, capsys):
        failing = OracleVerdict(claim="planted", closed_form_value=1.0, oracle_value=2.0,
                                relative_gap=1.0, passed=False)
        monkeypatch.setattr(cli, "run_suite", lambda *args: [failing])
        code, out, _ = run_cli(["verify", "--suite", "rates"], capsys)
        assert code == cli.EXIT_CLAIM_FAILED == 5
        assert "0/1 claims passed" in out

    def test_readme_verify_examples_pass(self, capsys):
        blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
        commands = [
            shlex.split(line)[1:]
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("geolog verify")
        ]
        assert commands
        for argv in commands:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, f"{argv}: {out}"


class TestPath:
    def test_volumetric_hencky_eos(self, capsys):
        code, out, _ = run_cli(
            ["path", "--mode", "volumetric", "--model", "hencky", "--kappa", "1",
             "--from", "0.4", "--to", "3.0", "--steps", "40"], capsys
        )
        assert code == 0
        cols = parse_csv(out)
        for x, s in zip(cols["control"], cols["stress"]):
            assert s == pytest.approx(math.log(x) / x, abs=1e-10)

    def test_volumetric_exp_hencky_eos(self, capsys):
        code, out, _ = run_cli(
            ["path", "--mode", "volumetric", "--model", "exp_hencky",
             "--kappa", "1", "--khat", "4", "--from", "0.4", "--to", "3.0",
             "--steps", "40"], capsys
        )
        assert code == 0
        cols = parse_csv(out)
        for x, s in zip(cols["control"], cols["stress"]):
            expect = (math.log(x) / x) * math.exp(4.0 * math.log(x) ** 2)
            assert s == pytest.approx(expect, abs=1e-10 * max(1.0, abs(expect)))

    def test_uniaxial_incompressible_hencky(self, capsys):
        code, out, _ = run_cli(
            ["path", "--mode", "uniaxial_incompressible", "--model", "hencky",
             "--mu", "1.3", "--from", "1.0", "--to", "1.9", "--steps", "10"],
            capsys,
        )
        assert code == 0
        cols = parse_csv(out)
        assert cols["control"][0] == 1.0
        row0 = [cols[k][0] for k in ("omega_iso", "omega_vol", "energy", "stress")]
        assert row0 == [0.0, 0.0, 0.0, 0.0]
        for lam, w, s, det in zip(cols["control"], cols["energy"],
                                  cols["stress"], cols["detF"]):
            assert det == pytest.approx(1.0, abs=1e-12)
            assert w == pytest.approx(1.5 * 1.3 * math.log(lam) ** 2, abs=1e-12)
            assert s == pytest.approx(3.0 * 1.3 * math.log(lam) / lam, abs=1e-12)

    def test_uniaxial_free_hencky_closed_form(self, capsys):
        mu, kappa = 1.1, 2.3
        young = 9.0 * kappa * mu / (3.0 * kappa + mu)
        nu = (3.0 * kappa - 2.0 * mu) / (6.0 * kappa + 2.0 * mu)
        code, out, _ = run_cli(
            ["path", "--mode", "uniaxial_free", "--model", "hencky",
             "--mu", str(mu), "--kappa", str(kappa),
             "--from", "0.5", "--to", "2.5", "--steps", "9"], capsys
        )
        assert code == 0
        cols = parse_csv(out)
        for lam, det, w, s in zip(cols["control"], cols["detF"],
                                  cols["energy"], cols["stress"]):
            l = math.log(lam)
            assert det == pytest.approx(lam ** (1.0 - 2.0 * nu), rel=1e-8)
            assert w == pytest.approx(0.5 * young * l * l, rel=1e-8, abs=1e-12)
            assert s == pytest.approx(young * l / lam, rel=1e-8, abs=1e-12)

    def test_equibiaxial_iso_measure(self, capsys):
        code, out, _ = run_cli(
            ["path", "--mode", "equibiaxial_incompressible", "--model", "hencky",
             "--from", "1.0", "--to", "1.6", "--steps", "4"], capsys
        )
        assert code == 0
        cols = parse_csv(out)
        for lam, iso in zip(cols["control"], cols["omega_iso"]):
            assert iso == pytest.approx(math.sqrt(6.0) * abs(math.log(lam)), abs=1e-12)

    def test_simple_shear_stress_matches_matrix_law(self, capsys):
        code, out, _ = run_cli(
            ["path", "--mode", "simple_shear", "--model", "hencky",
             "--from", "0.0", "--to", "2.0", "--steps", "5"], capsys
        )
        assert code == 0
        cols = parse_csv(out)
        model = MaterialModel(kind="hencky", mu=1.0, kappa=1.0)
        for gamma, det, s in zip(cols["control"], cols["detF"], cols["stress"]):
            assert det == 1.0
            F = np.eye(3)
            F[0, 1] = gamma
            assert s == pytest.approx(kirchhoff_stress(model, F)[0, 1], abs=1e-12)

    def test_header_and_file_output_bitwise(self, tmp_path, capsys):
        args = ["path", "--mode", "volumetric", "--model", "hencky",
                "--from", "0.5", "--to", "2.0", "--steps", "7"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.splitlines()[0] == "control,detF,omega_iso,omega_vol,energy,stress"
        target = tmp_path / "path.csv"
        code2, _, _ = run_cli(args + ["--out", str(target)], capsys)
        assert code2 == 0
        assert target.read_text() == out

    @pytest.mark.parametrize("mode, model", sorted(FROZEN_PATHS))
    def test_diagonal_rows_frozen(self, mode, model, capsys):
        flags, rows = FROZEN_PATHS[(mode, model)]
        code, out, _ = run_cli(["path", "--mode", mode, "--model", model] + flags, capsys)
        assert code == 0
        assert out.splitlines()[1:] == rows

    def test_recaptured_energies_closer_to_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        model = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3, normalized=True)
        _, rows = FROZEN_PATHS[("uniaxial_free", "exp_hencky")]
        for row in rows:
            fields = row.split(",")
            if fields[0] not in ENERGIES_BEFORE_EXPM1:
                continue
            logs = [mpmath.mpf(l) for l in _mode_logs("uniaxial_free", float(fields[0]), model)]
            t = sum(logs)
            iso2 = sum((l - t / 3) ** 2 for l in logs)
            exact = (
                mpmath.mpf(0.5) / mpmath.mpf(0.8) * mpmath.expm1(mpmath.mpf(0.8) * iso2)
                + mpmath.mpf(1.5) / (2 * mpmath.mpf(0.3)) * mpmath.expm1(mpmath.mpf(0.3) * t * t)
            )
            before = ENERGIES_BEFORE_EXPM1[fields[0]]
            assert abs(float(fields[4]) - exact) <= abs(before - exact)

    def test_repeat_runs_bitwise_identical(self, capsys):
        args = ["path", "--mode", "uniaxial_free", "--model", "exp_hencky",
                "--mu", "0.7", "--kappa", "1.9", "--k", "0.6", "--khat", "0.31",
                "--from", "0.6", "--to", "2.2", "--steps", "11"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_unsupported_model_exits_3(self, capsys):
        code, _, err = run_cli(
            ["path", "--mode", "volumetric", "--model", "svk",
             "--from", "0.5", "--to", "2.0", "--steps", "3"], capsys
        )
        assert code == 3

    def test_unknown_model_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["path", "--mode", "volumetric", "--model", "banana",
             "--from", "0.5", "--to", "2.0", "--steps", "3"], capsys
        )
        assert code == 1

    def test_bad_range_usage_errors(self, capsys):
        base = ["path", "--mode", "volumetric", "--model", "hencky"]
        code, _, _ = run_cli(base + ["--from", "2.0", "--to", "1.0", "--steps", "5"], capsys)
        assert code == 1
        code, _, _ = run_cli(base + ["--from", "0.5", "--to", "2.0", "--steps", "1"], capsys)
        assert code == 1
        code, _, _ = run_cli(base + ["--from", "-0.5", "--to", "2.0", "--steps", "5"], capsys)
        assert code == 1

    def test_exponent_overflow_exits_2_without_traceback(self):
        # the lateral bracket's exp(khat t^2) overflows for this model
        argv = shlex.split(
            "path --mode uniaxial_free --model exp_hencky --mu 0.26 --kappa 0.007 "
            "--k 0.28 --khat 16.7 --from 0.5 --to 2.5 --steps 41"
        )
        proc = subprocess.run([sys.executable, "-m", "geolog", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("invalid input: floating-point overflow")
        assert len(proc.stderr.splitlines()) == 1

    def test_shear_stress_overflow_exits_2(self, capsys):
        # gamma = 2 sinh(9.4): the principal Kirchhoff stresses are not finite
        code, out, err = run_cli(shlex.split(
            "path --mode simple_shear --model exp_hencky --mu 1 --kappa 1 --k 4 "
            "--khat 0.5 --from 12088 --to 12089 --steps 2"
        ), capsys)
        assert code == 2
        assert err.startswith("invalid input: floating-point overflow (Kirchhoff stress")

    def test_euclidean_distance_overflow_exits_2(self, capsys):
        # rather than print "dist_euclid": Infinity, which is not JSON
        code, out, err = run_cli(
            ["measure", "--matrix", "[[1e200,0],[0,1e200]]", "--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert err == ("invalid input: floating-point overflow "
                       "(Euclidean distance overflows double precision)\n")


class TestErrorExits:
    """Every rejected input ends in one stderr line and its exit code."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "rates", "--samples", "0"],
        ["verify", "--suite", "rates", "--nodes", "2"],
        ["verify", "--suite", "rates", "--seed", "-1"],
        ["verify", "--suite", "rates", "--tol", "0"],
        ["verify", "--suite", "rates", "--kappa", "-1"],
        ["measure", "--matrix", SHEAR, "--mu", "0"],
    ])
    def test_out_of_range_parameters_are_usage_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert err.startswith("usage error: ")
        assert len(err.splitlines()) == 1

    def test_condition_number_limit_is_invalid_input(self, capsys):
        code, out, err = run_cli(["measure", "--matrix", "[[1,0],[0,1e-15]]"], capsys)
        assert code == cli.EXIT_BAD_INPUT == 2
        assert out == ""
        assert err == "invalid input: condition number 1.000e+15 exceeds 1e+14\n"

    @pytest.mark.parametrize("matrix", ["[[1,1],[1,1]]", "[[1,2],[2,4]]", "[[1,0],[0,-1]]"])
    def test_nonpositive_determinant_is_invalid_input(self, matrix, capsys):
        code, out, err = run_cli(["measure", "--matrix", matrix], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input: det F ")

    def test_tiny_scale_is_measured(self, capsys):
        code, out, _ = run_cli(
            ["measure", "--matrix", "[[1e-150,0,0],[0,1e-150,0],[0,0,1e-150]]", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["omega_vol"] == pytest.approx(450.0 * math.log(10.0), rel=1e-15)

    def test_negative_fit_seed_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_text("control,stress\n1.0,0.1\n1.2,0.2\n1.4,0.3\n1.6,0.4\n")
        code, out, err = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode", "uniaxial_free",
             "--stress", "biot", "--seed", "-1"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "usage error: seed must be an integer >= 0\n"

    def test_run_suite_dispatches_on_the_suite_table(self):
        with pytest.raises(UsageError):
            cli.run_suite("nope", 2, OracleConfig(), MetricParams())
        verdicts = cli.run_suite("exp-hencky-rank-one", 2, OracleConfig(samples=3), MetricParams())
        assert len(verdicts) == 2 and all(v.passed for v in verdicts)


class TestScalarEngine:
    """The fast diagonal stress path must agree with the tensor law."""

    def test_principal_kirchhoff_matches_matrix(self):
        rng = np.random.default_rng(12)
        for kind in ("hencky", "exp_hencky"):
            model = MaterialModel(kind=kind, mu=0.9, kappa=1.7, k=0.5, khat=0.3)
            for _ in range(20):
                logs = tuple(rng.uniform(-0.8, 0.8, size=3))
                F = np.diag([math.exp(l) for l in logs])
                expected = np.diag(kirchhoff_stress(model, F))
                got = _principal_kirchhoff(model, logs)
                assert np.allclose(got, expected, atol=1e-12)

    def test_lateral_solve_zeroes_stress(self):
        model = MaterialModel(kind="exp_hencky", mu=0.8, kappa=2.1, k=0.7, khat=0.4)
        for lam in (0.5, 0.9, 1.4, 2.6):
            l = math.log(lam)
            x = _lateral_log_free(model, l)
            tau = _principal_kirchhoff(model, (l, x, x))
            assert abs(tau[1]) <= 1e-10

    @staticmethod
    def plain_bisection(model, l_ax):
        """The lateral solve as a plain bisection that evaluates every midpoint."""

        def lateral_stress(x: float) -> float:
            return _principal_kirchhoff(model, (l_ax, x, x))[1]

        half = max(2.0, 2.0 * abs(l_ax) + 1.0)
        lo, hi = -half, half
        flo, fhi = lateral_stress(lo), lateral_stress(hi)
        grow = 0
        while flo > 0.0 or fhi < 0.0:
            lo *= 2.0
            hi *= 2.0
            flo, fhi = lateral_stress(lo), lateral_stress(hi)
            grow += 1
            if grow > 20:
                raise NonConvergenceError(
                    "no bracket for the lateral zero-stress condition",
                    FitResult(model, math.inf, (), False),
                )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = lateral_stress(mid)
            if abs(fm) <= 1e-10:
                return mid
            if fm > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-15:
                break
        return 0.5 * (lo + hi)

    def test_lateral_solve_replays_the_plain_bisection(self):
        def outcome(solve, model, l_ax):
            try:
                return solve(model, l_ax)
            except (OverflowError, NonConvergenceError) as exc:
                return type(exc).__name__

        models = [MaterialModel(kind="hencky", mu=mu, kappa=kappa)
                  for mu, kappa in ((0.4, 2.0), (1.1, 2.3), (3.0, 0.05), (0.02, 5.0))]
        # khat of 10 to 20 drives the stress up to about 1e307 at the first bracket's ends
        models += [MaterialModel(kind="exp_hencky", mu=mu, kappa=kappa, k=k, khat=khat)
                   for mu, kappa in ((0.5, 1.5), (0.26, 0.007), (2.0, 0.3))
                   for k in (0.25, 0.8, 3.0)
                   for khat in (0.125, 0.3, 2.0, 10.0, 15.0, 20.0)]
        # a steep exp wall, where Newton steps are short while the root is still far
        models.append(MaterialModel(kind="exp_hencky", mu=0.2646020700936088,
                                    kappa=0.006926974297919134, k=0.2768997662553889,
                                    khat=16.69291964793116))
        controls = list(np.linspace(0.3, 3.0, 28)) + [1.0, 1.4503497620566803]
        outcomes = set()
        for model in models:
            for control in controls:
                l = math.log(control)
                expected = outcome(self.plain_bisection, model, l)
                assert outcome(_lateral_log_free, model, l) == expected, (model, control)
                outcomes.add(type(expected))
        assert outcomes == {float, str}

    def test_lateral_solve_matches_hencky_poisson_ratio(self):
        # the Hencky lateral log stretch is -nu l; the solve stops once the
        # lateral stress, of slope 2 mu / 3 + 2 kappa, is within 1e-10 of zero
        for mu, kappa in ((0.4, 2.0), (1.1, 2.3), (3.0, 0.05), (0.02, 5.0)):
            model = MaterialModel(kind="hencky", mu=mu, kappa=kappa)
            nu = (3.0 * kappa - 2.0 * mu) / (2.0 * (3.0 * kappa + mu))
            window = (1e-10 + 1e-14) / (2.0 * mu / 3.0 + 2.0 * kappa)
            for control in np.linspace(0.3, 3.0, 10):
                l = math.log(control)
                assert abs(_lateral_log_free(model, l) + nu * l) <= window

    def test_free_mode_biot_equals_plain_axial(self):
        model = MaterialModel(kind="hencky", mu=1.0, kappa=1.0)
        logs = _mode_logs("uniaxial_free", 1.7, model)
        tau = _principal_kirchhoff(model, logs)
        biot = _diag_stress_scalar("uniaxial_free", "biot", model, logs)
        assert biot == pytest.approx(tau[0] / 1.7, abs=1e-10)


class TestFit:
    def make_csv(self, tmp_path, controls, stresses):
        f = tmp_path / "data.csv"
        lines = ["control,stress"] + [f"{c},{s}" for c, s in zip(controls, stresses)]
        f.write_text("\n".join(lines) + "\n")
        return f

    def test_hencky_roundtrip_cli(self, tmp_path, capsys):
        truth = MaterialModel(kind="hencky", mu=0.4, kappa=2.0)
        controls = [0.5 + 0.2 * i for i in range(10)]
        data = predict_stresses(truth, "uniaxial_free", "cauchy", controls)
        f = self.make_csv(tmp_path, controls, data)
        code, out, _ = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode",
             "uniaxial_free", "--stress", "cauchy", "--seed", "3"], capsys
        )
        assert code == 0
        fitted = {}
        for line in out.splitlines():
            if "=" in line and not line.startswith(" "):
                key, _, val = line.partition("=")
                fitted[key.strip()] = float(val)
        assert fitted["mu"] == pytest.approx(0.4, rel=1e-4)
        assert fitted["kappa"] == pytest.approx(2.0, rel=1e-4)
        assert fitted["rms"] < 1e-8

    def test_deterministic_under_seed(self, tmp_path, capsys):
        truth = MaterialModel(kind="hencky", mu=1.2, kappa=0.9)
        controls = [0.7, 1.0, 1.3, 1.6, 1.9]
        data = predict_stresses(truth, "uniaxial_incompressible", "biot", controls)
        f = self.make_csv(tmp_path, controls, data)
        args = ["fit", "--data", str(f), "--model", "hencky", "--mode",
                "uniaxial_incompressible", "--stress", "biot", "--seed", "11"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_tiny_budget_exits_4_with_best_rms(self, tmp_path, capsys):
        truth = MaterialModel(kind="hencky", mu=0.4, kappa=2.0)
        controls = [0.5 + 0.2 * i for i in range(10)]
        f = self.make_csv(tmp_path, controls,
                          predict_stresses(truth, "uniaxial_free", "cauchy", controls))
        code, out, err = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode", "uniaxial_free",
             "--stress", "cauchy", "--max-iters", "8"], capsys
        )
        assert code == 4
        assert out == ""
        assert "within 8 residual evaluations" in err
        assert all(f"start {i}: cost " in err for i in range(5))
        assert re.search(r"^best-so-far rms = \S+$", err, re.M)

    def test_each_start_is_recorded(self):
        truth = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3)
        controls = tuple(0.45 + 0.195 * i for i in range(12))
        problem = FitProblem(
            controls=controls,
            stresses=tuple(predict_stresses(truth, "uniaxial_free", "cauchy", controls)),
            mode_kind="uniaxial_free", stress_kind="cauchy", model_kind="exp_hencky",
            seed=114, max_iters=400,
        )
        result = run_fit(problem)
        assert len(result.starts) == 5
        assert result.starts[0].start == (0.0, 0.0, math.log(0.3), math.log(0.25))
        for start in result.starts:
            assert start.stop in ("converged", "evaluations")
            assert 1 <= start.evaluations <= problem.max_iters
        best = min(start.cost for start in result.starts)
        assert best == pytest.approx(sum(r * r for r in result.residuals), rel=1e-12)
        assert result.converged == any(s.stop == "converged" for s in result.starts)
        assert dataclasses.replace(result, starts=()) == result

    @pytest.mark.parametrize("mode, stress, controls", [
        ("simple_shear", "kirchhoff", [-0.8 + 0.2 * i for i in range(9)]),
        ("volumetric", "cauchy", [0.6 + 0.15 * i for i in range(9)]),
        ("equibiaxial_incompressible", "biot", [0.7 + 0.1 * i for i in range(9)]),
        ("uniaxial_incompressible", "cauchy", [0.6 + 0.2 * i for i in range(9)]),
        # its steps gain far more than the linear model predicts
        ("uniaxial_free", "kirchhoff", [0.6 + 0.2 * i for i in range(9)]),
    ])
    def test_exp_hencky_fits_every_mode(self, mode, stress, controls):
        truth = MaterialModel(kind="exp_hencky", mu=0.7, kappa=3.0, k=1.2, khat=0.6)
        problem = FitProblem(
            controls=tuple(controls),
            stresses=tuple(predict_stresses(truth, mode, stress, controls)),
            mode_kind=mode, stress_kind=stress, model_kind="exp_hencky",
            seed=5,
        )
        result = run_fit(problem)
        assert result.converged
        assert result.rms < 1e-9

    def test_every_start_infeasible_exits_2(self, tmp_path, capsys):
        # at stretches near e^46 the lateral stress overflows for every model
        f = self.make_csv(tmp_path, [1e20, 1e21, 1e22, 1e23], [1.0, 2.0, 3.0, 4.0])
        code, out, err = run_cli(
            ["fit", "--data", str(f), "--model", "exp_hencky", "--mode",
             "uniaxial_free", "--stress", "biot", "--seed", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "invalid input: floating-point overflow (math range error)\n"

    def test_three_points_insufficient(self, tmp_path, capsys):
        f = self.make_csv(tmp_path, [1.0, 1.2, 1.4], [0.1, 0.2, 0.3])
        code, _, err = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode",
             "uniaxial_free", "--stress", "biot"], capsys
        )
        assert code == 2
        assert "4 data points" in err

    def test_non_increasing_controls(self, tmp_path, capsys):
        f = self.make_csv(tmp_path, [1.0, 1.4, 1.2, 1.6], [0.1, 0.2, 0.3, 0.4])
        code, _, _ = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode",
             "uniaxial_free", "--stress", "biot"], capsys
        )
        assert code == 2

    def test_bad_header(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_text("lambda,sigma\n1.0,0.1\n1.2,0.2\n1.4,0.3\n1.6,0.4\n")
        code, _, err = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode",
             "uniaxial_free", "--stress", "biot"], capsys
        )
        assert code == 2
        assert "header" in err

    def test_shear_biot_unsupported(self, tmp_path, capsys):
        f = self.make_csv(tmp_path, [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
        code, _, _ = run_cli(
            ["fit", "--data", str(f), "--model", "hencky", "--mode",
             "simple_shear", "--stress", "biot"], capsys
        )
        assert code == 3

    def test_unsupported_fit_model(self, tmp_path, capsys):
        f = self.make_csv(tmp_path, [1.0, 1.2, 1.4, 1.6], [0.1, 0.2, 0.3, 0.4])
        code, _, _ = run_cli(
            ["fit", "--data", str(f), "--model", "svk", "--mode",
             "uniaxial_free", "--stress", "biot"], capsys
        )
        assert code == 3

    def test_fit_problem_validation(self):
        with pytest.raises(InsufficientDataError):
            FitProblem(controls=(1.0, 1.2, 1.4), stresses=(0.1, 0.2, 0.3),
                       mode_kind="uniaxial_free", stress_kind="biot",
                       model_kind="hencky")
        with pytest.raises(UsageError):
            FitProblem(controls=(1.0, 1.2, 1.4, 1.6), stresses=(0.1, 0.2, 0.3, 0.4),
                       mode_kind="uniaxial_free", stress_kind="nominal",
                       model_kind="hencky")


class TestModeValidation:
    def test_mode_invariants(self):
        with pytest.raises(UsageError):
            DeformationMode(kind="volumetric", start=1.0, stop=1.0, steps=5)
        with pytest.raises(UsageError):
            DeformationMode(kind="volumetric", start=0.5, stop=2.0, steps=1)
        with pytest.raises(UsageError):
            DeformationMode(kind="uniaxial_free", start=-1.0, stop=2.0, steps=5)
        with pytest.raises(UsageError):
            DeformationMode(kind="spin", start=0.5, stop=2.0, steps=5)
        # shear admits negative controls
        DeformationMode(kind="simple_shear", start=-1.0, stop=1.0, steps=5)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geolog.cli", "measure", "--matrix", SHEAR],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "omega_iso" in proc.stdout

    def test_package_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, geolog; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_fit_leaves_scipy_unloaded(self, tmp_path):
        truth = MaterialModel(kind="hencky", mu=0.4, kappa=2.0)
        controls = [0.5 + 0.2 * i for i in range(6)]
        stresses = predict_stresses(truth, "uniaxial_free", "cauchy", controls)
        data = tmp_path / "data.csv"
        data.write_text("control,stress\n" + "".join(
            f"{c!r},{s!r}\n" for c, s in zip(controls, stresses)))
        script = (
            "import sys\n"
            "from geolog.cli import main\n"
            f"code = main(['fit', '--data', {str(data)!r}, '--model', 'hencky', "
            "'--mode', 'uniaxial_free', '--stress', 'cauchy'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_package_main(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geolog", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "measure" in proc.stdout

    def test_cli_module_runs_without_runpy_warning(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geolog.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr

    def test_main_is_a_package_attribute(self):
        import geolog

        assert geolog.main is main
        with pytest.raises(AttributeError):
            geolog.no_such_name
