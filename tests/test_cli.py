"""CLI surface: subcommands, formats, determinism, exit codes."""

import json
from fractions import Fraction

import pytest

from magrad.cli import main
from magrad.freealg import eval_lambda, mu_lambda
from magrad.kernels import plain_reduced_kernel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTheta:
    def test_exact_value(self, capsys):
        code, out = run(capsys, "theta", "--k", "4", "--lambda", "1/2",
                        "--q", "1")
        assert code == 0 and out.strip() == "5/48"

    def test_default_is_trivial_one(self, capsys):
        code, out = run(capsys, "theta", "--k", "1")
        assert code == 0 and out.strip() == "1"

    def test_ab_form(self, capsys):
        code, out = run(capsys, "theta", "--a", "2", "--b", "2",
                        "--lambda", "1/3", "--q", "1")
        assert code == 0 and out.strip() == "23/486"

    def test_json_format(self, capsys):
        code, out = run(capsys, "theta", "--k", "4", "--lambda", "1/2",
                        "--q", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0 and not data["theta"]["exact"]
        assert data["theta"]["width"] < 1e-12

    def test_requires_k_or_ab(self, capsys):
        code = main(["theta"])
        assert code == 2


class TestNorm:
    def test_file_roundtrip(self, tmp_path, capsys):
        poly = eval_lambda(mu_lambda(4), Fraction(1, 2))
        path = tmp_path / "poly.json"
        path.write_text(poly.to_json())
        cert = tmp_path / "cert.json"
        code, out = run(capsys, "norm", str(path), "--q", "1",
                        "--cert-out", str(cert))
        data = json.loads(out)
        assert code == 0 and data["norm"]["value"] == "5/2"
        certs = json.loads(cert.read_text())["certificates"]
        assert certs and certs[0]["value"] == "5/2"


class TestKernelRadius:
    def test_kernel_json(self, capsys):
        code, out = run(capsys, "kernel", "--p-minus-1", "4",
                        "--lambda", "1/2", "--q", "1")
        data = json.loads(out)
        assert code == 0 and data["coeffs"] == ["5/96", "0", "0", "0", "0"]

    def test_kernel_csv(self, capsys):
        code, out = run(capsys, "kernel", "--p-minus-1", "2",
                        "--lambda", "1/3", "--format", "csv",
                        "--samples", "3")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "t,ktilde" and len(lines) == 4

    def test_degree_caps_come_from_theta_sources(self, capsys):
        # plain Theta reaches degree 8; LP-backed classes stop at degree 5
        for p_minus_1 in (6, 8):
            code, out = run(capsys, "kernel", "--p-minus-1", str(p_minus_1),
                            "--lambda", "2/7", "--q", "plain")
            want = plain_reduced_kernel(p_minus_1, Fraction(2, 7)).coeffs
            assert code == 0 and json.loads(out)["coeffs"] == [str(c) for c in want]
        assert main(["kernel", "--p-minus-1", "6", "--q", "1"]) == 2

    def test_radius_json(self, capsys):
        code, out = run(capsys, "radius", "--p-minus-1", "0",
                        "--lambda", "1/3", "--n", "256")
        data = json.loads(out)
        assert code == 0
        lo, hi = data["bracket"]
        assert lo <= data["radius"] <= hi and data["n"] == 256


class TestBound:
    def test_pth_root(self, capsys):
        code, out = run(capsys, "bound", "--method", "pth-root",
                        "--lambda", "1/2", "--p", "5", "--q", "2")
        data = json.loads(out)
        assert code == 0 and abs(data["lower"] - 2.0415) < 1e-3

    def test_trivial_upper(self, capsys):
        code, out = run(capsys, "bound", "--method", "trivial-upper",
                        "--q", "1")
        data = json.loads(out)
        assert code == 0 and abs(data["upper"] - 2.5198) < 1e-3

    def test_closed_form(self, capsys):
        code, out = run(capsys, "bound", "--method", "closed-form",
                        "--lambda", "1/2")
        data = json.loads(out)
        assert data["lower"] == 2.0 and abs(data["upper"] - 3.14159265359) < 1e-9

    def test_unknown_method_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--method", "nope"])
        assert exc.value.code == 2


class TestLambdaRange:
    @pytest.mark.parametrize("argv", [
        ("kernel", "--p-minus-1", "2", "--q", "plain"),
        ("bound", "--method", "pth-root", "--p", "3"),
    ])
    @pytest.mark.parametrize("lam", ["3/2", "-1/5"])
    def test_lambda_outside_unit_interval_is_usage_error(self, capsys, argv,
                                                         lam):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--lambda={lam}"])
        assert exc.value.code == 2
        assert "lambda must lie in [0, 1]" in capsys.readouterr().err

    def test_endpoints_accepted(self, capsys):
        for lam in ("0", "1"):
            code, out = run(capsys, "kernel", "--p-minus-1", "2",
                            "--q", "plain", "--lambda", lam)
            assert code == 0 and json.loads(out)["lam"] == lam


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("bound", "--method", "pth-root", "--lambda", "2/5",
                "--p", "5", "--q", "1")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_scan_csv(self, capsys):
        code, out = run(capsys, "scan", "--p", "5", "--q", "plain",
                        "--grid", "5")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "lam,w,c_bound" and len(lines) == 6


class TestBch:
    def test_l1_at_origin(self, capsys):
        code, out = run(capsys, "bch", "--l1", "--x1", "0", "--x2", "0")
        data = json.loads(out)
        assert code == 0 and data["l1"] == 0.0

    def test_critical_lambda(self, capsys):
        code, out = run(capsys, "bch", "--critical-lambda")
        data = json.loads(out)
        assert code == 0 and 0.35865 <= data["criticalLambda"] <= 0.35866

    def test_gain(self, capsys):
        code, out = run(capsys, "bch", "--gain", "--l1", "--q", "2",
                        "--lambda", "0.3587", "--x1", "1.4", "--x2", "1.4")
        data = json.loads(out)
        assert code == 0 and data["aligned"] and data["gain"] > 0

    def test_needs_a_task(self, capsys):
        assert main(["bch"]) == 2


class TestVerify:
    def test_convexity_subcommand(self, capsys):
        code, out = run(capsys, "verify-convexity", "--p", "2",
                        "--n", "4", "--trials", "50", "--seed", "1")
        data = json.loads(out)
        assert code == 0 and data["umd"]["passed"] and data["umq"]["passed"]

    def test_verify_subset(self, capsys):
        code, out = run(capsys, "verify", "--criteria", "01-exact")
        assert code == 0 and "PASS" in out and "1/1" in out

    def test_verify_no_match(self, capsys):
        assert main(["verify", "--criteria", "zzz"]) == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, _ = run(capsys, "bound", "--method", "closed-form",
                      "--lambda", "1/3", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "magrad/1"
