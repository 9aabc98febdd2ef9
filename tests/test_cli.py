"""CLI surface: subcommands, formats, determinism, exit codes."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from magrad import magnus, specrad
from magrad.cli import BOUND_METHODS, main
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

    @pytest.mark.parametrize("ab", [("--a", "1", "--b", "3"), ("--a", "1"),
                                    ("--b", "3")])
    def test_k_with_ab_is_usage_error(self, capsys, ab):
        # Theta_4 = 25/216 was printed with --a/--b silently ignored
        code = main(["theta", "--k", "4", *ab, "--lambda", "1/3"])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        assert cap.err == "error: theta --k takes no --a or --b\n"

    def test_lambda_must_be_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--k", "2", "--lambda", "abc"])
        assert exc.value.code == 2
        assert "not a rational: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_out_file_takes_every_format(self, tmp_path, capsys, fmt):
        path = tmp_path / "t.out"
        argv = ("theta", "--k", "4", "--lambda", "1/2", "--q", "1",
                "--format", fmt)
        code, shown = run(capsys, *argv)
        code_out, out = run(capsys, *argv, "--out", str(path))
        assert code == code_out == 0 and out == ""
        assert path.read_text() == shown and "5/48" in shown


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

    @pytest.mark.parametrize("doc,message", [
        # a multi-entry coeff list reads as a polynomial in lambda
        ('{"degree": 2, "terms": [{"word": [1, 2], "coeff": ["0", "1"]}]}',
         "norm needs rational coefficients"),
        ('{"degree": 2}', "malformed polynomial JSON"),
        ('{"terms": [{"word": [1, 2]}]}', "malformed polynomial JSON"),
        ('[1, 2]', "malformed polynomial JSON"),
        ('{"terms": [{"word": [1.5, 2], "coeff": ["1"]}]}',
         "word letters must be integers"),
        ('{"terms": [', "Expecting value")],
        ids=["lambda-poly", "no-terms", "no-coeff", "not-an-object",
             "float-letter", "not-json"])
    def test_unusable_polynomial_is_usage_error(self, tmp_path, capsys, doc,
                                                message):
        path = tmp_path / "poly.json"
        path.write_text(doc)
        code = main(["norm", str(path), "--q", "1"])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and message in cap.err


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("samples", ["0", "1", "-5"])
    def test_samples_below_two_is_usage_error(self, capsys, fmt, samples):
        code = main(["kernel", "--p-minus-1", "2", "--format", fmt,
                     "--samples", samples])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and "samples must be >= 2" in cap.err

    def test_two_samples_are_the_end_points(self, capsys):
        code, out = run(capsys, "kernel", "--p-minus-1", "2", "--lambda",
                        "1/3", "--format", "csv", "--samples", "2")
        assert code == 0 and [r.split(",")[0] for r in
                              out.splitlines()] == ["t", "0", "1"]

    def test_degree_caps_come_from_theta_sources(self, capsys):
        # plain Theta reaches degree 8; LP-backed classes stop at degree 5
        for p_minus_1 in (6, 8):
            code, out = run(capsys, "kernel", "--p-minus-1", str(p_minus_1),
                            "--lambda", "2/7", "--q", "plain")
            want = plain_reduced_kernel(p_minus_1, Fraction(2, 7)).coeffs
            assert code == 0 and json.loads(out)["coeffs"] == [str(c) for c in want]
        assert main(["kernel", "--p-minus-1", "6", "--q", "1"]) == 2

    def test_cap_error_names_the_cli_limits(self, tmp_path, capsys):
        code = main(["kernel", "--p-minus-1", "6", "--q", "1"])
        err = capsys.readouterr().err
        assert code == 2 and "fa_norm_upper" not in err
        assert err == ("error: LP-backed classes (q >= 1) reach degree 5;"
                       " --q plain reaches degree 8\n")
        # `norm` takes the LP for every class, plain included
        path = tmp_path / "poly.json"
        path.write_text(eval_lambda(mu_lambda(6), Fraction(1, 2)).to_json())
        code = main(["norm", str(path), "--q", "plain"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: the exact LP reaches degree 5\n"

    def test_radius_json(self, capsys):
        code, out = run(capsys, "radius", "--p-minus-1", "0",
                        "--lambda", "1/3", "--n", "256")
        data = json.loads(out)
        assert code == 0
        lo, hi = data["bracket"]
        assert lo <= data["radius"] <= hi and data["n"] == 256

    def test_radius_writes_the_eigenvector(self, tmp_path, capsys):
        # one (t, v) row per grid node; for p-1 = 0 the Perron vector is
        # rho^t, rho = (1-lam)/lam, to criterion 05's 1e-4
        path = tmp_path / "v.csv"
        code, _ = run(capsys, "radius", "--p-minus-1", "0", "--lambda", "1/3",
                      "--n", "256", "--eigvec-out", str(path))
        lines = path.read_text().splitlines()
        assert code == 0 and lines[0] == "t,v" and len(lines) == 257
        t, v = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).T
        nodes = (np.arange(256) + 0.5) / 256
        assert t.tolist() == [float(f"{x:.12g}") for x in nodes]
        f = 2.0 ** nodes                # rho = 2 at lam = 1/3
        assert np.abs(v / v.max() - f / f.max()).max() <= 1e-4

    def test_radius_of_triangular_grid(self, capsys):
        # one branch of the kernel vanishes at lam = 0 and 1
        for lam, want in (("0", 0.0), ("1", 1 / 256)):
            code, out = run(capsys, "radius", "--p-minus-1", "0",
                            "--lambda", lam, "--n", "256")
            data = json.loads(out)
            assert code == 0 and data["converged"]
            assert data["bracket"] == [want, want] and data["radius"] == want


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

    @pytest.mark.parametrize("lam", ["0", "1"])
    def test_pth_root_at_quasi_nilpotent_endpoint(self, capsys, lam):
        # the kernel radius is 0 at lam in {0, 1}: an infinite lower bound,
        # as crude-ratio and ode report there, not a division by zero
        code, out = run(capsys, "bound", "--method", "pth-root",
                        "--lambda", lam, "--p", "5")
        data = json.loads(out)
        assert code == 0 and data["lower"] == float("inf")
        assert data["details"]["kernel_radius"] == 0.0

    @pytest.mark.parametrize("method", ["pth-root", "sicompar"])
    @pytest.mark.parametrize("lam", ["1e-400", str(1 - Fraction(1, 10 ** 400))])
    def test_lambda_that_rounds_to_an_endpoint_prints_exactly(self, capsys, method, lam):
        # float(lam) is 0.0 or 1.0, an input with another bound; the exact
        # lam is printed instead, as `theta` and `radius` print it
        code, out = run(capsys, "bound", "--method", method, "--lambda", lam,
                        "--p", "3", "--q", "plain")
        data = json.loads(out)
        assert code == 0 and data["lam"] == str(Fraction(lam))
        assert 1.0 < data["lower"] < float("inf")
        if method == "pth-root":
            assert data["lower"] == pytest.approx(862.010318775, rel=1e-11)

    @pytest.mark.parametrize("argv", [
        ("bound", "--method", "closed-form"),
        ("bound", "--method", "pth-root", "--q", "plain", "--p", "3"),
        ("bound", "--method", "crude-ratio"),
        ("bch", "--l1", "--gain", "--q", "1", "--x1", "1.4", "--x2", "1.5")],
        ids=["closed-form", "pth-root", "crude-ratio", "bch"])
    @pytest.mark.parametrize("near_one,near_zero", [
        ("0.999999999999", "0.000000000001"), ("0.999999999", "0.000000001")])
    def test_lambda_near_one_prints_its_mirror(self, capsys, argv, near_one, near_zero):
        # every output is symmetric under lam <-> 1-lam; 1 - lam comes from
        # lam's integers, so it keeps the digits that float(lam) drops
        outs = []
        for lam in (near_one, near_zero):
            code, out = run(capsys, *argv, "--lambda", lam)
            data = json.loads(out)
            data.pop("lam", None)
            outs.append((code, data))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("q", ["plain", "1"])
    @pytest.mark.parametrize("lam", ["1e-400", str(1 - Fraction(1, 10 ** 400))])
    def test_every_method_takes_lambda_exactly_at_the_float_ends(
            self, monkeypatch, capsys, q, lam):
        # every bound is infinite at float(lam) in {0.0, 1.0}, but not at lam:
        # each method prints a finite bound and the exact lam, or certifies
        # none (exit 1, no output).  ode stops at its Taylor term cap here
        # (no blow-up below about 1e-80); a smaller cap keeps that quick.
        # Only trivial-upper reads --variant, and its magnus form reads lam;
        # closed-form, ode and trivial-upper read no --p, closed-form no --q
        monkeypatch.setattr(magnus, "_ODE_MAX_TERMS", 60)
        plain = {"closed-form": {"lower": 921.034037198, "upper": 921.039395075},
                 "crude-ratio": {"lower": 921.034037198},
                 "ricompar": {"lower": 12.2584405511},
                 "trivial-upper": {"upper": 921.034037198}}
        failed = set()
        for method in BOUND_METHODS:
            if method == "log":     # scans lam itself
                continue
            variant = ["--variant", "magnus"] if method == "trivial-upper" else []
            p = [] if method in ("closed-form", "ode", "trivial-upper") else ["--p", "3"]
            cls = [] if method == "closed-form" else ["--q", q]
            code = main(["bound", "--method", method, "--lambda", lam, *p, *cls, *variant])
            cap = capsys.readouterr()
            if code == 1:
                assert cap.out == "" and cap.err.startswith("error: "), method
                failed.add(method)
                continue
            data = json.loads(cap.out)
            bounds = [data[k] for k in ("lower", "upper") if k in data]
            assert code == 0 and data["lam"] == str(Fraction(lam)), method
            assert bounds and all(map(math.isfinite, bounds)), method
            want = plain.get(method, {}) if q == "plain" else {}
            assert {k: data[k] for k in want} == pytest.approx(want, rel=1e-11), method
        assert failed <= {"ode"}

    @pytest.mark.parametrize("method", ["pth-root", "sicompar"])
    @pytest.mark.parametrize("lam", ["0", "1", "1/3", "1e-300"])
    def test_lambda_prints_as_float_elsewhere(self, capsys, method, lam):
        code, out = run(capsys, "bound", "--method", method, "--lambda", lam,
                        "--p", "3", "--q", "plain")
        got = json.loads(out)["lam"]
        assert code == 0 and isinstance(got, float)
        assert got == pytest.approx(float(Fraction(lam)), rel=1e-11)

    @pytest.mark.parametrize("lam,p,q,message", [
        ("0", "7", "1", "error: LP-backed classes (q >= 1) reach degree 5;"
                        " --q plain reaches degree 8\n"),
        ("1", "10", "plain", "error: degree 9 outside [1, 8]\n")])
    def test_pth_root_endpoint_keeps_degree_caps(self, capsys, lam, p, q, message):
        # the endpoint radius comes from the assembled kernel, so the
        # Theta degree caps hold there as at every other lam
        code = main(["bound", "--method", "pth-root", "--lambda", lam,
                     "--p", p, "--q", q])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and cap.err == message

    @pytest.mark.parametrize("gap", ["nan", "inf", "-5"])
    def test_ode_bad_gap_is_usage_error(self, capsys, gap):
        code = main(["bound", "--method", "ode", "--gap4", gap])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and "finite and nonnegative" in cap.err

    def test_ode_without_blow_up_exits_one(self, capsys):
        code = main(["bound", "--method", "ode", "--gap4", "10"])
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert cap.err.startswith("error: no blow-up detected")

    def test_pth_root_rejects_p_below_one(self, capsys):
        code = main(["bound", "--method", "pth-root", "--lambda", "1",
                     "--p", "0"])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and "p-1 must be >= 0" in cap.err

    @pytest.mark.parametrize("argv", [
        ("scan", "--p", "2"), ("bound", "--method", "log", "--p", "2")])
    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two_is_usage_error(self, capsys, argv, grid):
        code = main([*argv, "--grid", grid])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and "grid must be >= 2" in cap.err

    @pytest.mark.parametrize("argv,option", [
        (("--method", "pth-root", "--lambda", "1/3", "--gap4", "0.02"), "--gap4"),
        (("--method", "closed-form", "--variant", "magnus"), "--variant"),
        (("--method", "sicompar", "--grid", "11"), "--grid"),
        (("--method", "log", "--p", "2", "--lambda", "1/3"), "--lambda"),
        (("--method", "closed-form", "--lambda", "1/3", "--p", "7", "--tol", "1e-3",
          "--q", "2"), "--p"),
        (("--method", "ode", "--p", "3"), "--p"),
        (("--method", "trivial-upper", "--p", "3"), "--p"),
        (("--method", "closed-form", "--tol", "1e-3"), "--tol"),
        (("--method", "sicompar", "--lambda", "1/3", "--tol", "1e-3"), "--tol"),
        (("--method", "closed-form", "--q", "2"), "--q")],
        ids=["gap4", "variant", "grid", "lambda", "p-tol-q", "p-ode", "p-trivial-upper",
             "tol", "tol-sicompar", "q"])
    def test_option_of_another_method_is_usage_error(self, capsys, argv, option):
        # each was parsed and then silently ignored
        code = main(["bound", *argv])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        assert cap.err == f"error: --method {argv[1]} takes no {option}\n"

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


class TestTolOption:
    @pytest.mark.parametrize("argv", [
        ("radius", "--n", "16"),
        ("bound", "--method", "pth-root", "--lambda", "1/3", "--p", "3"),
        ("scan", "--p", "3"),
    ], ids=["radius", "bound", "scan"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "x"])
    def test_bad_tol_is_usage_error(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", tol])
        assert exc.value.code == 2
        assert f"argument --tol: tol must be a finite number > 0: '{tol}'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv,iterations", [
        (("--p-minus-1", "4", "--lambda", "1/3", "--q", "1"), 4),
        (("--p-minus-1", "3", "--lambda", "2/5"), 3),
    ], ids=["radius-q1-n256", "radius-plain-n256"])
    def test_radius_keeps_start_from_ones(self, monkeypatch, capsys, argv,
                                          iterations):
        # `magrad radius` iterates from ones: one matvec per pinned step
        calls = []
        matvec = specrad.OperatorGrid.matvec
        monkeypatch.setattr(specrad.OperatorGrid, "matvec",
                            lambda self, v: calls.append(1) or matvec(self, v))
        code, out = run(capsys, "radius", *argv, "--n", "256")
        assert code == 0 and json.loads(out)["iterations"] == iterations
        assert len(calls) == iterations


class TestClassOption:
    @pytest.mark.parametrize("argv", [("radius",), ("bch", "--l1")])
    @pytest.mark.parametrize("q", ["0", "1/2"])
    def test_q_below_one_is_usage_error(self, capsys, argv, q):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--q", q])
        assert exc.value.code == 2
        assert f"argument --q: q must be >= 1: '{q}'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_failing_logodds_check_exits_one(self, monkeypatch, capsys, fmt):
        # |C(1/4) - C(1/2)| = 1.5 exceeds |logit(1/4) - logit(1/2)| = log 3
        rows = [(0.25, 0.1, 2.0), (0.5, 0.1, 3.5)]
        monkeypatch.setattr(magnus, "scan_rows", lambda *a, **k: rows)
        code, out = run(capsys, "scan", "--p", "5", "--format", fmt)
        assert code == 1 and out
        if fmt == "json":
            assert json.loads(out)["lipschitz_logodds_ok"] is False


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

    @pytest.mark.parametrize("argv,message", [
        (("--scan-c2", "--lambda", "0.3"), "--lambda needs --l1 or --gain"),
        (("--critical-lambda", "--x1", "1.2"), "--x1 needs --l1 or --gain"),
        (("--scan-c2", "--x2", "1.2"), "--x2 needs --l1 or --gain"),
        (("--critical-lambda", "--q", "2"), "--q needs --gain or --scan-c2"),
        (("--l1", "--q", "2"), "--q needs --gain or --scan-c2")],
        ids=["lambda-scan-c2", "x1-critical", "x2-scan-c2", "q-critical", "q-l1"])
    def test_option_no_mode_reads_is_usage_error(self, capsys, argv, message):
        # each was parsed and then silently ignored
        code = main(["bch", *argv])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and cap.err == f"error: bch {message}\n"


class TestVerify:
    def test_convexity_subcommand(self, capsys):
        code, out = run(capsys, "verify-convexity", "--p", "2",
                        "--n", "4", "--trials", "50", "--seed", "1")
        data = json.loads(out)
        assert code == 0 and data["umd"]["passed"] and data["umq"]["passed"]

    @pytest.mark.parametrize("argv,message", [
        (("--seed", "-1"), "seed must lie in [0, 2**108), got -1"),
        (("--trials", str(2 ** 20 + 1)), "trials must be at most 2**20")])
    def test_convexity_key_range_is_usage_error(self, capsys, argv, message):
        code = main(["verify-convexity", *argv])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and message in cap.err

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


# a cheap valid call of each subcommand, and options it no longer accepts:
# each was parsed and then ignored (or, for --format, offered a format the
# subcommand never writes); `bch --scan` was an alias of --scan-c2, and
# `radius --p` must not be taken as a prefix of --p-minus-1
BASE = {
    "theta": ["theta", "--k", "2"],
    "norm": ["norm", "{poly}"],
    "kernel": ["kernel", "--p-minus-1", "2"],
    "radius": ["radius", "--p-minus-1", "0", "--n", "16"],
    "bound": ["bound", "--method", "closed-form", "--lambda", "1/3"],
    "scan": ["scan", "--p", "2", "--grid", "3"],
    "bch": ["bch", "--critical-lambda"],
    "verify-convexity": ["verify-convexity", "--trials", "5"],
}
REMOVED = [
    ("theta", "--p", "5"), ("theta", "--n", "8"), ("theta", "--tol", "1e-6"),
    ("theta", "--seed", "1"), ("theta", "--format", "csv"),
    ("norm", "--lambda", "1/3"), ("norm", "--p", "5"), ("norm", "--n", "4"),
    ("norm", "--tol", "1e-6"), ("norm", "--format", "json"),
    ("norm", "--seed", "1"),
    ("kernel", "--p", "5"), ("kernel", "--n", "8"), ("kernel", "--tol", "1e-6"),
    ("kernel", "--seed", "1"), ("kernel", "--format", "text"),
    ("radius", "--p", "5"), ("radius", "--format", "json"),
    ("radius", "--seed", "1"),
    ("bound", "--n", "8"), ("bound", "--format", "json"),
    ("bound", "--seed", "1"),
    ("scan", "--lambda", "1/3"), ("scan", "--n", "8"), ("scan", "--seed", "1"),
    ("scan", "--format", "text"),
    ("bch", "--p", "5"), ("bch", "--n", "8"), ("bch", "--tol", "1e-6"),
    ("bch", "--format", "json"), ("bch", "--seed", "1"), ("bch", "--scan"),
    ("verify-convexity", "--format", "json"),
]


class TestOptionSurface:
    @pytest.mark.parametrize("case", REMOVED, ids=" ".join)
    def test_unread_option_is_usage_error(self, case, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(eval_lambda(mu_lambda(2), Fraction(1, 2)).to_json())
        argv = [a.replace("{poly}", str(poly)) for a in BASE[case[0]]]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *case[1:]])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd", BASE)
    def test_base_calls_succeed(self, cmd, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(eval_lambda(mu_lambda(2), Fraction(1, 2)).to_json())
        assert main([a.replace("{poly}", str(poly)) for a in BASE[cmd]]) == 0

    def test_unconverged_radius_exits_one(self, capsys):
        code, out = run(capsys, "radius", "--p-minus-1", "4", "--lambda", "1/3",
                        "--n", "16", "--tol", "1e-300")
        data = json.loads(out)
        assert code == 1 and not data["converged"]
