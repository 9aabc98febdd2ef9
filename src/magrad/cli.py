"""Command-line interface.

Subcommands: theta, norm, kernel, radius, bound, scan, bch, verify-convexity,
verify.  Rationals cross the boundary as "num/den" strings, floats with 12
significant digits; identical configurations produce byte-identical output.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bch as bch_mod
from . import convexity, kernels, magnus, specrad, verify
from .freealg import NCPoly
from .umqnorm import PLAIN, ConvexityClass, fa_norm_exact, theta_ab, theta_k

SCHEMA = "magrad/1"


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _parse_lambda(s: str) -> Fraction:
    lam = _parse_fraction(s)
    if not 0 <= lam <= 1:
        raise argparse.ArgumentTypeError(f"lambda must lie in [0, 1]: {s!r}")
    return lam


def _parse_class(s: str) -> ConvexityClass:
    if s in ("plain", "inf", "ell1"):
        return PLAIN
    return ConvexityClass.from_q(_parse_fraction(s))


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(payload, args, csv_rows=None, csv_header=None):
    """JSON (default) or CSV to --out / stdout."""
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)] if csv_header else []
        lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                           for v in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        data = {"schema": SCHEMA, **payload}
        text = json.dumps(_round12(data), sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _norm_payload(value) -> dict:
    if value.exact:
        return {"value": str(value.lo), "exact": True}
    return {"lo": str(value.lo), "hi": str(value.hi),
            "mid": value.mid, "width": float(value.width), "exact": False}


def cmd_theta(args) -> int:
    cls = args.q
    lam = args.lam
    if args.k is not None:
        val = theta_k(args.k, lam, cls)
    else:
        if args.a is None or args.b is None:
            print("theta needs --k or both --a and --b", file=sys.stderr)
            return 2
        val = theta_ab(args.a, args.b, lam, cls)
    if args.format == "text":
        print(val if val.exact else f"[{float(val.lo)!r}, {float(val.hi)!r}]")
        return 0
    _emit({"theta": _norm_payload(val), "lam": str(lam),
           "q": cls.describe(), "k": args.k, "a": args.a, "b": args.b}, args)
    return 0


def cmd_norm(args) -> int:
    with open(args.poly) as fh:
        poly = NCPoly.from_json(fh.read())
    res = fa_norm_exact(poly, args.q)
    if args.cert_out:
        certs = [c.to_jsonable() for c in res.certificates]
        with open(args.cert_out, "w") as fh:
            json.dump({"schema": SCHEMA, "certificates": certs}, fh,
                      sort_keys=True)
    _emit({"norm": _norm_payload(res), "q": args.q.describe(),
           "degree": poly.degree}, args)
    return 0


def _build_kernel(args):
    return kernels.reduced_kernel(args.p_minus_1, args.lam, args.q)


def cmd_kernel(args) -> int:
    rk = _build_kernel(args)
    rows = kernels.kernel_csv_rows(rk, samples=args.samples)
    _emit({"p_minus_1": rk.p_minus_1, "lam": str(args.lam),
           "q": args.q.describe(), "exact": rk.exact,
           "coeffs": [str(c) if rk.exact else float(c) for c in rk.coeffs]},
          args, csv_rows=rows, csv_header=("t", "ktilde"))
    return 0


def cmd_radius(args) -> int:
    two = _build_kernel(args).two_sided()
    grid = specrad.discretize(two, args.n)
    res = specrad.power_iteration_hopf(grid, tol=args.tol)
    if args.eigvec_out:
        with open(args.eigvec_out, "w") as fh:
            fh.write("t,v\n")
            for t, v in zip(grid.nodes, res.eigvec):
                fh.write(f"{t:.12g},{v:.12g}\n")
    _emit({**res.to_jsonable(), "lam": str(args.lam),
           "q": args.q.describe(), "p_minus_1": args.p_minus_1}, args)
    return 0


def _closed_form(args):
    lam = float(args.lam)
    return magnus.BoundReport(
        method="closed-form", q="plain", lam=lam, lower=magnus.c_plain(lam),
        upper=magnus.c_eps(lam),
        details={"note": "lower=plain closed form, upper=entire-resolvent form"})


def _ode(args):
    corr = [(4, args.gap4)] if args.gap4 else []
    return magnus.BoundReport(
        method="ode", q=args.q.describe(), lam=float(args.lam),
        lower=magnus.ode_blowup(float(args.lam), corr),
        details={"corrections": corr})


#: `bound --method` name -> builder of its BoundReport from the parsed args
BOUND_METHODS = {
    "closed-form": _closed_form,
    "pth-root": lambda a: magnus.c_bound_pth_root(a.lam, a.p, a.q, tol=a.tol),
    "log": lambda a: magnus.c_log_bound(a.p, a.q, grid=a.grid, radius_tol=a.tol),
    "ode": _ode,
    "crude-ratio": lambda a: magnus.crude_ratio_bound(a.lam, a.p, a.q),
    "trivial-upper": lambda a: magnus.upper_trivial(
        a.q, a.variant, a.lam if a.variant == "magnus" else None),
    "sicompar": lambda a: magnus.sicompar_bound(a.lam, a.p, a.q),
    "ricompar": lambda a: magnus.ricompar_bound(a.lam, a.p, a.q),
}


def cmd_bound(args) -> int:
    _emit(BOUND_METHODS[args.method](args).to_jsonable(), args)
    return 0


def cmd_scan(args) -> int:
    rows = magnus.scan_rows(args.p, args.q, grid=args.grid,
                            radius_tol=args.tol)
    ok = magnus.lipschitz_logodds_check([(l, c) for l, _, c in rows])
    _emit({"p": args.p, "q": args.q.describe(), "lipschitz_logodds_ok": ok,
           "rows": [list(r) for r in rows]},
          args, csv_rows=rows, csv_header=("lam", "w", "c_bound"))
    return 0


def cmd_bch(args) -> int:
    payload = {"q": args.q.describe()}
    if args.scan_c2:
        r = bch_mod.c2_improved(args.q)
        payload.update({"c2_improved": r.value, "margin": r.margin,
                        "sup_at_value": r.sup_at_value})
    if args.critical_lambda:
        x = bch_mod.C2_REFERENCE / 2.0
        mx, arg = bch_mod.max_upsilon_l1(x, x)
        payload.update({"criticalLambda": min(arg, 1.0 - arg), "maxL1": mx})
    if args.l1 or args.gain:
        lam, x1, x2 = float(args.lam), args.x1, args.x2
        ups = bch_mod.upsilon_l1(lam, x1, x2)
        payload.update({"l1": ups.value, "conclusive": ups.conclusive})
        if args.gain:
            g = bch_mod.bch_gain_upper(lam, args.q, x1, x2)
            payload.update({"gain": g.gain, "bound": g.bound,
                            "aligned": g.aligned})
            if g.diagnostic:
                payload["diagnostic"] = g.diagnostic
    if len(payload) == 1:
        print("bch needs at least one of --l1/--gain/--scan-c2/"
              "--critical-lambda", file=sys.stderr)
        return 2
    _emit(payload, args)
    return 0


def cmd_verify_convexity(args) -> int:
    space = convexity.LpSpace(n=args.n, p=float(args.p))
    r1 = convexity.check_umd_sampled(space, args.trials, seed=args.seed)
    r2 = convexity.check_umq_sampled(space, args.trials, seed=args.seed)
    _emit({"umd": r1.to_jsonable(), "umq": r2.to_jsonable()}, args)
    return 0 if (r1.passed and r2.passed) else 1


def cmd_verify(args) -> int:
    names = args.criteria.split(",") if args.criteria else None
    results = verify.run_checks(names=names)
    if not results:
        print("no criteria matched", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _add_common(sp, *, lam="1/2", q="plain", p=5, n=2048, tol=1e-8):
    sp.add_argument("--q", type=_parse_class, default=_parse_class(q),
                    help="convexity exponent q (rational), or 'plain'")
    sp.add_argument("--lambda", dest="lam", type=_parse_lambda,
                    default=Fraction(lam), help="resolvent parameter in [0,1]")
    sp.add_argument("--p", type=int, default=p, help="root order")
    sp.add_argument("--n", type=int, default=n, help="grid size")
    sp.add_argument("--tol", type=float, default=tol, help="tolerance")
    sp.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magrad",
        description="Certified convergence-radius bounds for Magnus/BCH "
                    "expansions under uniform mean convexity.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("theta", help="universal norm of a permutation sum")
    _add_common(sp)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.set_defaults(fn=cmd_theta, format="text")

    sp = sub.add_parser("norm", help="universal norm of an NCPoly JSON file")
    _add_common(sp)
    sp.add_argument("poly", help="path to the polynomial JSON")
    sp.add_argument("--cert-out", default=None,
                    help="write LP certificates (JSON) here")
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("kernel", help="reduced kernel polynomial / samples")
    _add_common(sp)
    sp.add_argument("--p-minus-1", type=int, default=4)
    sp.add_argument("--samples", type=int, default=101)
    sp.set_defaults(fn=cmd_kernel)

    sp = sub.add_parser("radius", help="kernel spectral radius on one grid")
    _add_common(sp)
    sp.add_argument("--p-minus-1", type=int, default=4)
    sp.add_argument("--eigvec-out", default=None)
    sp.set_defaults(fn=cmd_radius)

    sp = sub.add_parser("bound", help="radius bounds by method")
    _add_common(sp)
    sp.add_argument("--method", required=True, choices=tuple(BOUND_METHODS))
    sp.add_argument("--grid", type=int, default=101)
    sp.add_argument("--variant", choices=("cayley", "magnus"),
                    default="cayley")
    sp.add_argument("--gap4", type=float, default=None,
                    help="degree-4 correction gap for --method ode")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("scan", help="lam scan CSV (lam, w, C bound)")
    _add_common(sp, tol=1e-7)
    sp.add_argument("--grid", type=int, default=41)
    sp.set_defaults(fn=cmd_scan, format="csv")

    sp = sub.add_parser("bch", help="two-variable resolvent-product bounds")
    _add_common(sp)
    sp.add_argument("--x1", type=float, default=1.0)
    sp.add_argument("--x2", type=float, default=1.0)
    sp.add_argument("--l1", action="store_true")
    sp.add_argument("--gain", action="store_true")
    sp.add_argument("--scan-c2", "--scan", dest="scan_c2", action="store_true")
    sp.add_argument("--critical-lambda", action="store_true")
    sp.set_defaults(fn=cmd_bch)

    sp = sub.add_parser("verify-convexity",
                        help="sampled operator-inequality checks")
    sp.add_argument("--p", type=_parse_fraction, default=Fraction(2),
                    help="space exponent p in (1, inf)")
    sp.add_argument("--n", type=int, default=8, help="space dimension")
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify_convexity)

    sp = sub.add_parser("verify", help="golden-constant verification suite")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated substrings selecting criteria")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
