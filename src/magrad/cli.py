"""Command-line interface.

Subcommands: theta, norm, kernel, radius, bound, scan, bch, verify-convexity,
verify; each accepts only the options its handler reads, spelled in full.
Rationals cross the boundary as "num/den" strings, floats with 12 significant
digits; identical configurations produce byte-identical output.  Exit codes:
0 success, 1 verification failure or an unconverged radius, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial

from . import bch as bch_mod
from . import convexity, kernels, magnus, specrad, verify
from .freealg import DEFAULT_MAX_DEGREE, NCPoly
from .umqnorm import (EXHAUSTIVE_CAP, PLAIN, ConvexityClass, ExhaustiveCapError,
                      fa_norm_exact, theta_ab, theta_k)

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


def _parse_tol(s: str) -> float:
    try:
        tol = float(s)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tol must be a finite number > 0: {s!r}")
    return tol


def _parse_class(s: str) -> ConvexityClass:
    if s in ("plain", "inf", "ell1"):
        return PLAIN
    try:
        return ConvexityClass.from_q(_parse_fraction(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {s!r}") from exc


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
    _write(text, args)


def _write(text: str, args):
    """Write the output text to --out, or to stdout without one."""
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
    if args.k is not None and (args.a is not None or args.b is not None):
        print("error: theta --k takes no --a or --b", file=sys.stderr)
        return 2
    if args.k is not None:
        val = theta_k(args.k, lam, cls)
    else:
        if args.a is None or args.b is None:
            print("theta needs --k or both --a and --b", file=sys.stderr)
            return 2
        val = theta_ab(args.a, args.b, lam, cls)
    if args.format == "text":
        _write(f"{val}\n", args)
        return 0
    _emit({"theta": _norm_payload(val), "lam": str(lam),
           "q": cls.describe(), "k": args.k, "a": args.a, "b": args.b}, args)
    return 0


def cmd_norm(args) -> int:
    with open(args.poly) as fh:
        poly = NCPoly.from_json(fh.read())
    if not all(isinstance(c, Fraction) for c in poly.terms.values()):
        raise ValueError("norm needs rational coefficients: a multi-entry "
                         "coeff list is a polynomial in lambda")
    res = fa_norm_exact(poly, args.q)
    if args.cert_out:
        certs = [c.to_jsonable() for c in res.certificates]
        with open(args.cert_out, "w") as fh:
            json.dump({"schema": SCHEMA, "certificates": certs}, fh,
                      sort_keys=True)
    _emit({"norm": _norm_payload(res), "q": args.q.describe(),
           "degree": poly.degree}, args)
    return 0


def cmd_kernel(args) -> int:
    rk = kernels.reduced_kernel(args.p_minus_1, args.lam, args.q)
    rows = kernels.kernel_csv_rows(rk, samples=args.samples)
    _emit({"p_minus_1": rk.p_minus_1, "lam": str(args.lam),
           "q": args.q.describe(), "exact": rk.exact,
           "coeffs": [str(c) for c in rk.coeffs]},
          args, csv_rows=rows, csv_header=("t", "ktilde"))
    return 0


def cmd_radius(args) -> int:
    two = kernels.reduced_kernel(args.p_minus_1, args.lam, args.q).two_sided()
    grid = specrad.discretize(two, args.n)
    res = specrad.power_iteration_hopf(grid, tol=args.tol)
    if args.eigvec_out:
        with open(args.eigvec_out, "w") as fh:
            fh.write("t,v\n")
            for t, v in zip(grid.nodes, res.eigvec):
                fh.write(f"{t:.12g},{v:.12g}\n")
    _emit({**res.to_jsonable(), "lam": str(args.lam),
           "q": args.q.describe(), "p_minus_1": args.p_minus_1}, args)
    return 0 if res.converged else 1


def _closed_form(args):
    return magnus.BoundReport(
        method="closed-form", q="plain", lam=args.lam,
        lower=magnus.c_plain(args.lam), upper=magnus.c_eps(args.lam),
        details={"note": "lower=plain closed form, upper=entire-resolvent form"})


def _ode(args):
    corr = [(4, args.gap4)] if args.gap4 else []
    return magnus.BoundReport(
        method="ode", q=args.q.describe(), lam=args.lam,
        lower=magnus.ode_blowup(args.lam, corr),
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


#: `bound` options that only some methods read: dest -> (option, the methods
#: that read it, its default).  Each parses to None when not given, so that
#: one given to any other method is a usage error instead of being ignored
METHOD_OPTIONS = {
    "lam": ("--lambda", tuple(m for m in BOUND_METHODS if m != "log"), Fraction(1, 2)),
    "p": ("--p", ("pth-root", "log", "crude-ratio", "sicompar", "ricompar"), 5),
    "tol": ("--tol", ("pth-root", "log"), 1e-8),
    "q": ("--q", tuple(m for m in BOUND_METHODS if m != "closed-form"), PLAIN),
    "grid": ("--grid", ("log",), 101),
    "variant": ("--variant", ("trivial-upper",), "cayley"),
    "gap4": ("--gap4", ("ode",), None),
}


def _unread_option(args, options, reads):
    """Give each option of `options` (dest -> (option, its readers, default))
    that parsed to None its default, and return the dest of the first one
    given whose readers `reads` rejects, or None."""
    for dest, (_, readers, default) in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not reads(readers):
            return dest
    return None


def cmd_bound(args) -> int:
    dest = _unread_option(args, METHOD_OPTIONS, lambda ms: args.method in ms)
    if dest:
        print(f"error: --method {args.method} takes no {METHOD_OPTIONS[dest][0]}",
              file=sys.stderr)
        return 2
    _emit(BOUND_METHODS[args.method](args).to_jsonable(), args)
    return 0


def cmd_scan(args) -> int:
    rows = magnus.scan_rows(args.p, args.q, grid=args.grid,
                            radius_tol=args.tol)
    ok = magnus.lipschitz_logodds_check([(l, c) for l, _, c in rows])
    _emit({"p": args.p, "q": args.q.describe(), "lipschitz_logodds_ok": ok,
           "rows": [list(r) for r in rows]},
          args, csv_rows=rows, csv_header=("lam", "w", "c_bound"))
    return 0 if ok else 1


#: `bch` options that only some modes read: dest -> (option, the modes that
#: read it, its default), as METHOD_OPTIONS is for `bound`
BCH_OPTIONS = {
    "lam": ("--lambda", ("--l1", "--gain"), Fraction(1, 2)),
    "x1": ("--x1", ("--l1", "--gain"), 1.0),
    "x2": ("--x2", ("--l1", "--gain"), 1.0),
    "q": ("--q", ("--gain", "--scan-c2"), PLAIN),
}


def cmd_bch(args) -> int:
    dest = _unread_option(args, BCH_OPTIONS, lambda modes: any(
        getattr(args, m[2:].replace("-", "_")) for m in modes))
    if dest:
        option, modes, _ = BCH_OPTIONS[dest]
        print(f"error: bch {option} needs {' or '.join(modes)}", file=sys.stderr)
        return 2
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
        lam, x1, x2 = args.lam, args.x1, args.x2
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


def _add_common(sp, *, lam=True, p=False, n=False, tol=None, formats=()):
    """--q and --out, and those of the shared options the handler reads."""
    sp.add_argument("--q", type=_parse_class, default=PLAIN,
                    help="convexity exponent q (rational), or 'plain'")
    if lam:
        sp.add_argument("--lambda", dest="lam", type=_parse_lambda,
                        default=Fraction(1, 2), help="resolvent parameter in [0,1]")
    if p:
        sp.add_argument("--p", type=int, default=5, help="root order")
    if n:
        sp.add_argument("--n", type=int, default=2048, help="grid size")
    if tol is not None:
        sp.add_argument("--tol", type=_parse_tol, default=tol, help="tolerance")
    if formats:
        sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magrad",
        description="Certified convergence-radius bounds for Magnus/BCH "
                    "expansions under uniform mean convexity.")
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: `radius --p` must not be read as --p-minus-1
    add = partial(sub.add_parser, allow_abbrev=False)

    sp = add("theta", help="universal norm of a permutation sum")
    _add_common(sp, formats=("text", "json"))
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.set_defaults(fn=cmd_theta)

    sp = add("norm", help="universal norm of an NCPoly JSON file")
    _add_common(sp, lam=False)
    sp.add_argument("poly", help="path to the polynomial JSON")
    sp.add_argument("--cert-out", default=None,
                    help="write LP certificates (JSON) here")
    sp.set_defaults(fn=cmd_norm)

    sp = add("kernel", help="reduced kernel polynomial / samples")
    _add_common(sp, formats=("json", "csv"))
    sp.add_argument("--p-minus-1", type=int, default=4)
    sp.add_argument("--samples", type=int, default=101)
    sp.set_defaults(fn=cmd_kernel)

    sp = add("radius", help="kernel spectral radius on one grid")
    _add_common(sp, n=True, tol=1e-8)
    sp.add_argument("--p-minus-1", type=int, default=4)
    sp.add_argument("--eigvec-out", default=None)
    sp.set_defaults(fn=cmd_radius)

    sp = add("bound", help="radius bounds by method")
    _add_common(sp, p=True, tol=1e-8)
    sp.add_argument("--method", required=True, choices=tuple(BOUND_METHODS))
    sp.add_argument("--grid", type=int, default=None,
                    help="lam grid size for --method log (default 101)")
    sp.add_argument("--variant", choices=("cayley", "magnus"), default=None,
                    help="--method trivial-upper form (default cayley)")
    sp.add_argument("--gap4", type=float, default=None,
                    help="degree-4 correction gap for --method ode")
    # --q, --lambda, --p and --tol parse to None too (see METHOD_OPTIONS)
    sp.set_defaults(fn=cmd_bound, q=None, lam=None, p=None, tol=None)

    sp = add("scan", help="lam scan CSV (lam, w, C bound)")
    _add_common(sp, lam=False, p=True, tol=1e-7, formats=("csv", "json"))
    sp.add_argument("--grid", type=int, default=41)
    sp.set_defaults(fn=cmd_scan)

    sp = add("bch", help="two-variable resolvent-product bounds")
    _add_common(sp)
    sp.add_argument("--x1", type=float, default=None)
    sp.add_argument("--x2", type=float, default=None)
    sp.add_argument("--l1", action="store_true")
    sp.add_argument("--gain", action="store_true")
    sp.add_argument("--scan-c2", action="store_true")
    sp.add_argument("--critical-lambda", action="store_true")
    # --q, --lambda, --x1 and --x2 parse to None too (see BCH_OPTIONS)
    sp.set_defaults(fn=cmd_bch, q=None, lam=None, x1=None, x2=None)

    sp = add("verify-convexity", help="sampled operator-inequality checks")
    sp.add_argument("--p", type=_parse_fraction, default=Fraction(2),
                    help="space exponent p in (1, inf)")
    sp.add_argument("--n", type=int, default=8, help="space dimension")
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify_convexity)

    sp = add("verify", help="golden-constant verification suite")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated substrings selecting criteria")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except specrad.UnconvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExhaustiveCapError:
        # `norm` solves the LP for every class; plain Theta needs none
        limit = (f"the exact LP reaches degree {EXHAUSTIVE_CAP}"
                 if args.command == "norm" else
                 f"LP-backed classes (q >= 1) reach degree {EXHAUSTIVE_CAP};"
                 f" --q plain reaches degree {DEFAULT_MAX_DEGREE}")
        print(f"error: {limit}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
