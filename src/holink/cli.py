"""Command-line front end.

Subcommands: ``lambda`` (modular lambda at a point), ``massey`` (both
evaluation routes plus the nonvanishing verdict), ``hodge`` (the exact
diamond and a JSON matrix), ``link`` (pairing of two divisors given as JSON
files), ``scan`` (CSV grid over tau), and ``verify`` (the seeded invariant
suites).

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 mathematical domain error, 4 I/O error (without a message where the
reader of stdout has closed the pipe).  The environment variable HOLINK_TOL
supplies a default tolerance; an explicit --tol flag wins over it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import HolinkError
from .hodge import hodge_diamond_x
from .linking import Curve, Divisor, INFINITY, SPHERE, linking
from .massey import DEFAULT_NONVANISHING_TOL, _closed_form_from_lambda, massey_report
from .special_functions import _as_int, _grid_lambdas, as_tau, modular_lambda
from .verify import format_summary, run_all

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# "a+bi", "a-bi" and "bi": a real part is present only where a sign follows it.
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>[+-]?{_NUM})(?=[+-]))?(?P<imsign>[+-]?)(?P<im>{_NUM})?i$")
_REAL_RE = re.compile(rf"^[+-]?{_NUM}$")


def parse_complex(text: str) -> complex:
    """Parse "a+bi", "a-bi", "bi", or "a"; whitespace is ignored.

    The shorthand "i", "+i", "-i" and "a+i"/"a-i" mean a unit imaginary
    part.  Raises ValueError on anything else.
    """
    s = "".join(str(text).split())
    m = _COMPLEX_RE.match(s)
    if m:
        im = float(m.group("im")) if m.group("im") is not None else 1.0
        if m.group("imsign") == "-":
            im = -im
        return complex(float(m.group("re") or 0.0), im)
    if _REAL_RE.match(s):
        return complex(float(s), 0.0)
    raise ValueError(f"cannot parse {text!r} as a complex number "
                     f"(expected forms: a+bi, a-bi, bi, a)")


def format_complex(value: complex) -> str:
    """Render a complex as "a+bi" with 15 significant digits."""
    value = complex(value)
    re_s = f"{value.real:.15g}"
    sign = "+" if value.imag >= 0 else "-"
    im_s = f"{abs(value.imag):.15g}"
    return f"{re_s}{sign}{im_s}i"


def divisor_from_json(obj) -> Divisor:
    """Build a Divisor from the JSON schema
    {"curve": "sphere" | {"elliptic": "a+bi"}, "terms": [[re, im, mult], ...]}
    where a term may also be ["inf", mult] for the point at infinity.
    """
    if not isinstance(obj, dict):
        raise ValueError("divisor JSON must be an object")
    extra = set(obj) - {"curve", "terms"}
    if extra:
        raise ValueError(f"unknown divisor keys: {sorted(extra)}")
    if "curve" not in obj or "terms" not in obj:
        raise ValueError('divisor JSON needs "curve" and "terms"')
    curve_spec = obj["curve"]
    if curve_spec == "sphere":
        curve = SPHERE
    elif isinstance(curve_spec, dict) and set(curve_spec) == {"elliptic"}:
        curve = Curve.elliptic(parse_complex(curve_spec["elliptic"]))
    else:
        raise ValueError('curve must be "sphere" or {"elliptic": "a+bi"}')
    if not isinstance(obj["terms"], list):
        raise ValueError("terms must be a list")
    terms = []
    for entry in obj["terms"]:
        if not isinstance(entry, list):
            raise ValueError(f"term must be a list, got {entry!r}")
        if len(entry) == 2 and entry[0] == "inf":
            point, mult = INFINITY, entry[1]
        elif len(entry) == 3 and all(isinstance(x, (int, float))
                                     and not isinstance(x, bool)
                                     for x in entry[:2]):
            try:
                point, mult = complex(entry[0], entry[1]), entry[2]
            except OverflowError:  # an int beyond the double range
                raise ValueError(f"term coordinates must fit in a double, "
                                 f"got {entry!r}") from None
        else:
            raise ValueError(f"term must be [re, im, mult] or [\"inf\", mult], "
                             f"got {entry!r}")
        terms.append((point, mult))
    return Divisor(curve, terms)


def _load_divisor_file(path: str) -> Divisor:
    import json  # off the import path: only ``link`` and ``hodge`` use it

    with open(path, "r", encoding="utf-8") as fh:
        return divisor_from_json(json.load(fh))


def _tolerance(args, default: float | None):
    """--tol flag, else HOLINK_TOL, else the given default; the callee checks it."""
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("HOLINK_TOL")
    if env is None:
        return default
    try:
        return float(env)
    except ValueError:
        raise ValueError(f"HOLINK_TOL is not a number: {env!r}")


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]


def scan_axes(re_min: float, re_max: float, im_min: float, im_max: float,
              steps_re: int, steps_im: int) -> tuple[list[float], list[float]]:
    """(re_axis, im_axis) of an inclusive rectangular tau grid; steps of 1
    pin the axis to its minimum.

    The grid is re + i*im, row-major with re varying fastest.  Raises
    ValueError, or the tau rule's DomainError for the first failing point
    in that order, unless each of its points passes the tau rule.
    """
    for steps, name in ((steps_re, "steps-re"), (steps_im, "steps-im")):
        if _as_int(name, steps) < 1:
            raise ValueError(f"{name} must be a positive integer, got {steps!r}")
    if not all(math.isfinite(v) for v in (re_min, re_max, im_min, im_max)):
        raise ValueError("grid bounds must be finite")
    if re_min > re_max or (re_min == re_max and steps_re != 1):
        raise ValueError("need re-min < re-max (equality only with steps-re 1)")
    # The lowest row holds the smallest Im tau of every grid point.
    as_tau(complex(re_min, im_min))
    if im_min > im_max or (im_min == im_max and steps_im != 1):
        raise ValueError("need im-min < im-max (equality only with steps-im 1)")
    re_axis = _axis(re_min, re_max, steps_re)
    im_axis = _axis(im_min, im_max, steps_im)
    # The tau rule tests Re tau and Im tau apart, so the first row, then
    # the first column, meets the first failing point in row-major order.
    for tau in ([complex(re, im_axis[0]) for re in re_axis]
                + [complex(re_axis[0], im) for im in im_axis]):
        as_tau(tau)
    return re_axis, im_axis


CSV_HEADER = "re_tau,im_tau,lambda_re,lambda_im,massey_value"
# One line per grid point.  Each axis value is formatted once per axis, as
# "%.12g,", so a point formats only its lambda and Massey value; a row of
# the grid is still formatted in one call.  %-formatting renders a float as
# the f-string spec ".12g" does, so the output is unchanged.
_CSV_ROW = "%s%s%.12g,%.12g,%.12g\n"


def cmd_lambda(args) -> int:
    tau = parse_complex(args.tau)
    print(format_complex(modular_lambda(tau)))
    return 0


def cmd_massey(args) -> int:
    tau = parse_complex(args.tau)
    tol = _tolerance(args, DEFAULT_NONVANISHING_TOL)
    report = massey_report(tau, tolerance=tol)
    print(f"tau                = {format_complex(report.tau)}")
    print(f"lambda(tau)        = {format_complex(report.lambda_at_tau)}")
    print(f"value_closed_form  = {report.value_closed_form:.15g}")
    print(f"value_via_linking  = {report.value_via_linking:.15g}")
    print(f"residual           = {report.residual:.3e}")
    print(f"nonvanishing       = {'true' if report.nonvanishing else 'false'}")
    print(f"tolerance          = {tol:g}")
    return 0


def cmd_hodge(args) -> int:
    import json  # off the import path: only ``link`` and ``hodge`` use it

    dims = hodge_diamond_x()
    print(dims.diamond())
    betti = [dims.betti(k) for k in range(7)]
    print(f"betti numbers      : {betti}")
    print(f"euler characteristic: {dims.euler_characteristic()}")
    payload = {
        "hodge": dims.as_matrix(),
        "betti": betti,
        "euler_characteristic": dims.euler_characteristic(),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_link(args) -> int:
    z = _load_divisor_file(args.z)
    w = _load_divisor_file(args.w)
    res = linking(z, w)
    print(f"value    = {res.value:.15g}")
    print(f"method   = {res.method.value}")
    return 0


def cmd_scan(args) -> int:
    re_axis, im_axis = scan_axes(args.re_min, args.re_max, args.im_min,
                                 args.im_max, args.steps_re, args.steps_im)
    row_format = _CSV_ROW * len(re_axis)
    re_cells = ["%.12g," % re for re in re_axis]
    rows = zip(im_axis, _grid_lambdas(re_axis, im_axis))
    # A sibling of scan's own: mode "x" never opens an existing file, and a
    # clash of the 48 random bits would fail with exit 4, not overwrite.
    tmp_path = f"{args.out}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp_path, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write(CSV_HEADER + "\n")
                for im, lams in rows:  # each row is written as it is formatted
                    im_cell = "%.12g," % im
                    cells = []
                    for re_cell, lam in zip(re_cells, lams):
                        cells += (re_cell, im_cell, lam.real, lam.imag,
                                  _closed_form_from_lambda(lam))
                    fh.write(row_format % tuple(cells))
            os.replace(tmp_path, args.out)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        # A name clash says "File exists", which is not true of --out.
        if exc.filename != tmp_path or isinstance(exc, FileExistsError):
            raise
        # The message names the path given, not scan's temporary file.
        raise OSError(exc.errno, exc.strerror, args.out) from None
    return 0


def cmd_verify(args) -> int:
    tol = _tolerance(args, None)
    results = run_all(seed=args.seed, tol=tol)
    sys.stdout.write(format_summary(results, args.seed, tol))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holink",
        description="Holomorphic linking numbers, the modular lambda "
                    "function, Massey product values on the quotient "
                    "Calabi-Yau family, and its Hodge diamond.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="evaluate the modular lambda function")
    p.add_argument("tau", help='tau in the upper half-plane, e.g. "0.3+1.7i"')
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("massey", help="Massey product value via both routes")
    p.add_argument("tau", help='tau in the upper half-plane, e.g. "0+1i"')
    p.add_argument("--tol", type=float, default=None,
                   help="nonvanishing threshold (default 1e-6, or HOLINK_TOL)")
    p.set_defaults(func=cmd_massey)

    p = sub.add_parser("hodge", help="print the exact Hodge diamond")
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("link", help="pair two divisors given as JSON files")
    p.add_argument("z", help="path to the first divisor JSON file")
    p.add_argument("w", help="path to the second divisor JSON file")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("scan", help="write a CSV grid of lambda and Massey values")
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--steps-re", type=int, required=True)
    p.add_argument("--steps-im", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=None,
                   help="override every suite tolerance (default: per-suite)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 (--help) or 2
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader has gone, so there is no one to tell: exit 4 quietly,
        # and point stdout at devnull so the flush at shutdown raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    except HolinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
