"""Command line front end: solve, certify, scan, geometry, spectrum.

Each setting is a flag with one type and one default.  An optional flat
``key=value`` file (``--config``) replaces the defaults of the flags it
names, each value typed by its flag; flags on the command line win, and
unknown config keys are rejected.
Reports are JSON, traces and coefficients are CSV, curve plots are
standalone SVG, raster regions are PBM with a JSON sidecar.

Exit codes: 0 success, 1 failed solve, failed certificate or other
computation error, 2 bad configuration or unreadable input.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import weight
from .certify import check_starlike, check_subsolution, check_supersolution, free_boundary_check
from .errors import ConfigError, DegenerateBoundaryError, DiskmapError
from .regions import (
    build_shrinking_spiral_family,
    extended_union,
    kernel_of_shrinking,
    load_region,
    reduced_intersection,
    save_region,
    schoenfliess_test,
)
from .regularity import second_derivative, spectrum_report
from .solver import SolveOptions, boundary_weight, radial_scan, residual_sup, solve
from .spectral import DiskFunction, grid_angles
from .weight import make_builtin, radial_scale_check, superharmonic_check, tabulated_field

ALL_CHECKS = ("subsolution", "supersolution", "starlike", "free_boundary")
SVG_SIZE = 640  # curve plot width and height


def read_config(path):
    """Parse a flat key=value file; '#' starts a comment, later keys win."""
    out = {}
    try:
        fh = open(path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _split_list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def field_params(text):
    """Builtin field parameters from name=value pairs, e.g. c=1.2,a=0.3."""
    params = {}
    for item in _split_list(text):
        if "=" not in item:
            raise ConfigError(f"field_args entries look like name=value, got {item!r}")
        key, value = item.split("=", 1)
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"field_args value {item!r} is not finite")
        params[key.strip()] = value
    return params


def build_field(args):
    """Field descriptor: builtin name, constant:VALUE, or csv:PATH."""
    desc = args.field
    if not desc:
        raise ConfigError("missing field (builtin name, constant:VALUE, or csv:PATH)")
    if desc.startswith("csv:"):
        try:
            return tabulated_field(desc[4:])
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load tabulated field: {e}") from None
    try:
        if desc.startswith("constant:"):
            return weight.constant_field(desc.removeprefix("constant:"))
        return make_builtin(desc, **args.field_args)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"field {desc}: {e}") from None


def critical_points(text):
    """Prescribed critical points, e.g. -0.5,0.3+0.2j."""
    return [complex(item) for item in _split_list(text)]


def initial_map(text):
    """auto (None: start above the field's sup bound), a radius, or csv:PATH."""
    if text == "auto":
        return None
    if text.startswith("csv:"):
        return load_coefficients_csv(text[4:])
    return float(text)


def build_options(args):
    return SolveOptions(n=args.n, max_iters=args.max_iters, initial_map=args.init)


def _jsonable(obj):
    """obj as plain JSON values; a non-finite float is None, as strict JSON has no NaN."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float)):
        return None if isinstance(obj, float) and not np.isfinite(obj) else obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _output(args, name):
    """The path of one output file; --out is made on the first write, so a
    command that fails before it leaves no directory behind."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def write_json(path, payload):
    # the text comes first, so a value it cannot write leaves no file behind
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_coefficients_csv(path, f):
    with open(path, "w") as fh:
        fh.write("k,re_ck,im_ck\n")
        for k, c in enumerate(f.coeffs):
            fh.write(f"{k},{float(c.real)!r},{float(c.imag)!r}\n")


def load_coefficients_csv(path):
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read coefficient CSV {path}: {e}") from None
    if rows.shape[1] != 3:
        raise ConfigError(f"{path}: expected columns k,re_ck,im_ck")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1} is not finite: {rows[bad[0]].tolist()}")
    order = np.argsort(rows[:, 0])
    rows = rows[order]
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise ConfigError(f"{path}: coefficient indices must be 0..m-1 without gaps")
    return DiskFunction(rows[:, 1] + 1j * rows[:, 2])


def write_boundary_csv(path, f, fld, n):
    t = grid_angles(n)
    fv = f.trace(n)
    fpv = f.trace(n, 1)
    phi = boundary_weight(f, fld, n)
    with open(path, "w") as fh:
        fh.write("t,re_f,im_f,abs_fprime,phi\n")
        for k in range(n):
            fh.write(
                f"{float(t[k])!r},{float(fv[k].real)!r},{float(fv[k].imag)!r},"
                f"{float(abs(fpv[k]))!r},{float(phi[k])!r}\n"
            )


def write_curve_svg(path, points):
    """Closed image curve as a standalone SVG with a marked origin; a trace
    that is not finite has no curve to draw, and no file is written."""
    size = SVG_SIZE
    pts = np.asarray(points, dtype=complex)
    if not np.isfinite(pts).all():
        raise DegenerateBoundaryError("boundary trace is not finite; curve.svg not written")
    lo = min(pts.real.min(), pts.imag.min(), 0.0)
    hi = max(pts.real.max(), pts.imag.max(), 0.0)
    span = max(hi - lo, 1e-12)
    pad = 0.06 * span
    scale = size / (span + 2 * pad)

    def sx(x):
        return (x - lo + pad) * scale

    def sy(y):
        return size - (y - lo + pad) * scale

    steps = [f"{sx(p.real):.2f} {sy(p.imag):.2f}" for p in pts]
    d = "M " + " L ".join(steps) + " Z"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f'<path d="{d}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        f'<circle cx="{sx(0.0):.2f}" cy="{sy(0.0):.2f}" r="3" fill="crimson"/>\n'
        "</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)


def cmd_solve(args):
    fld = build_field(args)
    bad = set(args.emit) - {"csv", "svg", "json"}
    if bad:
        raise ConfigError(f"emit knows csv, svg, json; got {sorted(bad)}")
    report = solve(fld, zeros=args.zeros, options=build_options(args))
    if "json" in args.emit:
        write_json(_output(args, "solve_report.json"), report.as_dict())
    if "csv" in args.emit:
        write_coefficients_csv(_output(args, "coefficients.csv"), report.f)
        write_boundary_csv(_output(args, "boundary.csv"), report.f, fld, report.n)
    if "svg" in args.emit:
        write_curve_svg(_output(args, "curve.svg"), report.f.trace(report.n))
    status = "converged" if report.converged else f"did not converge ({report.stop_reason})"
    print(
        f"solve {fld.name}: {status} in {report.iterations} iterations, n={report.n}, "
        f"residual={report.residual:.3e}, univalent={report.univalent}"
    )
    return 0 if report.converged else 1


def cmd_certify(args):
    path = args.map
    if not path:
        raise ConfigError("certify needs map=PATH pointing at a coefficient CSV")
    f = load_coefficients_csv(path)
    fld = build_field(args)
    n = args.n
    unknown = set(args.checks) - set(ALL_CHECKS)
    if unknown:
        raise ConfigError(f"unknown checks {sorted(unknown)}; known: {list(ALL_CHECKS)}")
    if not args.checks:
        raise ConfigError(f"checks names no certificate; known: {list(ALL_CHECKS)}")

    check = {
        "subsolution": lambda: check_subsolution(f, fld, n=n),
        "supersolution": lambda: check_supersolution(f, fld, n=n),
        "starlike": lambda: check_starlike(f, n=n),
        "free_boundary": lambda: free_boundary_check(f, fld, n=n),
    }
    results = []
    payload = {"map": path, "field": fld.name}
    error = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing map's nan margins are verdicts
            for kind in args.checks:
                cert = check[kind]()
                results.append(cert)
                print(f"{'PASS' if cert.passed else 'FAIL'} {cert.kind}: worst_margin={cert.worst_margin:.6e}")
            payload["residual"] = residual_sup(f, fld, n)
    except DiskmapError as e:
        # the verdicts reached before the error stay on record
        error = e
        payload["error"] = str(e)
    payload["certificates"] = [cert.as_dict() for cert in results]
    write_json(_output(args, "certificates.json"), payload)
    if error is not None:
        raise error
    return 0 if all(cert.passed for cert in results) else 1


def cmd_scan(args):
    fld = build_field(args)
    payload = {"field": fld.name}

    if fld.radial_profile is not None:
        scan = radial_scan(fld)
        payload["radial_scan"] = scan
        print(f"radial scan: {len(scan.intervals)} solution interval(s) {scan.intervals}")
    else:
        payload["radial_scan"] = None
        print("radial scan: skipped (field is not rotation invariant)")

    scale = radial_scale_check(fld)
    payload["radial_scale_check"] = scale
    print(f"{'PASS' if scale.passed else 'FAIL'} radial scale condition: margin={scale.margin:.3e}")

    sup = superharmonic_check(fld)
    payload["superharmonic_check"] = sup
    print(f"{'PASS' if sup.passed else 'FAIL'} superharmonic condition: excess={sup.worst:.3e}")

    write_json(_output(args, "scan.json"), payload)
    return 0


def cmd_geometry(args):
    op = args.op
    if op == "demo":
        family = build_shrinking_spiral_family(size=args.size)
        kernel = kernel_of_shrinking(family)
        verdict = schoenfliess_test(kernel)
        for k, region in enumerate(family):
            save_region(region, _output(args, f"level_{k}.pbm"))
        save_region(kernel, _output(args, "kernel.pbm"))
        payload = {
            "op": "demo",
            "size": args.size,
            "areas": [r.area() for r in family],
            "simply_connected": [r.is_simply_connected() for r in family],
            "kernel_area": kernel.area(),
            "kernel_schoenfliess": verdict,
        }
        print(
            f"demo family areas {payload['areas']}, kernel area {kernel.area()}, "
            f"schoenfliess {verdict}"
        )
    elif op in ("union", "intersection"):
        paths = args.inputs
        if len(paths) < 2:
            raise ConfigError(f"geometry op={op} needs inputs=a.pbm,b.pbm,...")
        try:
            regions = [load_region(p) for p in paths]
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load region: {e}") from None
        result = (extended_union if op == "union" else reduced_intersection)(*regions)
        save_region(result, _output(args, f"{op}.pbm"))
        payload = {
            "op": op,
            "inputs": paths,
            "area": result.area(),
            "simply_connected": result.is_simply_connected(),
        }
        print(f"{op} of {len(paths)} regions: area {result.area()}")
    else:
        raise ConfigError(f"geometry op must be demo, union, or intersection, got {op!r}")
    write_json(_output(args, "geometry.json"), payload)
    return 0


def cmd_spectrum(args):
    path = args.map
    fld = build_field(args) if args.field else None
    if path:
        f, n = load_coefficients_csv(path), args.n
    else:
        if fld is None:
            raise ConfigError("spectrum needs map=PATH or a field spec to solve first")
        report = solve(fld, zeros=args.zeros, options=build_options(args))
        f, n = report.f, report.n

    spec = spectrum_report(f)
    payload = {"spectrum": spec}
    print(f"spectrum: {spec.claim}")
    if fld is not None:
        second = second_derivative(f, fld, zeros=args.zeros, n=n)
        payload["second_derivative"] = {
            "n": second.n,
            "spectral_gap": second.spectral_gap,
            "used_spectral_angle_derivative": second.used_spectral_angle_derivative,
            "sup_norm": float(np.abs(second.values).max()),
        }
        print(f"second derivative gap vs spectral: {second.spectral_gap:.3e}")
    write_json(_output(args, "spectrum.json"), payload)
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "scan": cmd_scan,
    "geometry": cmd_geometry,
    "spectrum": cmd_spectrum,
}


def build_parser():
    """The diskmap parser and its subcommand parsers by name.

    Type errors raise argparse.ArgumentError (exit_on_error=False), so that
    main reports a bad value from a flag or a config file as a configuration
    error.
    """
    parser = argparse.ArgumentParser(
        prog="diskmap",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, exit_on_error=False)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", default=".", help="output directory (default %(default)s)")
        return p

    def field_args(p):
        p.add_argument("--field", help="builtin field name, constant:VALUE, or csv:PATH")
        p.add_argument("--field-args", type=field_params, default="", help="builtin parameters, e.g. c=1.2,a=0.3")

    def solve_args(p):
        d = SolveOptions
        p.add_argument("--zeros", type=critical_points, default="", help="comma list of prescribed critical points, e.g. -0.5")
        p.add_argument("--init", type=initial_map, default="auto", help="auto, a radius like 6.5, or csv:PATH (default %(default)s)")
        p.add_argument("--n", type=int, default=d.n, help="finest boundary grid the answer is solved on, power of two (default %(default)s)")
        p.add_argument("--max-iters", type=int, default=d.max_iters, help="iteration cap (default %(default)s)")

    p = command("solve", "run the Anderson-mixed fixed point solver")
    p.add_argument("--emit", type=_split_list, default="json,csv", help="comma subset of csv,svg,json (default %(default)s)")
    field_args(p)
    solve_args(p)

    p = command("certify", "run boundary certificates on saved coefficients")
    field_args(p)
    p.add_argument("--map", help="coefficient CSV written by solve")
    p.add_argument("--checks", type=_split_list, default=",".join(ALL_CHECKS), help="comma list of certificates (default %(default)s)")
    p.add_argument("--n", type=int, default=SolveOptions.n, help="boundary grid size (default %(default)s)")

    p = command("scan", "scaled-identity scan plus field condition checks")
    field_args(p)

    p = command("geometry", "raster region algebra and the shrinking demo")
    p.add_argument("--op", default="demo", help="demo, union, or intersection (default %(default)s)")
    p.add_argument("--inputs", type=_split_list, default="", help="comma list of PBM files for union/intersection")
    p.add_argument("--size", type=int, default=512, help="demo canvas size (default %(default)s)")

    p = command("spectrum", "coefficient decay report for a solved or saved map")
    field_args(p)
    p.add_argument("--map", help="coefficient CSV to analyze instead of solving")
    solve_args(p)

    return parser, sub.choices


def parse_args(argv=None):
    """The typed settings of one command, from one parse.

    A pre-parser that knows only the commands and --config finds the file
    without running a converter; its values replace the defaults of the
    flags they name, and a flag given on the command line still wins.

    argparse reads a token that starts with "-" as a flag unless it reads as
    a plain negative number, so the token after --zeros or --init (say
    -0.5,0.3 or -inf) is joined to that flag as its value unless it is one
    of the command's own flags.
    """
    parser, commands = build_parser()
    argv = [str(a) for a in (sys.argv[1:] if argv is None else argv)]
    own = commands.get(argv[0] if argv else None, parser)._option_string_actions
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--zeros", "--init") and argv[i + 1].startswith("-") and argv[i + 1].split("=")[0] not in own:
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre_commands = pre.add_subparsers(dest="command")
    for name in commands:
        pre_commands.add_parser(name, add_help=False, exit_on_error=False).add_argument("--config")
    found = pre.parse_known_args(argv)[0]
    if getattr(found, "config", None):
        cfg = read_config(found.config)
        known = {action.dest for action in commands[found.command]._actions} - {"help", "config"}
        for key in cfg:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} for {found.command}; known: {sorted(known)}")
        commands[found.command].set_defaults(**cfg)
    args, extra = parser.parse_known_args(argv)
    if extra:
        # a usage error on every Python: from 3.12.5, parse_args raises
        # unrecognized arguments as an ArgumentError when exit_on_error is off
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
        return COMMANDS[args.command](args)
    except (ConfigError, argparse.ArgumentError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DiskmapError as e:
        # before ValueError: a non-finite weight met mid-computation is both
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # library-level input validation (grid sizes, canvas sizes, ...)
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
