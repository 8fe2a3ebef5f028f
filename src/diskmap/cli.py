"""Command line front end: solve, certify, scan, geometry, spectrum.

Configuration comes from an optional flat ``key=value`` file (``--config``)
with command line flags taking precedence; unknown config keys are rejected.
Reports are JSON, traces and coefficients are CSV, curve plots are
standalone SVG, raster regions are PBM with a JSON sidecar.

Exit codes: 0 success, 1 failed solve, failed certificate or other
computation error, 2 bad configuration or unreadable input.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import weight
from .certify import (
    TOL_CERT,
    check_starlike,
    check_subsolution,
    check_supersolution,
    free_boundary_check,
)
from .errors import ConfigError, DiskmapError
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
from .spectral import DiskFunction, derivative, grid_angles
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


def merge_config(args):
    """Config file first, then explicit command line values on top.

    The known keys of a subcommand are the destinations of its flags.
    """
    cfg = read_config(args.config) if args.config else {}
    known = set(vars(args)) - {"command", "config"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for {args.command}; known: {sorted(known)}")
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _split_list(text):
    return [item.strip() for item in str(text).split(",") if item.strip()]


def _as_float(cfg, key, default):
    try:
        return float(cfg.get(key, default))
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _as_int(cfg, key, default):
    try:
        return int(cfg.get(key, default))
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from None


def build_field(cfg):
    """Field descriptor: builtin name, constant:VALUE, or csv:PATH."""
    desc = cfg.get("field")
    if not desc:
        raise ConfigError("missing field (builtin name, constant:VALUE, or csv:PATH)")
    if desc.startswith("csv:"):
        try:
            return tabulated_field(desc[4:])
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load tabulated field: {e}") from None
    if desc.startswith("constant:"):
        return weight.constant_field(_as_float({"c": desc.split(":", 1)[1]}, "c", None))
    params = {}
    for item in _split_list(cfg.get("field_args", "")):
        if "=" not in item:
            raise ConfigError(f"field_args entries look like name=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _as_float({key: value}, key.strip(), None)
    try:
        return make_builtin(desc, **params)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


def parse_zeros(text):
    out = []
    for item in _split_list(text):
        try:
            out.append(complex(item))
        except ValueError:
            raise ConfigError(f"cannot parse zero {item!r} (use forms like -0.5 or 0.3+0.2j)") from None
    return out


def build_options(cfg):
    init = cfg.get("init", "auto")
    if init == "auto":
        initial = None
    elif isinstance(init, str) and init.startswith("csv:"):
        initial = load_coefficients_csv(init[4:])
    else:
        initial = _as_float({"init": init}, "init", None)
    return SolveOptions(
        n=_as_int(cfg, "n", SolveOptions.n),
        theta=_as_float(cfg, "theta", SolveOptions.theta),
        max_iters=_as_int(cfg, "max_iters", SolveOptions.max_iters),
        tol_update=_as_float(cfg, "tol", SolveOptions.tol_update),
        tol_residual=_as_float(cfg, "tol_residual", SolveOptions.tol_residual),
        initial_map=initial,
    )


def output_plan(cfg, default_emit="json,csv"):
    out_dir = cfg.get("out", ".")
    emit = set(_split_list(cfg.get("emit", default_emit)))
    bad = emit - {"csv", "svg", "json"}
    if bad:
        raise ConfigError(f"emit knows csv, svg, json; got {sorted(bad)}")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, emit


def _plain(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


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
    fpv = derivative(f).trace(n)
    phi = boundary_weight(f, fld, n)
    with open(path, "w") as fh:
        fh.write("t,re_f,im_f,abs_fprime,phi\n")
        for k in range(n):
            fh.write(
                f"{float(t[k])!r},{float(fv[k].real)!r},{float(fv[k].imag)!r},"
                f"{float(abs(fpv[k]))!r},{float(phi[k])!r}\n"
            )


def write_curve_svg(path, points):
    """Closed image curve as a standalone SVG with a marked origin."""
    size = SVG_SIZE
    pts = np.asarray(points, dtype=complex)
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


def cmd_solve(cfg):
    fld = build_field(cfg)
    zeros = parse_zeros(cfg.get("zeros", ""))
    options = build_options(cfg)
    out_dir, emit = output_plan(cfg)
    report = solve(fld, zeros=zeros, options=options)
    if "json" in emit:
        write_json(os.path.join(out_dir, "solve_report.json"), report.as_dict())
    if "csv" in emit:
        write_coefficients_csv(os.path.join(out_dir, "coefficients.csv"), report.f)
        write_boundary_csv(os.path.join(out_dir, "boundary.csv"), report.f, fld, report.n)
    if "svg" in emit:
        write_curve_svg(os.path.join(out_dir, "curve.svg"), report.f.trace(report.n))
    status = "converged" if report.converged else "did not converge"
    print(
        f"solve {fld.name}: {status} in {report.iterations} iterations, n={report.n}, "
        f"residual={report.residual:.3e}, univalent={report.univalent}"
    )
    return 0 if report.converged else 1


def cmd_certify(cfg):
    path = cfg.get("map")
    if not path:
        raise ConfigError("certify needs map=PATH pointing at a coefficient CSV")
    f = load_coefficients_csv(path)
    fld = build_field(cfg)
    n = _as_int(cfg, "n", 512)
    tol = _as_float(cfg, "tol", TOL_CERT)
    checks = _split_list(cfg.get("checks", "subsolution,supersolution,starlike,free_boundary"))
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ConfigError(f"unknown checks {sorted(unknown)}; known: {list(ALL_CHECKS)}")
    if not checks:
        raise ConfigError(f"checks names no certificate; known: {list(ALL_CHECKS)}")
    out_dir, emit = output_plan(cfg, default_emit="json")

    check = {
        "subsolution": lambda: check_subsolution(f, fld, n=n, tol=tol),
        "supersolution": lambda: check_supersolution(f, fld, n=n, tol=tol),
        "starlike": lambda: check_starlike(f, n=n, tol=tol),
        "free_boundary": lambda: free_boundary_check(f, fld, n=n, tol=tol),
    }
    results = []
    payload = {"map": path, "field": fld.name}
    error = None
    try:
        for kind in checks:
            cert = check[kind]()
            results.append(cert)
            print(f"{'PASS' if cert.passed else 'FAIL'} {cert.kind}: worst_margin={cert.worst_margin:.6e}")
        payload["residual"] = residual_sup(f, fld, n)
    except DiskmapError as e:
        # the verdicts reached before the error stay on record
        error = e
        payload["error"] = str(e)
    payload["certificates"] = [cert.as_dict() for cert in results]
    if "json" in emit:
        write_json(os.path.join(out_dir, "certificates.json"), payload)
    if error is not None:
        raise error
    return 0 if all(cert.passed for cert in results) else 1


def cmd_scan(cfg):
    fld = build_field(cfg)
    out_dir, emit = output_plan(cfg, default_emit="json")
    payload = {"field": fld.name}

    if fld.radial_profile is not None:
        r_min = cfg.get("r_min")
        r_max = cfg.get("r_max")
        scan = radial_scan(
            fld,
            r_min=None if r_min is None else _as_float(cfg, "r_min", None),
            r_max=None if r_max is None else _as_float(cfg, "r_max", None),
            steps=_as_int(cfg, "steps", 10000),
            tol=None if "scan_tol" not in cfg else _as_float(cfg, "scan_tol", None),
        )
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

    if "json" in emit:
        write_json(os.path.join(out_dir, "scan.json"), payload)
    return 0


def cmd_geometry(cfg):
    op = cfg.get("op", "demo")
    out_dir, emit = output_plan(cfg, default_emit="json")
    if op == "demo":
        size = _as_int(cfg, "size", 512)
        family = build_shrinking_spiral_family(size=size)
        kernel = kernel_of_shrinking(family)
        verdict = schoenfliess_test(kernel)
        for k, region in enumerate(family):
            save_region(region, os.path.join(out_dir, f"level_{k}.pbm"))
        save_region(kernel, os.path.join(out_dir, "kernel.pbm"))
        payload = {
            "op": "demo",
            "size": size,
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
        paths = _split_list(cfg.get("inputs", ""))
        if len(paths) < 2:
            raise ConfigError(f"geometry op={op} needs inputs=a.pbm,b.pbm,...")
        try:
            regions = [load_region(p) for p in paths]
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load region: {e}") from None
        result = (extended_union if op == "union" else reduced_intersection)(*regions)
        save_region(result, os.path.join(out_dir, f"{op}.pbm"))
        payload = {
            "op": op,
            "inputs": paths,
            "area": result.area(),
            "simply_connected": result.is_simply_connected(),
        }
        print(f"{op} of {len(paths)} regions: area {result.area()}")
    else:
        raise ConfigError(f"geometry op must be demo, union, or intersection, got {op!r}")
    if "json" in emit:
        write_json(os.path.join(out_dir, "geometry.json"), payload)
    return 0


def cmd_spectrum(cfg):
    out_dir, emit = output_plan(cfg, default_emit="json")
    zeros = parse_zeros(cfg.get("zeros", ""))
    path = cfg.get("map")
    fld = build_field(cfg) if cfg.get("field") else None
    if path:
        f = load_coefficients_csv(path)
        n = _as_int(cfg, "n", SolveOptions.n)
    else:
        if fld is None:
            raise ConfigError("spectrum needs map=PATH or a field spec to solve first")
        report = solve(fld, zeros=zeros, options=build_options(cfg))
        f, n = report.f, report.n

    spec = spectrum_report(f)
    payload = {"spectrum": spec}
    print(f"spectrum: {spec.claim}")
    if fld is not None:
        second = second_derivative(f, fld, zeros=zeros, n=n)
        payload["second_derivative"] = {
            "n": second.n,
            "spectral_gap": second.spectral_gap,
            "used_spectral_angle_derivative": second.used_spectral_angle_derivative,
            "sup_norm": float(np.abs(second.values).max()),
        }
        print(f"second derivative gap vs spectral: {second.spectral_gap:.3e}")
    if "json" in emit:
        write_json(os.path.join(out_dir, "spectrum.json"), payload)
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "scan": cmd_scan,
    "geometry": cmd_geometry,
    "spectrum": cmd_spectrum,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diskmap",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--emit", help="comma subset of csv,svg,json")

    def field_args(p):
        p.add_argument("--field", help="builtin field name, constant:VALUE, or csv:PATH")
        p.add_argument("--field-args", dest="field_args", help="builtin parameters, e.g. c=1.2,a=0.3")

    def solve_args(p):
        p.add_argument("--zeros", help="comma list of prescribed critical points, e.g. -0.5")
        p.add_argument("--init", help="auto (default), a radius like 6.5, or csv:PATH")
        d = SolveOptions
        p.add_argument("--n", help=f"finest boundary grid the answer is solved on, power of two (default {d.n})")
        p.add_argument("--theta", help=f"damping factor in (0,1] (default {d.theta})")
        p.add_argument("--max-iters", dest="max_iters", help=f"iteration cap (default {d.max_iters})")
        p.add_argument("--tol", help=f"update tolerance, sup of |(U(f) - f)'| (default {d.tol_update})")
        p.add_argument("--tol-residual", dest="tol_residual", help=f"boundary residual target (default {d.tol_residual})")

    p = sub.add_parser("solve", help="run the damped fixed point solver")
    common(p)
    field_args(p)
    solve_args(p)

    p = sub.add_parser("certify", help="run boundary certificates on saved coefficients")
    common(p)
    field_args(p)
    p.add_argument("--map", help="coefficient CSV written by solve")
    p.add_argument("--checks", help=f"comma subset of {','.join(ALL_CHECKS)} (default all)")
    p.add_argument("--n", help="boundary grid size (default 512)")
    p.add_argument("--tol", help=f"certificate tolerance (default {TOL_CERT})")

    p = sub.add_parser("scan", help="scaled-identity scan plus field condition checks")
    common(p)
    field_args(p)
    p.add_argument("--r-min", dest="r_min", help="scan lower endpoint (default 0)")
    p.add_argument("--r-max", dest="r_max", help="scan upper endpoint (default 1.5 * sup bound)")
    p.add_argument("--steps", help="scan resolution (default 10000)")
    p.add_argument("--scan-tol", dest="scan_tol", help="match tolerance (default max(1e-4, spacing/2))")

    p = sub.add_parser("geometry", help="raster region algebra and the shrinking demo")
    common(p)
    p.add_argument("--op", help="demo (default), union, or intersection")
    p.add_argument("--inputs", help="comma list of PBM files for union/intersection")
    p.add_argument("--size", help="demo canvas size (default 512)")

    p = sub.add_parser("spectrum", help="coefficient decay report for a solved or saved map")
    common(p)
    field_args(p)
    p.add_argument("--map", help="coefficient CSV to analyze instead of solving")
    solve_args(p)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
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


if __name__ == "__main__":
    sys.exit(main())
