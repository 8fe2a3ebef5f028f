"""The benchmark's workloads: one in-process round each, the checks on its
outputs, and the equivalent command line chain.

A round calls only the package's public names, looked up at call time
(``dm.solve``, ``dm.regions.save_region``), so that the span wrappers the
traced run installs are the ones called.  Why each workload exists, and what
each layer costs in it, is written down in README.md next to this file.
"""

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL_EXACT = 1e-8  # benchmark solutions 6z and z^2 + z
TOL_RESIDUAL = 1e-8  # boundary residual of every solve
CLI_AGREE = 1e-12  # CLI coefficients vs the in-process solve
CERTIFICATES = ("subsolution", "supersolution", "starlike", "free_boundary")
DEMO_SIZE = 1024


class Gate:
    """Correctness checks.  A check that raises counts as failed, not as a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, predicate):
        self.attempted += 1
        try:
            ok = bool(predicate())
            why = "false"
        except Exception as e:  # a broken output must not stop the benchmark
            ok = False
            why = f"{type(e).__name__}: {e}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {why}")
        return ok


def _certify(dm, f, fld, kind):
    if kind == "subsolution":
        return dm.check_subsolution(f, fld)
    if kind == "supersolution":
        return dm.check_supersolution(f, fld)
    if kind == "starlike":
        return dm.check_starlike(f)
    return dm.free_boundary_check(f, fld)


def _solved(report):
    return report.converged and report.residual <= TOL_RESIDUAL


def _exact(coeffs, expected):
    want = np.zeros(max(coeffs.size, len(expected)), dtype=np.complex128)
    want[: len(expected)] = expected
    got = np.zeros_like(want)
    got[: coeffs.size] = coeffs
    return float(np.abs(got - want).max()) <= TOL_EXACT


# ---------------------------------------------------------------------------
# staircase_certify


def staircase_round(dm, rng, workdir, out):
    stair = dm.staircase_field()
    out["maximal"] = dm.solve(stair, options=dm.SolveOptions(initial_map=6.5))
    out["branched"] = dm.solve(stair, zeros=[-0.5], options=dm.SolveOptions(initial_map=1.0))
    rand = dm.random_smooth_field(rng)
    out["random"] = dm.solve(rand)
    for key, fld in (("maximal", stair), ("random", rand)):
        for kind in CERTIFICATES:
            out[f"{key}.{kind}"] = _certify(dm, out[key].f, fld, kind)
    out["scale"] = dm.radial_scale_check(stair)
    out["superharmonic"] = dm.superharmonic_check(stair)


def staircase_checks(gate, out):
    gate.check("6z exact", lambda: _exact(out["maximal"].f.coeffs, [0.0, 6.0]))
    gate.check("z^2 + z exact", lambda: _exact(out["branched"].f.coeffs, [0.0, 1.0, 1.0]))
    for key in ("maximal", "branched", "random"):
        gate.check(f"{key} solve converged", lambda key=key: _solved(out[key]))
    for key in ("maximal", "random"):
        for kind in CERTIFICATES:
            gate.check(f"{kind} certificate on {key}", lambda k=f"{key}.{kind}": out[k].passed)
    # the staircase meets the scale condition only loosely and is not
    # log-superharmonic; both verdicts are pinned by the unit tests
    gate.check("staircase scale verdict", lambda: out["scale"].passed and not out["scale"].strict_passed)
    gate.check("staircase superharmonic verdict", lambda: out["superharmonic"].passed is False)


# ---------------------------------------------------------------------------
# fine_grid

FINE_ZERO = 0.995


def fine_grid_round(dm, rng, workdir, out):
    out["random"] = dm.solve(dm.random_smooth_field(rng), options=dm.SolveOptions(n=32768))
    stair = dm.staircase_field()
    out["near_boundary"] = dm.solve(stair, zeros=[FINE_ZERO], options=dm.SolveOptions(n=8192, initial_map=1.0))
    f = out["near_boundary"].f
    out["spectrum"] = dm.spectrum_report(f)
    out["second"] = dm.second_derivative(f, stair, zeros=[FINE_ZERO], n=out["near_boundary"].n)


def fine_grid_checks(gate, out):
    for key in ("random", "near_boundary"):
        gate.check(f"{key} solve converged", lambda key=key: _solved(out[key]))
    gate.check("spectrum classified", lambda: out["spectrum"].decay in ("geometric", "algebraic"))
    gate.check("second derivative finite", lambda: bool(np.isfinite(out["second"].values).all()))


# ---------------------------------------------------------------------------
# regions_demo


def regions_round(dm, rng, workdir, out):
    regions = dm.regions
    family = regions.build_shrinking_spiral_family(size=DEMO_SIZE)
    out["family"] = family
    out["kernel"] = regions.kernel_of_shrinking(family)
    out["schoenfliess"] = regions.schoenfliess_test(out["kernel"])
    out["union"] = functools.reduce(dm.extended_union, family)
    out["intersection"] = functools.reduce(dm.reduced_intersection, family)
    path = os.path.join(workdir, "kernel.pbm")
    regions.save_region(out["kernel"], path)
    out["loaded"] = regions.load_region(path)


def regions_checks(gate, out):
    family = out.get("family") or [None] * 3
    for k, level in enumerate(family):
        gate.check(f"demo level {k} simply connected", lambda level=level: level.is_simply_connected())
    gate.check("kernel fails schoenfliess_test", lambda: out["schoenfliess"] is False)
    # a strictly shrinking simply connected family: the union is its first
    # level and the intersection its last
    gate.check("union is the outer level", lambda: np.array_equal(out["union"].mask, family[0].mask))
    gate.check("intersection is the inner level", lambda: np.array_equal(out["intersection"].mask, family[-1].mask))
    gate.check(
        "PBM round trip reproduces the kernel",
        lambda: np.array_equal(out["loaded"].mask, out["kernel"].mask)
        and tuple(out["loaded"].basepoint) == tuple(out["kernel"].basepoint),
    )


# ---------------------------------------------------------------------------
# command line chains: argument lists for ``python -m diskmap``, run from the
# checkout root; {out} is the chain's output directory


def _read_coefficients(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1] + 1j * rows[:, 2]


def staircase_cli_checks(gate, out_dir, reference):
    def agrees():
        got = _read_coefficients(os.path.join(out_dir, "coefficients.csv"))
        want = reference.f.coeffs
        return got.size == want.size and float(np.abs(got - want).max()) <= CLI_AGREE

    gate.check("CLI coefficients agree with the in-process 6z", agrees)


def fine_grid_cli_checks(gate, out_dir, reference):
    def classified():
        with open(os.path.join(out_dir, "spectrum.json")) as fh:
            payload = json.load(fh)
        return payload["spectrum"]["decay"] == reference.decay

    gate.check("CLI spectrum agrees with the in-process one", classified)


def regions_cli_checks(gate, out_dir, reference):
    def verdicts():
        with open(os.path.join(out_dir, "geometry.json")) as fh:
            payload = json.load(fh)
        return (
            all(payload["simply_connected"])
            and payload["kernel_schoenfliess"] is False
            and payload["kernel_area"] == reference.area()
        )

    gate.check("CLI demo agrees with the in-process kernel", verdicts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round: Callable  # (dm, rng, workdir, out) -> None; fills out as it goes
    checks: Callable  # (gate, out) -> None
    cli: tuple  # argument lists of the CLI chain's steps
    cli_checks: Callable  # (gate, out_dir, reference) -> None
    reference_key: str  # the round output the CLI checks compare against


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "staircase_certify",
            "univalence and the four certificates dominate; solves are small (n = 512)",
            staircase_round,
            staircase_checks,
            (
                ["solve", "--config", "configs/staircase_maximal.cfg", "--out", "{out}"],
                ["certify", "--field", "staircase", "--map", "{out}/coefficients.csv", "--out", "{out}"],
            ),
            staircase_cli_checks,
            "maximal",
        ),
        Workload(
            "fine_grid",
            "the operator path (FFT, weight evaluation, Blaschke trace) at n = 8192 and 32768; no certificate",
            fine_grid_round,
            fine_grid_checks,
            (["spectrum", "--field", "staircase", "--zeros", str(FINE_ZERO), "--init", "1.0", "--n", "8192", "--out", "{out}"],),
            fine_grid_cli_checks,
            "spectrum",
        ),
        Workload(
            "regions_demo",
            "raster regions and PBM I/O only; the solver and spectral layers stay idle",
            regions_round,
            regions_checks,
            (["geometry", "--op", "demo", "--size", str(DEMO_SIZE), "--out", "{out}"],),
            regions_cli_checks,
            "kernel",
        ),
    )
}
