"""Acceptance gate: the package's headline guarantees, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Each criterion prints its measured numbers before asserting, so a red run
still shows how far off it was.
"""

import time

import numpy as np
from scipy import ndimage

import bool_canvas
import probes
from diskmap import blaschke, certify, regions, regularity, solver, weight
from diskmap.solver import SolveOptions
from diskmap.spectral import (
    DiskFunction,
    conjugate_periodic,
    grid_points,
    hp_boundary_distance,
    poisson_extend,
    schwarz_integral,
)

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_maximal_solution(staircase):
    # the literal initializer 5.5z is itself an exact fixed point of the
    # update operator (the weight takes the value 5.5 at radius 5.5), so the
    # maximal solution is targeted from just above the weight's sup bound;
    # the stationarity of 5.5z is asserted alongside as documentation
    b = blaschke.construct([])
    stationary = probes.apply_operator(solver.scaled_identity(5.5), staircase, b, 512)[0]
    stat_gap = float(np.abs(stationary.coeffs[:2] - [0.0, 5.5]).max())

    t0 = time.perf_counter()
    rep = solver.solve(staircase, zeros=[], options=SolveOptions(initial_map=6.5, n=512))
    elapsed = time.perf_counter() - t0
    target = solver.scaled_identity(6.0)
    sup_dist = float(np.abs(rep.f.trace(rep.n) - target.trace(rep.n)).max())
    star = certify.check_starlike(rep.f)
    ok = (
        stat_gap < 1e-12
        and sup_dist <= 1e-8
        and rep.residual <= 1e-8
        and rep.univalent
        and star.passed
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"maximal solution: |f - 6z| = {sup_dist:.2e}, residual = {rep.residual:.2e}, "
        f"univalent = {rep.univalent}, starlike = {star.passed}, {elapsed:.2f}s "
        f"(5.5z stationarity gap {stat_gap:.1e})",
    )


def test_criterion_02_branched_solution(staircase):
    t0 = time.perf_counter()
    rep = solver.solve(staircase, zeros=[-0.5], options=SolveOptions(initial_map=1.0, n=512))
    elapsed = time.perf_counter() - t0
    target = DiskFunction([0.0, 1.0, 1.0])
    sup_dist = float(np.abs(rep.f.trace(rep.n) - target.trace(rep.n)).max())
    ok = sup_dist <= 1e-8 and rep.residual <= 1e-8 and not rep.univalent and elapsed < 5.0
    report(
        2,
        ok,
        f"branched solution: |f - (z^2+z)| = {sup_dist:.2e}, residual = {rep.residual:.2e}, "
        f"univalent = {rep.univalent}, {elapsed:.2f}s",
    )


def test_criterion_03_radial_scan(staircase):
    scan = solver.radial_scan(staircase)
    ok = len(scan.intervals) == 1
    if ok:
        a, b = scan.intervals[0]
        ok = abs(a - 3.0) <= 1e-3 and abs(b - 6.0) <= 1e-3
        text = f"scan found [{a:.5f}, {b:.5f}], endpoints within 1e-3 of [3, 6]"
    else:
        text = f"scan found {len(scan.intervals)} intervals: {scan.intervals}"
    report(3, ok, text)


def test_criterion_04_certificates_at_equality(staircase):
    sub6 = certify.check_subsolution(solver.scaled_identity(6.0), staircase)
    sup3 = certify.check_supersolution(solver.scaled_identity(3.0), staircase)
    sup2 = certify.check_supersolution(solver.scaled_identity(2.0), staircase)
    ok = (
        sub6.passed
        and abs(sub6.worst_margin) <= 1e-6
        and sup3.passed
        and abs(sup3.worst_margin) <= 1e-6
        and not sup2.passed
        and abs(sup2.worst_margin - np.log(2.0 / 3.0)) <= 1e-6
    )
    report(
        4,
        ok,
        f"equality margins: 6z sub {sub6.worst_margin:.2e}, 3z super {sup3.worst_margin:.2e}, "
        f"2z super {sup2.worst_margin:.6f} vs log(2/3) = {np.log(2.0 / 3.0):.6f}",
    )


def test_criterion_05_spectral_core_oracles():
    n = 512
    rng = np.random.default_rng(5)
    tt = np.arange(n) * (2.0 * np.pi / n)
    u = rng.standard_normal()
    for k in range(1, n // 4):
        a, b = rng.standard_normal(2)
        u = u + a * np.cos(k * tt) + b * np.sin(k * tt)
    double = conjugate_periodic(conjugate_periodic(u))
    invol = float(np.abs(double + (u - u.mean())).max() / (1.0 + np.abs(u).max()))

    # analytic completion of the boundary real part of log(2 + z)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    data = np.log(np.abs(2.0 + np.exp(1j * t)))
    F = schwarz_integral(data)
    k = np.arange(1, 40, dtype=np.float64)
    want = np.concatenate([[np.log(2.0)], -((-0.5) ** k) / k])
    schwarz_err = float(np.abs(F.coeffs[:40] - want).max())

    # harmonic polynomial reproduction at interior points
    coeffs = np.array([0.7, 0.4 - 0.3j, 0.0, 0.25j, 0.1])
    zs = 0.9 * rng.random(25) * np.exp(2j * np.pi * rng.random(25))
    harmonic = sum(c * np.power(np.exp(1j * t), j) for j, c in enumerate(coeffs)).real
    target = sum(c * np.power(zs, j) for j, c in enumerate(coeffs)).real
    poisson_err = float(np.abs(poisson_extend(harmonic, zs) - target).max())

    ok = invol <= 1e-12 and schwarz_err <= 1e-12 and poisson_err <= 1e-12
    report(
        5,
        ok,
        f"spectral oracles at n=512: involution {invol:.1e}, "
        f"log(2+z) completion {schwarz_err:.1e}, harmonic reproduction {poisson_err:.1e}",
    )


def test_criterion_06_fixed_point_equivalence():
    # solved maps satisfy the operator equation and the boundary condition
    # together; perturbing a coefficient must break both at once
    mixed = []
    worst_sol = 0.0
    worst_pert = np.inf
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        fld = weight.random_smooth_field(rng)
        n_zeros = int(rng.integers(0, 3))
        zeros = [
            0.55 * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n_zeros)
        ]
        rep = solver.solve(fld, zeros=zeros)
        b = blaschke.construct(zeros)
        updated, _, _ = probes.apply_operator(rep.f, fld, b, rep.n)
        defect = float(np.abs(updated.trace(rep.n) - rep.f.trace(rep.n)).max())
        small = defect <= 1e-8 and rep.residual <= 1e-8
        worst_sol = max(worst_sol, defect, rep.residual)

        bumped = rep.f.coeffs.copy()
        bumped[3] += 1e-3
        pert = DiskFunction(bumped)
        upd_p, _, _ = probes.apply_operator(pert, fld, b, rep.n)
        p_defect = float(np.abs(upd_p.trace(rep.n) - pert.trace(rep.n)).max())
        p_res = solver.residual_sup(pert, fld, rep.n)
        big = p_defect > 1e-6 and p_res > 1e-6
        worst_pert = min(worst_pert, p_defect, p_res)
        if not (small and big):
            mixed.append(seed)
    ok = not mixed
    report(
        6,
        ok,
        f"operator/boundary equivalence on 20 seeded solves: worst solved defect "
        f"{worst_sol:.1e} (<= 1e-8), worst perturbed defect {worst_pert:.1e} (> 1e-6)"
        + (f"; mixed seeds {mixed}" if mixed else ""),
    )


def test_criterion_07_contraction_suite():
    families = [
        (1.0, 0.10, 0.50),
        (0.8, 0.15, 0.60),
        (1.3, 0.08, 0.40),
        (1.1, 0.12, 0.30),
        (0.9, 0.05, 0.80),
    ]
    worst_rate_excess = -np.inf
    worst_gap = 0.0
    qs = []
    ok = True
    for c, eps, gamma in families:
        fld = weight.cosine_radial_field(c=c, eps=eps, gamma=gamma)
        cert = weight.contraction_certificate(fld, lipschitz=c * eps * gamma)
        ok = ok and cert.valid and cert.ratio < 0.5
        qs.append(cert.ratio)
        rr = probes.contraction_rate(fld, cert)
        worst_rate_excess = max(worst_rate_excess, rr.observed_rate - cert.ratio)
        worst_gap = max(worst_gap, rr.limit_gap)
        ok = ok and rr.observed_rate <= cert.ratio + 0.05 and rr.limit_gap <= 1e-6
    report(
        7,
        ok,
        f"5 certified-contraction fields: q in [{min(qs):.3f}, {max(qs):.3f}] (< 0.5), "
        f"max observed rate excess {worst_rate_excess:+.3f} (<= +0.05), "
        f"max limit disagreement {worst_gap:.1e} (<= 1e-6)",
    )


def test_criterion_08_superharmonic_uniqueness():
    families = [(1.0, 0.10), (1.4, 0.20), (0.8, 0.05), (1.2, 0.30), (1.6, 0.15)]
    worst_gap = 0.0
    ok = True
    for c, a in families:
        fld = weight.gauss_radial_field(c=c, a=a)
        ok = ok and weight.superharmonic_check(fld).passed
        reps = [
            solver.solve(fld, options=SolveOptions(initial_map=frac * fld.sup_bound))
            for frac in (0.3, 0.7, 1.3)
        ]
        nmax = max(r.n for r in reps)
        for i in range(len(reps)):
            ok = ok and reps[i].univalent
            for j in range(i + 1, len(reps)):
                gap = float(
                    np.abs(reps[i].f.trace(nmax) - reps[j].f.trace(nmax)).max()
                )
                worst_gap = max(worst_gap, gap)
    ok = ok and worst_gap <= 1e-6
    report(
        8,
        ok,
        f"5 superharmonic fields, 3 starts each: limits univalent, "
        f"max pairwise gap {worst_gap:.1e} (<= 1e-6)",
    )


def _random_simply_connected(rng, shape=(128, 128), base=(64, 64)):
    mask = regions._disk(shape, base, int(rng.integers(6, 14)))
    for _ in range(int(rng.integers(1, 6))):
        dr, dc = rng.integers(-28, 29, size=2)
        radius = int(rng.integers(8, 26))
        mask = mask | regions._disk(shape, (base[0] + int(dr), base[1] + int(dc)), radius)
    # the disks are packed rows, ORed bytewise
    labels, _ = ndimage.label(regions._unpack(mask, shape[1]), structure=CROSS)
    return regions.RasterRegion(bool_canvas.fill_holes(labels == labels[base]), base)


def boundary_cells(mask):
    """Cells of the region with a 4-neighbour outside it."""
    return mask & ~bool_canvas.erode(mask)


def test_criterion_09_region_property_suites():
    base = (64, 64)
    rng = np.random.default_rng(9)
    eu_failures = []
    for case in range(200):
        a = _random_simply_connected(rng)
        b = _random_simply_connected(rng)
        eu = regions.extended_union(a, b)
        union = a.mask | b.mask
        # EU1: simply connected, contains the union, and adds only hole cells
        labels, _ = ndimage.label(~union, structure=np.ones((3, 3), bool))
        border = np.unique(
            np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
        )
        holes = ~union & ~np.isin(labels, border[border != 0])
        eu1 = (
            eu.is_simply_connected()
            and not (union & ~eu.mask).any()
            and not ((eu.mask & ~union) & ~holes).any()
        )
        # EU2: grow both arguments by a two-cell margin, result grows
        a2 = regions.RasterRegion(bool_canvas.dilate(bool_canvas.dilate(a.mask)), base)
        b2 = regions.RasterRegion(bool_canvas.dilate(bool_canvas.dilate(b.mask)), base)
        eu2 = not (eu.mask & ~regions.extended_union(a2, b2).mask).any()
        # EU3: boundary of the result comes from the arguments' boundaries
        eu3 = not (
            boundary_cells(eu.mask) & ~(boundary_cells(a.mask) | boundary_cells(b.mask))
        ).any()
        if not (eu1 and eu2 and eu3):
            eu_failures.append((case, eu1, eu2, eu3))

    ri_failures = []
    for case in range(200):
        a = _random_simply_connected(rng)
        b = _random_simply_connected(rng)
        ri = regions.reduced_intersection(a, b)
        inter = a.mask & b.mask
        # RI1: simply connected piece of the intersection, maximal at the basepoint
        labels, _ = ndimage.label(inter, structure=CROSS)
        component = labels == labels[base]
        ri1 = (
            ri.is_simply_connected()
            and not (ri.mask & ~inter).any()
            and (ri.mask == component).all()
        )
        # RI2: monotone under growing both arguments by two cells
        a2 = regions.RasterRegion(bool_canvas.dilate(bool_canvas.dilate(a.mask)), base)
        b2 = regions.RasterRegion(bool_canvas.dilate(bool_canvas.dilate(b.mask)), base)
        ri2 = not (ri.mask & ~regions.reduced_intersection(a2, b2).mask).any()
        # RI3: boundary containment
        ri3 = not (
            boundary_cells(ri.mask) & ~(boundary_cells(a.mask) | boundary_cells(b.mask))
        ).any()
        if not (ri1 and ri2 and ri3):
            ri_failures.append((case, ri1, ri2, ri3))

    fam = regions.build_shrinking_spiral_family(size=512)
    terms_ok = all(probes.validate(r) and r.is_simply_connected() for r in fam)
    kernel = regions.kernel_of_shrinking(fam)
    demo_ok = terms_ok and not regions.schoenfliess_test(kernel)

    ok = not eu_failures and not ri_failures and demo_ok
    report(
        9,
        ok,
        f"region suites: EU1-EU3 {200 - len(eu_failures)}/200, "
        f"RI1-RI3 {200 - len(ri_failures)}/200, demo family (size 512) terms simply "
        f"connected = {terms_ok}, kernel schoenfliess = {regions.schoenfliess_test(kernel)}",
    )


def test_criterion_10_hp_distance_decreases():
    # univalent family f_n(z) = r_n z / (1 - r_n s z) with r_n increasing to
    # r: locally uniform convergence to the limit map, so the boundary H^p
    # gap must fall; the last member's coefficients coincide with the
    # limit's in double precision, closing the gap to exactly zero
    s, r, m = 0.8, 0.9, 512

    def member(rn):
        c = np.zeros(m, dtype=np.complex128)
        c[1:] = rn * (rn * s) ** np.arange(m - 1, dtype=np.float64)
        return DiskFunction(c)

    limit = member(r)
    ns = list(range(2, 40, 4)) + [60]
    ok = True
    finals = {}
    for p in (0.1, 0.25, 0.4):
        dists = [hp_boundary_distance(member(r * (1.0 - 2.0**-n)), limit, p) for n in ns]
        ok = ok and all(x > y for x, y in zip(dists[:-1], dists[1:]))
        ok = ok and dists[-1] < 1e-4
        finals[p] = dists[-1]
    report(
        10,
        ok,
        f"H^p gap decreases along the family and ends below 1e-4: "
        + ", ".join(f"p={p} final {v:.1e}" for p, v in finals.items()),
    )


def test_criterion_11_second_derivative_identity(staircase, maximal_report, branched_report):
    res1 = regularity.second_derivative(maximal_report.f, staircase)
    sup1 = float(np.abs(res1.values).max())
    gap1 = res1.spectral_gap
    res2 = regularity.second_derivative(branched_report.f, staircase, zeros=[-0.5])
    sup2 = float(np.abs(res2.values - 2.0).max())
    gap2 = res2.spectral_gap
    ok = (
        sup1 <= 1e-6
        and sup2 <= 1e-6
        and gap1 <= 1e-6 * (1.0 + sup1)
        and gap2 <= 1e-6 * (1.0 + 2.0)
    )
    report(
        11,
        ok,
        f"boundary second derivative: |f''| = {sup1:.1e} (target 0), "
        f"|f'' - 2| = {sup2:.1e} (target 2), spectral gaps {gap1:.1e} / {gap2:.1e}",
    )
