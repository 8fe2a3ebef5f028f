"""Anderson-mixed fixed-point solver for the prescribed boundary-modulus problem.

A solution is an analytic self-normalized map f (f(0) = 0 < f'(0)) whose
boundary derivative satisfies |f'(xi)| = Phi(xi, f(xi)).  Such maps are fixed
points of the update

    U(f)(z) = integral_0^z B(s) exp(S[log Phi(., f(.))](s)) ds,

where B carries the prescribed critical points and S is the Schwarz integral.
The solver iterates on the Taylor coefficients with Anderson mixing of depth
ANDERSON_DEPTH on top of the undamped step f <- U(f) (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011).  It is one loop over every grid size.
It starts on a coarse grid, and each time the update settles on an f'
whose spectral tail is unresolved the grid doubles: nested iteration, the
outer loop of full multigrid (Brandt, Math. Comp. 31, 1977).  Below the
requested n, a coarse fixed point that resolves f' is zero-padded straight
to n, which then takes at least one step.
The update is measured where every verdict reads the map, as the sup of
|(U(f) - f)'| over the grid.  max_iters bounds the steps of the whole run,
and the update history spans every grid.  With ANDERSON_DEPTH 0, which
only tests select, the same loop is the plain iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blaschke as blaschke_mod
from .errors import DivergenceError
from .spectral import (
    MAX_GRID,
    RESOLVED_RATIO,
    DiskFunction,
    check_grid_size,
    conjugate_periodic,
    derivative,
    grid_points,
    next_power_of_two,
    tail_ratio,
)

PAIR_BLOCK = 1 << 12  # edge pairs tested at once in polygon_is_simple
DIVERGENCE_FACTOR = 1e6
COARSE_GRID = 512  # grid a solve starts on at the least, SolveOptions.n's default
CRITICAL_RADIUS = 0.999  # circle on which interior_critical_points counts
# residual differences kept for mixing; 0 is the plain iteration, which only
# tests select
ANDERSON_DEPTH = 2
GRAM_DROP = 1e-10  # relative pivot below which a history column counts as dependent
TOL_UPDATE = 1e-10  # a grid settles when the sup of |(U(f) - f)'| falls below this
TOL_RESIDUAL = 1e-8  # a settled solve converges when its boundary residual is at most this
SCAN_STEPS = 10000  # grid points of radial_scan on [0, 1.5 sup_bound]


def scaled_identity(r):
    """The map z -> r z as a DiskFunction."""
    return DiskFunction([0.0, float(r)])


@dataclass
class SolveOptions:
    """The settings of one solve: the finest grid n, the step budget
    max_iters over every grid, and the start.  What counts as converged is
    not a setting: TOL_UPDATE and TOL_RESIDUAL hold for every solve."""

    n: int = 512
    max_iters: int = 2000
    initial_map: object = None  # None -> scaled_identity(sup_bound + 0.5); float -> that radius

    def resolve_init(self, field):
        init = self.initial_map
        if init is None:
            # start above the weight's sup bound, on a supersolution: on a
            # radial weight that grows with |w|, plain steps from there descend
            # onto the maximal solution.  Where the fixed points repel the
            # plain step, which one a solve reaches depends on the start
            # (see solve)
            return scaled_identity(field.sup_bound + 0.5)
        if isinstance(init, DiskFunction):
            return init
        if isinstance(init, (int, float)):
            if not math.isfinite(init):
                raise ValueError(f"initial_map radius must be finite, got {init}")
            return scaled_identity(float(init))
        raise ValueError("initial_map must be None, a radius, or a DiskFunction")


@dataclass
class SolveReport:
    f: DiskFunction
    n: int
    iterations: int  # steps over every grid, as many as update_history holds
    converged: bool
    residual: float
    update_history: list
    univalent: bool
    locally_univalent: bool
    zeros: tuple
    field_name: str
    tail_ratio: float  # spectral.tail_ratio of derivative(f), which the refinement compared
    stop_reason: str  # "tolerance", "residual" (update small, residual not), "max_iters" or "unresolved"
    doublings: int  # refinements past the requested n; the coarse grids below it do not count

    def as_dict(self):
        return {
            "field": self.field_name,
            "n": self.n,
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "residual": self.residual,
            "univalent": self.univalent,
            "locally_univalent": self.locally_univalent,
            "final_update": self.update_history[-1] if self.update_history else None,
            "tail_ratio": self.tail_ratio,
            "doublings": self.doublings,
            "derivative_at_origin": float(self.f.coeffs[1].real),
        }


@dataclass
class _Plan:
    """What the operator needs at one grid size, built once per size."""

    n: int
    nodes: np.ndarray  # grid points xi_j, the table grid_points shares
    blaschke: object  # B on the grid, None when there are no zeros (B == 1)
    k: np.ndarray  # k = 0 .. n-1, the derivative's multipliers
    inv_k: np.ndarray  # 1/k for k = 1 .. n-1, the primitive's divisors


def _plan(zeros, n):
    n = check_grid_size(n)
    nodes = grid_points(n)
    trace = blaschke_mod.evaluate(zeros, nodes) if zeros.size else None
    k = np.arange(n, dtype=np.float64)
    return _Plan(n, nodes, trace, k, 1.0 / k[1:])


def _operator_step(plan, fld, fvals):
    """U(f) from the boundary values of f at the plan's grid.

    Returns the Taylor coefficients of U(f) and U(f)'.  On the circle
    exp(S[u]) = exp(u) exp(i H u), H the periodic conjugate, and exp(u) = Phi.
    """
    n = plan.n
    phi = fld.evaluate(plan.nodes, fvals)
    g = 1j * conjugate_periodic(np.log(phi))
    np.exp(g, out=g)  # in place: this step's temporaries set a solve's memory peak
    g *= phi
    del phi
    if plan.blaschke is not None:
        g *= plan.blaschke
    gc = np.fft.fft(g, norm="forward")
    del g
    gc[0] = gc[0].real  # U(f)'(0) = B(0) exp(S(0)) is real and positive
    fprime = gc[: n - 1]
    prim = np.empty(n, dtype=np.complex128)
    prim[0] = 0.0
    np.multiply(fprime, plan.inv_k, out=prim[1:])
    return prim, fprime


def boundary_weight(f, fld, n):
    """Phi(xi_j, f(xi_j)) on the n-point grid, the weight that every verdict
    compares |f'| with; cached on f per (fld, n), hence read-only."""
    n = check_grid_size(n)
    return f.memo(("weight", fld, n), lambda: fld.evaluate(grid_points(n), f.trace(n)))


def residual_sup(f, fld, n):
    """sup over the grid of | |f'| - Phi(xi, f) |."""
    fp = np.abs(f.trace(n, 1))
    return float(np.abs(fp - boundary_weight(f, fld, n)).max())


def _pad_coeffs(c, n):
    out = np.zeros(n, dtype=np.complex128)
    out[: min(c.size, n)] = c[:n]
    return out


def _mixing_weights(dR, r):
    """Real weights gamma minimizing |r - sum_i gamma_i dR[i]|.

    dR is the list of residual differences, newest first.  Complex vectors
    count as their stacked real and imaginary parts, so the weights are real
    and keep f'(0) real.  The normal equations Re<dR_i, dR_j> gamma =
    Re<dR_i, r> go through an LDL^T sweep in the order of dR; a difference
    whose pivot falls below GRAM_DROP times the larger of its squared norm
    and |r|^2 (dependent, or rounding) gets weight 0, and with none left
    the step is plain.  A non-finite system raises DivergenceError.
    """
    m = len(dR)
    gram = [[float(np.vdot(u, v).real) for v in dR] for u in dR]
    rhs = [float(np.vdot(u, r).real) for u in dR]
    rr = float(np.vdot(r, r).real)
    if not np.isfinite([rhs, *gram]).all():
        raise DivergenceError("Anderson mixing system is not finite")
    low = [[0.0] * m for _ in range(m)]
    pivot, y, gamma = [0.0] * m, [0.0] * m, [0.0] * m
    for j in range(m):
        for i in range(j):
            if pivot[i]:
                low[j][i] = (gram[j][i] - sum(low[j][k] * low[i][k] * pivot[k] for k in range(i))) / pivot[i]
        pivot[j] = gram[j][j] - sum(low[j][k] ** 2 * pivot[k] for k in range(j))
        y[j] = rhs[j] - sum(low[j][k] * y[k] for k in range(j))
        if not pivot[j] > GRAM_DROP * max(gram[j][j], rr):
            pivot[j] = 0.0
    for j in reversed(range(m)):
        if pivot[j]:
            gamma[j] = y[j] / pivot[j] - sum(low[k][j] * gamma[k] for k in range(j + 1, m))
    return gamma


def _settled_tail(x):
    """The settled-grid verdict on coefficients x: (resolved, tail_ratio) of
    f', the one rule of spectral.resolved, so that a run which stops here
    reports the tail it compared."""
    tail = tail_ratio(derivative(DiskFunction(x)).coeffs)
    return tail < RESOLVED_RATIO, tail


def solve(fld, zeros=(), options=None):
    """Run the Anderson-mixed iteration to a certified fixed point.

    The run starts on COARSE_GRID points (or on the initial map's own grid,
    if that is finer), and the grid doubles each time the update settles on
    an f' whose spectral tail is unresolved; at 2**15 that stops the run as
    "unresolved".  Below options.n, the finest grid the answer is solved
    on, a resolved f' is zero-padded straight to n, which then takes at
    least one step of its own.  A solve with n <= COARSE_GRID runs on n
    from its first step, and one with n above MAX_GRID raises ValueError
    before it.  Convergence means both: the sup over the grid of the last
    update's derivative, |(U(f) - f)'|, below TOL_UPDATE, and residual at
    most TOL_RESIDUAL; neither tolerance is a setting.  max_iters bounds
    the steps over all grids.  A budget spent below n still reports on n.

    With r = U(x) - x the step is r itself, undamped.  It leaves lambda of
    an error mode with eigenvalue lambda of U', where a step damped by t in
    (0, 1) leaves 1 - t + t lambda, about 1 - t when lambda is small.  At
    the solved fixed points the largest |lambda| (real Jacobian, central
    differences, n = 128) is 0.003 to 0.11 on seeded random fields, 0.04
    on ripple_analytic, 0.06 to 0.52 (all negative) on the criterion-8
    Gauss fields and 0.71 on z^2 + z.  Where the fixed points repel the
    plain step (cosine_radial(2, 0.9, 4): lambda = -4.9 at 3.327z, -7.2 at
    1.968z), mixing converges as a secant solve, and which fixed point it
    reaches depends on the start: the default start reaches 1.968z, not the
    maximal 3.327z.

    Anderson mixing subtracts sum_i gamma_i (dX_i + dR_i), where dX_i and
    dR_i are the last changes of x and r and gamma fits r by the dR_i in
    least squares.  The history holds the last ANDERSON_DEPTH steps taken,
    newest first: dX_i is the step itself, and a full history's newest dR_i
    reuses the row it evicts, so a grid that settles on its first step
    allocates none.  A new grid starts with a fresh plan, an empty mixing
    history and a new reference update for the divergence guard.
    """
    options = options or SolveOptions()
    target = n = check_grid_size(options.n)
    if target > MAX_GRID:
        raise ValueError(f"grid size must be at most {MAX_GRID}, got {target}")
    zeros = blaschke_mod.construct(zeros)
    init = options.resolve_init(fld).coeffs
    n = min(target, max(COARSE_GRID, next_power_of_two(init.size)))
    x = _pad_coeffs(init, n)  # updated in place
    sup_hist = []
    doublings = 0
    plan = None
    stop_reason = "max_iters"

    for _ in range(options.max_iters):
        if plan is None:
            plan = _plan(zeros, n)
            dX, dR = [], []  # the last changes of x and r, newest first
            first_update = None
        fvals = np.fft.ifft(x, norm="forward")
        r, fprime = _operator_step(plan, fld, fvals)
        del fvals, fprime  # fprime views the step's whole spectrum
        r -= x
        # sup over the grid of |(U(f) - f)'| = |sum_k k r_k xi^k|, the
        # derivative that the residual and every certificate read
        dsup = float(np.abs(np.fft.ifft(plan.k * r, norm="forward")).max())
        sup_hist.append(dsup)
        if not math.isfinite(dsup):
            raise DivergenceError(
                f"update norm is not finite after {len(sup_hist)} steps", history=sup_hist
            )
        if first_update is None:
            first_update = dsup
        if dsup > DIVERGENCE_FACTOR * max(first_update, 1.0):
            raise DivergenceError(
                f"update norm {dsup:.3e} exceeded the divergence guard after {len(sup_hist)} steps",
                history=sup_hist,
            )
        if dsup < TOL_UPDATE:
            x += r
            fine, tail = _settled_tail(x)
            if fine and n >= target:
                stop_reason = "tolerance"
                break
            if n >= MAX_GRID:
                stop_reason = "unresolved"
                break
            if n >= target:
                doublings += 1
            n = target if fine else 2 * n
            x = _pad_coeffs(x, n)
            plan = dX = dR = r = None  # the next step starts on the new grid
            continue
        step = r.copy()
        if dR:
            dR[0] += r  # completes r_k - r_(k-1)
            for g, dx, dr in zip(_mixing_weights(dR, r), dX, dR):
                step -= g * dx
                step -= g * dr
            del dx, dr
        if ANDERSON_DEPTH:
            if len(dR) == ANDERSON_DEPTH:  # the oldest differences go; -r reuses a row
                del dX[-1]
                dR.insert(0, np.negative(r, out=dR.pop()))
            else:
                dR.insert(0, -r)
            dX.insert(0, step)
        x += step
        del r, step  # before the next step allocates its own

    plan = dX = dR = r = None  # the iteration buffers go before the final checks
    if n < target:  # the budget ran out on a coarse grid
        n = target
        x = _pad_coeffs(x, n)
    f = DiskFunction(x)
    # before the trace of f' is cached on f, to keep the checks' temporaries
    # below the iteration's peak; an overflowing map's nan values are verdicts
    with np.errstate(over="ignore", invalid="ignore"):
        univalent = univalence(f, n)
        locally_univalent = bool(len(zeros) == 0 and interior_critical_points(f, n) == 0)
        res = residual_sup(f, fld, n)
        if stop_reason == "max_iters":  # a settled grid's verdict already holds its tail
            tail = tail_ratio(derivative(f).coeffs)
    if stop_reason == "tolerance" and not res <= TOL_RESIDUAL:
        stop_reason = "residual"  # the update settled, the residual did not
    return SolveReport(
        f=f,
        n=n,
        iterations=len(sup_hist),
        converged=stop_reason == "tolerance",
        residual=res,
        update_history=sup_hist,
        univalent=univalent,
        locally_univalent=locally_univalent,
        zeros=tuple(zeros),
        field_name=fld.name,
        tail_ratio=tail,
        stop_reason=stop_reason,
        doublings=doublings,
    )


# ---------------------------------------------------------------------------
# geometric checks

def _cross(u, v):
    return (np.conj(u) * v).imag


def _pair_blocks(starts, counts, block):
    """The index pairs (i, starts[i] + t), 0 <= t < counts[i], as (i, j)
    arrays of about `block` pairs each; one row's run is never split."""
    ends = np.cumsum(counts)
    r0 = 0
    while r0 < counts.size:
        r1 = max(int(np.searchsorted(ends, ends[r0] - counts[r0] + block, side="right")), r0 + 1)
        c = counts[r0:r1]
        i = np.repeat(np.arange(r0, r1), c)
        j = np.repeat(starts[r0:r1] - (np.cumsum(c) - c), c) + np.arange(i.size)
        yield i, j
        r0 = r1


def _edge_ratios(points):
    """points[k + 1] / points[k] for each edge k of the closed polygon, formed
    in place on the rolled copy, nan through a vertex at 0: their angles are
    the edges' turns about 0."""
    ratios = np.roll(points, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios /= points
    return ratios


def _star_shaped(turn):
    """Every edge turns about the centre by an angle in (0, pi), and turns
    adding up to less than 3 pi add up to one full turn, so each ray from the
    centre meets the polygon once (Lee & Preparata, J. ACM 26, 1979)."""
    return bool((turn > 0.0).all() and (turn < np.pi).all() and turn.sum() < 3.0 * np.pi)


def polygon_is_simple(points):
    """No two non-adjacent edges of the closed polygon properly cross.

    Edge k runs from points[k] to points[k + 1], the last one back to
    points[0]; coincident edges, as on a polygon traversed twice, are not a
    proper crossing.  An O(m log m) sweep: crossing edges have overlapping
    closed x-extents, so the edges are sorted by their left x and each is
    tested only against the later edges whose left x lies within its own
    extent (a vectorized sweep in the sense of Shamos & Hoey).  On solved
    maps that leaves about two pairs per edge.  Pairs go through in blocks
    of PAIR_BLOCK and the test stops at the first crossing, so memory stays
    bounded even on wiggly curves.
    """
    A = np.asarray(points, dtype=np.complex128)
    B = np.roll(A, -1)
    m = A.size
    left = np.minimum(A.real, B.real)
    order = np.argsort(left, kind="stable")
    left = left[order]
    # the x-extent of sorted edge s reaches sorted edges s+1 .. s+counts[s]
    counts = np.searchsorted(left, np.maximum(A.real, B.real)[order], side="right")
    del left
    starts = np.arange(1, m + 1)
    counts -= starts
    for s, t in _pair_blocks(starts, counts, PAIR_BLOCK):
        a = order[s]
        b = order[t]
        ii = np.minimum(a, b)
        jj = np.maximum(a, b)
        candidate = (jj > ii + 1) & ~((ii == 0) & (jj == m - 1))
        ii, jj = ii[candidate], jj[candidate]
        ei = B[ii] - A[ii]
        ej = B[jj] - A[jj]
        d1 = _cross(ei, A[jj] - A[ii])
        d2 = _cross(ei, B[jj] - A[ii])
        d3 = _cross(ej, A[ii] - A[jj])
        d4 = _cross(ej, B[ii] - A[jj])
        if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
            return False
    return True


def univalence(f, n):
    """Injectivity proxy: the boundary polygon is simple and winds once about
    f(0).

    The polygon is the boundary trace on the full n-point grid, with no
    vertex cap, so folds as fine as one grid step are seen.  An analytic
    map whose boundary curve is simple is univalent, and the curve winds
    once about f(0) (Darboux's theorem; Duren, Univalent Functions, 1983).
    The polygon can be simple where the curve is not: it is traversed twice
    for z^2 and runs clockwise for a map aliased onto z-bar on the grid.
    The winding count rejects both.  One O(n) angle pass reads the turns of
    the edges about f(0): their sum is the winding count, and a polygon
    star-shaped about f(0) is simple without the sweep of polygon_is_simple,
    which decides the rest.  The verdict is cached on f per n, like its
    traces, so a certificate gate on a map the solve already checked costs
    nothing.
    """
    n = check_grid_size(n)
    return f.memo(("univalence", n), lambda: _univalence(f, n))


def _univalence(f, n):
    P = f.trace(n)
    turn = np.angle(_edge_ratios(P - f.coeffs[0]))
    if np.rint(turn.sum() / (2.0 * np.pi)) != 1:  # nan through a vertex at f(0)
        return False
    if _star_shaped(turn):
        return True
    del turn
    return polygon_is_simple(P)


def interior_critical_points(f, n):
    """Argument-principle count of zeros of f' in |z| < CRITICAL_RADIUS.

    Critical points between CRITICAL_RADIUS and the boundary are not seen; the
    solver treats local univalence as "no prescribed zeros and none detected
    here".  A trace that vanishes at a node counts at least one, and so does
    one whose angle sum is not finite (0/0 ratios, or values that overflow).
    """
    vals = f.circle_trace(CRITICAL_RADIUS, n, 1)
    vanishes = np.abs(vals).min() < 1e-13
    ratios = _edge_ratios(vals)
    del vals  # the angle pass then holds only the ratios and their angles
    turns = np.rint(np.angle(ratios).sum() / (2.0 * np.pi))
    if not np.isfinite(turns):
        return 1
    return max(1, int(abs(turns))) if vanishes else int(turns)


# ---------------------------------------------------------------------------
# scans

@dataclass
class ScanResult:
    intervals: list
    tolerance: float
    r_min: float  # the grid read, SCAN_STEPS points on [r_min, r_max]
    r_max: float
    steps: int


def radial_scan(fld):
    """Locate radii with r = Phi_radial(r): where scaled identities solve.

    Works only for rotation-invariant fields (radial profile available).
    The grid is SCAN_STEPS points on [0, 1.5 * sup_bound], which holds
    every root, since r = Phi(r) <= sup_bound.  Returns, in order, the
    maximal runs of grid points where |r - phi(r)| <= tol, with
    tol = max(1e-4, spacing/2), and a point interval at each root that
    r - phi(r) crosses between two neighbours outside the runs.  Those
    crossings are narrowed together, each round reading 63 evenly spaced
    points in every bracket and keeping the first step across which the
    sign leaves the bracket's lower end, until no point falls inside: lo
    and hi are then adjacent floats, and 0.5 * (lo + hi), one of the two,
    is the root.  A sign change that is a jump of phi, with
    |r - phi(r)| > tol at its end, is no root.  A bracket reports at most
    one root, so two roots closer than one spacing,
    1.5 * sup_bound / (SCAN_STEPS - 1), are reported as at most one.
    """
    if fld.radial_profile is None:
        raise ValueError("radial_scan needs a rotation-invariant field")
    r_max = 1.5 * fld.sup_bound
    r = np.linspace(0.0, r_max, SCAN_STEPS)
    spacing = r[1] - r[0]
    tol = max(1e-4, 0.5 * spacing)
    gap = r - fld.radial_profile(r)
    hit = np.abs(gap) <= tol
    # run edges: each run of hits starts at an even edge and ends before the next
    edges = np.flatnonzero(np.diff(hit, prepend=False, append=False))
    intervals = [(float(r[a]), float(r[b - 1])) for a, b in zip(edges[::2], edges[1::2])]
    # crossings between two neighbours outside the runs, each bracket
    # [lo, hi] keeping lo's sign of the gap
    sign = np.sign(gap)
    i = np.flatnonzero((sign[:-1] * sign[1:] < 0) & ~hit[:-1] & ~hit[1:])
    if i.size:
        lo, hi, below = r[i], r[i + 1], sign[i]
        t, k = np.arange(65) / 64.0, np.arange(i.size)
        while True:
            x = lo[:, None] + (hi - lo)[:, None] * t
            x[:, -1] = hi  # lo + (hi - lo) may round off hi
            if not ((lo[:, None] < x) & (x < hi[:, None])).any():
                break
            off = np.sign(x - fld.radial_profile(x)) != below[:, None]
            off[:, 0], off[:, -1] = False, True  # lo has below's sign and hi not, as first read
            j = off.argmax(axis=1)
            lo, hi = x[k, j - 1], x[k, j]
        mid = 0.5 * (lo + hi)
        at = mid - fld.radial_profile(mid)
        intervals = sorted(intervals + [(float(x), float(x)) for x in mid[np.abs(at) <= tol]])
    return ScanResult(intervals=intervals, tolerance=tol, r_min=0.0, r_max=r_max, steps=SCAN_STEPS)
