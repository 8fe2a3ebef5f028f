"""Spans around the public functions of each diskmap module.

The benchmark measures every layer from outside.  `Tracer.install` replaces
each target function, in every namespace of the package that holds it (a
module global, a module-level dict such as the CLI's command table, or a
class attribute), with a wrapper that records a span; `Tracer.uninstall`
puts the originals back.  Nothing inside ``src/`` is traced.

A span records its call count, its total time and its self time: the total
minus the part of it that child spans cover.  A target that no longer exists
(renamed or deleted by a refactor) is listed in `Tracer.missing` and
skipped; it never aborts a run.
"""

import functools
import os
import sys
import time
from collections import defaultdict

PACKAGE = "diskmap"

# Public functions and methods wrapped in each layer (module).  Small
# helpers that run inside these (grid-size checks, Horner evaluation, the
# winding number) are left unwrapped so that their cost stays in the caller's
# self time and the tracing overhead stays small.
TARGETS = {
    "spectral": (
        "DiskFunction.trace",
        "DiskFunction.circle_trace",
        "grid_points",
        "derivative",
        "schwarz_integral",
        "conjugate_periodic",
        "poisson_circle",
        "poisson_extend",
        "hp_boundary_distance",
    ),
    "blaschke": ("construct", "boundary_trace", "derivative_trace", "log_derivative"),
    "weight": (
        "WeightField.evaluate",
        "staircase_field",
        "random_smooth_field",
        "make_builtin",
        "tabulated_field",
        "contraction_certificate",
        "radial_scale_check",
        "superharmonic_check",
    ),
    "solver": (
        "solve",
        "apply_operator",
        "residual_sup",
        "univalence",
        "polygon_is_simple",
        "interior_critical_points",
        "radial_scan",
        "contraction_rate",
    ),
    "certify": ("check_subsolution", "check_supersolution", "check_starlike", "free_boundary_check"),
    "regularity": ("spectrum_report", "second_derivative"),
    "regions": (
        "build_shrinking_spiral_family",
        "kernel_of_shrinking",
        "schoenfliess_test",
        "extended_union",
        "extended_union_many",
        "reduced_intersection",
        "reduced_intersection_many",
        "save_region",
        "load_region",
    ),
    "cli": (
        "main",
        "cmd_solve",
        "cmd_certify",
        "cmd_scan",
        "cmd_geometry",
        "cmd_spectrum",
        "load_coefficients_csv",
        "write_coefficients_csv",
        "write_boundary_csv",
        "write_curve_svg",
        "write_json",
    ),
}
LAYERS = tuple(TARGETS)

# Argument position of the grid size n, for spans whose work scales with it.
_N_ARG = {"spectral.DiskFunction.trace": 1, "spectral.DiskFunction.circle_trace": 2, "solver.apply_operator": 3}


def _arg(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


def _count_trace(counts, span, args, kwargs, result, dt):
    counts["spectral.fft_points"] += int(_arg(args, kwargs, "n", _N_ARG[span]))


def _count_operator(counts, span, args, kwargs, result, dt):
    n = int(_arg(args, kwargs, "n", _N_ARG[span]))
    counts[f"solver.apply_operator_calls.n{n}"] += 1
    counts[f"solver.apply_operator_time.n{n}"] += dt


def _count_schwarz(counts, span, args, kwargs, result, dt):
    counts["spectral.fft_points"] += len(_arg(args, kwargs, "u", 0))


def _count_evaluate(counts, span, args, kwargs, result, dt):
    counts["weight.evaluate_points"] += result.size


def _count_solve(counts, span, args, kwargs, result, dt):
    counts["solver.iterations"] += result.iterations
    counts["solver.doublings"] += result.doublings
    counts["solver.final_n"] += result.n


def _count_save(counts, span, args, kwargs, result, dt):
    counts["regions.pbm_bytes"] += os.path.getsize(result)


HOOKS = {
    "spectral.DiskFunction.trace": _count_trace,
    "spectral.DiskFunction.circle_trace": _count_trace,
    "spectral.schwarz_integral": _count_schwarz,
    "solver.apply_operator": _count_operator,
    "weight.WeightField.evaluate": _count_evaluate,
    "solver.solve": _count_solve,
    "regions.save_region": _count_save,
}


class Tracer:
    """Installs span wrappers on the package and accumulates their records."""

    def __init__(self):
        self.missing = []
        self.hook_failures = set()
        self._patches = []
        self.reset()

    def reset(self):
        # span -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (span, caller layer) -> calls, for calls that cross a layer boundary
        self.calls_from = defaultdict(int)
        self.counts = defaultdict(float)
        self.covered = 0.0
        self._stack = []

    def install(self):
        """Wrap every target and record the targets that do not exist."""
        if self._patches:
            return
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    ok = self._patch_method(module, span, name)
                else:
                    ok = self._patch_function(module, modules, span, name)
                if not ok and span not in self.missing:
                    self.missing.append(span)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = []

    def _patch_method(self, module, span, name):
        cls_name, attr = name.split(".")
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        if not callable(original):
            return False
        setattr(cls, attr, self._wrap(span, original))
        self._patches.append((cls, attr, original))
        return True

    def _patch_function(self, module, modules, span, name):
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapper = self._wrap(span, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._patches.append((value, dkey, original))
        return True

    def _wrap(self, span, fn):
        layer = span.split(".", 1)[0]
        hook = HOOKS.get(span)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = tracer.stats[span]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if parent is None:
                    tracer.covered += dt
                else:
                    parent[0] += dt
                    if parent[1] != layer:
                        tracer.calls_from[(span, parent[1])] += 1
            if hook is not None:
                try:
                    hook(tracer.counts, span, args, kwargs, result, dt)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    # a refactor changed the signature or the result; the
                    # span itself is still recorded
                    tracer.hook_failures.add(span)
            return result

        return wrapper
