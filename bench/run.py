"""diskmap benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload reports, with tracing off:

* setup_s       median time of a cold ``import diskmap`` in a fresh interpreter;
* round_s       median wall time of one in-process round;
* round_tail_s  the highest percentile of the rounds with at least ten
                rounds beyond it (the record states which, and the count);
* cli_s         median wall time of the workload's CLI chain, each step in a
                fresh interpreter;
* peak_mib      tracemalloc peak over one round, in its own pass;
* cli_rss_mib   peak resident set size (VmHWM) of the largest CLI child.

With ``--trace 1`` it wraps the public functions of every module (see
spans.py), interleaves untraced and traced rounds, runs the CLI chain
in-process under the same spans, breaks ``import diskmap`` down with
``-X importtime``, and reports the per-layer metrics.

Every output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the line before it is
the full record (environment, samples, failed checks, missing span targets).
Runs as one process without threads of its own; BLAS/OpenMP are pinned to
one thread here and in every child.  It exits with code 2, printing no
result, when the checkout holds no ``src/diskmap``.
"""

import os

# pinned before numpy loads; children inherit the environment
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_run")

CYCLES = 5  # per untraced run: one cold import, one CLI chain, 1/5 of the rounds
CLI_TRACED_CHAINS = 2  # in-process CLI chains per traced run
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10  # rounds that must lie beyond the reported tail percentile
CHILD_TIMEOUT = 120.0
RSS_POLL = 0.005  # seconds between samples of a CLI child's peak RSS

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("round_tail_s", "s"),
    ("cli_s", "s"),
    ("peak_mib", "MiB"),
    ("cli_rss_mib", "MiB"),
)

# per-layer time metrics: name -> spans summed; each gives <name>_s (self
# time per round) and <name>_total_s (inclusive time per round)
SPAN_METRICS = {
    "solver.univalence": ("solver.univalence",),
    "solver.polygon_is_simple": ("solver.polygon_is_simple",),
    "certify.subsolution": ("certify.check_subsolution",),
    "certify.supersolution": ("certify.check_supersolution",),
    "certify.starlike": ("certify.check_starlike",),
    "certify.free_boundary": ("certify.free_boundary_check",),
    "solver.apply_operator": ("solver.apply_operator",),
    "solver.residual_sup": ("solver.residual_sup",),
    "solver.interior_critical_points": ("solver.interior_critical_points",),
    "solver.solve": ("solver.solve",),
    "spectral.schwarz_integral": ("spectral.schwarz_integral",),
    "spectral.trace": ("spectral.DiskFunction.trace", "spectral.DiskFunction.circle_trace"),
    "weight.evaluate": ("weight.WeightField.evaluate",),
    "blaschke.boundary_trace": ("blaschke.boundary_trace",),
    "weight.lattice_checks": ("weight.contraction_certificate", "weight.radial_scale_check", "weight.superharmonic_check"),
    "regularity.spectrum_report": ("regularity.spectrum_report",),
    "regularity.second_derivative": ("regularity.second_derivative",),
    "regions.family": ("regions.build_shrinking_spiral_family",),
    "regions.kernel": ("regions.kernel_of_shrinking",),
    "regions.schoenfliess": ("regions.schoenfliess_test",),
    "regions.union": ("regions.extended_union", "regions.extended_union_many"),
    "regions.intersection": ("regions.reduced_intersection", "regions.reduced_intersection_many"),
    "regions.save": ("regions.save_region",),
    "regions.load": ("regions.load_region",),
}
# the same, measured on the in-process CLI chain (per chain)
CLI_SPAN_METRICS = {
    "cli.solve": ("cli.cmd_solve",),
    "cli.certify": ("cli.cmd_certify",),
    "cli.spectrum": ("cli.cmd_spectrum",),
    "cli.geometry": ("cli.cmd_geometry",),
}
OPERATOR_SIZES = (512, 8192, 32768)
ROUND_COUNTS = (
    "solver.iterations",
    "solver.doublings",
    "solver.final_n",
    "spectral.fft_points",
    "weight.evaluate_points",
    "regions.pbm_bytes",
)
IMPORT_METRICS = ("cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s", "cli.import_own_s")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for name in list(SPAN_METRICS) + list(CLI_SPAN_METRICS):
        spec += [(f"{name}_s", "s"), (f"{name}_total_s", "s")]
    spec += [
        ("solver.univalence_calls", "count"),
        ("certify.univalence_calls", "count"),
        ("solver.apply_operator_calls", "count"),
        ("blaschke.boundary_trace_calls", "count"),
    ]
    spec += [(f"solver.apply_operator_call_s.n{n}", "s") for n in OPERATOR_SIZES]
    spec += [(name, "bytes" if name.endswith("bytes") else "count") for name in ROUND_COUNTS]
    spec += [("cli.bytes_written", "bytes")]
    spec += [(name, "s") for name in IMPORT_METRICS]
    spec += [("cli.import_own_frac", "ratio")]
    spec += [(f"{layer}.errors", "count") for layer in LAYERS]
    spec += [
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.uncovered_frac", "ratio"),
        ("trace.missing_targets", "count"),
        ("trace.rounds", "count"),
    ]
    return spec


# ---------------------------------------------------------------------------
# environment


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(dm):
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "diskmap": getattr(dm, "__version__", "unknown"),
        "git_commit": git_commit(),
        "blas_threads": {k: os.environ[k] for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# children


def _peak_rss_mib(pid):
    """VmHWM of a live process in MiB, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(argv, log_path):
    """Run argv from the checkout root; returns (exit code, peak RSS MiB, output).

    Linux carries the parent's RSS into a child's ru_maxrss across exec, so
    the child's own high-water mark (VmHWM, monotonic) is sampled while it
    runs instead.  The wait returns as soon as the child exits.
    """
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    fd = os.pidfd_open(proc.pid)
    peak = 0.0
    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        while True:
            peak = max(peak, _peak_rss_mib(proc.pid))
            ready, _, _ = select.select([fd], [], [], RSS_POLL)
            if ready:
                break
            if time.monotonic() > deadline:
                proc.kill()
                break
        _, status, _ = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as fh:
        output = fh.read()
    return proc.returncode, peak, output


IMPORT_PROBE = "import time; t = time.perf_counter(); import diskmap; print(repr(time.perf_counter() - t))"


def cold_import(gate, workdir):
    """Seconds of `import diskmap` in a fresh interpreter, or None if it fails.
    The benchmark's own import has already filled the bytecode cache, as it
    is for an installed package."""
    code, _, output = run_child([sys.executable, "-c", IMPORT_PROBE], os.path.join(workdir, "import.log"))
    if gate.check("cold import exits 0", lambda: code == 0):
        return float(output.strip().splitlines()[-1])
    return None


def parse_importtime(text):
    """Import breakdown from `python -X importtime` output, in seconds."""
    pending = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "self": int(self_us) / 1e6, "cum": int(cum_us) / 1e6}
        node["children"] = pending.pop(depth + 1, [])
        pending.setdefault(depth, []).append(node)
    out = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0, "cli.import_own_s": 0.0}

    def walk(node, inside):
        top = node["name"].split(".")[0]
        if top == "diskmap":
            out["cli.import_own_s"] += node["self"]
            if node["name"] == "diskmap":
                out["cli.import_s"] = node["cum"]
        elif top in ("scipy", "numpy") and inside is None:
            out[f"cli.import_{top}_s"] += node["cum"]
            inside = top
        for child in node["children"]:
            walk(child, inside)

    for node in pending.get(0, []):
        walk(node, None)
    return out


def import_breakdown(gate, workdir):
    log = os.path.join(workdir, "importtime.log")
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, output = run_child([sys.executable, "-X", "importtime", "-c", "import diskmap"], log)
        if gate.check("importtime run exits 0", lambda: code == 0):
            samples.append(parse_importtime(output))
    out = {k: statistics.median(s[k] for s in samples) if samples else 0.0 for k in IMPORT_METRICS}
    out["cli.import_own_frac"] = out["cli.import_own_s"] / out["cli.import_s"] if out["cli.import_s"] else 0.0
    return out


# ---------------------------------------------------------------------------
# rounds


def timed_round(w, dm, rng, workdir):
    out = {}
    error = None
    t0 = time.perf_counter()
    try:
        w.round(dm, rng, workdir, out)
    except Exception as e:  # counted as a failed check below
        error = e
    return time.perf_counter() - t0, out, error


def check_round(gate, w, out, error):
    def completed():
        if error is not None:
            raise error
        return True

    gate.check(f"{w.name} round completed", completed)
    w.checks(gate, out)


def tail(samples):
    """(value, percentile) with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cli_chain(w, gate, workdir, reference, in_process=None):
    """Run the workload's CLI chain; returns (seconds, max child RSS MiB, out dir)."""
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    rss = 0.0
    t0 = time.perf_counter()
    for step in w.cli:
        args = [a.format(out=out_dir) for a in step]
        if in_process is None:
            code, step_rss, _ = run_child([sys.executable, "-m", "diskmap"] + args, os.path.join(out_dir, "cli.log"))
            rss = max(rss, step_rss)
        else:
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = in_process(args)
            except Exception as e:  # counted as a failed check below
                code = f"{type(e).__name__}: {e}"
        gate.check(f"CLI {step[0]} exits 0", lambda: code == 0)
    seconds = time.perf_counter() - t0
    w.cli_checks(gate, out_dir, reference)
    return seconds, rss, out_dir


def untraced_run(w, dm, seed, seconds, gate, workdir, record):
    _, warm, error = timed_round(w, dm, np.random.default_rng(seed), workdir)
    check_round(gate, w, warm, error)

    # The host's speed drifts over seconds, so cold imports, CLI chains and
    # rounds take turns across the whole run instead of running in blocks;
    # each median then samples the same stretch of time.
    rng = np.random.default_rng(seed)
    setup, chains, rounds, rss = [], [], [], 0.0
    for cycle in range(CYCLES):
        seconds_import = cold_import(gate, workdir)
        if seconds_import is not None:
            setup.append(seconds_import)
        dt, chain_rss, _ = cli_chain(w, gate, workdir, warm.get(w.reference_key))
        chains.append(dt)
        rss = max(rss, chain_rss)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / CYCLES or len(rounds) <= cycle:
            dt, out, error = timed_round(w, dm, rng, workdir)
            rounds.append(dt)
            check_round(gate, w, out, error)

    tracemalloc.start()
    _, out, error = timed_round(w, dm, np.random.default_rng(seed), workdir)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    check_round(gate, w, out, error)

    tail_value, tail_pct = tail(rounds)
    record.update(
        rounds=len(rounds),
        round_tail_percentile=tail_pct,
        round_samples_s=rounds,
        setup_samples_s=setup,
        cli_samples_s=chains,
    )
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "round_s": statistics.median(rounds),
        "round_tail_s": tail_value,
        "cli_s": statistics.median(chains),
        "peak_mib": peak / 2**20,
        "cli_rss_mib": rss,
    }


def traced_run(w, dm, seed, seconds, gate, workdir, record):
    tracer = Tracer()
    _, warm, error = timed_round(w, dm, np.random.default_rng(seed), workdir)
    check_round(gate, w, warm, error)

    # untraced and traced rounds alternate and see the same inputs, so their
    # difference is the tracing overhead
    plain_rng, traced_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    plain, traced, uncovered = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        dt, out, error = timed_round(w, dm, plain_rng, workdir)
        plain.append(dt)
        check_round(gate, w, out, error)
        tracer.install()
        covered = tracer.covered
        dt, out, error = timed_round(w, dm, traced_rng, workdir)
        tracer.uninstall()
        traced.append(dt)
        uncovered.append((dt - (tracer.covered - covered)) / dt)
        check_round(gate, w, out, error)
    rounds = len(traced)
    stats, counts, calls_from = tracer.stats, dict(tracer.counts), dict(tracer.calls_from)

    tracer.reset()
    bytes_written = 0
    for _ in range(CLI_TRACED_CHAINS):
        tracer.install()
        _, _, out_dir = cli_chain(w, gate, workdir, warm.get(w.reference_key), in_process=dm.cli.main)
        tracer.uninstall()
        bytes_written += sum(
            os.path.getsize(os.path.join(out_dir, name))
            for name in os.listdir(out_dir)
        )
    cli_stats = tracer.stats
    for key, value in tracer.counts.items():
        if key.endswith(".errors"):
            counts[key] = counts.get(key, 0) + value

    metrics = {}

    def span_metrics(table, source, per):
        for name, spans in table.items():
            metrics[f"{name}_s"] = sum(source[s][2] for s in spans if s in source) / per
            metrics[f"{name}_total_s"] = sum(source[s][1] for s in spans if s in source) / per

    span_metrics(SPAN_METRICS, stats, rounds)
    span_metrics(CLI_SPAN_METRICS, cli_stats, CLI_TRACED_CHAINS)

    def calls(span):
        return stats[span][0] / rounds if span in stats else 0.0

    metrics["solver.univalence_calls"] = calls("solver.univalence")
    metrics["certify.univalence_calls"] = calls_from.get(("solver.univalence", "certify"), 0) / rounds
    metrics["solver.apply_operator_calls"] = calls("solver.apply_operator")
    metrics["blaschke.boundary_trace_calls"] = calls("blaschke.boundary_trace")
    for n in OPERATOR_SIZES:
        k = counts.get(f"solver.apply_operator_calls.n{n}", 0)
        metrics[f"solver.apply_operator_call_s.n{n}"] = counts[f"solver.apply_operator_time.n{n}"] / k if k else 0.0
    for name in ROUND_COUNTS:
        metrics[name] = counts.get(name, 0) / rounds
    metrics["cli.bytes_written"] = bytes_written / CLI_TRACED_CHAINS
    metrics.update(import_breakdown(gate, workdir))
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["trace.uncovered_frac"] = statistics.median(uncovered)
    metrics["trace.missing_targets"] = len(tracer.missing)
    metrics["trace.rounds"] = rounds

    record.update(
        rounds=rounds,
        round_untraced_s=plain_s,
        round_traced_s=traced_s,
        missing_targets=tracer.missing,
        hook_failures=sorted(tracer.hook_failures),
        spans={
            span: {"calls": c / rounds, "self_s": s / rounds, "total_s": t / rounds}
            for span, (c, t, s) in sorted(stats.items())
        },
        cli_spans={
            span: {"calls": c / CLI_TRACED_CHAINS, "self_s": s / CLI_TRACED_CHAINS, "total_s": t / CLI_TRACED_CHAINS}
            for span, (c, t, s) in sorted(cli_stats.items())
        },
    )
    return metrics


def run_workload(w, dm, seed, seconds, trace, workdir):
    gate = Gate()
    record = {"workload": w.name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace}
    record["environment"] = environment(dm)
    run = traced_run if trace else untraced_run
    values = run(w, dm, seed, seconds, gate, workdir, record)
    spec = per_layer_spec() if trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}
    record.update(
        attempted=gate.attempted,
        failed=gate.failed,
        failed_frac=gate.failed / gate.attempted,
        failures=gate.failures,
    )
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}, record


def print_report(result, record):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} rounds={record['rounds']}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if "round_tail_percentile" in record:
        print(f"round_tail_s is the p{record['round_tail_percentile']:.1f} of {record['rounds']} rounds")
    if record.get("missing_targets"):
        print("missing span targets: " + ", ".join(record["missing_targets"]))
    print(f"failed_frac {record['failed_frac']:.6g} ratio ({record['failed']} of {record['attempted']} checks)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="diskmap benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diskmap", "__init__.py")):
        print(f"no diskmap sources under {SRC}; run from the root of a diskmap checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the CLI chains name files relative to the checkout
    sys.path.insert(0, SRC)
    import diskmap
    import diskmap.cli  # noqa: F401  (the traced run wraps its functions too)

    if os.path.dirname(os.path.abspath(diskmap.__file__)) != os.path.join(SRC, "diskmap"):
        print(f"imported diskmap from {diskmap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    results = {}
    try:
        for name in names:
            result, record = run_workload(WORKLOADS[name], diskmap, args.seed, args.seconds, args.trace, workdir)
            print_report(result, record)
            print(json.dumps({"record": record}, sort_keys=True))
            results[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
