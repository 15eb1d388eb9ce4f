#!/usr/bin/env python3
"""The qordsearch benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; it imports the package from ``src/`` and
refuses to run without it. Each pass starts when the previous one ends, on a
single Python thread; BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import qordsearch and build the inputs), ``solve_s``
(median of full workload passes, the program's own verification included),
``cli_s`` (median of fresh ``python -m qordsearch.cli`` processes) and
``peak_rss_mib`` (this process); the three times are rescaled to a reference
host speed (see :class:`HostSpeed`). ``--trace 1`` reports the per-layer metrics
from passes run under :mod:`tracer`, interleaved with untraced passes to
measure the tracing overhead, plus the scaling ladder and the CLI's import
and command time. Every pass and CLI run is checked; the counts go into
``attempted`` and ``failed``. See ``bench/README.md`` for the metric map.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs tiny sizes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 1
CLI_PROBES = 3
CLI_PER_PASS = 2
SUBPROCESS_TIMEOUT = 150

END_TO_END = {"setup_s": "s", "solve_s": "s", "cli_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics read from the tracer's aggregates for each traced pass.
LAYER_METRICS = [
    "lowerbound.weighted_overlap.calls",
    "lowerbound.weighted_overlap.self_s",
    "lowerbound.pairwise_drop.calls",
    "lowerbound.pairwise_drop.self_s",
    "lowerbound.mass_profile.calls",
    "lowerbound.mass_profile.self_s",
    "lowerbound.run_trajectory.self_s",
    "lowerbound.verify_drop_chain.calls",
    "lowerbound.verify_drop_chain.self_s",
    "lowerbound.verify_drop_chain.failures",
    "lowerbound.hankel_matrix.calls",
    "lowerbound.spectral_norm.calls",
    "lowerbound.spectral_norm.self_s",
    "qcore.inner_product.calls",
    "qcore.inner_product.self_s",
    "qcore.inner_product.nonzero_frac",
    "qcore.state_new.calls",
    "qcore.state_new.self_s",
    "qcore.items.calls",
    "qcore.items.self_s",
    "qcore.apply_linear.calls",
    "qcore.apply_linear.self_s",
    "qcore.apply_linear.labels_in",
    "qcore.apply_linear.labels_out",
    "qcore.measure_distribution.calls",
    "qcore.measure_distribution.self_s",
    "oracle.apply_query.calls",
    "oracle.apply_query.self_s",
    "oracle.apply_query.labels",
    "teamsearch.apply_combine.calls",
    "teamsearch.apply_combine.self_s",
    "teamsearch.apply_refine.calls",
    "teamsearch.apply_refine.self_s",
    "teamsearch.advance.calls",
    "teamsearch.advance.self_s",
    "teamsearch.initial_state.calls",
    "teamsearch.initial_state.self_s",
    "teamsearch.run_algorithm.self_s",
    "teamsearch.decompose.calls",
    "teamsearch.decompose.self_s",
    "teamsearch.query_count_model.calls",
    "teamsearch.query_count_model.self_s",
]
# Whole-run metrics of the traced run.
RUN_METRICS = [
    "split.lowerbound_frac",
    "split.core_frac",
    "trace.solve_s",
    "trace.untraced_solve_s",
    "trace.overhead_frac",
    "cli.import_s",
    "cli.command_s",
]
# Scaling ladders: the workload that runs each, and the functions whose self
# time is recorded per rung (rungs 0, 1, 2 from the smallest size up).
LADDERS = {
    "bin": (
        "chain-binary",
        [
            "lowerbound.weighted_overlap",
            "lowerbound.pairwise_drop",
            "lowerbound.mass_profile",
            "lowerbound.verify_drop_chain",
            "lowerbound.run_trajectory",
            "lowerbound.spectral_norm",
            "qcore.inner_product",
            "qcore.state_new",
            "qcore.items",
            "qcore.apply_linear",
        ],
    ),
    "team": (
        "exact-sweep",
        [
            "qcore.state_new",
            "qcore.items",
            "qcore.apply_linear",
            "qcore.measure_distribution",
        ],
    ),
}
RUNGS = 3


def ladder_metric_names() -> list[str]:
    names = []
    for tag, (_, functions) in LADDERS.items():
        for fn in functions:
            names += [f"{fn}.self_s.{tag}{rung}" for rung in range(RUNGS)]
            names.append(f"{fn}.slope.{tag}")
    return names


def per_layer_spec() -> list[dict]:
    """The per-layer metrics as BENCHMARK.json lists them."""
    spec = []
    for name in LAYER_METRICS + RUN_METRICS + ladder_metric_names():
        field = name.split(".")[-1]
        if name.endswith("_s") or ".self_s." in name:
            unit = "s"
        elif field.endswith("frac"):
            unit = "ratio"
        elif ".slope." in name:
            unit = "1"
        else:
            unit = "count"
        better = "higher" if field == "nonzero_frac" else "lower"
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


# ---------------------------------------------------------------------------
# Measurement helpers


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return env


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=SUBPROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


# The host's speed drifts by up to 1.7x within seconds (other tenants on the
# same cores), which no number of samples per run averages out. So every
# end-to-end time is rescaled by the speed of a fixed pure-Python kernel,
# timed right before and after the sample and, for passes in this process,
# every SAMPLE_INTERVAL_S during it: the result is seconds at the speed where
# the kernel takes REFERENCE_KERNEL_S. Kernel time inside a pass is subtracted.
# The kernel's working set (a few MB of dict, tuples and list) is what makes
# it slow down with the workloads; a cache-resident kernel tracks them worse.
REFERENCE_KERNEL_S = 0.01
KERNEL_REPEATS = 5
SAMPLE_INTERVAL_S = 0.25


def reference_kernel():
    table = {}
    for i in range(20_000):
        table[(i, i + 1)] = complex(i, 1.0)
    return sorted(table.items(), key=lambda kv: kv[0])


class HostSpeed:
    """Rescales wall times by the reference kernel timed around and during them."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._during: list[float] = []
        self._before = self._bracket()

    def _kernel(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        return elapsed

    def _bracket(self) -> list[float]:
        return [self._kernel() for _ in range(KERNEL_REPEATS)]

    def timed(self, fn):
        """Run ``fn`` with the kernel sampled on SIGALRM; returns (result, wall seconds)."""

        def sample(signum, frame):
            self._during.append(self._kernel())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, elapsed

    def rescale(self, seconds: float) -> float:
        """Call right after timing ``seconds``, directly or through :meth:`timed`."""
        during, self._during = self._during, []
        after = self._bracket()
        kernel = statistics.fmean(self._before + during + after)
        self._before = after
        return (seconds - sum(during)) * REFERENCE_KERNEL_S / kernel


def run_cli(command: list[str], cli_args: list[str]):
    """Run one CLI process; returns (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *command, *cli_args],
        capture_output=True,
        env=child_env(),
        cwd=ROOT,
        timeout=SUBPROCESS_TIMEOUT,
    )
    return time.perf_counter() - start, proc


class CliChecker:
    """Checks exit code, pass-to-pass identical stdout and the workload's content check."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.first_stdout = None

    def __call__(self, proc, result):
        checks = self.checks
        checks.check(
            proc.returncode == 0,
            f"CLI exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}",
        )
        if self.first_stdout is None:
            self.first_stdout = proc.stdout
        else:
            checks.check(proc.stdout == self.first_stdout, "CLI stdout differs between runs")
        try:
            text = proc.stdout.decode("utf-8")
        except UnicodeDecodeError:
            checks.check(False, "CLI stdout is not UTF-8")
            return
        self.workload.check_cli(text, result, checks)


def keep_going(count: int, minimum: int, start: float, seconds: float, last: float) -> bool:
    """Closed-loop stop rule: the minimum count, then while another cycle fits."""
    elapsed = time.perf_counter() - start
    return count < minimum or elapsed + last <= seconds


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end_run(args, workload, checks, report) -> dict:
    speed = HostSpeed()
    samples = {"setup_s": [], "solve_s": [], "cli_s": []}
    raw = {name: [] for name in samples}

    def record(name: str, seconds: float):
        raw[name].append(seconds)
        samples[name].append(speed.rescale(seconds))

    for _ in range(3 if args.smoke else SETUP_SAMPLES):
        record("setup_s", time_setup(args))
    workload.setup(args.seed)
    cli_check = CliChecker(workload, checks)
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        result, seconds = speed.timed(workload.solve)
        record("solve_s", seconds)
        workload.check(result, checks)
        for _ in range(CLI_PER_PASS):
            seconds, proc = run_cli(["-m", "qordsearch.cli"], workload.cli_args)
            record("cli_s", seconds)
            cli_check(proc, result)
        last = time.perf_counter() - cycle_start
        if not keep_going(len(samples["solve_s"]), MIN_PASSES, start, args.seconds, last):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        report(f"{name}: median {median(values):.6g} s, q1 {q1:.6g}, q3 {q3:.6g}, "
               f"{len(values)} samples; raw wall median {median(raw[name]):.6g} s")
    report(f"reference kernel: median {median(speed.kernel_s):.6g} s "
           f"(rescaled to {REFERENCE_KERNEL_S} s), {len(speed.kernel_s)} timings")
    report(f"peak_rss_mib: {peak_rss_mib:.6g} MiB")
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["peak_rss_mib"] = peak_rss_mib
    return metrics


def layer_metrics(snapshot: dict, pass_s: float) -> dict:
    stats, counters = snapshot["stats"], snapshot["counters"]
    values = {}
    for name in LAYER_METRICS:
        fn, _, field = name.rpartition(".")
        calls, _total, own = stats.get(fn, (0, 0.0, 0.0))
        if field == "calls":
            values[name] = calls
        elif field == "self_s":
            values[name] = own
        elif field == "nonzero_frac":
            values[name] = counters.get(f"{fn}.nonzero", 0) / calls if calls else 0.0
        else:
            values[name] = counters.get(name, 0)
    core = sum(
        own
        for fn, (_, _, own) in stats.items()
        if fn.split(".")[0] in ("qcore", "oracle", "teamsearch")
    )
    values["split.lowerbound_frac"] = snapshot["owner_self"].get("lowerbound", 0.0) / pass_s
    values["split.core_frac"] = core / pass_s
    return values


def slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); 0 if any time is 0."""
    if min(times) <= 0:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def traced_run(args, workload, checks, report) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    workload.setup(args.seed)
    untraced, traced, per_pass = [], [], []
    main_result = None
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        result = workload.solve()
        untraced.append(time.perf_counter() - cycle_start)
        workload.check(result, checks)
        tracer.reset()
        with tracer.installed(), tracer.span(f"pass:{workload.name}"):
            pass_start = time.perf_counter()
            result = workload.solve()
            pass_s = time.perf_counter() - pass_start
        traced.append(pass_s)
        per_pass.append(layer_metrics(tracer.snapshot(), pass_s))
        workload.check(result, checks)
        main_result = result
        last = time.perf_counter() - cycle_start
        if not keep_going(len(traced), MIN_TRACED_PASSES, start, args.seconds, last):
            break
    metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["trace.solve_s"] = median(traced)
    metrics["trace.untraced_solve_s"] = median(untraced)
    metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0

    for name in ladder_metric_names():
        metrics[name] = 0.0
    for tag, (owner, functions) in LADDERS.items():
        if owner != workload.name:
            continue
        sizes, rungs = [], []
        for size, ladder_pass in workload.ladder():
            if ladder_pass is None:
                rungs.append({f"{fn}.self_s": metrics[f"{fn}.self_s"] for fn in functions})
            else:
                tracer.reset()
                with tracer.installed(), tracer.span(f"ladder:{workload.name}:{size}"):
                    rung_start = time.perf_counter()
                    result = ladder_pass()
                    rung_s = time.perf_counter() - rung_start
                rungs.append(layer_metrics(tracer.snapshot(), rung_s))
                workload.check(result, checks)
            sizes.append(size)
        for fn in functions:
            times = [rung[f"{fn}.self_s"] for rung in rungs]
            for index, value in enumerate(times):
                metrics[f"{fn}.self_s.{tag}{index}"] = value
            metrics[f"{fn}.slope.{tag}"] = slope(sizes, times)
        report(f"ladder {tag}: sizes {sizes}")

    cli_check = CliChecker(workload, checks)
    imports, commands = [], []
    for _ in range(CLI_PROBES):
        _, proc = run_cli([str(BENCH / "cli_probe.py")], workload.cli_args)
        cli_check(proc, main_result)
        try:
            timing = json.loads(proc.stderr.decode().strip().splitlines()[-1])
            imports.append(timing["import_s"])
            commands.append(timing["command_s"])
        except (ValueError, IndexError, KeyError, TypeError):
            checks.check(False, "CLI probe printed no timing line")
    metrics["cli.import_s"] = median(imports) if imports else 0.0
    metrics["cli.command_s"] = median(commands) if commands else 0.0

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    report(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
           f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


# ---------------------------------------------------------------------------
# Environment record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qordsearch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chain-binary", "chain-team", "exact-sweep", "accounting"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qordsearch" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'qordsearch'}; "
              "run from the root of a qordsearch checkout", file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads; the CLI children get the same pins. One
    # CPU for this process and its children, so that the reference kernel
    # runs where the timed work runs.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import qordsearch

    if Path(qordsearch.__file__).resolve().parent != SRC / "qordsearch":
        print(f"bench: imported qordsearch from {qordsearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.smoke)
    if args.probe_setup:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    print(json.dumps({"env": environment(args)}), flush=True)

    def report(line: str):
        print(f"{args.workload}: {line}", flush=True)

    checks = workloads.Checks()
    if args.trace:
        metrics = traced_run(args, workload, checks, report)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        metrics = end_to_end_run(args, workload, checks, report)
        units = END_TO_END
    failed = len(checks.failures)
    for message in checks.failures[:20]:
        report(f"FAILED {message}")
    report(f"failed_frac: {failed}/{checks.attempted} = {failed / checks.attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
