"""nopolock benchmark: three workloads through ``nopolock.cli.main``, checked.

Run from the repository root::

    python3 bench/run.py --workload mc-below --seed 0 --seconds 35 --trace 0

``--workload`` is ``mc-below``, ``mc-phases`` or ``analytic-sweep`` (see
``workloads.py``).  The run is a closed loop with one client: each sample
starts when the previous one has returned, until ``--seconds`` are used.
Every sample's outputs are checked; a sample fails on a non-zero exit, an
exception or a failed check.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files
go to ``.bench_out/`` under the repository root.  BLAS/OpenMP threads are
pinned to one in the benchmark's environment, which the Monte Carlo pool
inherits.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("time_to_1pct_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("montecarlo.rng_draw.us_per_step", "us", "lower"),
    ("montecarlo.noise_increment.us_per_call", "us", "lower"),
    ("montecarlo.drift_field.us_per_call", "us", "lower"),
    ("montecarlo.step_other.us_per_step", "us", "lower"),
    ("montecarlo.step.ns_per_traj_step_w512", "ns", "lower"),
    ("montecarlo.step.ns_per_traj_step_w4096", "ns", "lower"),
    ("montecarlo.drift_field.calls", "count", "lower"),
    ("montecarlo.noise_increment.calls", "count", "lower"),
    ("montecarlo.passes", "count", "lower"),
    ("montecarlo.discard_fraction", "fraction", "lower"),
    ("montecarlo.pool.parallel_efficiency", "fraction", "higher"),
    ("montecarlo.self_s", "s", "lower"),
    ("steady.steady_state.us_per_call", "us", "lower"),
    ("steady.steady_state.calls", "count", "lower"),
    ("steady.stability_eigenvalues.calls", "count", "lower"),
    ("steady.self_s", "s", "lower"),
    ("fluctuations.below_matrices.us_per_call", "us", "lower"),
    ("fluctuations.equal_time_corr_below.us_per_call", "us", "lower"),
    ("fluctuations.above_matrices.us_per_call", "us", "lower"),
    ("fluctuations.self_s", "s", "lower"),
    ("entanglement.variance_steady.below.us_per_call", "us", "lower"),
    ("entanglement.variance_steady.above.us_per_call", "us", "lower"),
    ("entanglement.unitary_variance.us_per_call", "us", "lower"),
    ("entanglement.self_s", "s", "lower"),
    ("params.derive_scales.us_per_call", "us", "lower"),
    ("params.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
#: the throughput metric under the name the workload's work unit gives it
THROUGHPUT_ALIAS = {"mc-below": "traj_steps_per_s", "mc-phases": "traj_steps_per_s",
                    "analytic-sweep": "points_per_s"}
MIN_TAIL = 10  # samples that must lie beyond a reported percentile


def prepare() -> None:
    """Pin BLAS/OpenMP threads and put ``src`` first on the import path.

    Runs before numpy is imported, which reads the thread settings once.
    """
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Sample:
    """One workload run: timing, exit codes and the CSV files it wrote."""

    wall_s: float
    busy_s: float  # CPU seconds of this process and of reaped pool workers
    exit_codes: list
    error: str | None
    outputs: dict[str, str]


@dataclass
class Outcome:
    """A benchmark run's result line, its human-readable lines and trace."""

    result: dict
    lines: list[str]
    trace: dict | None = None


def run_sample(cli_main, invocations, outdir: Path) -> Sample:
    """Run one sample's CLI invocations in process, timing them."""
    for old in outdir.glob("*.csv"):
        old.unlink()
    codes, error = [], None
    cpu0, t0 = os.times(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints "wrote <path>"
        for argv in invocations:
            try:
                codes.append(cli_main([*argv, "--outdir", str(outdir)]))
            except Exception:  # a crash of the program is a failed sample
                error = traceback.format_exc()
                break
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    if error:
        print(error, file=sys.stderr)
    return Sample(wall_s=wall, busy_s=sum(cpu1[i] - cpu0[i] for i in range(4)),
                  exit_codes=codes, error=error,
                  outputs={p.name: p.read_text() for p in sorted(outdir.glob("*.csv"))})


class Judge:
    """Checks the first sample's outputs; later samples must repeat them bytewise.

    Every sample of a run uses the same seed, so any difference is a
    failure (the traced samples, run with one worker, included).
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.first: dict | None = None
        self.verdict: list[str] = []

    def __call__(self, sample: Sample) -> list[str]:
        if sample.error:
            return [f"exception: {sample.error.strip().splitlines()[-1]}"]
        bad = [code for code in sample.exit_codes if code != 0]
        if bad:
            return [f"exit code {bad[0]}"]
        if self.first is None:
            self.first, self.verdict = sample.outputs, self.spec.check(sample.outputs)
            return self.verdict
        if sample.outputs != self.first:
            return ["outputs differ from the run's first sample"]
        return self.verdict


def closed_loop(seconds: float, step) -> None:
    """Call ``step`` until the next call would end after ``seconds`` (at least once)."""
    start, last, n = time.perf_counter(), 0.0, 0
    while n == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last, n = time.perf_counter() - t0, n + 1


def setup_time(repeats: int) -> float:
    """Median time from starting a fresh interpreter to ``import nopolock.cli`` done.

    One untimed start comes first, so byte-compiling ``src`` is not counted.
    The child reports ``time.monotonic()``, the same system-wide clock.
    """
    code = "import time, nopolock.cli; print(repr(time.monotonic()))"
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(repeats + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        if i:
            times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def percentile_line(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least MIN_TAIL samples beyond it."""
    ordered = sorted(values)
    line = f"{name:<18} {statistics.median(ordered):.6g} {unit}  median of {len(ordered)}"
    k = len(ordered) - MIN_TAIL
    if k >= 1:
        line += f"; p{100 * k / len(ordered):.0f} = {ordered[k - 1]:.6g} {unit}"
    else:
        line += f"; no tail percentile (needs more than {MIN_TAIL} samples)"
    return line


def _metrics(values: dict[str, float], catalogue) -> dict:
    units = {name: unit for name, unit, _ in catalogue}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in catalogue}


def _failure_lines(failures: list[list[str]]) -> list[str]:
    failed = [f for f in failures if f]
    lines = [f"failed_fraction    {len(failed) / len(failures):.6g}  "
             f"({len(failed)} of {len(failures)} samples)"]
    messages = list(dict.fromkeys(msg for f in failed for msg in f))
    lines += [f"check failed: {msg}" for msg in messages[:10]]
    return lines


def _end_to_end(spec, sizes, seconds, cli_main, outdir) -> tuple[dict, list[str], list]:
    judge = Judge(spec)
    walls, failures = [], []

    def step():
        # only the judge keeps outputs, so the benchmark's own memory does
        # not grow with the sample count
        sample = run_sample(cli_main, spec.invocations, outdir)
        walls.append(sample.wall_s)
        failures.append(judge(sample))

    closed_loop(seconds, step)
    # read before setup_time starts other children: RUSAGE_CHILDREN then
    # covers only pool workers
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = statistics.median(walls)
    rel = spec.n1_relative_error(judge.first) if judge.first and not judge.verdict else None
    values = {
        "setup_s": setup_time(sizes.setup_repeats),
        "wall_s": wall,
        "throughput_per_s": spec.work / wall,
        # never less than one run; a deterministic result is exact after one
        "time_to_1pct_s": wall * max(1.0, (rel / 0.01) ** 2) if rel is not None else wall,
        "peak_rss_mb": peak_kb / 1024,
    }
    lines = [
        f"setup_s            {values['setup_s']:.6g} s  median of "
        f"{sizes.setup_repeats} fresh interpreters",
        percentile_line("wall_s", walls, "s"),
        "wall_s samples     " + " ".join(f"{w:.4g}" for w in walls),
        f"{THROUGHPUT_ALIAS[spec.name]:<18} {values['throughput_per_s']:.6g} 1/s  "
        f"(throughput_per_s; {spec.work} units per sample)",
        f"time_to_1pct_s     {values['time_to_1pct_s']:.6g} s"
        + (f"  (std_error(n1)/|n1_ref| = {rel:.4g})" if rel is not None else
           "  (exact result: one run)"),
        f"peak_rss_mb        {values['peak_rss_mb']:.6g} MB  (this process + "
        "largest pool worker)",
    ]
    return _metrics(values, END_TO_END), lines, failures


def _per_layer(spec, sizes, seconds, seed, cli_main, outdir, tracer) -> tuple[dict, list[str], list]:
    import tracing
    import workloads

    judge = Judge(spec)
    untraced, baseline, traced, failures, missing = [], [], [], [], []
    traced_main = tracer.wrap("cli.main", cli_main)

    def judged(sample: Sample) -> Sample:
        failures.append(judge(sample))
        sample.outputs = {}  # the judge keeps the first sample's
        return sample

    def one_round():
        untraced.append(judged(run_sample(cli_main, spec.invocations, outdir)))
        if spec.traced_invocations != spec.invocations:
            baseline.append(judged(run_sample(cli_main, spec.traced_invocations, outdir)))
        tracer.sample = len(traced)
        with tracer.installed() as gone:
            traced.append(run_sample(traced_main, spec.traced_invocations, outdir))
        missing[:] = gone
        judged(traced[-1])

    closed_loop(seconds, one_round)
    baseline = baseline or untraced
    stats = tracing.summarize(tracer.spans)
    calls, n = stats["calls"], len(traced)
    drift_calls = calls["montecarlo.drift_field"]
    params, scales, _ = workloads.point_system(workloads.BELOW_POINT)
    probes = tracing.probe_montecarlo(params, scales, seed, sizes.probe_t_max,
                                      workloads.DT)
    outputs = judge.first or {}
    discard = 0.0
    if "mc.csv" in outputs:
        discard = float(workloads.read_csv(outputs["mc.csv"])[2][0][-1])
    values = {
        "montecarlo.rng_draw.us_per_step": probes["rng_draw_us"],
        "montecarlo.noise_increment.us_per_call":
            tracing.us_per_call(stats, "montecarlo.noise_increment"),
        "montecarlo.drift_field.us_per_call":
            tracing.us_per_call(stats, "montecarlo.drift_field"),
        # chunk time per step beyond drift and noise: divergence mask,
        # where() and sample accumulation
        "montecarlo.step_other.us_per_step":
            (stats["self_ns"]["montecarlo.ensemble_moments"]
             + stats["self_ns"]["montecarlo.phase_histogram"]) / drift_calls / 1e3
            if drift_calls else 0.0,
        "montecarlo.step.ns_per_traj_step_w512": probes["step_ns_w512"],
        "montecarlo.step.ns_per_traj_step_w4096": probes["step_ns_w4096"],
        "montecarlo.drift_field.calls": drift_calls / n,
        "montecarlo.noise_increment.calls": calls["montecarlo.noise_increment"] / n,
        "montecarlo.passes": drift_calls / n / (spec.steps * spec.chunks)
            if spec.steps else 0.0,
        "montecarlo.discard_fraction": discard,
        "montecarlo.pool.parallel_efficiency": statistics.median(
            s.busy_s / (spec.workers * s.wall_s) for s in untraced) if spec.steps else 0.0,
        "steady.steady_state.us_per_call": tracing.us_per_call(stats, "steady.steady_state"),
        "steady.steady_state.calls": calls["steady.steady_state"] / n,
        "steady.stability_eigenvalues.calls": calls["steady.stability_eigenvalues"] / n,
        "fluctuations.below_matrices.us_per_call":
            tracing.us_per_call(stats, "fluctuations.below_matrices"),
        "fluctuations.equal_time_corr_below.us_per_call":
            tracing.us_per_call(stats, "fluctuations.equal_time_corr_below"),
        "fluctuations.above_matrices.us_per_call":
            tracing.us_per_call(stats, "fluctuations.above_matrices"),
        "entanglement.variance_steady.below.us_per_call":
            tracing.us_per_call(stats, "entanglement.variance_steady.below"),
        "entanglement.variance_steady.above.us_per_call":
            tracing.us_per_call(stats, "entanglement.variance_steady.above"),
        "entanglement.unitary_variance.us_per_call":
            tracing.us_per_call(stats, "entanglement.unitary_variance"),
        "params.derive_scales.us_per_call": tracing.us_per_call(stats, "params.derive_scales"),
        "cli.main.self_s": stats["module_self_ns"]["cli"] / n / 1e9,
        "cli.csv_bytes": sum(len(text.encode()) for text in outputs.values()),
        "trace.overhead_s": statistics.median(s.wall_s for s in traced)
            - statistics.median(s.wall_s for s in baseline),
    }
    for module in ("params", "steady", "fluctuations", "entanglement", "montecarlo"):
        values[f"{module}.self_s"] = stats["module_self_ns"][module] / n / 1e9
    lines = [f"{name:<48} {values[name]:.6g} {unit}" for name, unit, _ in PER_LAYER]
    lines.append(f"traced samples {n}, untraced {len(untraced)}; "
                 f"spans {len(tracer.spans['name'])}; missing sites {missing or 'none'}")
    if spec.traced_invocations != spec.invocations:
        lines.append("traced samples run the ensemble with one worker "
                     "(same realization, spans in process)")
    return _metrics(values, PER_LAYER), lines, failures


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        refs: dict | None = None) -> Outcome:
    """One benchmark run.  ``refs`` overrides reference values (tests use it)."""
    prepare()
    import tracing
    import workloads
    from nopolock import cli

    sizes = sizes or workloads.DEFAULT_SIZES
    spec = workloads.build(workload, seed, sizes)
    spec.refs.update(refs or {})
    prov = provenance(workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"run-{os.getpid()}"
    outdir.mkdir()
    try:
        run_sample(cli.main, workloads.build(workload, seed, workloads.WARMUP_SIZES)
                   .invocations, outdir)
        if trace:
            tracer = tracing.Tracer()
            metrics, lines, failures = _per_layer(spec, sizes, seconds, seed, cli.main,
                                                  outdir, tracer)
            record = {"provenance": prov, "metrics": metrics, "spans": tracer.spans}
        else:
            metrics, lines, failures = _end_to_end(spec, sizes, seconds, cli.main, outdir)
            record = None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failed = sum(1 for f in failures if f)
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": metrics}
    head = [f"workload {workload}  seed {seed}  closed loop, one client  "
            f"{'traced' if trace else 'untraced'}",
            "provenance " + json.dumps(prov, sort_keys=True)]
    return Outcome(result=result, lines=head + lines + _failure_lines(failures),
                   trace=record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-below", "mc-phases", "analytic-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nopolock" / "__init__.py").is_file():
        print(f"error: no nopolock package under {SRC}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if outcome.trace is not None:
        with gzip.open(OUT / f"trace-{args.workload}.json.gz", "wt", compresslevel=1) as f:
            json.dump(outcome.trace, f)
    print("\n".join(outcome.lines))
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
