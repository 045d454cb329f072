"""Spans around the calls into nopolock's modules, recorded from outside ``src/``.

While a traced sample runs, :meth:`Tracer.installed` replaces the module
globals through which one nopolock module calls another (``SITES``) with
timing wrappers, and restores them afterwards.  A span is a name, start and
end in nanoseconds, the index of its parent span (-1 for none) and the
sample it belongs to; spans stay in memory, one list per field (so the
garbage collector does not walk one object per span), until the benchmark
writes them out at its end.  A span's self time is its duration minus the
durations of its direct children; a module's self time is the sum over the
spans named after it.

The forked Monte Carlo pool records its spans in the worker processes, out
of reach of these wrappers, so a traced sample runs the same ensemble with
one worker: chunk streams are keyed by chunk index, and the realization is
bitwise identical for any worker count.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from nopolock.montecarlo import SimConfig, ensemble_moments

#: (module whose global is replaced, global name, span name).  A span is
#: named after the layer whose cost it measures: ``drift_field`` is defined
#: in ``dynamics`` but counted where ``montecarlo`` looks it up.
SITES = (
    ("cli", "derive_scales", "params.derive_scales"),
    ("cli", "replace_pump", "steady.replace_pump"),
    ("cli", "steady_state", "steady.steady_state"),
    ("cli", "variance_steady", "entanglement.variance_steady"),
    ("cli", "unitary_variance", "entanglement.unitary_variance"),
    ("cli", "ensemble_moments", "montecarlo.ensemble_moments"),
    ("cli", "phase_histogram", "montecarlo.phase_histogram"),
    ("entanglement", "variance_below", "entanglement.variance_below"),
    ("entanglement", "variance_above", "entanglement.variance_above"),
    ("entanglement", "equal_time_corr_below", "fluctuations.equal_time_corr_below"),
    ("entanglement", "above_matrices", "fluctuations.above_matrices"),
    ("entanglement", "steady_state", "steady.steady_state"),
    ("fluctuations", "below_matrices", "fluctuations.below_matrices"),
    ("fluctuations", "steady_state", "steady.steady_state"),
    ("steady", "stability_eigenvalues", "steady.stability_eigenvalues"),
    ("montecarlo", "drift_field", "montecarlo.drift_field"),
    ("montecarlo", "noise_increment", "montecarlo.noise_increment"),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    FIELDS = ("name", "start_ns", "end_ns", "parent", "sample")

    def __init__(self) -> None:
        self.spans: dict[str, list] = {key: [] for key in self.FIELDS}
        self.sample = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` around each call."""
        names, starts, ends, parents, samples = (self.spans[k] for k in self.FIELDS)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            samples.append(self.sample)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in :data:`SITES`; yields the sites that do not exist."""
        saved, missing = [], []
        for module, attr, name in SITES:
            mod = importlib.import_module(f"nopolock.{module}")
            if not hasattr(mod, attr):
                missing.append(f"{module}.{attr}")
                continue
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        try:
            yield missing
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def summarize(spans: dict[str, list]) -> dict:
    """Calls, total and self nanoseconds per span name and per module."""
    names, parents = spans["name"], spans["parent"]
    durations = [end - start for start, end in zip(spans["start_ns"], spans["end_ns"])]
    child_ns = [0] * len(names)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            child_ns[parent] += duration
    calls, total_ns, self_ns, module_self_ns = Counter(), Counter(), Counter(), Counter()
    for name, parent, duration, inner in zip(names, parents, durations, child_ns):
        calls[name] += 1
        total_ns[name] += duration
        self_ns[name] += duration - inner
        module_self_ns[name.split(".", 1)[0]] += duration - inner
        # split variance_steady by the evaluator it dispatched to
        if name in ("entanglement.variance_below", "entanglement.variance_above") \
                and parent >= 0 and names[parent] == "entanglement.variance_steady":
            key = f"entanglement.variance_steady.{name.rsplit('_', 1)[1]}"
            calls[key] += 1
            total_ns[key] += durations[parent]
    return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns,
            "module_self_ns": module_self_ns}


def us_per_call(stats: dict, name: str) -> float:
    """Mean span duration in microseconds; 0 when the workload never calls it."""
    n = stats["calls"][name]
    return stats["total_ns"][name] / n / 1e3 if n else 0.0


def probe_montecarlo(params, scales, seed: int, t_max: float, dt: float,
                     widths=(512, 4096), repeats: int = 3) -> dict[str, float]:
    """Untraced Monte Carlo layer probes, independent of the workload.

    ``rng_draw_us``: one Philox ``standard_normal((4, 512))`` draw, the
    noise a 512-wide chunk consumes per Euler step.  ``step_ns_w<W>``: one
    trajectory-step of ``ensemble_moments`` with a single chunk of width W.
    """
    out = {}
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    n_draws = int(round(t_max / dt))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n_draws):
            gen.standard_normal((4, 512))
        times.append(time.perf_counter() - t0)
    out["rng_draw_us"] = statistics.median(times) / n_draws * 1e6
    for width in widths:
        config = SimConfig(dt=dt, t_max=t_max, burn_in=t_max / 2, n_traj=width,
                           chunk_size=width, seed=seed)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ensemble_moments(params, scales, config, ["n1"])
            times.append(time.perf_counter() - t0)
        out[f"step_ns_w{width}"] = statistics.median(times) / (n_draws * width) * 1e9
    return out
