"""The three benchmark workloads: CLI argument lists, reference values and checks.

Every workload is a closed loop with one client: ``nopolock.cli.main`` is
called in process, one invocation after the previous one returns.  One
"sample" is one workload run (one ``mc`` invocation, or the eight
invocations of the analytic sweep).  The program sees the benchmark seed
only as ``mc --seed``; the analytic workload is deterministic and does not
use it.

Why these three:

``mc-below``
    ROADMAP's reference Monte Carlo point below threshold, two 512-wide
    chunks in one worker.  Nearly all of its time is the Euler step.
``mc-phases``
    The bright locked state above threshold with ``--phases``: large
    amplitudes, histogram-heavy accumulation, one chunk per forked pool
    worker, and (today) two integration passes over the same ensemble.
``analytic-sweep``
    Figures 1-5 plus three 997-point variance sweeps: the analytic layers
    and the CLI's CSV formatting, with no Monte Carlo at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from nopolock import SystemParams, derive_scales, mean_photon_below, steady_state
from nopolock.entanglement import moments_below
from nopolock.montecarlo import (MAX_DISCARD_FRACTION, moment_label,
                                 parse_moment_spec)
from nopolock.steady import replace_pump


@dataclass(frozen=True)
class Sizes:
    """Run-length knobs.  The physics points and the chunk layout are fixed."""

    #: below threshold every decay rate is gamma, so after 2.5 the second
    #: moments sit within e^-5 of steady state
    below_t_max: float = 4.0
    below_burn_in: float = 2.5
    #: above threshold the phase difference needs about 4 to lock (>= 0.9)
    phases_t_max: float = 5.5
    phases_burn_in: float = 4.0
    sweep_step: float = 0.003
    #: fresh interpreters timed for ``setup_s`` (one more runs untimed first)
    setup_repeats: int = 5
    #: simulated time of each width probe in the traced run
    probe_t_max: float = 0.5


DEFAULT_SIZES = Sizes()
#: sizes of the untimed warm-up sample that fills lazy imports and caches
WARMUP_SIZES = Sizes(below_t_max=0.02, below_burn_in=0.01, phases_t_max=0.02,
                     phases_burn_in=0.01, sweep_step=0.1)

DT = 1e-3
N_TRAJ = 1024
CHUNK_SIZE = 512

BELOW_POINT = {"delta": 3.0, "chi": 0.5, "lam": 0.05, "eps_ratio": 0.6}
PHASES_POINT = {"delta": 3.0, "chi": 0.5, "lam": 0.01, "eps_ratio": 1.5}
BELOW_MOMENTS = ("n1", "a1a2", "b1a2", "a1")  # the CLI default, in its order
PHASES_MOMENTS = ("n1", "a1a2")
#: figure-3 points (chi, delta) swept by ``nopolock variance``
SWEEP_POINTS = ((0.1, 10.0), (0.5, 3.0), (0.5, 1.0))
SWEEP_START, SWEEP_STOP = 0.01, 3.0

#: data rows per figure CSV, from the grids documented in ``nopolock.cli``:
#: chi*t in [0, 6] step 0.005, [0, 1.2] step 0.002, eps/eps_th in
#: [0.01, 3] step 0.005
FIGURE_ROWS = {
    **{f"fig1_curve{i}.csv": 1201 for i in (1, 2, 3)},
    **{f"fig2_curve{i}.csv": 601 for i in (1, 2, 3)},
    **{f"fig3_curve{i}.csv": 599 for i in (1, 2, 3)},
    "fig4_curve1.csv": 599,
    **{f"fig5_curve{i}.csv": 599 for i in (1, 2)},
}
PHASE_BINS = 181
ALLOWED_FLAGS = {"ok", "linearization-unreliable"}
#: ``V = (V+ + V-)/2`` and ``product = V+ V-`` must hold to this relative size
IDENTITY_RTOL = 1e-12
#: the threshold row may step away from the row before it by at most this
#: many times the step between the two rows before that
CONTINUITY_FACTOR = 3.0
#: the hand-off band of ``variance_steady``: rows this close below threshold
#: are already served by the above-threshold evaluator
HANDOFF = 1e-9


def _point_args(point: dict) -> list[str]:
    return ["--delta", repr(point["delta"]), "--chi", repr(point["chi"]),
            "--lam", repr(point["lam"]), "--eps-ratio", repr(point["eps_ratio"])]


def point_system(point: dict):
    params = SystemParams.symmetric(gamma=1.0, delta=point["delta"],
                                    chi=point["chi"], lam=point["lam"])
    scales = derive_scales(params)
    eps = point["eps_ratio"] * scales.eps_th
    params, scales = replace_pump(params, scales, eps)
    return params, scales, eps


def _sweep_rows(step: float) -> int:
    """Grid points ``start + k*step <= stop``, counted without the CLI's rounding."""
    k = 0
    while SWEEP_START + (k + 1) * step <= SWEEP_STOP * (1 + 1e-12):
        k += 1
    return k + 1


# ---------------------------------------------------------------------------
# CSV reading


def read_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(``# key = value`` header, column names, data rows) of a CLI CSV."""
    header, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif line:
            lines.append(line.split(","))
    return header, lines[0], lines[1:]


def _columns(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    header, names, rows = read_csv(text)
    return header, {name: [row[i] for row in rows] for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# workload specification


@dataclass
class Spec:
    """What one sample of a workload runs, and how its outputs are judged.

    ``invocations`` are CLI argument lists without ``--outdir``;
    ``traced_invocations`` give the same outputs with every chunk in
    process.  ``refs`` hold the reference values the checks compare
    against.  ``work`` counts the units one sample delivers:
    trajectory-steps (one pass, however often the code integrates), or CSV
    data rows.  ``steps``/``chunks`` are the Monte Carlo layout.
    """

    name: str
    invocations: list[list[str]]
    traced_invocations: list[list[str]]
    refs: dict
    work: int
    workers: int = 1
    steps: int = 0
    chunks: int = 0

    def check(self, outputs: dict[str, str]) -> list[str]:
        """Descriptions of the failed checks (empty when every check passes)."""
        try:
            return CHECKS[self.name](outputs, self.refs)
        except (KeyError, IndexError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def n1_relative_error(self, outputs: dict[str, str]) -> float | None:
        """``std_error(n1) / |reference n1|``, or ``None`` without a Monte Carlo n1."""
        if "n1" not in self.refs:
            return None
        _, cols = _columns(outputs["mc.csv"])
        row = cols["observable"].index(moment_label(parse_moment_spec("n1")))
        return float(cols["std_error"][row]) / abs(self.refs["n1"])


def _mc_spec(name, point, moments, t_max, burn_in, seed, workers, extra, refs):
    argv = (["mc", *_point_args(point), "--dt", repr(DT), "--n-traj", str(N_TRAJ),
             "--chunk-size", str(CHUNK_SIZE), "--t-max", repr(t_max),
             "--burn-in", repr(burn_in), "--seed", str(seed),
             "--moments", ",".join(moments), "--output", "mc.csv"] + extra)
    steps = int(round(t_max / DT))
    # the realization does not depend on the worker count, so the traced
    # sample runs the pool's chunks in process, where the spans are
    return Spec(name=name, invocations=[argv + ["--workers", str(workers)]],
                traced_invocations=[argv + ["--workers", "1"]], refs=refs,
                work=N_TRAJ * steps, workers=workers, steps=steps,
                chunks=-(-N_TRAJ // CHUNK_SIZE))


def build(name: str, seed: int, sizes: Sizes = DEFAULT_SIZES) -> Spec:
    """The workload ``name`` at ``seed`` and ``sizes``."""
    if name == "mc-below":
        params, scales, eps = point_system(BELOW_POINT)
        m = moments_below(params, scales, eps)
        refs = {"n1": mean_photon_below(params, scales, eps), "a1a2": m.m_aa,
                "b1a2": m.m_cross, "a1": 0j, "discard_max": 0.0}
        return _mc_spec(name, BELOW_POINT, BELOW_MOMENTS, sizes.below_t_max,
                        sizes.below_burn_in, seed, 1, [], refs)
    if name == "mc-phases":
        params, scales, eps = point_system(PHASES_POINT)
        refs = {"n1": steady_state(params, scales, eps, "+").n10,
                "locked_min": 0.9, "discard_max": MAX_DISCARD_FRACTION,
                "bins": PHASE_BINS}
        return _mc_spec(name, PHASES_POINT, PHASES_MOMENTS, sizes.phases_t_max,
                        sizes.phases_burn_in, seed, 2, ["--phases"], refs)
    if name == "analytic-sweep":
        argvs = [["figure", str(n)] for n in range(1, 6)]
        sweep = f"eps_ratio:{SWEEP_START!r}:{SWEEP_STOP!r}:{sizes.sweep_step!r}"
        for i, (chi, delta) in enumerate(SWEEP_POINTS, 1):
            argvs.append(["variance", "--chi", repr(chi), "--delta", repr(delta),
                          "--sweep", sweep, "--output", f"variance_{i}.csv"])
        rows = dict(FIGURE_ROWS)
        rows.update({f"variance_{i}.csv": _sweep_rows(sizes.sweep_step)
                     for i in range(1, len(SWEEP_POINTS) + 1)})
        return Spec(name=name, invocations=argvs, traced_invocations=argvs,
                    refs={"rows": rows}, work=sum(rows.values()))
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# correctness checks


def _mc_rows(text: str) -> dict[str, tuple[complex, float, float]]:
    _, cols = _columns(text)
    return {label: (complex(float(re), float(im)), float(se), float(d))
            for label, re, im, se, d in zip(cols["observable"], cols["mean_re"],
                                            cols["mean_im"], cols["std_error"],
                                            cols["discard_fraction"])}


def _check_mc_below(outputs, refs) -> list[str]:
    rows = _mc_rows(outputs["mc.csv"])
    failed = []
    for alias in BELOW_MOMENTS:
        label = moment_label(parse_moment_spec(alias))
        if label not in rows:
            failed.append(f"{alias}: missing row")
            continue
        mean, se, discard = rows[label]
        target = complex(refs[alias])
        if not (abs(mean.real - target.real) < 3 * se
                and abs(mean.imag - target.imag) < 3 * se):
            failed.append(f"{alias}: {mean:.6g} not within 3 std_error ({se:.3g}) "
                          f"of {target:.6g}")
        if discard > refs["discard_max"]:
            failed.append(f"{alias}: discard fraction {discard:.4g}")
    return failed


def _check_mc_phases(outputs, refs) -> list[str]:
    failed = []
    for label, (_, _, discard) in _mc_rows(outputs["mc.csv"]).items():
        if discard > refs["discard_max"]:
            failed.append(f"{label}: discard fraction {discard:.4g} > "
                          f"{refs['discard_max']}")
    header, _, rows = read_csv(outputs["mc_phases.csv"])
    locked = float(header.get("locked_fraction_0.3", "nan"))
    if not locked >= refs["locked_min"]:
        failed.append(f"locked_fraction(0.3) = {locked:.4g} < {refs['locked_min']}")
    if len(rows) != refs["bins"]:
        failed.append(f"{len(rows)} histogram rows, expected {refs['bins']}")
    return failed


def _continuity(x: list[float], y: list[float]) -> str | None:
    """Whether ``y`` crosses threshold (``x = 1``) without a jump.

    The first row served by the above-threshold evaluator may differ from
    the row before it by at most :data:`CONTINUITY_FACTOR` times the step
    between the two below-threshold rows before that.
    """
    j = next((i for i, r in enumerate(x) if r >= 1 - HANDOFF), None)
    if j is None or j < 2 or x[j] > 1 + HANDOFF:
        return "grid has no threshold row"
    jump, slope = abs(y[j] - y[j - 1]), abs(y[j - 1] - y[j - 2])
    if jump > CONTINUITY_FACTOR * slope + 1e-12:
        return f"jump {jump:.3g} at threshold against step {slope:.3g} below"
    return None


def _check_analytic(outputs, refs) -> list[str]:
    failed = []
    for fname, expected in refs["rows"].items():
        if fname not in outputs:
            failed.append(f"{fname}: missing")
            continue
        _, cols = _columns(outputs[fname])
        names = list(cols)
        n = len(cols[names[0]])
        if n != expected:
            failed.append(f"{fname}: {n} rows, expected {expected}")
        flags = set(cols.get("flag", ()))
        if not flags <= ALLOWED_FLAGS:
            failed.append(f"{fname}: flags {sorted(flags - ALLOWED_FLAGS)}")
        num = {k: [float(v) for v in vals] for k, vals in cols.items() if k != "flag"}
        if not all(math.isfinite(v) for vals in num.values() for v in vals):
            failed.append(f"{fname}: non-finite value")
            continue
        if {"V", "V_plus", "V_minus", "product"} <= set(num):
            for v, vp, vm, prod in zip(num["V"], num["V_plus"], num["V_minus"],
                                       num["product"]):
                if abs(v - (vp + vm) / 2) > IDENTITY_RTOL * abs(v) or \
                        abs(prod - vp * vm) > IDENTITY_RTOL * abs(prod):
                    failed.append(f"{fname}: V/product identity broken at V={v!r}")
                    break
        if names[0] == "eps_ratio":
            for col in ("V", "V_plus", "V_minus"):
                if col in num:
                    gap = _continuity(num["eps_ratio"], num[col])
                    if gap:
                        failed.append(f"{fname}: {col} {gap}")
    return failed


CHECKS = {"mc-below": _check_mc_below, "mc-phases": _check_mc_phases,
          "analytic-sweep": _check_analytic}
NAMES = tuple(CHECKS)
