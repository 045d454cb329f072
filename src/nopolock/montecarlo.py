"""Positive-P Monte Carlo integrator for the full nonlinear stochastic model.

States live in the doubled phase space ``(alpha1, alpha2, beta1, beta2)``;
normal-ordered moments are averages of ``beta``/``alpha`` products.  The
scheme is explicit Ito Euler-Maruyama; the noise pairs ``R1,2 = sqrt(c/2)
(xi1 +- i xi2)``, ``c = eps - lam*alpha1*alpha2`` (``cb`` for the betas,
principal root) realize both nonzero correlators with four real Gaussians.
Diverged trajectories are frozen inside the bound, excluded from averages
and counted; estimates abort beyond :data:`MAX_DISCARD_FRACTION`.

Engine: one loop, :func:`_integrate`, advances a ``(4, W)`` array with a
fused step (``c dt`` and ``cb dt`` formed once, ``dt`` folded into the
coefficients, preallocated buffers, the ``alive`` mask applied only after a
first divergence, the divergence test on every step) and feeds accumulators:
moment sums and phase histograms for :func:`sample_ensemble`, or the
recorder of :func:`integrate_trajectory`.  ``dynamics.drift_field`` and
:func:`noise_increment` are the reference definitions of the step.

Lanes and determinism: trajectory ``i`` is in chunk ``i // chunk_size``, and
chunk ``j`` draws one ``(4, width_j)`` normal array per step from the Philox
stream keyed by ``(seed, j)``.  A job of at most :data:`MAX_CHUNKS_PER_JOB`
contiguous chunks runs side by side as one wide array, each chunk in its own lanes.
Every operation is elementwise per lane and per-lane results join in chunk
order before any reduction, so results are bitwise equal for any worker count.
Jobs run in a process pool only for ``n_workers > 1``; :func:`_pool_context`
picks its start method, and ``multiprocessing`` is imported only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import EstimationError, ParameterDomainError
from .params import DerivedScales, SystemParams

#: estimates abort when the diverged-trajectory fraction exceeds this
MAX_DISCARD_FRACTION = 0.01

#: bounds of an engine call's memory: chunks side by side, steps per noise draw
MAX_CHUNKS_PER_JOB = 8
NOISE_BLOCK_STEPS = 10

#: exponent tuples (alpha1, alpha2, beta1, beta2) for common observables
MOMENT_ALIASES: dict[str, tuple[int, int, int, int]] = {
    "a1": (1, 0, 0, 0), "a2": (0, 1, 0, 0), "b1": (0, 0, 1, 0), "b2": (0, 0, 0, 1),
    "n1": (1, 0, 1, 0), "n2": (0, 1, 0, 1),
    "a1a2": (1, 1, 0, 0), "b1b2": (0, 0, 1, 1),
    "a1sq": (2, 0, 0, 0), "a2sq": (0, 2, 0, 0),
    "b1a2": (0, 1, 1, 0), "b2a1": (1, 0, 0, 1),
}


@dataclass(frozen=True)
class SimConfig:
    """Integration and ensemble settings.

    ``t_max`` must be a whole number of steps ``dt`` (to 1e-9 relative).
    ``chunk_size`` is part of the noise-stream layout: trajectory ``i``
    draws from the Philox stream keyed by ``(seed, i // chunk_size)``, so
    changing it changes the realization (not the statistics).
    """

    dt: float = 1e-3
    t_max: float = 30.0
    n_traj: int = 1000
    burn_in: float = 10.0
    seed: int = 0
    divergence_bound: float = 1e6
    scheme: str = "euler-ito"
    sample_every: int = 10
    chunk_size: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ParameterDomainError(f"dt must be positive and finite, got {self.dt!r}")
        if not (0 < self.t_max < math.inf and 0 <= self.burn_in < math.inf):
            raise ParameterDomainError(f"need finite t_max > 0 and burn_in >= 0, got "
                                       f"t_max = {self.t_max!r}, burn_in = {self.burn_in!r}")
        if abs(self.t_max - round(self.t_max / self.dt) * self.dt) > 1e-9 * self.t_max:
            raise ParameterDomainError(
                f"t_max = {self.t_max!r} is not a whole number of steps dt = {self.dt!r}")
        for name in ("n_traj", "seed", "sample_every", "chunk_size"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ParameterDomainError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_traj < 2:
            raise ParameterDomainError("n_traj must be at least 2")
        if not self.divergence_bound > 0:
            raise ParameterDomainError("divergence_bound must be positive")
        if self.scheme != "euler-ito":
            raise ParameterDomainError(f"unknown integration scheme {self.scheme!r}")
        if self.sample_every < 1 or self.chunk_size < 1:
            raise ParameterDomainError("sample_every and chunk_size must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled history of a single trajectory."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, 4) complex
    diverged: bool


@dataclass(frozen=True)
class EnsembleEstimate:
    """Steady-state estimate of one stochastic moment.

    ``std_error`` comes from the scatter of per-trajectory time averages
    (never from step-level scatter): for a complex mean it is
    ``sqrt(var(re) + var(im)) / sqrt(n_effective)``.
    """

    label: str
    mean: complex
    std_error: float
    n_effective: int
    discard_fraction: float


def parse_moment_spec(spec) -> tuple[int, int, int, int]:
    """Normalize a moment spec: alias string or 4-tuple of non-negative integer exponents."""
    if isinstance(spec, str):
        try:
            return MOMENT_ALIASES[spec]
        except KeyError:
            raise ParameterDomainError(
                f"unknown moment alias {spec!r}; known: {sorted(MOMENT_ALIASES)}") from None
    try:
        raw = tuple(spec)
        tup = tuple(int(p) for p in raw)
    except (TypeError, ValueError, OverflowError):  # not iterable, nan, inf
        raw = tup = ()
    if len(tup) != 4 or any(p < 0 for p in tup) or raw != tup:  # refuses 1.5 and "1"
        raise ParameterDomainError(
            f"moment spec must be 4 non-negative integer exponents, got {spec!r}")
    return tup  # type: ignore[return-value]


def moment_label(spec: tuple[int, int, int, int]) -> str:
    names = ("a1", "a2", "b1", "b2")
    parts = [f"{n}^{p}" if p > 1 else n for n, p in zip(names, spec) if p > 0]
    return "*".join(parts) if parts else "1"


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)])
    return np.random.Generator(np.random.Philox(key=key))


def noise_increment(state: np.ndarray, params: SystemParams, scales: DerivedScales,
                    dt: float, rng: np.random.Generator) -> np.ndarray:
    """One Euler step's stochastic increment for ``(alpha1, alpha2, beta1, beta2)``.

    Sample statistics realize ``<dW1 dW2> = (eps - lam*alpha1*alpha2) dt``
    and ``<dW1+ dW2+> = (eps - lam*beta1*beta2) dt`` with all other second
    moments zero; a complex correlator coefficient is legitimate here.
    """
    if dt <= 0:
        raise ParameterDomainError("dt must be positive")
    a1, a2, b1, b2 = np.asarray(state, dtype=complex)
    c = scales.eps - scales.lam * a1 * a2
    cb = scales.eps - scales.lam * b1 * b2
    xi = rng.standard_normal((4,) + np.shape(a1))
    sc = np.sqrt(np.asarray(c / 2, dtype=complex))
    scb = np.sqrt(np.asarray(cb / 2, dtype=complex))
    inc = np.stack([
        sc * (xi[0] + 1j * xi[1]),
        sc * (xi[0] - 1j * xi[1]),
        scb * (xi[2] + 1j * xi[3]),
        scb * (xi[2] - 1j * xi[3]),
    ])
    return inc * math.sqrt(dt)


def _integrate(params: SystemParams, scales: DerivedScales, config: SimConfig, state: np.ndarray,
               streams, visit_at, visit) -> np.ndarray:
    """Advance ``(4, W)`` ``state`` (overwritten) to ``t_max``; returns the ``alive`` mask.

    ``streams`` pairs Philox generators with the lane slices they feed, and
    ``visit(state, alive)`` runs after each step number in ``visit_at``.
    """
    dt, width = config.dt, state.shape[1]
    g = np.array([params.gamma1 + 1j * params.delta1, params.gamma2 + 1j * params.delta2])
    lin = (1 - dt * np.array([g, g.conj()]))[:, :, None]       # decay and detuning
    cross = (params.chi * dt * np.array([-1j, 1j]))[:, None, None]  # chi mixing
    x = state.reshape(2, 2, width)  # [alpha | beta][mode 1 | mode 2]
    new, term = np.empty_like(x), np.empty_like(x)
    c, s, z, p = (np.empty((2, width), dtype=complex) for _ in range(4))
    steps = min(config.sample_every, NOISE_BLOCK_STEPS)
    xi = np.empty((steps, 4, width))
    alive, frozen = np.ones(width, dtype=bool), None
    screen = 0.5 * config.divergence_bound  # parts within it keep every modulus in bound
    for k0 in range(0, config.n_steps, steps):
        block = min(steps, config.n_steps - k0)
        for rng, lanes in streams:  # same numbers as per-step draws
            xi[:block, :, lanes] = rng.standard_normal((block, 4, lanes.stop - lanes.start))
        for k in range(k0 + 1, k0 + block + 1):
            np.multiply(x[:, 0], x[:, 1], out=c)
            c *= -scales.lam * dt
            c += scales.eps * dt                              # c dt, cb dt
            np.multiply(lin, x, out=new)
            np.multiply(cross, x[:, ::-1], out=term)
            new += term
            np.multiply(c[:, None], x[::-1, ::-1], out=term)  # c b2, c b1, cb a2, cb a1
            new += term
            np.multiply(c, 0.5, out=s)
            np.sqrt(s, out=s)
            z.real, z.imag = xi[k - k0 - 1, 0::2], xi[k - k0 - 1, 1::2]
            new[:, 0] += np.multiply(s, z, out=p)             # s (xi0 + i xi1)
            new[:, 1] += np.multiply(s, np.conjugate(z, out=z), out=p)
            if frozen is not None:
                np.copyto(new, x, where=frozen)
            flat = new.reshape(-1).view(float)
            if not (flat.max() <= screen and flat.min() >= -screen):
                with np.errstate(invalid="ignore"):
                    bad = alive & ~(np.abs(new).max(axis=(0, 1)) <= config.divergence_bound)
                if bad.any():
                    np.copyto(new, x, where=bad)
                    alive &= ~bad
                    frozen = ~alive
            x, new = new, x
            if k in visit_at:
                visit(x.reshape(4, width), alive)
    return alive


_PHASE_EDGES = np.linspace(-math.pi, math.pi, 182)

#: a sample is phase locked when its phase difference lies this close to 0 (mod pi)
LOCKED_HALFWIDTH = 0.3


def _accumulate(state, alive, specs, sums, hists) -> None:
    """One sample time: per-lane moment products, and phase counts of live lanes.

    ``hists`` holds the difference, sum and mode-1 phase histograms and a
    one-entry count of locked samples.  A lane that dies never lives again and
    its moment sums are dropped whole, so they need no mask; its phase counts
    stop at its divergence.
    """
    for total, spec in zip(sums, specs):
        # elementwise products: np.prod over stacked factors runs numpy's reduction
        # kernel on a one-lane job, which can round differently (worker-count bits)
        factors = [state[row] ** p for row, p in enumerate(spec) if p] or [np.ones(alive.shape)]
        prod = reduce(np.multiply, factors)
        total += prod
    if hists:
        ph1, ph2 = np.angle(state[0, alive]), np.angle(state[1, alive])
        diff = np.angle(np.exp(1j * (ph2 - ph1)))
        for hist, value in zip(hists, (diff, np.angle(np.exp(1j * (ph2 + ph1))), ph1)):
            hist += np.histogram(value, bins=_PHASE_EDGES)[0]
        dmod = np.mod(diff, math.pi)  # the distance from 0 (mod pi) is min(dmod, pi - dmod)
        hists[3] += np.count_nonzero(np.minimum(dmod, math.pi - dmod) <= LOCKED_HALFWIDTH)


def _group_worker(args):
    """Integrate chunks ``[first, stop)`` side by side as one wide array."""
    params, scales, config, (first, stop), specs, want_phase, sample_at = args
    bounds = [min(j * config.chunk_size, config.n_traj) - first * config.chunk_size
              for j in range(first, stop + 1)]
    streams = [(_chunk_rng(config.seed, j), slice(lo, hi))
               for j, lo, hi in zip(range(first, stop), bounds, bounds[1:])]
    width = bounds[-1]
    sums = np.zeros((len(specs), width), dtype=complex)
    bins = _PHASE_EDGES.size - 1
    hists = [np.zeros(n, dtype=np.int64) for n in (bins, bins, bins, 1)] if want_phase else []
    alive = _integrate(params, scales, config, np.zeros((4, width), dtype=complex), streams,
                       sample_at, lambda s, a: _accumulate(s, a, specs, sums, hists))
    return alive, sums, hists


def _pool_context():
    """Start method for worker pools: ``fork``, else ``forkserver``, else ``spawn``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        next(m for m in ("fork", "forkserver", "spawn") if m in methods))


@dataclass(frozen=True)
class PhaseHistogram:
    """Histograms of the subharmonic phase difference and sum.

    ``counts_diff``/``counts_sum`` bin ``arg(alpha2) -+ arg(alpha1)`` over
    ``(-pi, pi]`` and ``counts_mode1`` bins the absolute phase of mode 1
    (which populates two clusters pi apart above threshold, the two-fold
    phase-space symmetry).  ``n_locked`` counts the samples whose phase
    difference lies within :data:`LOCKED_HALFWIDTH` of 0 modulo pi, which is
    the locking diagnostic: above threshold the distribution concentrates at
    the semiclassical values, whose two-fold multiplicity makes "0 mod pi"
    the locked target for either detuning sign.
    """

    edges: np.ndarray
    counts_diff: np.ndarray
    counts_sum: np.ndarray
    counts_mode1: np.ndarray
    n_samples: int
    n_locked: int
    discard_fraction: float
    note: str = ""

    def locked_fraction(self) -> float:
        """Share of the samples that are phase locked; NaN without samples."""
        return self.n_locked / self.n_samples if self.n_samples else math.nan


def sample_ensemble(params: SystemParams, scales: DerivedScales, config: SimConfig,
                    moment_specs, n_workers: int = 1, phases: bool = False
                    ) -> tuple[list[EnsembleEstimate], PhaseHistogram | None]:
    """Moment estimates and, with ``phases``, phase histograms from one pass.

    Specs are exponent tuples over ``(alpha1, alpha2, beta1, beta2)`` or
    aliases from :data:`MOMENT_ALIASES`; averages run over sample times
    after ``burn_in`` and never-diverged trajectories.  Raises
    ``ParameterDomainError`` for ``n_workers < 1``, and ``EstimationError``
    when all diverged, no sample time remains, or moments are requested and
    the discard fraction exceeds :data:`MAX_DISCARD_FRACTION`.
    """
    specs = [parse_moment_spec(s) for s in moment_specs]
    if not isinstance(n_workers, (int, np.integer)) or n_workers < 1:
        raise ParameterDomainError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    first = int(math.ceil(config.burn_in / config.dt)) // config.sample_every + 1
    sample_at = set(range(first * config.sample_every, config.n_steps + 1, config.sample_every))
    if not sample_at:
        raise EstimationError("no sample times: t_max must exceed burn_in")
    n_chunks = -(-config.n_traj // config.chunk_size)
    n_jobs = min(n_chunks, max(n_workers, -(-n_chunks // MAX_CHUNKS_PER_JOB)))
    jobs = [(params, scales, config, (int(g[0]), int(g[-1]) + 1), specs, phases, sample_at)
            for g in np.array_split(np.arange(n_chunks), n_jobs)]
    if n_workers > 1 and n_jobs > 1:
        with _pool_context().Pool(min(n_workers, n_jobs)) as pool:
            results = pool.map(_group_worker, jobs)
    else:
        results = [_group_worker(job) for job in jobs]
    alive = np.concatenate([r[0] for r in results])
    discard = 1.0 - alive.mean()
    if not alive.any():
        raise EstimationError("all trajectories diverged")
    if specs and discard > MAX_DISCARD_FRACTION:
        raise EstimationError(
            f"discard fraction {discard:.4f} exceeds {MAX_DISCARD_FRACTION:.2%}; "
            "estimate aborted (reduce dt or pump, or raise divergence_bound)")
    sums = np.concatenate([r[1] for r in results], axis=1)
    per_traj = sums[:, alive] / len(sample_at)  # every kept lane lived at every sample
    n_eff = int(alive.sum())
    estimates = [EnsembleEstimate(
        label=moment_label(spec), mean=complex(m.mean()),
        std_error=math.sqrt(m.real.var(ddof=1) + m.imag.var(ddof=1)) / math.sqrt(n_eff),
        n_effective=n_eff, discard_fraction=float(discard))
        for spec, m in zip(specs, per_traj)]
    if not phases:
        return estimates, None
    diff, tot, mode1, locked = (sum(h) for h in zip(*(r[2] for r in results)))
    note = ("below threshold: phases undefined at zero amplitude"
            if scales.eps <= scales.eps_th else "")
    return estimates, PhaseHistogram(
        edges=_PHASE_EDGES.copy(), counts_diff=diff, counts_sum=tot, counts_mode1=mode1,
        n_samples=int(diff.sum()), n_locked=int(locked[0]), discard_fraction=float(discard),
        note=note)


def ensemble_moments(params: SystemParams, scales: DerivedScales, config: SimConfig,
                     moment_specs, n_workers: int = 1) -> list[EnsembleEstimate]:
    """Steady-state moment estimates: the moment half of :func:`sample_ensemble`."""
    return sample_ensemble(params, scales, config, moment_specs, n_workers)[0]


def phase_histogram(params: SystemParams, scales: DerivedScales, config: SimConfig,
                    n_workers: int = 1) -> PhaseHistogram:
    """Phase histograms: the histogram half of :func:`sample_ensemble` (no discard limit)."""
    return sample_ensemble(params, scales, config, [], n_workers, phases=True)[1]


def integrate_trajectory(params: SystemParams, scales: DerivedScales, config: SimConfig,
                         x0: np.ndarray | None = None) -> TrajectoryRecord:
    """Integrate a single trajectory, recording every ``sample_every`` steps.

    Divergence freezes the state and marks the record; it is data, not an
    error.  The noise is the stream of trajectory index 0.
    """
    state = np.zeros((4, 1), complex) if x0 is None else np.array(x0, complex).reshape(4, 1)
    record_at = [k for k in range(1, config.n_steps + 1)
                 if k % config.sample_every == 0 or k == config.n_steps]
    states = [state[:, 0].copy()]
    alive = _integrate(params, scales, config, state, [(_chunk_rng(config.seed, 0), slice(0, 1))],
                       set(record_at), lambda s, _: states.append(s[:, 0].copy()))
    return TrajectoryRecord(times=np.array([0, *record_at]) * config.dt,
                            states=np.array(states), diverged=bool(~alive[0]))
