"""Command-line front end: steady states, variance sweeps, Monte Carlo, figures.

Subcommands
-----------
steady    print threshold, photon numbers, locked phases and stability
variance  sweep the variance over chi_t or eps_ratio, emit CSV rows
mc        run the positive-P ensemble, emit moment estimates (and phases)
figure    reproduce the data behind the five standard figures as CSV

Exit codes: 0 success, 2 parameter-domain error, 4 Monte Carlo estimation
failure.

CSV files start with ``#`` comment lines naming the tool version and the
full configuration; numbers are written with 17 significant digits so
reruns with identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import unitary_variance, variance_sweep
from .errors import EstimationError, ParameterDomainError
from .montecarlo import LOCKED_HALFWIDTH, SimConfig, sample_ensemble
from .params import DerivedScales, SystemParams, derive_scales, locking_feasible
from .steady import _checked, critical_points, output_rates, replace_pump, steady_state

OUTDIR_ENV = "NOPOLOCK_OUTDIR"

#: largest grid ``parse_sweep`` builds (the figure grids have about 1200 points);
#: larger sweeps are refused before any allocation
MAX_SWEEP_POINTS = 10**6

#: figure -> (its ``variance`` sweep, the columns it writes, settings shared by its
#: curves, each curve's own settings, which head the curve's CSV)
FIGURES = {
    1: ("chi_t:0:6:0.005", ["chi_t", "V"], {"chi": 1.0},
        [{"eps_over_chi": ratio} for ratio in (0.1, 0.4, 0.7)]),
    2: ("chi_t:0:1.2:0.002", ["chi_t", "V"], {"chi": 1.0},
        [{"eps_over_chi": ratio} for ratio in (1.1, 2.0, 3.0)]),
    3: ("eps_ratio:0.01:3:0.005", ["eps_ratio", "V", "flag"], {},
        [{"chi": 0.1, "delta": 10.0}, {"chi": 0.5, "delta": 3.0}, {"chi": 0.5, "delta": 1.0}]),
    4: ("eps_ratio:0.01:3:0.005", ["eps_ratio", "V_plus", "V_minus", "flag"], {},
        [{"chi": 0.5, "delta": 3.0}]),
    5: ("eps_ratio:0.01:3:0.005", ["eps_ratio", "product", "flag"], {},
        [{"chi": 0.1, "delta": 10.0}, {"chi": 0.5, "delta": 1.0}]),
}


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_rows(*columns) -> list[str]:
    """CSV lines of columns: numbers as ``"%.17g" % x == fmt(x)``, strings as they are."""
    cells = [np.asarray(column) for column in columns]
    line = ",".join("%s" if cell.dtype.kind == "U" else "%.17g" for cell in cells)
    return [line % row for row in zip(*(cell.tolist() for cell in cells))]


# ---------------------------------------------------------------------------
# configuration plumbing: one table of keys, shared by flags and --config

#: shorthands that ``build_params`` resolves into ``SystemParams`` fields and the pump
_SHORTHANDS = ("gamma", "delta", "lam", "eps", "eps_ratio", "eps_over_chi")


def _table(command: str) -> dict[str, type]:
    """Every key ``command`` takes, flag or config file, with the type it is cast to."""
    keys = dict.fromkeys(_SHORTHANDS + tuple(f.name for f in fields(SystemParams)), float)
    if command == "mc":
        keys.update((f.name, type(f.default)) for f in fields(SimConfig))
    return keys


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; ``#`` starts a comment, a repeated key is refused."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterDomainError(
            f"cannot read config file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterDomainError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ParameterDomainError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _settings(ns: argparse.Namespace) -> dict:
    """Flags over ``--config`` values, each cast by the table; unknown keys are refused."""
    table = _table(ns.command)
    values = read_config_file(ns.config) if ns.config else {}
    unknown = [key for key in values if key not in table]
    if unknown:
        raise ParameterDomainError(
            f"{ns.config}: unknown key(s) {', '.join(map(repr, unknown))} for "
            f"'{ns.command}'; accepted keys: {', '.join(table)}")
    values.update((key, getattr(ns, key)) for key in table if getattr(ns, key) is not None)
    merged = {}
    for key, value in values.items():
        try:
            merged[key] = table[key](value)
        except ValueError:
            raise ParameterDomainError(
                f"{key} must be of type {table[key].__name__}, got {value!r}") from None
    return merged


def build_params(values: dict) -> tuple[SystemParams, DerivedScales]:
    """SystemParams and scales from merged settings, pumped at the working rate."""
    model = {f.name: values[f.name] for f in fields(SystemParams) if f.name in values}
    for name, shorthand, default in (("gamma1", "gamma", 1.0), ("gamma2", "gamma", 1.0),
                                     ("delta1", "delta", 0.0), ("delta2", "delta", 0.0)):
        model.setdefault(name, values.get(shorthand, default))
    model.setdefault("gamma3", 100.0 * max(model["gamma1"], model["gamma2"]))
    if "k" not in model:
        model["k"] = math.sqrt(_checked("lam", values.get("lam", 1.0)) * model["gamma3"])
    params = SystemParams(**model)
    scales = derive_scales(params)

    if sum(key in values for key in ("eps", "eps_ratio", "eps_over_chi")) > 1:
        raise ParameterDomainError("give at most one of --eps, --eps-ratio, --eps-over-chi")
    if "eps_ratio" in values:
        if not scales.eps_th == scales.eps_th:  # NaN guard
            raise ParameterDomainError("eps-ratio needs a defined threshold")
        eps = values["eps_ratio"] * scales.eps_th
    elif "eps_over_chi" in values:
        eps = values["eps_over_chi"] * params.chi
    else:
        eps = values.get("eps", scales.eps)
    return replace_pump(params, scales, eps)


def parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    """Parse ``var:start:stop:step`` into the variable name and grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ParameterDomainError(f"sweep must be var:start:stop:step, got {spec!r}")
    var = parts[0]
    try:
        start, stop, step = (float(p) for p in parts[1:])
    except ValueError:
        raise ParameterDomainError(f"sweep bounds must be numbers, got {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParameterDomainError(f"sweep bounds must be finite, got {spec!r}")
    if step <= 0:
        raise ParameterDomainError("sweep step must be positive")
    if stop < start:
        raise ParameterDomainError("sweep stop must be >= start")
    last = (stop - start) / step + 1e-9  # index of the last point, rounding tolerated
    if not last < MAX_SWEEP_POINTS:  # also an infinite count
        raise ParameterDomainError(
            f"sweep {spec!r} has more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS} points")
    return var, start + step * np.arange(math.floor(last) + 1)


def _outdir(ns: argparse.Namespace) -> Path:
    out = ns.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header(ns: argparse.Namespace, params: SystemParams, extra: dict) -> list[str]:
    lines = [f"# nopolock {__version__}", f"# command = {ns.command}"]
    lines += [f"# {f.name} = {fmt(getattr(params, f.name))}" for f in fields(params)]
    return lines + [f"# {key} = {value}" for key, value in extra.items()]


def _write_csv(path: Path | None, header: list[str], columns: list[str],
               rows: list[str]) -> None:
    text = "\n".join(header + [",".join(columns)] + rows) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_steady(ns: argparse.Namespace) -> int:
    params, scales = build_params(_settings(ns))
    eps = scales.eps
    print(f"eps        = {fmt(eps)}")
    print(f"eps_th     = {fmt(scales.eps_th)}  (E_th = {fmt(scales.e_th)}, "
          f"P_th = {fmt(scales.p_th)} hbar*omega^3)")
    feasible = locking_feasible(params)
    if feasible:
        crit = critical_points(params, scales)
        print(f"eps_cr+    = {fmt(crit.eps_cr_plus)}")
        print(f"eps_cr-    = {fmt(crit.eps_cr_minus)}")
    else:
        print("locking    : infeasible (4 chi^2 d1 d2 <= (g1 d2 - g2 d1)^2)")
    if eps == scales.eps_th:
        print("note       : at threshold")
    for label in ("+", "-") if feasible else ():
        state = steady_state(params, scales, eps, branch=label)
        if state.below_critical:
            print(f"branch {label}   : below critical point (zero solution)")
            continue
        n3, n1o, n2o = output_rates(params, scales, state.n10)
        twin = state.twin()
        print(f"branch {label}   : n10 = {fmt(state.n10)}  n20 = {fmt(state.n20)}  "
              f"stable = {state.stable}")
        print(f"  phases   : phi10 = {fmt(state.phi10)}  phi20 = {fmt(state.phi20)}"
              f"  (twin {fmt(twin.phi10)}, {fmt(twin.phi20)})")
        print(f"  sums     : phase_sum = {fmt(state.phase_sum)}  "
              f"phase_diff = {fmt(state.phase_diff)}")
        print(f"  rates    : n3_in = {fmt(n3)}  n1_out = {fmt(n1o)}  n2_out = {fmt(n2o)}")
        print(f"  eigs(Re) : {' '.join(fmt(ev.real) for ev in state.eigenvalues)}")
    print(f"zero state : n0 = 0  stable = {eps < scales.eps_th}")
    return 0


def _variance_columns(params, scales, var, grid, delta_theta=0.0, sigma_theta=0.0) -> dict:
    """The ``variance`` CSV columns, by name, of a sweep of ``var`` over ``grid``."""
    if var == "chi_t":
        if not params.chi > 0:
            raise ParameterDomainError(
                "unitary sweeps measure time as chi*t and need chi > 0")
        values = unitary_variance(params.chi, scales.eps, grid / params.chi, sigma_theta)
        with np.errstate(over="ignore"):  # V^2 is +inf once V passes the root of the float range
            product = values * values
        return {var: grid, "V": values, "R": np.zeros(grid.shape), "V_plus": values,
                "V_minus": values, "product": product, "flag": np.full(grid.shape, "ok")}
    if var != "eps_ratio":
        raise ParameterDomainError(
            f"sweep variable must be chi_t (unitary) or eps_ratio (steady state), got {var!r}")
    sweep = variance_sweep(params, scales, grid * scales.eps_th, delta_theta)
    return {var: grid, "V": sweep.V, "R": sweep.R, "V_plus": sweep.V_plus,
            "V_minus": sweep.V_minus, "product": sweep.product, "flag": sweep.flag}


def cmd_variance(ns: argparse.Namespace) -> int:
    for name in ("delta_theta", "sigma_theta"):  # refused in every sweep, used or not
        if not math.isfinite(getattr(ns, name)):
            raise ParameterDomainError(f"{name} must be finite, got {getattr(ns, name)}")
    params, scales = build_params(_settings(ns))
    values = _variance_columns(params, scales, *parse_sweep(ns.sweep),
                               ns.delta_theta, ns.sigma_theta)
    header = _header(ns, params, {"delta_theta": fmt(ns.delta_theta),
                                  "sigma_theta": fmt(ns.sigma_theta), "sweep": ns.sweep})
    out = None if ns.output == "-" else _outdir(ns) / (ns.output or "variance.csv")
    _write_csv(out, header, list(values), fmt_rows(*values.values()))
    return 0


def cmd_mc(ns: argparse.Namespace) -> int:
    values = _settings(ns)
    params, scales = build_params(values)
    config = SimConfig(**{f.name: values[f.name] for f in fields(SimConfig) if f.name in values})
    specs = [s.strip() for s in ns.moments.split(",") if s.strip()]
    estimates, hist = sample_ensemble(params, scales, config, specs,
                                      n_workers=ns.workers, phases=ns.phases)
    # worker count deliberately left out of the header: results are
    # bitwise identical for any worker count, and so must be the file
    setup = {f.name: getattr(config, f.name) for f in fields(config)}
    header = _header(ns, params, {"eps": fmt(scales.eps), **{
        key: fmt(value) if isinstance(value, float) else value for key, value in setup.items()}})
    columns = ["observable", "mean_re", "mean_im", "std_error",
               "n_effective", "discard_fraction"]
    rows = fmt_rows(*zip(*[(e.label, e.mean.real, e.mean.imag, e.std_error, e.n_effective,
                            e.discard_fraction) for e in estimates]))
    out = None if ns.output == "-" else _outdir(ns) / (ns.output or "mc.csv")
    if estimates:  # a histogram-only request writes the phase table alone
        _write_csv(out, header, columns, rows)

    if hist is not None:
        rows = fmt_rows(hist.edges[:-1], hist.edges[1:], hist.counts_diff, hist.counts_sum)
        extra = {f"locked_fraction_{LOCKED_HALFWIDTH}": fmt(hist.locked_fraction())}
        if hist.note:
            extra["note"] = hist.note
        stem = (ns.output or "mc.csv").rsplit(".", 1)[0]
        _write_csv(None if ns.output == "-" else _outdir(ns) / f"{stem}_phases.csv",
                   header + [f"# {k} = {v}" for k, v in extra.items()],
                   ["edge_lo", "edge_hi", "count_diff", "count_sum"], rows)
    return 0


def cmd_figure(ns: argparse.Namespace) -> int:
    if ns.n not in FIGURES:
        raise ParameterDomainError("figure number must be 1..5")
    sweep, columns, shared, curves = FIGURES[ns.n]
    var, grid = parse_sweep(sweep)
    outdir = _outdir(ns)
    for i, curve in enumerate(curves, 1):
        values = _variance_columns(*build_params({**shared, **curve}), var, grid)
        header = [f"# nopolock {__version__}", f"# command = figure {ns.n}"]
        header += [f"# {key} = {fmt(value)}" for key, value in curve.items()]
        _write_csv(outdir / f"fig{ns.n}_curve{i}.csv", header, columns,
                   fmt_rows(*(values[name] for name in columns)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_table_flags(parser: argparse.ArgumentParser, command: str) -> None:
    g = parser.add_argument_group("parameters, also --config keys (rates in units of gamma)")
    for name in _table(command):
        g.add_argument(f"--{name.replace('_', '-')}", dest=name)
    parser.add_argument("--config", help="flat key = value file; flags override")
    parser.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nopolock",
        description="Self-phase-locked NOPO: steady states, squeezing variances, "
                    "positive-P Monte Carlo and figure data.")
    parser.add_argument("--version", action="version", version=f"nopolock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="threshold, photon numbers, phases, stability")
    _add_table_flags(p, "steady")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("variance", help="sweep a variance evaluator to CSV")
    _add_table_flags(p, "variance")
    p.add_argument("--sweep", required=True, metavar="VAR:START:STOP:STEP",
                   help="chi_t:... for the unitary variance, eps_ratio:... for the steady state")
    p.add_argument("--delta-theta", dest="delta_theta", type=float, default=0.0)
    p.add_argument("--sigma-theta", dest="sigma_theta", type=float, default=0.0,
                   help="sum angle of a chi_t sweep (minimizing angle is 0)")
    p.add_argument("--output", help="file name under outdir, or - for stdout")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("mc", help="positive-P ensemble moments (and phase histograms)")
    _add_table_flags(p, "mc")
    p.add_argument("--moments", default="n1,a1a2,b1a2,a1",
                   help="comma list of moment aliases (montecarlo.MOMENT_ALIASES)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; a CPU they leave spare draws noise ahead")
    p.add_argument("--phases", action="store_true",
                   help="also write the phase histogram CSV")
    p.add_argument("--output", help="file name under outdir, or - for stdout")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("figure", help="write per-curve CSV data for figures 1..5")
    p.add_argument("n", type=int, help="figure number 1..5")
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_figure)
    return parser


#: the parser ``main`` uses, built by its first call (not at import, which
#: stays cheap) and reused by every later call in the same process
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    ns = _parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ParameterDomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
