import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nopolock
from nopolock import ParameterDomainError, SimConfig, SystemParams, cli
from nopolock.cli import MAX_SWEEP_POINTS, fmt, fmt_rows, main, make_parser, parse_sweep


def read_csv(path):
    """(header comment lines, column names, rows as string lists)."""
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def column(rows, columns, name, cast=float):
    i = columns.index(name)
    return [cast(r[i]) for r in rows]


class TestSteadyCommand:
    def test_locked_point(self, capsys):
        assert main(["steady", "--chi", "0.5", "--delta", "3",
                     "--eps-ratio", "2"]) == 0
        out = capsys.readouterr().out
        assert "3.76969" in out
        assert "stable = True" in out

    def test_at_threshold(self, capsys):
        assert main(["steady", "--chi", "0.5", "--delta", "3",
                     "--eps-ratio", "1"]) == 0
        out = capsys.readouterr().out
        assert "at threshold" in out
        assert "below critical" in out

    def test_plain_oscillator_threshold(self, capsys):
        assert main(["steady", "--chi", "0", "--delta", "0"]) == 0
        out = capsys.readouterr().out
        assert "eps_th     = 1" in out
        assert "infeasible" in out


def test_fmt_rows_equals_fmt_joined():
    values = [0.1 + 0.2, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
    column = np.array(values)
    assert fmt_rows(column, column[::-1]) == [
        f"{fmt(x)},{fmt(y)}" for x, y in zip(values, values[::-1])]
    flags = ["ok"] * len(values)
    assert fmt_rows(column, flag=np.array(flags)) == [f"{fmt(x)},ok" for x in values]


class TestVarianceCommand:
    def test_sweep_at_chi_equal_delta(self, capsys):
        # the lowest-threshold point chi = |delta|: eps_th = gamma
        assert main(["variance", "--chi", "100", "--delta", "100",
                     "--sweep", "eps_ratio:0.01:0.99:0.01", "--output", "-"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 1 + 99  # the column names, then one row per pump

    def test_auto_sweep_stitches_across_threshold(self, tmp_path, capsys):
        assert main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:0.9:1.1:0.001",
                     "--outdir", str(tmp_path), "--output", "v.csv"]) == 0
        header, columns, rows = read_csv(tmp_path / "v.csv")
        assert header[0].startswith("# nopolock")
        ratios = np.array(column(rows, columns, "eps_ratio"))
        values = column(rows, columns, "V")
        flags = column(rows, columns, "flag", str)
        assert all(np.isfinite(values))
        for ratio, flag in zip(ratios, flags):
            inside = abs(ratio - 1.0) < 0.05
            assert flag == ("linearization-unreliable" if inside else "ok"), ratio
        # grid-limited smoothness across the stitch; the sharp two-sided
        # threshold limit is exercised in the acceptance suite
        steps = np.abs(np.diff(values))
        assert steps.max() < 5e-3

    def test_unitary_sweep_minimum(self, tmp_path):
        assert main(["variance", "--chi", "1",
                     "--eps-over-chi", "2", "--sweep", "chi_t:0:1.2:0.002",
                     "--outdir", str(tmp_path), "--output", "u.csv"]) == 0
        _, columns, rows = read_csv(tmp_path / "u.csv")
        ct = column(rows, columns, "chi_t")
        v = column(rows, columns, "V")
        i = int(np.argmin(v))
        assert ct[i] == pytest.approx(0.38, abs=0.01)
        assert v[i] == pytest.approx(1 / 3, abs=1e-4)

    def test_above_sweep_approaches_asymptote(self, tmp_path):
        assert main(["variance", "--chi", "0.1", "--delta", "10",
                     "--sweep", "eps_ratio:1.001:6:0.05",
                     "--outdir", str(tmp_path), "--output", "a.csv"]) == 0
        _, columns, rows = read_csv(tmp_path / "a.csv")
        v = column(rows, columns, "V")
        assert all(b > a for a, b in zip(v, v[1:]))
        assert v[-1] < 0.7525 < v[-1] + 0.005

    def test_byte_identical_reruns(self, tmp_path):
        args = ["variance", "--chi", "0.5", "--delta", "3",
                "--sweep", "eps_ratio:0.2:2:0.1", "--outdir", str(tmp_path)]
        assert main(args + ["--output", "r1.csv"]) == 0
        assert main(args + ["--output", "r2.csv"]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    @pytest.mark.parametrize("sweep", [
        "eps_ratio:2:1:0.1", "eps_ratio:0:1:nan", "eps_ratio:0:inf:0.1",
        "eps_ratio:0:1:abc", "eps_ratio:0:1e300:1e-300", "eps_ratio:0:1e13:1",
        "eps_ratio:0:1", "eps_ratio:0:1:0"],
        ids=["stop_below_start", "nan_step", "inf_stop", "text_step", "too_many_points",
             "over_point_cap", "three_parts", "zero_step"])
    def test_bad_sweep_exit_code(self, tmp_path, capsys, monkeypatch, sweep):
        def no_grid(*args, **kwargs):
            raise AssertionError(f"grid allocated for a refused sweep: arange{args}")

        monkeypatch.setattr(np, "arange", no_grid)  # refusal must come first
        code = main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", sweep, "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("parameter error:")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, sweep", [
        ("--delta-theta", "eps_ratio:0.5:1.5:0.5"),
        ("--sigma-theta", "chi_t:0:1:0.5"),
        ("--sigma-theta", "eps_ratio:0.5:1.5:0.5"),  # an angle the sweep ignores
        ("--delta-theta", "chi_t:0:1:0.5")],
        ids=["delta_theta", "sigma_theta", "sigma_theta_steady", "delta_theta_unitary"])
    def test_non_finite_angle_exit_code(self, tmp_path, capsys, flag, sweep, value):
        code = main(["variance", "--chi", "0.5", "--delta", "3", "--eps-ratio", "0.5",
                     "--sweep", sweep, f"{flag}={value}",
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("inputs, sweep", [
        (["--chi", "1", "--delta", "3", "--eps-over-chi", "2"], "eps_ratio:0.25:1.75:0.5"),
        (["--chi", "0.5", "--delta", "3", "--eps-ratio", "0.5"], "chi_t:0:1:0.5")],
        ids=["unitary_over_eps_ratio", "steady_over_chi_t"])
    def test_sweep_variable_must_match_regime(self, capsys, inputs, sweep):
        # the sweep variable picks the regime, whatever the other inputs were written for
        assert main(["variance", *inputs, "--sweep", sweep, "--output", "-"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        var, grid = parse_sweep(sweep)
        params, scales = cli.build_params(
            {flag[2:].replace("-", "_"): float(value) for flag, value in zip(inputs[::2], inputs[1::2])})
        if var == "chi_t":
            expected = nopolock.unitary_variance(params.chi, scales.eps, grid / params.chi, 0.0)
        else:
            expected = nopolock.variance_sweep(params, scales, grid * scales.eps_th, 0.0).V
        rows = out.out.splitlines()[-grid.size:]
        assert [row.split(",")[1] for row in rows] == [fmt(v) for v in expected]

    def test_unknown_sweep_variable_refused(self, tmp_path, capsys):
        code = main(["variance", "--chi", "0.5", "--delta", "3", "--eps-ratio", "0.5",
                     "--sweep", "x:0:1:0.5", "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error:") and "chi_t" in err and "eps_ratio" in err
        assert not any(tmp_path.iterdir())

    def test_regime_flag_is_gone(self, tmp_path, capsys):
        # the sweep variable and the pump pick the regime; there is no flag to set it
        with pytest.raises(SystemExit) as exit_info:
            main(["variance", "--regime", "unitary", "--chi", "1", "--eps-over-chi", "2",
                  "--sweep", "chi_t:0:1:0.5", "--outdir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--regime" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unitary_sweep_past_float_range_is_inf(self, capsys):
        # sinh overflows from chi_t = 205 at eps/chi = 2; V is +inf there, not nan.
        # At chi_t = 125 V is finite and V^2 is past the float range
        assert main(["variance", "--chi", "1", "--eps-over-chi", "2",
                     "--sweep", "chi_t:0:1000:125", "--output", "-"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = out.out.splitlines()[-9:]
        assert rows[0] == "0,1,0,1,1,1,ok"
        t, v, r, v_plus, v_minus, product, flag = rows[1].split(",")
        assert t == "125" and 1e154 < float(v) < math.inf and product == "inf"
        assert (r, v_plus, v_minus, flag) == ("0", v, v, "ok")
        assert rows[2::2] == [f"{t},inf,0,inf,inf,inf,ok" for t in (250, 500, 750, 1000)]
        assert rows[3::2] == [f"{t},inf,0,inf,inf,inf,ok" for t in (375, 625, 875)]

    def test_sweep_point_cap_boundary(self):
        var, grid = parse_sweep(f"x:0:{MAX_SWEEP_POINTS - 1}:1")
        assert var == "x" and grid.size == MAX_SWEEP_POINTS
        with pytest.raises(ParameterDomainError, match="MAX_SWEEP_POINTS"):
            parse_sweep(f"x:0:{MAX_SWEEP_POINTS}:1")

    def test_unitary_sweep_needs_mixing(self, tmp_path, capsys):
        # time is measured as chi*t, so the default chi = 0 has no time axis
        code = main(["variance", "--eps", "0.5",
                     "--sweep", "chi_t:0:1:0.5", "--outdir", str(tmp_path)])
        assert code == 2
        assert "chi > 0" in capsys.readouterr().err
        assert not (tmp_path / "variance.csv").exists()


MC_ARGS = ["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05",
           "--eps-ratio", "0.6", "--dt", "0.002", "--t-max", "8",
           "--burn-in", "3", "--n-traj", "512", "--seed", "21",
           "--chunk-size", "128", "--moments", "n1,a1a2,b1a2,a1"]


class TestMcCommand:
    def test_determinism_across_workers_and_reruns(self, tmp_path):
        for name, workers in (("w1.csv", "1"), ("w2.csv", "2"),
                              ("w4.csv", "4"), ("w1b.csv", "1")):
            assert main(MC_ARGS + ["--workers", workers,
                                   "--outdir", str(tmp_path),
                                   "--output", name]) == 0
        ref = (tmp_path / "w1.csv").read_bytes()
        for name in ("w2.csv", "w4.csv", "w1b.csv"):
            assert (tmp_path / name).read_bytes() == ref

    def test_moments_match_analytics(self, tmp_path):
        assert main(MC_ARGS + ["--workers", "2", "--outdir", str(tmp_path),
                               "--output", "m.csv"]) == 0
        _, columns, rows = read_csv(tmp_path / "m.csv")
        get = {r[0]: r for r in rows}
        from nopolock import SystemParams, derive_scales, mean_photon_below
        params = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, lam=0.05)
        scales = derive_scales(params)
        eps = 0.6 * scales.eps_th
        expected = mean_photon_below(params, scales, eps)
        row = get["a1*b1"]
        mean, se = float(row[1]), float(row[3])
        assert abs(mean - expected) < 3 * se
        odd = get["a1"]
        assert math.hypot(float(odd[1]), float(odd[2])) < 3 * float(odd[3])

    def test_phase_histogram_file(self, tmp_path):
        assert main(["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.01",
                     "--eps-ratio", "1.5", "--dt", "0.001", "--t-max", "14",
                     "--burn-in", "8", "--n-traj", "192", "--seed", "5",
                     "--workers", "2", "--phases", "--outdir", str(tmp_path),
                     "--output", "mc.csv"]) == 0
        header, columns, rows = read_csv(tmp_path / "mc_phases.csv")
        locked = [ln for ln in header if "locked_fraction" in ln]
        assert locked and float(locked[0].split("=")[1]) > 0.9
        assert columns == ["edge_lo", "edge_hi", "count_diff", "count_sum"]

    def test_phases_integrate_each_chunk_once(self, tmp_path, monkeypatch):
        from collections import Counter
        from nopolock import montecarlo
        streams, passes = Counter(), []
        chunk_rng, integrate = montecarlo._chunk_rng, montecarlo._integrate

        def counting_rng(seed, chunk_index):
            streams[chunk_index] += 1
            return chunk_rng(seed, chunk_index)

        def counting_integrate(*args, **kwargs):
            passes.append(len(args[4]))  # chunk streams in this pass
            return integrate(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_chunk_rng", counting_rng)
        monkeypatch.setattr(montecarlo, "_integrate", counting_integrate)
        assert main(["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.01",
                     "--eps-ratio", "1.5", "--dt", "0.001", "--t-max", "0.2",
                     "--burn-in", "0.1", "--n-traj", "64", "--chunk-size", "16",
                     "--workers", "1", "--phases", "--outdir", str(tmp_path),
                     "--output", "mc.csv"]) == 0
        assert (tmp_path / "mc_phases.csv").exists()
        assert streams == {0: 1, 1: 1, 2: 1, 3: 1}
        assert passes == [4]

    def test_histogram_only_request_writes_the_phase_table_alone(self, tmp_path, capsys):
        args = ["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.01", "--eps-ratio", "1.5",
                "--dt", "0.001", "--t-max", "0.2", "--burn-in", "0.1", "--n-traj", "16",
                "--phases", "--moments", ""]
        assert main(args + ["--outdir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mc_phases.csv"]
        capsys.readouterr()
        assert main(args + ["--output", "-"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "edge_lo,edge_hi,count_diff,count_sum"
        assert not any(ln.startswith("observable") for ln in lines)

    @pytest.mark.parametrize("option, value, message", [
        ("--workers", "0", "n_workers"), ("--workers", "-3", "n_workers"),
        ("--t-max", "inf", "finite"), ("--dt", "nan", "finite"),
        ("--moments", "", "nothing to estimate")])
    def test_bad_settings_exit_code(self, tmp_path, capsys, option, value, message):
        assert main(MC_ARGS + [option, value, "--outdir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert outputs(tmp_path) == []

    def test_estimation_failure_exit_code(self, tmp_path, capsys):
        code = main(["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05",
                     "--eps-ratio", "0.6", "--dt", "0.002", "--t-max", "2",
                     "--burn-in", "1", "--n-traj", "16",
                     "--divergence-bound", "1e-9", "--outdir", str(tmp_path)])
        assert code == 4
        assert "estimation error" in capsys.readouterr().err

    def test_discard_over_limit_exit_code(self, tmp_path, capsys):
        # 15% of the trajectories leave the divergence bound; the limit is 1%
        code = main(["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05",
                     "--eps-ratio", "0.6", "--dt", "0.002", "--t-max", "1",
                     "--burn-in", "0.5", "--n-traj", "200", "--chunk-size", "100",
                     "--seed", "4", "--divergence-bound", "2", "--outdir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith("estimation error: discard fraction 0.1500")
        assert outputs(tmp_path) == []


class TestFigureCommand:
    def test_figure2_minimum(self, tmp_path):
        assert main(["figure", "2", "--outdir", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "fig2_curve1.csv")
        ct = column(rows, columns, "chi_t")
        v = column(rows, columns, "V")
        i = int(np.argmin(v))
        assert ct[i] == pytest.approx(0.48, abs=0.01)
        assert v[i] == pytest.approx(1 / 2.1, abs=1e-4)

    def test_figure3_starts_at_vacuum(self, tmp_path):
        assert main(["figure", "3", "--outdir", str(tmp_path)]) == 0
        for i in (1, 2, 3):
            _, columns, rows = read_csv(tmp_path / f"fig3_curve{i}.csv")
            assert float(rows[0][columns.index("V")]) > 0.95

    def test_figure5_threshold_value(self, tmp_path):
        assert main(["figure", "5", "--outdir", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "fig5_curve1.csv")
        ratios = column(rows, columns, "eps_ratio")
        prods = column(rows, columns, "product")
        i = int(np.argmin(np.abs(np.array(ratios) - 1.0)))
        assert prods[i] == pytest.approx(0.2525, abs=1e-3)

    def test_figure4_emits_both_variances(self, tmp_path):
        assert main(["figure", "4", "--outdir", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "fig4_curve1.csv")
        assert {"V_plus", "V_minus"} <= set(columns)

    def test_bad_figure_number(self, capsys):
        assert main(["figure", "7"]) == 2

    def test_svg_format_refused(self, tmp_path, capsys):
        # figures are CSV only: the former svg format is an unknown option to argparse
        with pytest.raises(SystemExit) as exc:
            main(["figure", "1", "--format", "csv+svg", "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestConfigPlumbing:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chi = 0.5\ndelta = 3.0  # detuning\neps_ratio = 1\n")
        assert main(["steady", "--config", str(cfg), "--eps-ratio", "2"]) == 0
        out = capsys.readouterr().out
        assert "3.76969" in out  # flag took precedence over the file

    @pytest.mark.parametrize("command", [
        ["steady"], ["variance", "--sweep", "eps_ratio:0.5:0.6:0.1"], ["mc"]])
    def test_unknown_config_key_refused(self, tmp_path, capsys, command):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("chii = 0.5\ndelta = 3.0\n")
        assert main(command + ["--config", str(cfg), "--outdir", str(tmp_path)]) == 2
        assert "'chii'" in capsys.readouterr().err

    def test_duplicate_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("chi = 0.5\ndelta = 3\nchi = 5\n")
        assert main(["steady", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"parameter error: {cfg}:3: duplicate key 'chi'\n"

    def test_config_key_of_another_command_refused(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("chi = 0.5\ndelta = 3.0\nn_traj = 64\n")
        assert main(["steady", "--config", str(cfg)]) == 2
        assert "'n_traj'" in capsys.readouterr().err

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOPOLOCK_OUTDIR", str(tmp_path))
        assert main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:0.5:0.6:0.1",
                     "--output", "env.csv"]) == 0
        assert (tmp_path / "env.csv").exists()

    def test_negative_pump_sweep_is_a_parameter_error(self, capsys):
        # a negative pump is outside every regime's domain: a parameter error
        assert main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:-0.5:0.5:0.5", "--output", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parameter error:") and captured.out == ""

    def test_stdout_output(self, capsys):
        assert main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:0.5:0.6:0.1", "--output", "-"]) == 0
        out = capsys.readouterr().out
        assert "eps_ratio,V,R,V_plus,V_minus,product,flag" in out


#: the keys each subcommand took before the parameter table, as flags and config keys
MODEL_KEYS = {"gamma", "gamma1", "gamma2", "gamma3", "delta", "delta1", "delta2",
              "chi", "k", "E", "phi_L", "phi_k", "phi_chi",
              "lam", "eps", "eps_ratio", "eps_over_chi"}
SIM_KEYS = {"dt", "t_max", "n_traj", "burn_in", "seed", "divergence_bound",
            "sample_every", "chunk_size"}
COMMANDS = {"steady": ["steady"],
            "variance": ["variance", "--sweep", "eps_ratio:0.5:0.6:0.1"],
            "mc": ["mc"]}
#: a short, cheap ensemble for the tests that run ``mc``
MC_SHORT = ["mc", "--dt", "0.01", "--t-max", "0.1", "--burn-in", "0.05"]


def flag(key):
    return f"--{key.replace('_', '-')}"


def outputs(path):
    return sorted(p.name for p in path.glob("*.csv"))


class TestParameterTable:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_keys_and_flags(self, tmp_path, capsys, command):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(COMMANDS[command] + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        accepted = set(err.split("accepted keys: ")[1].strip().split(", "))
        assert accepted == MODEL_KEYS | (SIM_KEYS if command == "mc" else set())
        parser = make_parser()
        for key in accepted:
            ns = parser.parse_args(COMMANDS[command] + [flag(key), "1"])
            assert getattr(ns, key) is not None, key

    def test_every_field_reaches_the_mc_header(self, tmp_path):
        # non-default values, exactly representable so the header shows them as given
        values = {"gamma1": "1.25", "gamma2": "0.75", "gamma3": "120", "delta1": "3",
                  "delta2": "2.5", "chi": "0.5", "k": "0.25", "E": "4", "phi_L": "0.125",
                  "phi_k": "0.25", "phi_chi": "-0.5", "dt": "0.002", "t_max": "0.1",
                  "n_traj": "16", "burn_in": "0.05", "seed": "3", "divergence_bound": "100000",
                  "sample_every": "5", "chunk_size": "8"}
        assert set(values) == ({f.name for f in fields(SystemParams)}
                               | {f.name for f in fields(SimConfig)})
        args = [x for key, value in values.items() for x in (flag(key), value)]
        assert main(["mc", *args, "--moments", "n1", "--outdir", str(tmp_path),
                     "--output", "flags.csv"]) == 0
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert main(["mc", "--config", str(cfg), "--moments", "n1",
                     "--outdir", str(tmp_path), "--output", "file.csv"]) == 0
        text = (tmp_path / "flags.csv").read_bytes()
        assert (tmp_path / "file.csv").read_bytes() == text
        header, _, _ = read_csv(tmp_path / "flags.csv")
        recorded = dict(line[2:].split(" = ", 1) for line in header[2:])
        assert "scheme" not in recorded
        for key, value in values.items():
            assert float(recorded[key]) == float(value), key

    def test_scheme_is_not_an_option(self, tmp_path, capsys):
        # the integrator is Euler-Ito, with no switch: neither flag nor config key
        with pytest.raises(SystemExit) as exc:
            main(MC_SHORT + ["--scheme", "euler-ito", "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scheme" in capsys.readouterr().err
        cfg = tmp_path / "scheme.cfg"
        cfg.write_text("scheme = euler-ito\n")
        assert main(MC_SHORT + ["--config", str(cfg), "--outdir", str(tmp_path)]) == 2
        assert "unknown key(s) 'scheme'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key, value", [
        ("n_traj", "abc"), ("n_traj", "1.5"), ("chi", "abc")],
        ids=["n_traj_abc", "n_traj_1.5", "chi_abc"])
    def test_bad_value_same_error_from_flag_and_file(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        errors = []
        for source in ([flag(key), value], ["--config", str(cfg)]):
            assert main(MC_SHORT + source + ["--outdir", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("parameter error:") and key in errors[0]
        assert outputs(tmp_path) == []

    @pytest.mark.parametrize("args", [
        ["--chi", "nan", "--delta", "3"], ["--chi", "0.5", "--delta", "3", "--eps", "inf"],
        ["--chi", "0.5", "--delta", "3", "--lam", "nan"],
        ["--chi", "0.5", "--delta", "3", "--eps-ratio", "nan"],
        ["--chi", "0.5", "--delta", "3", "--lam", "-1"],
        ["--chi", "0.5", "--delta", "3", "--eps", "1", "--eps-ratio", "0.5"],
        ["--chi", "0.5", "--delta1", "1", "--delta2", "-1", "--eps-ratio", "0.5"]],
        ids=["chi_nan", "eps_inf", "lam_nan", "eps_ratio_nan", "lam_negative", "two_pumps",
             "eps_ratio_without_threshold"])
    def test_bad_model_parameter_exit_code(self, tmp_path, capsys, args):
        for command in ("steady", "variance"):
            assert main(COMMANDS[command] + args + ["--outdir", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("parameter error:"), command
            assert captured.out == ""
        assert outputs(tmp_path) == []

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("chi = 0.5\ndelta 3\n")
        assert main(["steady", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"parameter error: {cfg}:2: expected 'key = value'\n"

    @pytest.mark.parametrize("name", ["absent.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_file(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["variance", "--config", str(path), "--sweep", "eps_ratio:0.5:0.6:0.1",
                     "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: cannot read config file {path}")
        assert outputs(tmp_path) == []


COLD_START = """
import json, sys
sys.modules.update(dict.fromkeys(json.loads(sys.argv[2])))  # importing these raises ImportError
import nopolock
from nopolock import cli
built_at_import = cli._parser is not None
own = sorted(m for m in sys.modules if m.startswith("nopolock."))
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
params = nopolock.SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, eps=0.0, lam=1.0)
scales = nopolock.derive_scales(params)
eps = 0.5 * scales.eps_th
nopolock.temporal_corr_below(*nopolock.replace_pump(params, scales, eps), eps, 0.7)
eps = 1.5 * scales.eps_th
nopolock.moments_above(*nopolock.replace_pump(params, scales, eps), eps)
loaded = [m for m, module in sys.modules.items()
          if module and m.split(".")[0] in ("scipy", "multiprocessing")]
print(json.dumps([codes, built_at_import, sorted(loaded), own]))
"""

#: every nopolock module on the CLI's import path
CLI_IMPORTS = ["cli", "entanglement", "errors", "fluctuations", "montecarlo", "params",
               "steady"]

#: one run of each subcommand, small enough for a unit test
RUNS = [["figure", "3"],
        ["variance", "--chi", "0.5", "--delta", "3", "--sweep", "eps_ratio:0.5:2:0.5"],
        ["steady", "--chi", "0.5", "--delta", "3", "--eps-ratio", "2"],
        ["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05", "--eps-ratio", "0.6",
         "--t-max", "0.1", "--burn-in", "0.05", "--n-traj", "4", "--workers", "1"]]


def test_cli_runs_load_neither_scipy_nor_multiprocessing(tmp_path):
    # a fresh interpreter: what these runs import is what a user's start pays for.
    # With scipy blocked they, the lagged correlator and the locked moments still run:
    # numpy is the only runtime dependency
    src = str(Path(nopolock.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for blocked in ([], ["scipy"]):
        done = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(RUNS),
                               json.dumps(blocked)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        codes, built_at_import, loaded, own = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0]
        assert not built_at_import
        assert loaded == []
        # the modules ``import nopolock.cli`` pays for, no more
        assert own == [f"nopolock.{m}" for m in CLI_IMPORTS]


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    def run(call, argv, outdir):
        """(stdout, {file name: bytes}) of one run writing into ``outdir``."""
        outdir.mkdir()
        assert call(argv + ([] if argv[0] == "steady" else ["--outdir", str(outdir)])) == 0
        return (capsys.readouterr().out.replace(str(outdir), "OUT"),
                {path.name: path.read_bytes() for path in outdir.iterdir()})

    def fresh_parser(argv):
        ns = make_parser().parse_args(argv)
        return ns.func(ns)

    built = []

    def counting_make_parser():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "make_parser", counting_make_parser)
    for i, argv in enumerate(RUNS):
        expected = run(fresh_parser, argv, tmp_path / f"fresh{i}")
        assert expected[0] and (argv[0] == "steady" or expected[1]), argv
        for repeat in ("a", "b"):
            assert run(main, argv, tmp_path / f"main{i}{repeat}") == expected, argv
    assert len(built) == 1


@pytest.mark.parametrize("argv", RUNS[1:], ids=lambda argv: argv[0])
def test_pump_resolved_once_per_command(tmp_path, capsys, monkeypatch, argv):
    # bench/tracing.py times these two through the cli globals
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("derive_scales", "replace_pump"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert sorted(calls) == ["derive_scales", "replace_pump"]


def readme_commands():
    """The ``nopolock`` command lines of the README's ``## Command line`` block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_commands_run(tmp_path, capsys):
    # every line parses; all but mc run (its 2000 trajectories of 30000 steps are
    # 60 M trajectory-steps, too many for a unit test)
    commands = readme_commands()
    assert {argv[1] for argv in commands} == {"steady", "variance", "mc", "figure"}
    for i, (program, *argv) in enumerate(commands):
        assert program == "nopolock", argv
        make_parser().parse_args(argv)
        if argv[0] != "mc":
            assert main(argv + ["--outdir", str(tmp_path / str(i))]) == 0, argv
    assert capsys.readouterr().err == ""
