import math
import os

import numpy as np
import pytest

from nopolock.cli import main


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


class TestVarianceCommand:
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
        assert main(["variance", "--regime", "unitary", "--chi", "1",
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
                     "--regime", "above", "--sweep", "eps_ratio:1.001:6:0.05",
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

    def test_regime_mismatch_exit_code(self, tmp_path, capsys):
        code = main(["variance", "--chi", "0.5", "--delta", "3",
                     "--regime", "below", "--sweep", "eps_ratio:1.2:1.4:0.1",
                     "--outdir", str(tmp_path)])
        assert code == 3
        assert "regime error" in capsys.readouterr().err

    def test_bad_sweep_exit_code(self, tmp_path, capsys):
        code = main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:2:1:0.1", "--outdir", str(tmp_path)])
        assert code == 2
        assert "parameter error" in capsys.readouterr().err

    def test_unitary_sweep_needs_mixing(self, tmp_path, capsys):
        # time is measured as chi*t, so the default chi = 0 has no time axis
        code = main(["variance", "--regime", "unitary", "--eps", "0.5",
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

    @pytest.mark.parametrize("option, value, message", [
        ("--workers", "0", "n_workers"), ("--workers", "-3", "n_workers"),
        ("--t-max", "inf", "finite"), ("--dt", "nan", "finite")])
    def test_bad_settings_exit_code(self, tmp_path, capsys, option, value, message):
        assert main(MC_ARGS + [option, value, "--outdir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_estimation_failure_exit_code(self, tmp_path, capsys):
        code = main(["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05",
                     "--eps-ratio", "0.6", "--dt", "0.002", "--t-max", "2",
                     "--burn-in", "1", "--n-traj", "16",
                     "--divergence-bound", "1e-9", "--outdir", str(tmp_path)])
        assert code == 4
        assert "estimation error" in capsys.readouterr().err


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

    def test_svg_output(self, tmp_path):
        pytest.importorskip("matplotlib")
        assert main(["figure", "1", "--format", "csv+svg",
                     "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.svg").exists()


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

    def test_stdout_output(self, capsys):
        assert main(["variance", "--chi", "0.5", "--delta", "3",
                     "--sweep", "eps_ratio:0.5:0.6:0.1", "--output", "-"]) == 0
        out = capsys.readouterr().out
        assert "eps_ratio,V,R,V_plus,V_minus,product,flag" in out
