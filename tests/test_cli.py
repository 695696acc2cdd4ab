"""Tests for the command-line interface: formats, determinism, exit codes."""

import math

import numpy as np
import pytest

from tensorlandscape import ModelParams, project_max_over_x, s_star
from tensorlandscape.cli import main


def run(argv):
    return main([str(a) for a in argv])


def read_lines(path):
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n")
    return text.splitlines()


def roundtrips(token):
    return "%.17g" % float(token) == token


class TestGrid:
    def test_header_order_and_values(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(["grid", "--k", 3, "--lambda", 0, "--out", out,
                    "--m-min", -0.5, "--m-max", 0.5, "--m-steps", 4,
                    "--x-min", -3, "--x-max", 3, "--x-steps", 6])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "m,x,s_star,s_zero"
        assert len(lines) == 1 + 4 * 6
        rows = [line.split(",") for line in lines[1:]]
        m_col = np.array([float(r[0]) for r in rows])
        x_col = np.array([float(r[1]) for r in rows])
        # m-major: m constant on blocks of x_steps, x ascending within
        assert np.all(np.diff(m_col) >= 0)
        for block in range(4):
            sl = slice(block * 6, (block + 1) * 6)
            assert np.all(np.diff(x_col[sl]) > 0)
            assert np.ptp(m_col[sl]) == 0
        # grid centers, not edges: cell width 0.25, first center at -0.375
        assert m_col[0] == pytest.approx(-0.375)
        # minus infinity is spelled exactly '-inf' (lam=0 below the cutoff)
        zero_tokens = [r[3] for r in rows]
        assert "-inf" in zero_tokens
        # every finite token round-trips at 17 significant digits
        for r in rows:
            for tok in r:
                assert roundtrips(tok)
        # spot value agrees with the library
        params = ModelParams(3, 0.0)
        i = 7
        expect = float(s_star(params, m_col[i], x_col[i]))
        assert float(rows[i][2]) == expect

    def test_rejects_zero_steps(self, tmp_path):
        code = run(["grid", "--m-steps", 0, "--out", tmp_path / "g.csv"])
        assert code == 2


class TestProjection:
    def test_matches_library_projection(self, tmp_path):
        out = tmp_path / "proj.csv"
        code = run(["projection", "--k", 3, "--lambda", 1.5, "--axis", "m",
                    "--points", 9, "--lo", -0.6, "--hi", 0.6, "--out", out])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "m,s_star_of_m,s_zero_of_m"
        assert len(lines) == 10
        params = ModelParams(3, 1.5)
        for line in lines[1:4]:
            m_tok, star_tok, zero_tok = line.split(",")
            m = float(m_tok)
            assert float(star_tok) == project_max_over_x(params, m, "star").value
            assert float(zero_tok) == project_max_over_x(params, m, "zero").value

    def test_x_axis_header(self, tmp_path):
        out = tmp_path / "projx.csv"
        code = run(["projection", "--axis", "x", "--points", 5,
                    "--lambda", 1.0, "--out", out])
        assert code == 0
        assert read_lines(out)[0] == "x,s_star_of_x,s_zero_of_x"

    def test_rejects_bad_range(self, tmp_path):
        code = run(["projection", "--lo", 1.0, "--hi", -1.0,
                    "--out", tmp_path / "p.csv"])
        assert code == 2


class TestThresholds:
    def test_stdout_report_below_critical(self, capsys):
        # lam below critical: no crossover tangency, no good maximum, and
        # the report falls back to stdout without --out
        code = run(["thresholds", "--k", 3, "--lambda", 0.5])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["lambda_critical"]) == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-12
        )
        assert table["good_location_zero"] == "absent"
        assert table["zero_band_m_star"] == "absent"
        assert 0.0 < float(table["m_critical"]) < 1.0
        assert float(table["zero_band_m1"]) < 0 < float(table["zero_band_m2"])

    def test_pure_noise_omits_crossover(self, capsys):
        code = run(["thresholds", "--k", 3, "--lambda", 0])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        table = dict(line.split(",", 1) for line in lines[1:])
        assert table["m_critical"] == "absent"
        assert table["good_location_zero"] == "absent"
        # pure-noise bands are symmetric
        assert float(table["star_band_m1"]) == pytest.approx(
            -float(table["star_band_m2"]), abs=1e-9
        )

    def test_strong_snr_reports_good_maximum(self, tmp_path):
        out = tmp_path / "thr.csv"
        code = run(["thresholds", "--k", 3, "--lambda", 3, "--out", out])
        assert code == 0
        table = dict(line.split(",", 1) for line in read_lines(out)[1:])
        good = float(table["good_location_zero"])
        assert good == pytest.approx(0.9905176547, abs=1e-9)
        assert float(table["zero_band_m_star"]) == pytest.approx(good, abs=1e-4)


class TestOracle:
    ARGS = ["oracle", "--k", 3, "--lambda", 0, "--n-list", "3,4,5",
            "--samples", 40, "--m-steps", 10, "--x-steps", 10, "--seed", 3]

    def test_format_and_growth_line(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run(self.ARGS + ["--out", out])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "n,log_expected_count,std_error"
        assert len(lines) == 5
        for line, n in zip(lines[1:4], (3, 4, 5)):
            toks = line.split(",")
            assert toks[0] == str(n)
            assert roundtrips(toks[1]) and roundtrips(toks[2])
        assert lines[4].startswith("# growth_rate,")
        assert capsys.readouterr().out.startswith("growth rate: ")

    def test_byte_determinism_across_threads_and_reruns(self, tmp_path):
        outs = []
        for name, threads in (("a", 1), ("b", 3), ("c", 1)):
            out = tmp_path / f"{name}.csv"
            assert run(self.ARGS + ["--threads", threads, "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_rejects_short_or_unsorted_n_list(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["oracle", "--n-list", "10,20", "--out", out]) == 2
        assert run(["oracle", "--n-list", "20,10,30", "--out", out]) == 2
        assert run(["oracle", "--n-list", "a,b,c", "--out", out]) == 2


class TestSimulate:
    def test_noiseless_power_recovers_spike(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--method", "power", "--noiseless",
                    "--lambda", 2, "--n", 12, "--seeds", 3, "--out", out])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "seed,n,k,lambda,method,m_final,f_final,grad_norm,index,iters"
        assert len(lines) == 4
        for seed, line in zip((0, 1, 2), lines[1:]):
            toks = line.split(",")
            assert toks[0] == str(seed)
            assert toks[1] == "12" and toks[2] == "3"
            assert toks[4] == "power"
            assert abs(abs(float(toks[5])) - 1.0) < 1e-8  # m_final
            assert float(toks[6]) == pytest.approx(2.0, abs=1e-8)
            assert int(toks[8]) == 0  # local maximum
            assert int(toks[9]) >= 1

    def test_ascent_rows(self, tmp_path):
        out = tmp_path / "asc.csv"
        code = run(["simulate", "--method", "ascent", "--lambda", 1.0,
                    "--n", 8, "--seeds", 2, "--out", out])
        assert code == 0
        lines = read_lines(out)
        assert len(lines) == 3
        for line in lines[1:]:
            toks = line.split(",")
            assert toks[4] == "ascent"
            assert float(toks[7]) < 1e-6  # converged gradient

    def test_newton_inventory_and_histogram(self, tmp_path):
        out = tmp_path / "newton.csv"
        hist = tmp_path / "hist.csv"
        code = run(["simulate", "--method", "newton", "--lambda", 1.5,
                    "--n", 4, "--n-starts", 150, "--seeds", 1,
                    "--hist-bins", 5, "--hist-out", hist, "--out", out])
        assert code == 0
        lines = read_lines(out)
        assert len(lines) > 5
        for line in lines[1:]:
            toks = line.split(",")
            assert toks[4] == "newton"
            assert float(toks[7]) < 1e-10
            assert 0 <= int(toks[8]) <= 3
        hlines = read_lines(hist)
        assert hlines[0] == "m_left,m_right,f_left,f_right,count"
        assert len(hlines) == 1 + 5 * 5
        assert sum(int(line.split(",")[4]) for line in hlines[1:]) >= 2

    def test_histogram_requires_newton(self, tmp_path):
        out = tmp_path / "s.csv"
        hist = tmp_path / "h.csv"
        code = run(["simulate", "--method", "power", "--hist-out", hist,
                    "--out", out])
        assert code == 2
        assert not out.exists() and not hist.exists()

    def test_histogram_bins_checked_before_search(self, tmp_path):
        out = tmp_path / "s.csv"
        hist = tmp_path / "h.csv"
        code = run(["simulate", "--method", "newton", "--n", 4, "--n-starts", 10,
                    "--hist-bins", 0, "--hist-out", hist, "--out", out])
        assert code == 2
        assert not out.exists() and not hist.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--method", "power", "--lambda", 1.2, "--n", 9,
                "--seeds", 2]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_validation_errors(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["grid", "--k", 2, "--out", out]) == 2
        assert run(["simulate", "--seeds", 0, "--out", out]) == 2
        assert run(["grid"]) == 2  # --out missing

    def test_thread_count_below_one(self, tmp_path):
        # rejected before the command runs, so no thread is ever started
        out = tmp_path / "x.csv"
        for command in ("grid", "projection", "thresholds", "oracle", "simulate"):
            for threads in (0, -4):
                assert run([command, "--threads", threads, "--out", out]) == 2
        assert run(["thresholds", "--threads", 0]) == 2
        assert not out.exists()

    def test_io_errors(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run(["thresholds", "--out", missing_dir]) == 3
        assert run(["thresholds", "--config", tmp_path / "nope.cfg"]) == 3


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# threshold defaults\n"
            "lambda = 3.0\n"
            "k = 3\n",
            encoding="ascii",
        )
        assert run(["thresholds", "--config", cfg]) == 0
        table = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
        )
        assert table["good_location_zero"] != "absent"  # lam 3 from file
        # explicit flag overrides the file value
        assert run(["thresholds", "--config", cfg, "--lambda", 0.5]) == 0
        table = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
        )
        assert table["good_location_zero"] == "absent"

    def test_dash_and_underscore_keys_are_interchangeable(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("m-steps = 3\nx_steps = 4\n", encoding="ascii")
        out = tmp_path / "g.csv"
        assert run(["grid", "--config", cfg, "--out", out]) == 0
        assert len(read_lines(out)) == 1 + 3 * 4

    def test_boolean_and_choice_values(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("noiseless = true\nmethod = power\nlambda = 2\nn = 10\n",
                       encoding="ascii")
        out = tmp_path / "s.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        toks = read_lines(out)[1].split(",")
        assert abs(abs(float(toks[5])) - 1.0) < 1e-8  # noiseless power run

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples = 10\n", encoding="ascii")  # oracle-only key
        assert run(["grid", "--config", cfg, "--out", tmp_path / "g.csv"]) == 2

    def test_bad_choice_is_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method = downhill\n", encoding="ascii")
        assert run(["simulate", "--config", cfg,
                    "--out", tmp_path / "s.csv"]) == 2
