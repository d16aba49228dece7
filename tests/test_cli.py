import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import pytest

from conewave import cli, model
from conewave import radialode as ro
from conewave.errors import (NotConvergedWarning, StepFailure,
                             TruncationWarning)


class TestConfig:
    def test_defaults_valid(self):
        cfg = cli.load_config()
        assert cfg.d == 4 and cfg.N == 96

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("d = 5\ntau_max = 8.0  # horizon\n")
        cfg = cli.load_config(p, {"seed": 7, "N": None})
        assert cfg.d == 5
        assert cfg.tau_max == 8.0
        assert cfg.seed == 7

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dtau_wrong = 0.1\n")
        with pytest.raises(ValueError):
            cli.load_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some text\n")
        with pytest.raises(ValueError):
            cli.load_config(p)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cli.load_config(None, {"N": 4})
        with pytest.raises(ValueError):
            cli.load_config(None, {"delta": 0.9})


class TestExitCodes:
    def test_malformed_config_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("no equals sign\n")
        code = cli.main(["evolve", "--config", str(p)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--nonsense"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_bad_range_exit(self, capsys):
        code = cli.main(["evolve", "--N", "4", "--out", "/tmp/x"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_exit(self, tmp_path, capsys, amplitude):
        # a NaN or infinite bump is a configuration error, not a failed fit
        code = cli.main(["fit-blowup", "--amplitude", amplitude,
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "amplitude must be finite" in capsys.readouterr().err

    def test_omega_off_the_domega_grid_exit(self, tmp_path, capsys):
        # rejected with the config, before the command makes its out dir
        p = tmp_path / "run.cfg"
        p.write_text("omega = 100\ndomega = 0.3\n")
        out = tmp_path / "out"
        code = cli.main(["laplace-compare", "--config", str(p),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "omega must be a multiple of domega" in capsys.readouterr().err
        assert not out.exists()

    def test_no_jobs_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--jobs", "2"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_no_jobs_key(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("jobs = 2\n")
        code = cli.main(["spectrum", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "unknown config key 'jobs'" in capsys.readouterr().err


def _raising(exc):
    def command(cfg, out_dir):
        raise exc
    return command


@pytest.mark.parametrize("command, code, error", [
    (lambda cfg, out_dir: cli.EXIT_OK, cli.EXIT_OK, None),
    (_raising(ValueError("pairs not admissible")), cli.EXIT_CONFIG,
     "pairs not admissible"),
    (_raising(StepFailure("step size underflow")), cli.EXIT_NUMERIC,
     "step size underflow"),
], ids=["exit-0", "exit-64", "exit-65"])
def test_manifest_on_every_exit(tmp_path, monkeypatch, command, code, error):
    monkeypatch.setattr(cli, "cmd_green_check", command)
    assert cli.main(["green-check", "--out", str(tmp_path)]) == code
    manifest = json.loads((tmp_path / "green_check_manifest.json").read_text())
    assert manifest["exit_code"] == code
    assert manifest.get("error") == error
    assert "config_sha256" in manifest
    assert {"scipy", "python"} <= set(manifest["versions"])


@pytest.mark.parametrize("fail", [False, True], ids=["exit-0", "exit-65"])
def test_manifest_records_warnings(tmp_path, monkeypatch, capsys, fail):
    def command(cfg, out_dir):
        warnings.warn("tail carries 3%", TruncationWarning)
        warnings.warn("tail carries 3%", TruncationWarning)  # another site
        warnings.warn("horizon too small", NotConvergedWarning)
        if fail:
            raise StepFailure("step size underflow")
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_green_check", command)
    code = cli.main(["green-check", "--out", str(tmp_path)])
    assert code == (cli.EXIT_NUMERIC if fail else cli.EXIT_OK)
    manifest = json.loads((tmp_path / "green_check_manifest.json").read_text())
    assert manifest["warnings"] == [
        {"category": "TruncationWarning", "message": "tail carries 3%"},
        {"category": "NotConvergedWarning", "message": "horizon too small"},
    ]
    err = capsys.readouterr().err
    assert err.count("TruncationWarning: tail carries 3%") == 1
    assert err.count("NotConvergedWarning: horizon too small") == 1


def test_run_all_commands_parse():
    """scripts/run_all.py only passes flags the CLI accepts."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", path)
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    parser = cli._build_parser()
    for cmd in run_all.COMMANDS:
        assert parser.parse_args(cmd + ["--out", "out"]).command == cmd[0]


def test_amplitude_sweep_columns(tmp_path, monkeypatch):
    """scripts/amplitude_sweep.py writes the error bars and both ratios."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "amplitude_sweep.py"
    spec = importlib.util.spec_from_file_location("amplitude_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sweep, "AMPLITUDES", [0.05, 0.025])
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["amplitude_sweep.py", str(out)])
    assert sweep.main() == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("amplitude,T_star,T_star_err,shift,S_phys,S_phys_err,"
                        "shift_per_amp,S_per_amp_sq")
    assert len(lines) == 3


class TestCommands:
    def test_spectrum_summary_records_trace(self, tmp_path):
        # the window block names the scan's boundary-trace settings
        p = tmp_path / "run.cfg"
        p.write_text("omega_scan = 6.0\n")
        code = cli.main(["spectrum", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(
            (tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["agree"]
        assert summary["window"]["trace_rtol"] == ro.TRACE_RTOL
        assert summary["window"]["edge_density"] == ro.EDGE_DENSITY

    def test_evolve_deterministic(self, tmp_path):
        args = ["evolve", "--N", "32", "--tau-max", "1.0", "--seed", "5"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b
        assert b"\r" not in csv_a   # "\n" line endings, like every other CSV
        side = json.loads((tmp_path / "a" / "trajectory_norms.json").read_text())
        assert side["mode"] == "linear-perturbed"
        manifest = json.loads(
            (tmp_path / "a" / "evolve_manifest.json").read_text())
        assert manifest["config"]["N"] == 32
        assert "config_sha256" in manifest

    def test_green_check_passes(self, tmp_path):
        code = cli.main(["green-check", "--N", "48", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "green_check.csv").read_text().splitlines()
        assert body[0] == "lambda,ode_residual,round_trip_error"
        assert len(body) == 4

    def test_fit_blowup_reports_bracket_and_evolutions(self, tmp_path):
        cli.main(["fit-blowup", "--N", "32", "--tau-max", "4.0",
                  "--out", str(tmp_path)])
        report = json.loads((tmp_path / "fit_blowup_report.json").read_text())
        # the bracket is the secant's last pair, ending at T*
        assert report["T_star"] == report["bracket"][1]
        assert 6 <= report["n_evolutions"] <= 12  # five grid runs and the fit
        assert 0.0 <= report["T_star_err"] <= 1e-10
        assert report["S_phys_err"] >= 0.0
        assert report["n_evolutions_err"] >= 4

    def test_fit_blowup_secant_failure_exits_65(self, tmp_path, never_linear):
        code = cli.main(["fit-blowup", "--N", "32", "--tau-max", "4.0",
                         "--amplitude", "0", "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        manifest = json.loads(
            (tmp_path / "fit_blowup_manifest.json").read_text())
        assert "for the pair T=" in manifest["error"]

    def test_fit_blowup_keeps_fit_when_error_bar_fails(self, tmp_path):
        # tau_max = 401 dtau has no 2 dtau re-fit, so the error bar raises
        # after the fit has finished
        code = cli.main(["fit-blowup", "--N", "32", "--tau-max", "4.01",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        report = json.loads((tmp_path / "fit_blowup_report.json").read_text())
        assert "T_star" in report and "T_star_err" not in report
        manifest = json.loads(
            (tmp_path / "fit_blowup_manifest.json").read_text())
        assert "multiple of 2 dtau" in manifest["error"]

    def test_strichartz_records_not_converged(self, tmp_path):
        # a short horizon leaves the L^p integrals' tails too heavy
        cli.main(["strichartz", "--N", "32", "--tau-max", "0.5",
                  "--out", str(tmp_path)])
        manifest = json.loads(
            (tmp_path / "strichartz_manifest.json").read_text())
        caught = [w for w in manifest["warnings"]
                  if w["category"] == "NotConvergedWarning"]
        # one warning per run, naming the worst tail share and its pair
        assert len(caught) == 1
        assert "L^2.0 L^8.0" in caught[0]["message"]

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_strichartz_pairs_follow_d(self, tmp_path, d):
        # the pairs are the ends of the admissible line of d
        code = cli.main(["strichartz", "--d", str(d), "--N", "32",
                         "--out", str(tmp_path)])
        assert code == 0
        q_lo, q_hi = model.q_bounds(d)
        rows = (tmp_path / "strichartz.csv").read_text().splitlines()[1:]
        pq = {tuple(float(x) for x in row.split(",")[1:3]) for row in rows}
        assert pq == {(2.0, q_hi), (math.inf, q_lo)}

    def test_strichartz_zero_spread_guard(self, tmp_path):
        code = cli.main(["strichartz", "--N", "48", "--tau-max", "16.0",
                         "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(
            (tmp_path / "strichartz_summary.json").read_text())
        assert summary["ok"]
